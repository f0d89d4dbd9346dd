"""One fresh process: set up a workload, run its operations once, check them.

Run by ``run.py``; writes one JSON result file.  Timings:

* ``setup_s`` runs from just before numpy and the package are imported
  until the catalog entries are built and the seeded inputs are written.
* each operation is timed around its ``cli.main(argv)`` call.

The machine these runs share changes speed by up to a factor of two within
seconds, so every time is reported scaled to a fixed machine speed: a fixed
pure-Python probe runs before set-up, after set-up, after every operation
and, while operations run, every ``SpeedClock.INTERVAL_S`` seconds from a
timer signal.  An operation's raw time (probe time excluded) is multiplied
by ``REFERENCE_PROBE_S`` over the median probe time around and inside it;
set-up is scaled alike by the probes just before and just after it.  Raw
times and the probes are reported alongside.
"""

import bisect
import signal
import statistics
import time


_PROBE_KEYS = [(i, i & 7) for i in range(20000)]
_PROBE_TABLE = dict.fromkeys(_PROBE_KEYS, 0.5)


def _probe_once() -> float:
    """Fixed interpreter work: tuple hashing and dict lookups.  It allocates
    no object the garbage collector tracks, so it neither triggers nor
    shifts the program's collections."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(2):
        for key in _PROBE_KEYS:
            acc += _PROBE_TABLE[key]
    return time.perf_counter() - start


# Probe time (s) that stands for the reference machine speed; scaled times
# are in seconds of a machine on which one probe takes this long.
REFERENCE_PROBE_S = 0.003


class SpeedClock:
    """Machine-speed probes along the timeline of one process."""

    INTERVAL_S = 0.25

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # start, end, probe time
        self._busy = False

    def probe(self, repeats: int = 5) -> None:
        self._busy = True
        start = time.perf_counter()
        value = sorted(_probe_once() for _ in range(repeats))[repeats // 2]
        self.marks.append((start, time.perf_counter(), value))
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self.probe(repeats=1)

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def times(self, a: float, b: float) -> tuple[float, float]:
        """(raw, scaled) work time in [a, b]: probe time inside is not
        counted, and the rest is scaled by the median of the probes from the
        last one before ``a`` to the first one after ``b``."""
        starts = [m[0] for m in self.marks]
        lo = bisect.bisect_left(starts, a) - 1
        hi = bisect.bisect_left(starts, b)
        raw = (b - a) - sum(end - start for start, end, _ in self.marks[lo + 1:hi])
        probe = statistics.median(m[2] for m in self.marks[lo:hi + 1])
        return raw, raw * REFERENCE_PROBE_S / probe


CLOCK = SpeedClock()
CLOCK.probe()
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401

import periodic_spectra  # noqa: E402
from periodic_spectra import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

def package_modules() -> dict:
    return {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == tracing.PACKAGE or name.startswith(tracing.PACKAGE + ".")
    }


def run_cli(argv: list[str]):
    """Exit code of one CLI call (argparse errors exit through SystemExit)."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an escaped exception is a failed operation, not a crash
        traceback.print_exc()
        return "exception"


def output_bytes(out: Path, op) -> int:
    return sum(p.stat().st_size for p in out.glob(checks.stem(op) + ".*"))


def layer_metrics(rec: tracing.Recorder, selfs: dict, written: int) -> dict:
    """Per-layer metrics of one traced pass from its scaled self times."""
    c = rec.counts
    s = lambda *names: sum(selfs.get(n, 0.0) for n in names)
    searched = c["perturbation.centres_searched"]
    return {
        "cli.self_s": s("cli.main"),
        "cli.bytes_written": written,
        "floquet.band_grid_s": s("floquet.band_grid"),
        "floquet.band_grid_points": c["floquet.band_grid_points"],
        "floquet.essential_spectrum_s": s("floquet.essential_spectrum"),
        "floquet.locate_band_value_s": s("floquet.locate_band_value"),
        "floquet.fiber_assemblies": c["floquet.fiber_assemblies"],
        "graphs.apply_laplacian_s": s("graphs.apply_laplacian"),
        "graphs.apply_laplacian_vertices": c["graphs.apply_laplacian_vertices"],
        "graphs.weighted_norm_s": s("graphs.weighted_norm"),
        "graphs.oracle_queries": c["graphs.oracle_queries"],
        "perturbation.find_unperturbed_box_s": s("perturbation.find_unperturbed_box"),
        "perturbation.centres_searched": searched,
        "perturbation.box_hit_ratio": c["perturbation.box_hits"] / searched if searched else 0.0,
        "perturbation.membership_s": s("perturbation.membership"),
        "perturbation.membership_queries": c["perturbation.membership_queries"],
        "perturbation.membership_cache_entries": rec.maxima.get(
            "perturbation.membership_cache_entries", 0),
        "perturbation.apply_defect_s": s("perturbation.apply_defect"),
        "perturbation.embed_state_s": s("perturbation.embed_state"),
        "perturbation.embedding_norm_bounds_s": s("perturbation.embedding_norm_bounds"),
        "weyl.build_weyl_state_s": s("weyl.build_weyl_state"),
        "weyl.state_vertices": c["weyl.state_vertices"],
        "weyl.residual_s": s("weyl.residual"),
        "weyl.route_residual_s": s("weyl.embedded_route_residual"),
        "weyl.residual_bound_s": s("weyl.residual_bound"),
        "weyl.residual_over_bound_max": rec.maxima.get("weyl.residual_over_bound_max", 0.0),
        "truncation.truncate_s": s("truncation.truncate"),
        "truncation.box_vertices": c["truncation.box_vertices"],
        "truncation.spectrum_of_box_s": s("truncation.spectrum_of_box"),
        "truncation.dense_solves": c["truncation.dense_solves"],
        "truncation.compare_spectra_s": s("truncation.compare_spectra"),
        "catalog.clear_box_monte_carlo_s": s("catalog.clear_box_monte_carlo"),
        "randomfield.scalar_draws": c["randomfield.scalar_draws"],
        "randomfield.array_draws": c["randomfield.array_draws"],
        "catalog.get_entry_s": s("catalog.get_entry"),
        "io.load_s": s("io.load_graph_file", "io.load_perturbation_file",
                       "io.perturbation_from_spec"),
        "io.bytes_read": c["io.bytes_read"],
    }


def run_pass(work: workloads.Workload, out: Path, traced: bool) -> dict:
    rec = tracing.Recorder() if traced else None
    inst = tracing.Instrumentation(rec, package_modules()) if traced else None
    before = tracing.snapshot(package_modules()) if traced else None
    codes, spans, roots = [], [], []
    main_id = rec.name_id("cli.main") if traced else None
    CLOCK.probe()
    if inst is not None:
        inst.install()
    CLOCK.start_timer()
    try:
        for op in work.ops:
            if rec is not None:
                roots.append(rec.begin(main_id))
            start = time.perf_counter()
            codes.append(run_cli(op.argv))
            spans.append((start, time.perf_counter()))
            if rec is not None:
                rec.end()
                inst.end_operation()
            CLOCK.probe()
    finally:
        CLOCK.stop_timer()
        if inst is not None:
            inst.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = [CLOCK.times(a, b) for a, b in spans]
    result = {"codes": codes, "times": times, "intervals": spans,
              "peak_rss_mib": peak_kib / 1024.0}
    if traced:
        # spans include in-operation probes; scale each operation's spans by
        # its scaled time over its whole duration
        factors = {root: scaled / (b - a)
                   for root, (a, b), (_, scaled) in zip(roots, spans, times)}
        selfs = rec.self_times(factors)
        written = sum(output_bytes(out, op) for op in work.ops)
        result["restored"] = tracing.same_snapshot(before, tracing.snapshot(package_modules()))
        result["layers"] = layer_metrics(rec, selfs, written)
        result["span_self_s"] = selfs
        Path("spans.json").write_text(json.dumps(rec.to_json()))
    return result


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "package": periodic_spectra.__file__,
        "reference_probe_s": REFERENCE_PROBE_S,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True,
                        help="run untraced, run traced, or stop after set-up")
    parser.add_argument("--work", required=True, help="empty directory for this process")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    work_dir = Path(args.work)
    work_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(work_dir)
    work = workloads.build(args.workload, args.seed, args.nproc)
    for name, text in work.files.items():
        Path(name).write_text(text)
    ctx = checks.Context(work)  # builds the workload's catalog entries
    setup_end = time.perf_counter()
    CLOCK.probe()
    setup_raw, setup_scaled = CLOCK.times(T_START, setup_end)
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(
            {"setup_raw_s": setup_raw, "setup_s": setup_scaled, "probes": CLOCK.marks}))
        return 0
    traced = args.mode == "traced"

    passed = run_pass(work, Path("out"), traced)

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        path = checks.reference_path(args.workload)
        reference = json.loads(path.read_text()) if path.exists() else {}
    ops, scanned = [], 0
    for i, op in enumerate(work.ops):
        problems, summary, cells = checks.check_op(op, passed["codes"][i], Path("out"), ctx)
        if reference is not None:
            if op.name not in reference:
                problems.append("reference: none stored for the default seed")
            else:
                problems += [f"reference: {d}"
                             for d in checks.differences(summary, reference[op.name])[:5]]
        scanned += cells
        ops.append({
            "name": op.name, "argv": op.argv, "code": passed["codes"][i],
            "raw_s": passed["times"][i][0], "s": passed["times"][i][1],
            "problems": problems, "summary": summary,
        })
    if traced and not passed["restored"]:
        ops[-1]["problems"].append("module attributes differ from the originals after tracing")
    shutil.rmtree("out", ignore_errors=True)

    result = {
        "workload": args.workload, "seed": args.seed, "traced": traced,
        "setup_raw_s": setup_raw,
        "setup_s": setup_scaled,
        "wall_raw_s": sum(op["raw_s"] for op in ops),
        "wall_s": sum(op["s"] for op in ops),
        "probes": CLOCK.marks,
        "op_intervals": passed["intervals"],
        "peak_rss_mib": passed["peak_rss_mib"],
        "scanned_cells": scanned,
        "ops": ops,
        "env": environment(),
    }
    for key in ("layers", "span_self_s"):
        if key in passed:
            result[key] = passed[key]
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
