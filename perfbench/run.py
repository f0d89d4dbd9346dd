"""Benchmark of the periodic-spectra command line.

    python3 perfbench/run.py --workload certify_large --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and nowhere else; without it the benchmark exits with code 2
and prints no result.

A run starts fresh worker processes one after another (``worker.py``) while
one more worker of typical (median) duration still fits in ``--seconds``.  Each worker imports the package, builds the
workload's catalog entries and seeded inputs, runs the workload's fixed list
of CLI operations once as a closed loop with a single client (the next
``cli.main(argv)`` call starts only after the previous one returns), and
checks every output.  ``--threads`` is passed explicitly to every command:
1, except ``random-trial``, whose Monte Carlo pool gets one thread per
available CPU.  BLAS runs single-threaded and ``PERIODIC_SPECTRA_THREADS`` is
removed from the workers' environment.

With ``--trace 0`` the last line reports, as medians over the workers:

* ``wall_s``: time of the workload's operations (the sum over operations
  of each one's median), scaled to a fixed machine speed (see
  ``worker.py``; raw times are in the result file);
* ``setup_s``: import, catalog entries and input generation, scaled alike,
  over the workers and ``SETUP_PASSES`` more processes that only set up;
* ``peak_rss_mib``: peak resident memory of the worker process;
* ``scanned_cells_per_s``: lattice cells the operations classify
  (``lambda-set`` windows, ``truncate`` boxes) plus box centres they examine
  (``condition-p``, ``weyl-check``), divided by ``wall_s``.

``op_fail_ratio`` is printed by name above the last line; the last line
carries it as ``failed`` over ``attempted``.  An operation fails when its
exit code is not the expected one or any output check fails.

With ``--trace 1`` workers alternate between untraced and traced passes and
the last line reports the per-layer metrics of the traced passes (medians)
plus ``trace.overhead_s``, traced minus untraced ``wall_s``.  Spans and the
full result, with an environment record, are written under
``.perfbench_work/`` in the checkout.

Metric names and units are those that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # the run must end within 180 s
SETUP_PASSES = 5  # set-up is short, so it is sampled more often than the operations

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PERIODIC_SPECTRA_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload, seed, cpus, mode, run_dir: Path, name: str, timeout: float) -> dict:
    work = run_dir / name
    result = work / "result.json"
    work.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--nproc", str(cpus), "--mode", mode, "--work", str(work),
            "--result", str(result)]
    began = time.monotonic()
    with open(work / "log.txt", "w") as log:
        proc = subprocess.run(argv, env=worker_env(), stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0 or not result.is_file():
        tail = (work / "log.txt").read_text()[-2000:]
        raise RuntimeError(f"{name} exited with {proc.returncode}:\n{tail}")
    return dict(json.loads(result.read_text()), elapsed_s=time.monotonic() - began)


def summarize(args, units: dict, setups: list[float], plain: list[dict],
              traced: list[dict]) -> dict:
    everyone = plain + traced
    attempted = sum(len(r["ops"]) for r in everyone)
    failed = sum(1 for r in everyone for op in r["ops"] if op["problems"])
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: median([r["layers"][n] for r in traced]) for n in names}
        metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                       - median([r["wall_s"] for r in plain]))
    else:
        wall = sum(median([r["ops"][i]["s"] for r in plain]) for i in range(len(plain[0]["ops"])))
        metrics = {
            "wall_s": wall,
            "setup_s": median(setups + [r["setup_s"] for r in everyone]),
            "peak_rss_mib": median([r["peak_rss_mib"] for r in plain]),
            "scanned_cells_per_s": median([r["scanned_cells"] for r in plain]) / wall,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in units.items()},
    }


def span_shares(traced: list[dict]) -> dict:
    """Median share of traced time per span name (self times)."""
    names = {n for r in traced for n in r["span_self_s"]}
    shares = {
        n: median([r["span_self_s"].get(n, 0.0) / r["wall_s"] for r in traced]) for n in names
    }
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = ROOT / "BENCHMARK.json"
    if not ((ROOT / "src" / "periodic_spectra" / "__init__.py").is_file() and bench.is_file()):
        print(f"error: no src/periodic_spectra or BENCHMARK.json under {ROOT};"
              " run from the root of a checkout", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(bench.read_text())[section]}
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cpus = nproc()
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    durations = [0.0]
    try:
        setups = [] if args.trace else [
            run_worker(args.workload, args.seed, cpus, "setup", run_dir, f"setup-{i}",
                       DEADLINE_S)["setup_s"]
            for i in range(SETUP_PASSES)
        ]
        while True:
            elapsed = time.monotonic() - start
            want_traced = args.trace == 1 and len(traced) < len(plain)
            complete = bool(plain) and (bool(traced) or args.trace == 0)
            if complete and elapsed + median(durations) > args.seconds:
                break
            if elapsed + max(durations) > DEADLINE_S:
                if complete:
                    break
                raise RuntimeError("no time left for one untraced and one traced pass")
            result = run_worker(args.workload, args.seed, cpus,
                                "traced" if want_traced else "plain", run_dir,
                                f"worker-{len(plain) + len(traced):02d}", DEADLINE_S - elapsed)
            durations = [r["elapsed_s"] for r in plain + traced + [result]]
            (traced if want_traced else plain).append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    line = summarize(args, units, setups, plain, traced)
    env = dict(plain[0]["env"], nproc=cpus, git_commit=git_commit(),
               threads={"random-trial": cpus, "other commands": 1})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "result": line, "setup_passes_s": setups, "workers": plain + traced}
    if traced:
        record["span_share"] = span_shares(traced)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  workers {len(plain)} untraced"
          f" + {len(traced)} traced")
    print("env " + json.dumps(env))
    for name, m in line["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    for name, share in record.get("span_share", {}).items():
        if share >= 0.005:
            print(f"share of traced time  {name:42s} {share:.3f}")
    print(f"{'op_fail_ratio':42s} {line['failed'] / line['attempted']:.6g} ratio"
          f" ({line['failed']} failed / {line['attempted']} attempted)")
    for r in plain + traced:
        for op in r["ops"]:
            for problem in op["problems"]:
                print(f"FAILED {op['name']}: {problem}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
