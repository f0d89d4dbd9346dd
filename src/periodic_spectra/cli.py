"""Command-line front end.

Every file-producing run resolves its parameters into a manifest (the math
parameters plus the library version; execution knobs like thread counts do
not belong because they cannot change results), writes the manifest next to
the outputs and stamps its SHA-256 into every output file.  Reruns with the
same manifest give byte-identical files regardless of ``--threads``.

Exit codes: 0 success, 2 input/parse error, 3 math-domain error (off-band
value, no clear box), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import (
    CatalogEntry,
    clear_box_monte_carlo,
    clear_box_probability,
    entry_names,
    get_entry,
)
from .errors import (
    InputError,
    InternalInvariantError,
    MathDomainError,
    ParseError,
    PeriodicSpectraError,
)
from .floquet import DEFAULT_FLAT_TOL, band_grid, essential_spectrum
from .graphs import PeriodicGraph, Vertex, box_cell_array, periodic_oracle
from .io import load_graph_file, load_perturbation_file, perturbation_from_spec
from .perturbation import PerturbedGraph, find_unperturbed_box
from .truncation import check_eps, compare_spectra, spectrum_of_box, truncate, zero_mode_count
from .weyl import fit_loglog_slope, residual_sweep

ENV_THREADS = "PERIODIC_SPECTRA_THREADS"


# Rows written per chunk, so a large table never exists as one string.
_CHUNK_ROWS = 65536


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _format_columns(columns) -> list[tuple[np.ndarray, np.ndarray]]:
    """The cell texts of a table given as one-dimensional columns.

    Each column comes back as ``(texts, inverse)``: cell texts as an object
    array and, per row, the index of the row's text, in the smallest unsigned
    dtype that holds it.  Floats are written by ``_fmt``, integers by ``str``
    and text passes through unchanged.  The texts are the column's distinct
    values, each formatted once; floats are told apart by bit pattern, so
    ``-0.0``, ``0.0``, ``nan`` and ``±inf`` keep their own texts.  An integer
    column whose values span fewer numbers than it has rows takes the texts
    of every integer from its least to its greatest value instead, some of
    which may not occur, and ``inverse`` is the value minus the least one:
    no sort is needed.
    """
    out = []
    for column in columns:
        arr = np.asarray(column)
        kind = arr.dtype.kind
        if kind == "f":
            bits = np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)
            keys, inverse = np.unique(bits, return_inverse=True)
            texts = [_fmt(x) for x in keys.view(np.float64).tolist()]
        elif kind in "iu" and arr.size and int(arr.max()) - int(arr.min()) < arr.size:
            low = int(arr.min())
            texts = [str(x) for x in range(low, int(arr.max()) + 1)]
            inverse = arr - arr.dtype.type(low)
        elif kind in "iuU":
            keys, inverse = np.unique(arr, return_inverse=True)
            texts = [str(x) for x in keys.tolist()]
        else:
            raise TypeError(f"cannot write a column of dtype {arr.dtype}")
        index_type = np.min_scalar_type(max(len(texts) - 1, 0))
        out.append((np.array(texts, dtype=object), inverse.astype(index_type)))
    return out


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON writer: floats at 17 significant digits, keys in
    insertion order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{key}": {_json_text(val, indent + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_text(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


class RunContext:
    """Manifest digest and output paths for one run.  The output prefix is
    ``out``, or the command name with ``-`` turned into ``_``."""

    def __init__(self, command: str, params: dict, out: str | None):
        self.prefix = Path(out or command.replace("-", "_"))
        manifest = {
            "command": command,
            "version": __version__,
            "parameters": params,
        }
        self.manifest_text = _json_text(manifest) + "\n"
        self.digest = hashlib.sha256(self.manifest_text.encode()).hexdigest()

    def _path(self, extension: str) -> Path:
        path = Path(str(self.prefix) + extension)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def write_manifest(self) -> Path:
        path = self._path(".manifest.json")
        path.write_text(self.manifest_text)
        return path

    def write_table(
        self, header: list[str], columns, extensions: tuple[str, ...] = (".csv",)
    ) -> list[Path]:
        """Write the one-dimensional ``columns``, formatted by
        ``_format_columns``, to a ``.csv`` and/or a ``.dat`` file,
        ``_CHUNK_ROWS`` rows at a time.  Each column's distinct texts get
        their separator once: ``,`` after every column but the last, a
        newline after the last.  A chunk fills one (rows, columns) object
        array from them and is joined once; the ``.dat`` file gets the same
        text with every ``,`` turned into a space.  A header that does not
        name every column, columns of different lengths, or a cell text that
        holds a separator (``,``, or a space when a ``.dat`` is written)
        raise ``InternalInvariantError``."""
        cells = _format_columns(columns)
        lengths = {len(inverse) for _, inverse in cells}
        if len(header) != len(cells) or len(lengths) != 1:
            raise InternalInvariantError(
                f"the table {header} has {len(cells)} columns of lengths {sorted(lengths)}"
            )
        separators = ", " if ".dat" in extensions else ","
        for texts, _ in cells:
            joined = "".join(texts.tolist())
            if any(separator in joined for separator in separators):
                raise InternalInvariantError(
                    f"a cell of the table {header} holds a separator (',' or ' ')"
                )
        suffixed = [texts + "," for texts, _ in cells[:-1]] + [cells[-1][0] + "\n"]
        heads = {".csv": ",".join(header), ".dat": "# " + " ".join(header)}
        paths = [self._path(extension) for extension in extensions]
        (total,) = lengths
        grid = np.empty((min(total, _CHUNK_ROWS), len(cells)), dtype=object)
        with ExitStack() as stack:
            outs = [stack.enter_context(path.open("w")) for path in paths]
            for out, extension in zip(outs, extensions):
                out.write(f"# manifest-sha256: {self.digest}\n{heads[extension]}\n")
            for start in range(0, total, _CHUNK_ROWS):
                chunk = grid[:total - start]
                for column, (texts, (_, inverse)) in enumerate(zip(suffixed, cells)):
                    chunk[:, column] = texts[inverse[start:start + _CHUNK_ROWS]]
                text = "".join(chunk.ravel().tolist())
                for out, extension in zip(outs, extensions):
                    out.write(text if extension == ".csv" else text.replace(",", " "))
        return paths

    def write_json(self, payload: dict) -> Path:
        path = self._path(".json")
        body = {"manifest_sha256": self.digest}
        body.update(payload)
        path.write_text(_json_text(body) + "\n")
        return path


def _resolve_threads(value: int | None) -> int:
    """``--threads``, else ``PERIODIC_SPECTRA_THREADS``, else the number of
    CPUs this process may run on.  A count below 1 is an ``InputError``."""
    source = "--threads"
    if value is None:
        env = os.environ.get(ENV_THREADS)
        if not env:
            try:
                return len(os.sched_getaffinity(0))
            except AttributeError:
                return os.cpu_count() or 1
        source = ENV_THREADS
        try:
            value = int(env)
        except ValueError:
            raise InputError(f"{ENV_THREADS} must be an integer, got {env!r}")
    if value < 1:
        raise InputError(f"{source} must be at least 1, got {value}")
    return value


def _parse_builtin(text: str) -> tuple[str, dict]:
    body = text[len("builtin:"):]
    parts = body.split(",")
    name = parts[0]
    params: dict = {}
    for chunk in parts[1:]:
        if "=" not in chunk:
            raise ParseError(f"malformed builtin parameter {chunk!r} in {text!r}")
        key, val = chunk.split("=", 1)
        params[key.strip()] = val.strip()
    return name, params


def _resolve_graph(source: str) -> tuple[PeriodicGraph, CatalogEntry | None]:
    if source.startswith("builtin:"):
        name, params = _parse_builtin(source)
        entry = get_entry(name, **params)
        return entry.base, entry
    return load_graph_file(source), None


def _resolve_perturbation(
    source: str | None, base: PeriodicGraph, graph_entry: CatalogEntry | None
) -> PerturbedGraph | None:
    if source is None:
        if graph_entry is not None:
            return graph_entry.perturbation
        return None
    if source.startswith("builtin:"):
        name, params = _parse_builtin(source)
        return perturbation_from_spec({"builtin": name, **params}, base, source)
    return load_perturbation_file(source, base)


def _require_perturbation(args, base, entry) -> PerturbedGraph:
    perturbed = _resolve_perturbation(args.perturbation, base, entry)
    if perturbed is None:
        raise InputError(
            "this command needs a perturbation: pass --perturbation or use a "
            "builtin perturbed graph"
        )
    return perturbed


def _parse_window(text: str, dim: int) -> tuple[tuple[int, int], ...]:
    parts = text.split(",")
    if len(parts) != 2 * dim:
        raise ParseError(
            f"window {text!r} needs {2 * dim} comma-separated integers "
            f"(lo,hi per axis) for dimension {dim}"
        )
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"window {text!r} contains a non-integer") from None
    return tuple((nums[2 * i], nums[2 * i + 1]) for i in range(dim))


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError(f"--n-list {text!r} must be comma-separated integers")
    if not ns or any(n < 1 for n in ns):
        raise ParseError("--n-list entries must be >= 1")
    return ns


def _vertex_label(v: Vertex) -> str:
    return ";".join(str(c) for c in v.cell) + f";v{v.label + 1}"


def _vertex_json(v: Vertex | None):
    if v is None:
        return None
    return {"cell": list(v.cell), "label": v.label + 1}


def _cmd_bands(args) -> int:
    base, _ = _resolve_graph(args.graph)
    ctx = RunContext("bands", {"graph": args.graph, "grid": args.grid}, args.out)
    ks, lambdas = band_grid(base, args.grid)
    header = [f"k_{j + 1}" for j in range(base.dim)] + [
        f"lambda_{i + 1}" for i in range(base.cell_size)
    ]
    ctx.write_manifest()
    extensions = (".csv", ".dat") if args.emit_plot_data else (".csv",)
    ctx.write_table(header, [*ks.T, *lambdas.T], extensions)
    return 0


def _cmd_sigma_ess(args) -> int:
    base, _ = _resolve_graph(args.graph)
    ctx = RunContext(
        "sigma-ess",
        {"graph": args.graph, "grid": args.grid, "flat_tol": args.flat_tol},
        args.out,
    )
    spectrum = essential_spectrum(base, args.grid, args.flat_tol)
    ctx.write_manifest()
    ctx.write_json(
        {
            "intervals": [
                {"lo": lo, "hi": hi, "flat": hi - lo < args.flat_tol}
                for lo, hi in spectrum.intervals
            ],
            "resolution": spectrum.resolution,
            "flat_tol": spectrum.flat_tol,
        }
    )
    return 0


def _cmd_lambda_set(args) -> int:
    base, entry = _resolve_graph(args.graph)
    perturbed = _require_perturbation(args, base, entry)
    window = _parse_window(args.window, base.dim)
    ctx = RunContext(
        "lambda-set",
        {
            "graph": args.graph,
            "perturbation": args.perturbation,
            "window": args.window,
        },
        args.out,
    )
    header = [f"cell_{j + 1}" for j in range(base.dim)] + [
        f"v{i + 1}" for i in range(base.cell_size)
    ]
    mask = perturbed.unperturbed.mask(window).reshape(-1, base.cell_size)
    bits = mask.astype(np.uint8).T
    ctx.write_manifest()
    ctx.write_table(header, [*box_cell_array(window).T, *bits])
    return 0


def _cmd_condition_p(args) -> int:
    base, entry = _resolve_graph(args.graph)
    perturbed = _require_perturbation(args, base, entry)
    window = _parse_window(args.window, base.dim)
    ctx = RunContext(
        "condition-p",
        {
            "graph": args.graph,
            "perturbation": args.perturbation,
            "n": args.n,
            "window": args.window,
        },
        args.out,
    )
    report = find_unperturbed_box(perturbed, args.n, window)
    ctx.write_manifest()
    ctx.write_json(
        {
            "n": report.n,
            "center": _vertex_json(report.center),
            "searched": report.searched,
            "box_lo": report.box_bounds[0],
            "box_hi": report.box_bounds[1],
        }
    )
    return 0


def _default_window(dim: int, max_n: int) -> str:
    half = 2 * max_n + 2
    return ",".join(f"{-half},{half}" for _ in range(dim))


def _cmd_weyl_check(args) -> int:
    base, entry = _resolve_graph(args.graph)
    perturbed = _require_perturbation(args, base, entry)
    ns = _parse_n_list(args.n_list)
    window_text = args.window or _default_window(base.dim, max(ns))
    window = _parse_window(window_text, base.dim)
    ctx = RunContext(
        "weyl-check",
        {
            "graph": args.graph,
            "perturbation": args.perturbation,
            "lambda": args.lam,
            "n_list": ns,
            "window": window_text,
            "grid": args.grid,
        },
        args.out,
    )
    rows = residual_sweep(perturbed, args.lam, ns, window, args.grid)
    row_ns = [r.n for r in rows]
    residuals = [r.residual for r in rows]
    bounds = [r.bound for r in rows]
    slope = fit_loglog_slope(row_ns, residuals)
    labels = [_vertex_label(r.center) for r in rows]
    sup_norms = [r.sup_norm for r in rows]
    ctx.write_manifest()
    ctx.write_table(
        ["n", "x_n", "residual", "sup_norm", "bound"],
        [row_ns, labels, residuals, sup_norms, bounds],
    )
    ctx.write_json(
        {
            "lambda": args.lam,
            "slope": slope,
            "rows": [dict(asdict(r), center=_vertex_json(r.center)) for r in rows],
        }
    )
    if args.emit_plot_data:
        ctx.write_table(["n", "residual", "bound"], [row_ns, residuals, bounds], (".dat",))
    return 0


def _cmd_truncate(args) -> int:
    base, entry = _resolve_graph(args.graph)
    perturbed = _resolve_perturbation(args.perturbation, base, entry)
    box = _parse_window(args.box, base.dim)
    eps = args.eps if args.eps is not None else (1e-9 if args.wrap else 0.02)
    grid = args.grid if args.grid is not None else (256 if base.dim == 1 else 64)
    ctx = RunContext(
        "truncate",
        {
            "graph": args.graph,
            "perturbation": args.perturbation,
            "box": args.box,
            "wrap": bool(args.wrap),
            "eps": eps,
            "grid": grid,
        },
        args.out,
    )
    reference = essential_spectrum(base, grid)
    check_eps(eps)
    if args.wrap:
        if perturbed is not None:
            raise InputError("--wrap applies to purely periodic graphs only")
        box_graph = truncate(periodic_oracle(base), box, periodic_wrap=True)
    else:
        oracle = perturbed.oracle if perturbed is not None else periodic_oracle(base)
        box_graph = truncate(oracle, box)
    lam, vec = spectrum_of_box(box_graph, with_vectors=True)
    report = compare_spectra(lam, reference, eps, box_graph=box_graph, vectors=vec)
    ctx.write_manifest()
    ctx.write_table(["index", "lambda"], [np.arange(len(lam)), lam])
    ctx.write_json(
        {
            "vertices": len(box_graph),
            "dropped": box_graph.dropped,
            **asdict(report),
            "eps": eps,
            "zero_modes": zero_mode_count(box_graph),
        }
    )
    return 0


def _cmd_random_trial(args) -> int:
    ctx = RunContext(
        "random-trial",
        {
            "p": args.p,
            "n": args.n,
            "dim": args.dim,
            "trials": args.trials,
            "seed": args.seed,
        },
        args.out,
    )
    expected = clear_box_probability(args.n, args.p, args.dim)
    pool = None
    if args.threads > 1:
        # imported here, as no other command starts threads: the import costs
        # every process about 4 ms
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=args.threads)
    try:
        estimate = clear_box_monte_carlo(
            args.n, args.p, args.dim, args.trials, args.seed, pool=pool
        )
    finally:
        if pool is not None:
            pool.shutdown()
    stderr = float(np.sqrt(expected * (1.0 - expected) / args.trials))
    z = (estimate - expected) / stderr if stderr > 0 else 0.0
    ctx.write_manifest()
    ctx.write_json(
        {
            "estimate": estimate,
            "expected": expected,
            "stderr": stderr,
            "z": z,
            "trials": args.trials,
        }
    )
    return 0


def _cmd_catalog(args) -> int:
    for name in entry_names():
        if name == "random_pendant":
            print(
                "random_pendant(p, seed)  perturbed  Z^2 plus seeded pendants; "
                "spectrum [-1, 1] for p < 1"
            )
            continue
        entry = get_entry(name)
        kind = "perturbed" if entry.perturbation is not None else "periodic"
        print(f"{name}  {kind}  {entry.note}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one, so callers must not change it.  ``parse_args`` keeps no state
    between calls: each returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="periodic-spectra",
        description=(
            "Band spectra of periodic lattice graphs and residual "
            "certification of their stability under perturbations"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, perturbation=False, plot=False):
        p.add_argument("--graph", required=True, help="file path or builtin:<name>")
        if perturbation:
            p.add_argument(
                "--perturbation",
                default=None,
                help="file path or builtin:<name>[,k=v...]",
            )
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--threads", type=int, default=None)
        if plot:
            p.add_argument("--emit-plot-data", action="store_true")

    p = sub.add_parser("bands", help="band samples over the quasimomentum grid")
    common(p, plot=True)
    p.add_argument("--grid", type=int, required=True)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("sigma-ess", help="essential spectrum as interval union")
    common(p)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--flat-tol", type=float, default=DEFAULT_FLAT_TOL)
    p.set_defaults(func=_cmd_sigma_ess)

    p = sub.add_parser("lambda-set", help="bitmap of the unperturbed set")
    common(p, perturbation=True)
    p.add_argument("--window", required=True, help="lo,hi per axis")
    p.set_defaults(func=_cmd_lambda_set)

    p = sub.add_parser("condition-p", help="search for a clear padded box")
    common(p, perturbation=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", required=True, help="lo,hi per axis")
    p.set_defaults(func=_cmd_condition_p)

    p = sub.add_parser("weyl-check", help="residual decay of transplanted states")
    common(p, perturbation=True, plot=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--window", default=None, help="lo,hi per axis")
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(func=_cmd_weyl_check)

    p = sub.add_parser("truncate", help="finite box spectrum and comparison")
    common(p, perturbation=True)
    p.add_argument("--box", required=True, help="lo,hi per axis")
    p.add_argument("--wrap", action="store_true")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("random-trial", help="Monte Carlo clear-box probability")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_random_trial)

    p = sub.add_parser("catalog", help="list builtin graphs")
    p.add_argument("action", nargs="?", default="list", choices=["list"])
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "threads" in args:
            args.threads = _resolve_threads(args.threads)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PeriodicSpectraError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
