"""Output checks for one pass of a workload.

Each operation is checked against invariants that hold for every seed:
exit codes, the certificate inequalities of every ``weyl-check`` row,
``lambda-set`` bitmaps against the catalog's ``reference_lambda`` closed
forms (or the patch's own closed form), ``condition-p`` and ``weyl-check``
centres against the first clear box of that closed form, band and box
eigenvalues inside [-1, 1], and the Monte Carlo z-score.  For the default
seed the parsed numbers are also compared with the reference values stored
next to this file: integers exactly, other numbers to 1e-12 relative to
max(1, |reference|).

A check never raises for a bad output: it returns a list of problems, and an
operation with any problem counts as failed.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from periodic_spectra.catalog import get_entry
from periodic_spectra.graphs import Vertex, propagation_length

from workloads import PATCH_FILE, Op, Workload, parse_builtin

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12
LAMBDA_TOL = 1e-12


class Context:
    """Catalog entries and the generated patch, shared by the checks of a pass."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._entries: dict = {}
        for name, params in workload.entries:
            self.entry(name, params)

    def entry(self, name: str, params: dict):
        key = (name, tuple(sorted(params.items())))
        if key not in self._entries:
            self._entries[key] = get_entry(name, **params)
        return self._entries[key]

    def spec_entry(self, spec: str):
        return self.entry(*parse_builtin(spec))

    def member_fn(self, op: Op):
        """(closed-form membership of a base vertex, base graph) for an op."""
        pert = op.info.get("pert")
        if pert == PATCH_FILE:
            return _patch_member(self.workload.patch), self.spec_entry(op.info["graph"]).base
        entry = self.spec_entry(pert or op.info["graph"])
        return entry.reference_lambda, entry.base


def _patch_member(spec: dict):
    """Closed form of the unperturbed set of an explicit patch on Z^2: a kept
    vertex whose neighbours are kept and which no removed or added edge
    touches."""
    patch = spec["patch"]
    cell = lambda item: tuple(item[0])
    removed = {cell(v) for v in patch["removed_vertices"]}
    touched = set()
    for u, v in patch["removed_edges"] + patch["added_edges"]:
        touched.add(cell(u))
        touched.add(cell(v))

    def member(x: Vertex) -> bool:
        c = x.cell
        near = [c] + [
            tuple(c[j] + (d if j == axis else 0) for j in range(len(c)))
            for axis in range(len(c)) for d in (-1, 1)
        ]
        return not any(n in removed for n in near) and c not in touched

    return member


def _parse_window(text: str) -> list[tuple[int, int]]:
    nums = [int(t) for t in text.split(",")]
    return [(nums[2 * i], nums[2 * i + 1]) for i in range(len(nums) // 2)]


def _clear_cells(member, cell_size: int, lo, hi) -> np.ndarray:
    """Boolean array over cells lo..hi: every base label at the cell is in
    the unperturbed set."""
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    flat = [
        all(member(Vertex(cell, label)) for label in range(cell_size))
        for cell in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
    ]
    return np.array(flat, dtype=bool).reshape(shape)


def _box_sums(bad: np.ndarray, half: int) -> np.ndarray:
    """Number of bad cells in the box of radius ``half`` around every centre
    whose box fits in the array (separable sliding sums)."""
    out = bad.astype(np.int64)
    width = 2 * half + 1
    for axis in range(out.ndim):
        c = np.cumsum(out, axis=axis)
        zero = np.zeros_like(np.take(c, [0], axis=axis))
        c = np.concatenate([zero, c], axis=axis)
        n = c.shape[axis]
        out = np.take(c, range(width, n), axis=axis) - np.take(c, range(0, n - width), axis=axis)
    return out


def first_clear_centre(member, cell_size: int, window, half: int, last_first_axis=None):
    """Rank (0-based, lexicographic over the window) of the first centre whose
    padded box is clear, or None.  Centres are only scanned up to first-axis
    coordinate ``last_first_axis``; earlier ranks do not depend on later rows."""
    los = [lo for lo, _ in window]
    his = [hi for _, hi in window]
    if last_first_axis is not None:
        his[0] = min(his[0], last_first_axis)
    clear = _clear_cells(member, cell_size, [l - half for l in los], [h + half for h in his])
    hits = np.flatnonzero(_box_sums(~clear, half).reshape(-1) == 0)
    if hits.size == 0:
        return None
    # ranks within the truncated window equal ranks within the full window
    # because the first axis is the outermost one
    idx = np.unravel_index(int(hits[0]), tuple(h - l + 1 for l, h in zip(los, his)))
    return _rank([l + i for l, i in zip(los, idx)], window)


def _rank(cell, window) -> int:
    rank = 0
    for c, (lo, hi) in zip(cell, window):
        rank = rank * (hi - lo + 1) + (c - lo)
    return rank


def _size(window) -> int:
    return int(np.prod([hi - lo + 1 for lo, hi in window]))


def stem(op: Op) -> str:
    """File name prefix of an operation's outputs."""
    return op.argv[op.argv.index("--out") + 1].split("/")[-1]


def _load_json(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("manifest_sha256", None)
    return data


def _csv_rows(path: Path, dtype=float) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=2, dtype=dtype, ndmin=2)


def _check_centre(problems, label, member, cell_size, window, half, centre, searched):
    """Reported centre and search count against the closed form; returns the
    number of centres the search examined."""
    if centre is None:
        if first_clear_centre(member, cell_size, window, half) is not None:
            problems.append(f"{label}: no centre reported but a clear box exists")
        if searched != _size(window):
            problems.append(f"{label}: searched {searched}, window has {_size(window)} centres")
        return searched
    cell = centre["cell"]
    expected = first_clear_centre(member, cell_size, window, half, cell[0])
    rank = _rank(cell, window)
    if expected != rank:
        problems.append(f"{label}: centre {cell} has rank {rank}, first clear is {expected}")
    if searched is not None and searched != rank + 1:
        problems.append(f"{label}: searched {searched}, centre rank + 1 is {rank + 1}")
    return rank + 1


def check_weyl(op: Op, out: Path, ctx: Context):
    problems = []
    data = _load_json(out / f"{stem(op)}.json")
    rows = data["rows"]
    if [r["n"] for r in rows] != op.info["ns"]:
        problems.append(f"rows for n={[r['n'] for r in rows]}, asked {op.info['ns']}")
    member, base = ctx.member_fn(op)
    window = op.info["window"]
    if window is None:
        half = 2 * max(op.info["ns"]) + 2
        window = ",".join(f"{-half},{half}" for _ in range(base.dim))
    window = _parse_window(window)
    scanned = 0
    for r in rows:
        label = f"n={r['n']}"
        if not r["residual"] <= r["bound"]:
            problems.append(f"{label}: residual {r['residual']} > bound {r['bound']}")
        if not abs(r["route_residual"] - r["residual"]) <= 1e-12 * max(1.0, r["residual"]):
            problems.append(f"{label}: route residual {r['route_residual']} != {r['residual']}")
        if r["defect_sup"] != 0:
            problems.append(f"{label}: defect_sup {r['defect_sup']} != 0")
        half = r["n"] + propagation_length(base) - 1
        scanned += _check_centre(problems, label, member, base.cell_size, window, half,
                                 r["center"], None)
    if op.info["slope_check"] and not data["slope"] <= -0.8:
        problems.append(f"slope {data['slope']} > -0.8")
    return problems, data, scanned


def check_lambda(op: Op, out: Path, ctx: Context):
    problems = []
    member, base = ctx.member_fn(op)
    window = _parse_window(op.info["window"])
    table = _csv_rows(out / f"{stem(op)}.csv", dtype=np.int64)
    dim = len(window)
    cells = list(itertools.product(*(range(lo, hi + 1) for lo, hi in window)))
    expected = np.array(
        [list(c) + [int(member(Vertex(c, s))) for s in range(base.cell_size)] for c in cells],
        dtype=np.int64,
    )
    if table.shape != expected.shape:
        problems.append(f"bitmap shape {table.shape}, expected {expected.shape}")
    elif not np.array_equal(table, expected):
        wrong = int(np.sum(np.any(table != expected, axis=1)))
        problems.append(f"{wrong} bitmap rows differ from the closed form")
    summary = {"rows": int(table.shape[0]),
               "members": [int(x) for x in table[:, dim:].sum(axis=0)]}
    return problems, summary, len(cells)


def check_condition(op: Op, out: Path, ctx: Context):
    problems = []
    data = _load_json(out / f"{stem(op)}.json")
    member, base = ctx.member_fn(op)
    window = _parse_window(op.info["window"])
    half = op.info["n"] + propagation_length(base) - 1
    if [data["box_lo"], data["box_hi"]] != [-half, half]:
        problems.append(f"box bounds {data['box_lo']},{data['box_hi']}, expected +-{half}")
    scanned = _check_centre(problems, "condition-p", member, base.cell_size, window, half,
                            data["center"], data["searched"])
    return problems, data, scanned


def check_bands(op: Op, out: Path, ctx: Context):
    problems = []
    table = _csv_rows(out / f"{stem(op)}.csv")
    dim, rows = op.info["dim"], op.info["grid"] ** op.info["dim"]
    lam = table[:, dim:]
    if table.shape != (rows, dim + op.info["cells"]):
        problems.append(f"bands table shape {table.shape}, expected {rows} rows")
    if np.any(np.abs(lam) > 1.0 + LAMBDA_TOL):
        problems.append(f"band value outside [-1, 1]: {float(np.max(np.abs(lam)))}")
    dat_lines = (out / f"{stem(op)}.dat").read_text().splitlines()
    if len(dat_lines) != rows + 2:
        problems.append(f"plot data has {len(dat_lines) - 2} rows, expected {rows}")
    step = max(1, rows // 32)
    summary = {"rows": int(table.shape[0]), "sample": table[::step].tolist(),
               "min": lam.min(axis=0).tolist(), "max": lam.max(axis=0).tolist()}
    return problems, summary, 0


def check_sigma(op: Op, out: Path, ctx: Context):
    problems = []
    data = _load_json(out / f"{stem(op)}.json")
    reference = ctx.entry(op.info["name"], {}).reference_spectrum.intervals
    got = [(i["lo"], i["hi"]) for i in data["intervals"]]
    if len(got) != len(reference) or any(
        abs(a - b) > 1e-9 for pair, ref in zip(got, reference) for a, b in zip(pair, ref)
    ):
        problems.append(f"intervals {got} differ from the closed form {list(reference)}")
    return problems, data, 0


def check_truncate(op: Op, out: Path, ctx: Context):
    problems = []
    data = _load_json(out / f"{stem(op)}.json")
    lam = _csv_rows(out / f"{stem(op)}.csv")[:, 1]
    if data["vertices"] != op.info["vertices"] or data["dropped"] != 0:
        problems.append(f"box has {data['vertices']} vertices ({data['dropped']} dropped), "
                        f"expected {op.info['vertices']}")
    if lam.size != data["vertices"]:
        problems.append(f"{lam.size} eigenvalues for {data['vertices']} vertices")
    if np.any(np.abs(lam) > 1.0 + LAMBDA_TOL) or np.any(np.diff(lam) < 0):
        problems.append("box eigenvalues not ascending inside [-1, 1]")
    if not 0.0 <= data["inside_fraction"] <= 1.0:
        problems.append(f"inside_fraction {data['inside_fraction']}")
    data["eigenvalue_sample"] = lam[::97].tolist() + [float(lam[-1])]
    return problems, data, op.info["cells"]


def check_trial(op: Op, out: Path, ctx: Context):
    problems = []
    data = _load_json(out / f"{stem(op)}.json")
    if not abs(data["z"]) <= 5.0:
        problems.append(f"|z| = {abs(data['z'])} > 5")
    if data["trials"] != op.info["trials"] or not 0.0 <= data["estimate"] <= 1.0:
        problems.append(f"trials {data['trials']}, estimate {data['estimate']}")
    return problems, data, 0


CHECKS = {
    "weyl": check_weyl,
    "lambda": check_lambda,
    "condition": check_condition,
    "bands": check_bands,
    "sigma": check_sigma,
    "truncate": check_truncate,
    "trial": check_trial,
}


def check_op(op: Op, code, out: Path, ctx: Context):
    """(problems, summary, scanned cells) for one finished operation."""
    if code != 0:
        return [f"exit code {code}, expected 0"], {"exit": code}, 0
    try:
        problems, summary, scanned = CHECKS[op.kind](op, out, ctx)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {"exit": code}, 0
    return problems, {"exit": code, **summary}, scanned


def differences(got, ref, path: str = "") -> list[str]:
    """Where ``got`` departs from the reference: integers, strings and
    structure exactly, other numbers to REL_TOL relative to max(1, |ref|)."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if got.keys() != ref.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in differences(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (g, r) in enumerate(zip(got, ref))
                for d in differences(g, r, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(ref, numbers)
            and not isinstance(got, bool) and not isinstance(ref, bool)):
        if isinstance(got, int) and isinstance(ref, int):
            return [] if got == ref else [f"{path}: {got} != {ref}"]
        ok = abs(got - ref) <= REL_TOL * max(1.0, abs(ref))
        return [] if ok else [f"{path}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"
