"""Named graphs and perturbations with their known reference data.

Each entry bundles a base periodic graph, an optional perturbation, the known
essential spectrum of the relevant graph (when there is a closed form) and a
closed-form description of the unperturbed set.  These are the graphs every
cross-check in the test suite runs against, and the ones the CLI exposes as
``builtin:<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .floquet import DEFAULT_FLAT_TOL, SpectrumApprox
from .graphs import (
    Cell,
    FundEdge,
    PeriodicGraph,
    Vertex,
    box_cell_array,
    box_cell_count,
    build_periodic,
)
from .perturbation import PerturbedGraph, PredicatePatch
from .randomfield import bernoulli, bernoulli_array


@dataclass(frozen=True)
class CatalogEntry:
    """A named graph (possibly perturbed) with attached reference data."""

    name: str
    base: PeriodicGraph
    perturbation: PerturbedGraph | None
    reference_spectrum: SpectrumApprox | None
    reference_lambda: Callable[[Vertex], bool] | None
    note: str


def _spectrum(intervals, flats=()) -> SpectrumApprox:
    return SpectrumApprox(
        intervals=tuple(intervals),
        flat_points=tuple(flats),
        resolution=0,
        flat_tol=DEFAULT_FLAT_TOL,
    )


def make_lattice(dim: int) -> PeriodicGraph:
    """The integer lattice Z^dim: one vertex per cell, one edge per axis."""
    edges = [
        FundEdge(0, 0, tuple(1 if j == axis else 0 for j in range(dim)))
        for axis in range(dim)
    ]
    return build_periodic(dim, 1, edges)


def lattice_entry(dim: int) -> CatalogEntry:
    return CatalogEntry(
        name=f"lattice{dim}",
        base=make_lattice(dim),
        perturbation=None,
        reference_spectrum=_spectrum([(-1.0, 1.0)]),
        reference_lambda=None,
        note=f"Z^{dim}; bands fill [-1, 1]",
    )


def make_g11() -> CatalogEntry:
    """Chain with one pendant per cell: labels (chain, pendant), degrees (3, 1)."""
    base = build_periodic(
        1, 2, [FundEdge(0, 0, (1,)), FundEdge(0, 1, (0,))]
    )
    return CatalogEntry(
        name="g11",
        base=base,
        perturbation=None,
        reference_spectrum=_spectrum([(-1.0, -1.0 / 3.0), (1.0 / 3.0, 1.0)]),
        reference_lambda=None,
        note="pendant chain; spectrum [-1,-1/3] u [1/3,1]",
    )


def make_g21() -> CatalogEntry:
    """Chain with a pendant on every second vertex.

    Cell of three labels: 0 = decorated chain site, 1 = bare chain site,
    2 = pendant; degrees (3, 2, 1).  Middle band is flat at zero.
    """
    root3 = float(np.sqrt(3.0))
    base = build_periodic(
        1,
        3,
        [FundEdge(0, 1, (0,)), FundEdge(1, 0, (1,)), FundEdge(0, 2, (0,))],
    )
    return CatalogEntry(
        name="g21",
        base=base,
        perturbation=None,
        reference_spectrum=_spectrum(
            [(-1.0, -1.0 / root3), (0.0, 0.0), (1.0 / root3, 1.0)], flats=(0.0,)
        ),
        reference_lambda=None,
        note="alternating pendant chain; flat band at 0",
    )


def make_half_plane() -> CatalogEntry:
    """Z^2 cut to the half-plane x2 >= 0; untouched set is x2 >= 1."""
    base = make_lattice(2)
    patch = PredicatePatch(
        keep=lambda v: v.cell[1] >= 0,
        keep_grid=lambda x, labels: x[1] >= 0,
        has_added_grid=lambda x, labels: np.zeros((), dtype=bool),
    )
    graph = PerturbedGraph(base, patch, name="half_plane")
    return CatalogEntry(
        name="half_plane",
        base=base,
        perturbation=graph,
        reference_spectrum=_spectrum([(-1.0, 1.0)]),
        reference_lambda=lambda v: v.cell[1] >= 1,
        note="half-plane restriction of Z^2; keeps the full spectrum [-1, 1]",
    )


def make_cone() -> CatalogEntry:
    """Quadrant of Z^2 with extra edges joining (a, 0) to (0, a) for a >= 1.

    No edge is attached at a = 0: that variant would be a loop at the origin
    and changes neither the untouched set nor the spectrum claim.
    """
    base = make_lattice(2)

    def added_neighbors(v: Vertex) -> tuple[Vertex, ...]:
        x1, x2 = v.cell
        if v.label != 0:
            return ()
        if x2 == 0 and x1 >= 1:
            return (Vertex((0, x1), 0),)
        if x1 == 0 and x2 >= 1:
            return (Vertex((x2, 0), 0),)
        return ()

    def has_added_grid(x: tuple[np.ndarray, ...], labels: np.ndarray) -> np.ndarray:
        x1, x2 = x
        return (labels == 0) & (((x2 == 0) & (x1 >= 1)) | ((x1 == 0) & (x2 >= 1)))

    patch = PredicatePatch(
        keep=lambda v: v.cell[0] >= 0 and v.cell[1] >= 0,
        added_neighbors=added_neighbors,
        keep_grid=lambda x, labels: (x[0] >= 0) & (x[1] >= 0),
        has_added_grid=has_added_grid,
    )
    graph = PerturbedGraph(base, patch, name="cone")
    return CatalogEntry(
        name="cone",
        base=base,
        perturbation=graph,
        reference_spectrum=_spectrum([(-1.0, 1.0)]),
        reference_lambda=lambda v: v.cell[0] >= 1 and v.cell[1] >= 1,
        note="quadrant with boundary arcs glued; keeps the full spectrum",
    )


def _pendants(
    label: int, where: Callable[[Cell], bool], where_grid: Callable[[tuple], np.ndarray]
) -> PredicatePatch:
    """Keep every base vertex and hang one added vertex of ``label`` on the
    label-0 vertex of each cell where ``where`` holds; ``where_grid`` is its
    grid form over a tuple of broadcasting int64 coordinate arrays."""

    def added_neighbors(v: Vertex) -> tuple[Vertex, ...]:
        if not where(v.cell):
            return ()
        if v.label == 0:
            return (Vertex(v.cell, label),)
        return (Vertex(v.cell, 0),) if v.label == label else ()

    return PredicatePatch(
        keep=lambda v: True,
        added_contains=lambda v: v.label == label and where(v.cell),
        added_neighbors=added_neighbors,
        added_in_cell=lambda cell: (Vertex(cell, label),) if where(cell) else (),
        keep_grid=lambda x, labels: np.ones((), dtype=bool),
        has_added_grid=lambda x, labels: ((labels == 0) | (labels == label)) & where_grid(x),
    )


def make_random_pendant(p: float, seed: int, dim: int = 2) -> CatalogEntry:
    """Z^dim with a pendant attached independently at each cell.

    The pendant indicator at a cell is a pure function of (seed, cell), so the
    oracle is reproducible across runs and thread counts.  A cell belongs to
    the untouched set exactly when it drew no pendant.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError(f"pendant probability must be in [0, 1], got {p}")
    base = make_lattice(dim)
    patch = _pendants(
        1, lambda cell: bernoulli(seed, cell, p), lambda x: bernoulli_array(seed, x, p)
    )
    graph = PerturbedGraph(base, patch, name=f"random_pendant(p={p}, seed={seed})")
    return CatalogEntry(
        name="random_pendant",
        base=base,
        perturbation=graph,
        reference_spectrum=_spectrum([(-1.0, 1.0)]) if p < 1.0 else None,
        reference_lambda=lambda v: not bernoulli(seed, v.cell, p),
        note=f"Z^{dim} with pendant probability {p}, seed {seed}",
    )


def make_counterexample() -> CatalogEntry:
    """Pendant chain with a second pendant added at every cell x >= 0.

    The perturbed graph gains an exact zero mode on each added pendant pair,
    so its essential spectrum strictly contains the base one.  The untouched
    set is every vertex with x < 0 together with the original pendants at
    x >= 0 (those keep their degree and their only edge).
    """
    base = make_g11().base
    patch = _pendants(2, lambda cell: cell[0] >= 0, lambda x: x[0] >= 0)
    graph = PerturbedGraph(base, patch, name="counterexample")
    return CatalogEntry(
        name="counterexample",
        base=base,
        perturbation=graph,
        reference_spectrum=None,
        reference_lambda=lambda v: v.cell[0] < 0 or v.label == 1,
        note=(
            "pendant chain with doubled pendants on x >= 0; gains a zero "
            "eigenvalue of infinite multiplicity on top of the base bands"
        ),
    )


def clear_box_probability(n: int, p: float, dim: int = 2) -> float:
    """Chance that a pendant-free box of radius ``n`` sits at a given cell:
    (1 - p) to the number of cells in the box."""
    _check_box(n, dim)
    if not 0.0 <= p <= 1.0:
        raise InputError(f"probability must be in [0, 1], got {p}")
    return (1.0 - p) ** ((2 * n + 1) ** dim)


def _check_box(n: int, dim: int) -> None:
    if n < 1:
        raise InputError(f"box radius must be >= 1, got {n}")
    if dim < 1:
        raise InputError(f"dimension must be >= 1, got {dim}")


_TRIAL_CHUNK = 65536  # trials per chunk of ``clear_box_monte_carlo``

# Box cells of all trials of ``clear_box_monte_carlo``, checked before any is
# hashed: 2,000,000 trials of a 3 x 3 box are 1.8 * 10^7 cells, and hashing
# 2^32 would take minutes.
_TRIAL_CELL_LIMIT = 1 << 32


def _check_trials(n: int, dim: int, trials: int) -> None:
    """``InputError`` when ``box_cell_count`` refuses the box of radius
    ``n`` in ``dim`` axes, when ``trials`` is below 1, or when the
    ``trials`` boxes hold more than ``_TRIAL_CELL_LIMIT`` cells."""
    cells = box_cell_count([(0, 2 * n)] * dim)
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if trials * cells > _TRIAL_CELL_LIMIT:
        raise InputError(
            f"{trials} trials of a box of radius {n} in {dim} axes have too many "
            f"cells: the Monte Carlo is capped at {_TRIAL_CELL_LIMIT}"
        )


def clear_box_monte_carlo(
    n: int, p: float, dim: int, trials: int, seed: int, pool=None
) -> float:
    """Monte Carlo estimate of ``clear_box_probability``.

    Draws ``trials`` disjoint boxes from one seeded pendant field (disjoint
    boxes see independent cells) and counts the pendant-free ones.  A chunk
    keeps the start cells of its boxes that are still clear and, offset by
    offset in ``box_cell_array`` order, hashes only those boxes' cells and
    drops each box at its first pendant, stopping when none is left.  A
    cell's bit does not depend on when it is hashed, so the survivors are
    exactly the clear boxes.  Chunks of ``_TRIAL_CHUNK`` trials are evaluated
    independently and reduced by integer sum, so the estimate is identical
    for any chunk size and any pool size.  ``_check_trials`` refuses a run
    of more than ``_TRIAL_CELL_LIMIT`` box cells.
    """
    _check_box(n, dim)
    _check_trials(n, dim, trials)
    side = 2 * n + 1
    offsets = box_cell_array([(0, side - 1)] * dim)

    def count_chunk(lo: int) -> int:
        # boxes tile along the first axis, spaced one box apart: box t starts
        # at cell (t * side, 0, ..., 0), so a start is kept as its first
        # coordinate
        first = np.arange(lo, min(lo + _TRIAL_CHUNK, trials), dtype=np.int64) * side
        for off in offsets:
            if not len(first):
                break
            first = first[~bernoulli_array(seed, (first + off[0], *off[1:]), p)]
        return len(first)

    starts = range(0, trials, _TRIAL_CHUNK)
    hits = map(count_chunk, starts) if pool is None else pool.map(count_chunk, starts)
    return sum(hits) / trials


_PLAIN_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {
    "lattice1": lambda: lattice_entry(1),
    "lattice2": lambda: lattice_entry(2),
    "lattice3": lambda: lattice_entry(3),
    "g11": make_g11,
    "g21": make_g21,
    "cone": make_cone,
    "half_plane": make_half_plane,
    "counterexample": make_counterexample,
}


def entry_names() -> list[str]:
    return sorted(_PLAIN_BUILDERS) + ["random_pendant"]


def _pendant_parameter(params: dict, name: str, kind: type, default=None):
    """Pop the ``random_pendant`` parameter ``name`` as a ``kind`` (``float``
    or ``int``) from a number of that kind or its text; anything else, or a
    missing parameter without a default, raises ``InputError``."""
    if name not in params and default is None:
        raise InputError(f"random_pendant needs parameter '{name}'")
    value = params.pop(name, default)
    if isinstance(value, (kind, int, str)) and not isinstance(value, bool):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    what = "a number" if kind is float else "an integer"
    raise InputError(f"random_pendant parameter {name} must be {what}, got {value!r}")


def get_entry(name: str, **params) -> CatalogEntry:
    """Look up a catalog entry by name; ``random_pendant`` takes p and seed."""
    if name == "random_pendant":
        p = _pendant_parameter(params, "p", float)
        seed = _pendant_parameter(params, "seed", int)
        dim = _pendant_parameter(params, "dim", int, 2)
        if params:
            raise InputError(f"unknown random_pendant parameters: {sorted(params)}")
        return make_random_pendant(p, seed, dim)
    builder = _PLAIN_BUILDERS.get(name)
    if builder is None:
        raise InputError(
            f"unknown builtin '{name}'; available: {', '.join(entry_names())}"
        )
    if params:
        raise InputError(f"builtin '{name}' takes no parameters")
    return builder()
