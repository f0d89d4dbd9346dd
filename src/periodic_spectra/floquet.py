"""Fiber matrices, band functions and band-union spectra of periodic graphs.

For each quasimomentum k in the torus [0, 2pi)^d the infinite operator
restricts to an s x s fiber matrix; sorting its eigenvalues gives the band
functions, and the spectrum of the infinite graph is the union of the band
images.  One assembler, ``fiber_matrices``, builds every fiber matrix, in
batches and in the symmetric form ``D^{-1/2} A(k) D^{-1/2}`` (D the label
degrees), which is Hermitian and similar to the row-normalized operator
``D^{-1} A(k)``.  Band grids, band location and eigenpairs all diagonalize
its output; an eigenvector u of the symmetric form is pulled back to the
row-normalized operator's eigenvector ``u / sqrt(deg)``.  Band location
evaluates the candidate points of four golden-section steps in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError, NotInSpectrumError
from .graphs import PeriodicGraph, box_cell_array, box_cell_count

_MERGE_TOL = 1e-10
DEFAULT_FLAT_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumApprox:
    """Band-union spectrum: disjoint closed intervals, flat bands noted."""

    intervals: tuple[tuple[float, float], ...]
    flat_points: tuple[float, ...]
    resolution: int
    flat_tol: float

    def distance(self, value: float) -> float:
        return min(
            (max(lo - value, value - hi, 0.0) for lo, hi in self.intervals),
            default=float("inf"),
        )


def _fiber_assembler(graph: PeriodicGraph):
    """``ks -> fiber_matrices(graph, ks)`` with the graph's template arrays
    built once, for callers that assemble at many quasimomenta one by one."""
    d = np.asarray(graph.degrees, dtype=float)
    s = graph.cell_size
    # The oriented templates are reversed pairs: a stored template (i, j, x)
    # and its reversal (j, i, -x), both of weight sqrt(d_i d_j), whose phase
    # is the conjugate.  Each pair's phase is made once.
    templates = [
        (e.origin, e.target, np.asarray(e.index, dtype=float),
         np.sqrt(d[e.origin] * d[e.target]))
        for e in graph.edges
    ]

    def assemble(ks: np.ndarray) -> np.ndarray:
        h = np.zeros((ks.shape[0], s, s), dtype=complex)
        phase = np.empty(ks.shape[0], dtype=complex)
        for origin, target, index, weight in templates:
            theta = ks @ index
            np.cos(theta, out=phase.real)
            np.sin(theta, out=phase.imag)
            phase /= weight
            h[:, origin, target] += phase
            h[:, target, origin] += np.conj(phase)
        return 0.5 * (h + np.conj(np.swapaxes(h, 1, 2)))

    return assemble


def fiber_matrices(graph: PeriodicGraph, ks) -> np.ndarray:
    """The Hermitian fiber matrices ``D^{-1/2} A(k) D^{-1/2}`` at the rows of
    ``ks`` (shape ``(M, d)``), as an ``(M, s, s)`` array.

    Both orientations of every stored template contribute: the template
    (i, j, index) adds exp(i k.index)/sqrt(deg_i deg_j) at (i, j) and the
    conjugate phase at (j, i).  The sum is then averaged with its conjugate
    transpose, so the result is Hermitian by construction.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 2 or ks.shape[1] != graph.dim:
        raise DimensionMismatchError(
            f"quasimomenta have shape {ks.shape}, expected (M, {graph.dim})"
        )
    return _fiber_assembler(graph)(ks)


def band_eigensystem(graph: PeriodicGraph, k) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize the fiber matrix at quasimomentum ``k``: ``(lambdas,
    eigenvectors)``, as ``eigh`` gives them.

    Eigenvalues come back ascending; the eigenvector columns are pulled back
    by ``1/sqrt(deg)``, which leaves them normalized in the weighted cell
    product ``<x, y> = sum conj(x_i) y_i deg_i``.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    lambdas, u = np.linalg.eigh(fiber_matrices(graph, k[None, :]))
    return lambdas[0], u[0] / np.sqrt(np.asarray(graph.degrees, dtype=float))[:, None]


def _grid_box(dim: int, grid_per_axis: int) -> list[tuple[int, int]]:
    """The box ``{0, ..., grid-1}^dim`` of grid coordinates; raises
    ``InputError`` unless ``grid_per_axis`` is even and at least 2."""
    if grid_per_axis < 2 or grid_per_axis % 2 != 0:
        raise InputError(
            "the grid must be an even integer >= 2 so that it hits both k=0 "
            f"and k=pi exactly, got {grid_per_axis}"
        )
    return [(0, grid_per_axis - 1)] * dim


# Grid rows assembled and diagonalized per batch, so the fiber temporaries
# grow with a slab and not with the grid.
_SLAB_ROWS = 4096


def band_values(graph: PeriodicGraph, grid_per_axis: int, rows: int | None = None) -> np.ndarray:
    """The sorted band values at ``k = 2 pi m / grid``, ``m`` in ``_grid_box``
    in lexicographic order, shape (M, s), or at its first ``rows`` points only.

    The points are taken ``_SLAB_ROWS`` at a time: each slab's cells, its
    quasimomenta, fiber matrices and ``eigvalsh`` are built and dropped
    before the next, and no array the size of the grid is built but the
    result.  Each matrix is diagonalized on its own, so the values are those
    of one batch over the whole grid, bit for bit.  Raises ``InputError``
    unless ``grid_per_axis`` is even and at least 2, or when the whole grid
    has more cells than ``box_cell_count`` allows.
    """
    box = _grid_box(graph.dim, grid_per_axis)
    total = box_cell_count(box)
    rows = total if rows is None else rows
    assemble = _fiber_assembler(graph)
    lambdas = np.empty((rows, graph.cell_size))
    for start in range(0, rows, _SLAB_ROWS):
        at = np.arange(start, min(start + _SLAB_ROWS, rows))
        ks = 2.0 * np.pi * box_cell_array(box, at=at) / grid_per_axis
        lambdas[start:start + len(at)] = np.linalg.eigvalsh(assemble(ks))
    return lambdas


def _merge_intervals(raw: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    merged: list[list[float]] = []
    for lo, hi in sorted(raw):
        if merged and lo <= merged[-1][1] + _MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def essential_spectrum(
    graph: PeriodicGraph, grid_per_axis: int, flat_tol: float = DEFAULT_FLAT_TOL
) -> SpectrumApprox:
    """Band-union spectrum sampled on a uniform grid containing 0 and pi.

    Each sorted band is continuous on the torus, so its sampled image is the
    interval between its grid minimum and maximum.  Overlapping band intervals
    are merged; bands narrower than ``flat_tol`` are recorded as flat points.
    A ``flat_tol`` that is negative or not finite raises ``InputError``.

    Only half the torus is diagonalized: the fiber matrix at ``-k`` is the
    complex conjugate of the one at ``k`` and has the same eigenvalues, and
    of every pair ``k, -k`` of grid points one has ``m_1 <= grid/2``.  Those
    are the first ``(grid/2 + 1) * grid^(d-1)`` rows of the lexicographic
    grid.
    """
    if not (math.isfinite(flat_tol) and flat_tol >= 0):
        raise InputError(f"flat_tol must be finite and >= 0, got {flat_tol}")
    half = (grid_per_axis // 2 + 1) * grid_per_axis ** (graph.dim - 1)
    return _band_union(band_values(graph, grid_per_axis, half), grid_per_axis, flat_tol)


def _band_union(
    lambdas: np.ndarray, grid_per_axis: int, flat_tol: float = DEFAULT_FLAT_TOL
) -> SpectrumApprox:
    """Interval rule of ``essential_spectrum`` applied to ``band_values`` samples."""
    raw = []
    flats = []
    for i in range(lambdas.shape[1]):
        lo = float(np.min(lambdas[:, i]))
        hi = float(np.max(lambdas[:, i]))
        raw.append((lo, hi))
        if hi - lo < flat_tol:
            flats.append(0.5 * (lo + hi))
    return SpectrumApprox(
        intervals=_merge_intervals(raw),
        flat_points=tuple(sorted(flats)),
        resolution=grid_per_axis,
        flat_tol=flat_tol,
    )


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 40
# Golden-section steps whose possible points one call of ``_golden_refine``'s
# function evaluates: 2**_SPECULATE - 1 points per call.
_SPECULATE = 4

# How close ``locate_band_value`` needs a band sample, then the refined value.
_MATCH_TOL = 1e-6
_REFINE_TOL = 1e-8


def _golden_step(a, b, c, d, left: bool) -> tuple:
    """``(a, b, c, d, left)`` after one golden-section step: keeping ``[a,
    d]`` with its new inner point ``c`` when ``left``, else ``[c, b]`` with
    its new ``d``."""
    if left:
        return a, d, d - _INVPHI * (d - a), c, left
    return c, b, d, c + _INVPHI * (b - c), left


def _golden_refine(f, lo: float, hi: float) -> float:
    """Golden-section minimizer on [lo, hi] over ``_GOLDEN_STEPS`` steps of
    ``f``, which maps an array of points to their values.

    A step compares the values at its two inner points and adds one point,
    whose place depends on the outcomes before it.  So the points that the
    next ``_SPECULATE`` steps could add form a binary tree known before any
    of their values, and one ``f`` call evaluates the whole tree; the walk
    down it makes the comparisons of the search that evaluates one point per
    step, with the same floats, and returns its result bit for bit.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(np.array([c, d]))
    for done in range(0, _GOLDEN_STEPS, _SPECULATE):
        # node i is a step's outcome; nodes 2i + 1 and 2i + 2 follow it left and right
        nodes = [_golden_step(a, b, c, d, fc < fd)]
        for i in range(2 ** (min(_SPECULATE, _GOLDEN_STEPS - done) - 1) - 1):
            nodes += [_golden_step(*nodes[i][:4], left) for left in (True, False)]
        values = f(np.array([p if left else q for _, _, p, q, left in nodes]))
        i = 0
        while i < len(nodes):
            a, b, c, d, left = nodes[i]
            fc, fd = (values[i], fc) if left else (fd, values[i])
            i = 2 * i + (1 if fc < fd else 2)
    return c if fc < fd else d


def locate_band_value(
    graph: PeriodicGraph, target: float, grid_per_axis: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Find a band index h and quasimomentum k with band_h(k) = target.

    Scans ``band_values`` for the closest band sample, then refines
    coordinate by coordinate with golden-section searches over one grid cell
    until the band value matches ``target`` to ``_REFINE_TOL``.  Raises
    ``NotInSpectrumError`` when no band sample comes within ``_MATCH_TOL`` or
    when the refined band value still misses ``target`` by more than
    ``_REFINE_TOL``, and ``InputError`` when ``target`` is not finite.
    """
    if not math.isfinite(target):
        raise InputError(f"the band value must be finite, got {target}")
    lambdas = band_values(graph, grid_per_axis)
    gaps = np.abs(lambdas - target).reshape(-1)
    idx = int(np.argmin(gaps))
    row, band = divmod(idx, graph.cell_size)
    if gaps[idx] > _MATCH_TOL and (
        _band_union(lambdas, grid_per_axis).distance(target) > _MATCH_TOL
    ):
        raise NotInSpectrumError(f"{target} is not within {_MATCH_TOL} of any band")
    box = _grid_box(graph.dim, grid_per_axis)
    k = 2.0 * np.pi * box_cell_array(box, at=[row])[0] / grid_per_axis
    step = 2.0 * np.pi / grid_per_axis
    assemble = _fiber_assembler(graph)

    def mismatch_along(axis: int, x: np.ndarray) -> np.ndarray:
        """|band value - target| at k with its coordinate ``axis`` set to
        each x, one fiber matrix per x in one batch."""
        probe = np.repeat(k[None, :], len(x), axis=0)
        probe[:, axis] = x
        return np.abs(np.linalg.eigvalsh(assemble(probe))[:, band] - target)

    for _ in range(8):
        for axis in range(graph.dim):
            k[axis] = _golden_refine(
                lambda x: mismatch_along(axis, x), k[axis] - step, k[axis] + step
            )
        mismatch = mismatch_along(0, k[:1])[0]
        if mismatch <= _REFINE_TOL:
            break
    else:
        raise NotInSpectrumError(
            f"band {band} misses {target} by {mismatch:.3e} at k = {tuple(k.tolist())} "
            f"after refinement (refine_tol {_REFINE_TOL})"
        )
    return band, k, band_eigensystem(graph, k)[1][:, band]
