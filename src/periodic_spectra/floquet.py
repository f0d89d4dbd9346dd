"""Fiber matrices, band functions and band-union spectra of periodic graphs.

For each quasimomentum k in the torus [0, 2pi)^d the infinite operator
restricts to an s x s fiber matrix; sorting its eigenvalues gives the band
functions, and the spectrum of the infinite graph is the union of the band
images.  The fiber matrix is similar to a Hermitian matrix via conjugation
with sqrt(degree), which is how everything here is diagonalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError, NotInSpectrumError
from .graphs import PeriodicGraph

_HERM_TOL = 1e-9
_MERGE_TOL = 1e-10
DEFAULT_FLAT_TOL = 1e-8


@dataclass(frozen=True)
class FloquetMatrix:
    """Fiber matrix at one quasimomentum; entry (i, j) sums exp(i k.index)/deg_i
    over oriented edges from label i to label j."""

    k: tuple[float, ...]
    entries: np.ndarray


@dataclass(frozen=True)
class BandSample:
    """Eigen-decomposition of one fiber matrix: ascending eigenvalues and,
    optionally, eigenvectors normalized in the degree-weighted cell product."""

    k: tuple[float, ...]
    lambdas: np.ndarray
    eigenvectors: np.ndarray | None = None


@dataclass(frozen=True)
class SpectrumApprox:
    """Band-union spectrum: disjoint closed intervals, flat bands noted."""

    intervals: tuple[tuple[float, float], ...]
    flat_points: tuple[float, ...]
    resolution: int
    flat_tol: float

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= value <= hi + tol for lo, hi in self.intervals)

    def distance(self, value: float) -> float:
        return min(
            (max(lo - value, value - hi, 0.0) for lo, hi in self.intervals),
            default=float("inf"),
        )

    def endpoints(self) -> tuple[float, ...]:
        return tuple(x for pair in self.intervals for x in pair)


def floquet_matrix(graph: PeriodicGraph, k) -> FloquetMatrix:
    """Assemble the fiber matrix at quasimomentum ``k``.

    Both orientations of every stored template contribute: the template
    (i, j, index) adds exp(i k.index)/deg_i at (i, j) and the conjugate phase
    over deg_j at (j, i).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (graph.dim,):
        from .errors import DimensionMismatchError

        raise DimensionMismatchError(
            f"quasimomentum has shape {k.shape}, expected ({graph.dim},)"
        )
    s = graph.cell_size
    m = np.zeros((s, s), dtype=complex)
    for e in graph.oriented_edges():
        phase = np.exp(1j * float(np.dot(k, e.index)))
        m[e.origin, e.target] += phase / graph.degrees[e.origin]
    return FloquetMatrix(tuple(k.tolist()), m)


def _hermitian_similarity(m: FloquetMatrix, degrees) -> np.ndarray:
    d = np.asarray(degrees, dtype=float)
    h = np.sqrt(d)[:, None] * m.entries * (1.0 / np.sqrt(d))[None, :]
    gap = np.max(np.abs(h - h.conj().T))
    if gap > _HERM_TOL:
        raise NonHermitianError(
            f"symmetrized fiber matrix deviates from Hermitian by {gap:.3e}"
        )
    return 0.5 * (h + h.conj().T)


def band_eigensystem(m: FloquetMatrix, degrees) -> BandSample:
    """Diagonalize one fiber matrix.

    Eigenvalues come back ascending; eigenvectors are pulled back through the
    degree similarity, which leaves them normalized in the weighted cell
    product ``<x, y> = sum conj(x_i) y_i deg_i``.
    """
    h = _hermitian_similarity(m, degrees)
    lambdas, u = np.linalg.eigh(h)
    d = np.asarray(degrees, dtype=float)
    vecs = u / np.sqrt(d)[:, None]
    return BandSample(m.k, lambdas, vecs)


def _grid_axis(grid_per_axis: int) -> np.ndarray:
    if grid_per_axis < 2 or grid_per_axis % 2 != 0:
        raise ValueError(
            "grid_per_axis must be an even integer >= 2 so the grid hits both "
            "k=0 and k=pi exactly"
        )
    t = np.arange(grid_per_axis, dtype=float)
    return 2.0 * np.pi * t / grid_per_axis


def grid_points(dim: int, grid_per_axis: int) -> np.ndarray:
    """All grid quasimomenta in lexicographic axis order, shape (grid^dim, dim)."""
    axis = _grid_axis(grid_per_axis)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def band_grid(graph: PeriodicGraph, grid_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample every band over the full grid.

    Returns ``(K, lambdas)`` where K has shape (M, d) and lambdas (M, s),
    rows ascending.  The fiber matrices are assembled and diagonalized in one
    batch; the grid ordering is fixed, so results are deterministic.
    """
    ks = grid_points(graph.dim, grid_per_axis)
    s = graph.cell_size
    d = np.asarray(graph.degrees, dtype=float)
    h = np.zeros((ks.shape[0], s, s), dtype=complex)
    for e in graph.oriented_edges():
        phase = np.exp(1j * (ks @ np.asarray(e.index, dtype=float)))
        h[:, e.origin, e.target] += phase / np.sqrt(d[e.origin] * d[e.target])
    h = 0.5 * (h + np.conj(np.swapaxes(h, 1, 2)))
    lambdas = np.linalg.eigvalsh(h)
    return ks, lambdas


def _merge_intervals(
    raw: list[tuple[float, float]], tol: float = _MERGE_TOL
) -> tuple[tuple[float, float], ...]:
    merged: list[list[float]] = []
    for lo, hi in sorted(raw):
        if merged and lo <= merged[-1][1] + tol:
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
    """
    _, lambdas = band_grid(graph, grid_per_axis)
    return _band_union(lambdas, grid_per_axis, flat_tol)


def _band_union(
    lambdas: np.ndarray, grid_per_axis: int, flat_tol: float = DEFAULT_FLAT_TOL
) -> SpectrumApprox:
    """Interval rule of ``essential_spectrum`` applied to ``band_grid`` samples."""
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


def _band_value(graph: PeriodicGraph, k: np.ndarray, band: int) -> float:
    m = floquet_matrix(graph, k)
    h = _hermitian_similarity(m, graph.degrees)
    return float(np.linalg.eigvalsh(h)[band])


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(f, lo: float, hi: float, steps: int = 40) -> float:
    """Golden-section minimizer of a scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return c if fc < fd else d


def locate_band_value(
    graph: PeriodicGraph,
    target: float,
    grid_per_axis: int,
    match_tol: float = 1e-6,
    refine_tol: float = 1e-8,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Find a band index h and quasimomentum k with band_h(k) = target.

    Scans the grid for the closest band sample, then refines coordinate by
    coordinate with golden-section searches over one grid cell until the
    band value matches ``target`` to ``refine_tol``.  Raises
    ``NotInSpectrumError`` when no band sample comes within ``match_tol`` or
    when the refined band value still misses ``target`` by more than
    ``refine_tol``.
    """
    ks, lambdas = band_grid(graph, grid_per_axis)
    gaps = np.abs(lambdas - target).reshape(-1)
    idx = int(np.argmin(gaps))
    row, band = divmod(idx, graph.cell_size)
    if gaps[idx] > match_tol and (
        _band_union(lambdas, grid_per_axis).distance(target) > match_tol
    ):
        raise NotInSpectrumError(f"{target} is not within {match_tol} of any band")
    k = np.array(ks[row], dtype=float)
    step = 2.0 * np.pi / grid_per_axis

    def mismatch_along(axis: int, x: float) -> float:
        probe = k.copy()
        probe[axis] = x
        return abs(_band_value(graph, probe, band) - target)

    for _ in range(8):
        for axis in range(graph.dim):
            k[axis] = _golden_refine(
                lambda x: mismatch_along(axis, x), k[axis] - step, k[axis] + step
            )
        mismatch = abs(_band_value(graph, k, band) - target)
        if mismatch <= refine_tol:
            break
    else:
        raise NotInSpectrumError(
            f"band {band} misses {target} by {mismatch:.3e} at k = {tuple(k.tolist())} "
            f"after refinement (refine_tol {refine_tol})"
        )
    sample = band_eigensystem(floquet_matrix(graph, k), graph.degrees)
    xi = sample.eigenvectors[:, band]
    return band, k, xi
