"""Tent-windowed Bloch states and residual certification on perturbed graphs.

A band value of the base graph is certified to persist in the perturbed
graph's essential spectrum by building normalized test states: take the band
eigenvector, spread it as a Bloch wave, window it with a product of discrete
tents of half-width n, park it on a box that the perturbation does not touch,
and transplant it.  The Laplacian residual of these states decays like 1/n,
and the decay constant is controlled by an explicit bound evaluated here
alongside the measurement.

A state is held once, as the normalized key-indexed ``WeylState.rows`` of
its ``Region``; the residual, the route residual and the defect all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadEigenpairError,
    InputError,
    InternalInvariantError,
    NoClearBoxError,
)
from .floquet import fiber_matrices, locate_band_value
from .graphs import PeriodicGraph, Vertex, Window, propagation_length
from .perturbation import PerturbedGraph, WindowReport, _check_mask_cap, find_unperturbed_box
from .region import Region

_EIGENPAIR_TOL = 1e-9


def tent_norm_sq(n: int, dim: int) -> float:
    """Closed form of the squared l2 mass of the d-dimensional tent:
    ((2 n^2 + 1) / (3 n)) ** d."""
    if n < 1 or dim < 1:
        raise InputError("tent parameters must satisfy n >= 1, dim >= 1")
    return ((2.0 * n * n + 1.0) / (3.0 * n)) ** dim


def _tent_array(n: int, m: np.ndarray) -> np.ndarray:
    return np.clip(1.0 - np.abs(m) / n, 0.0, None)


def shifted_tent_diff_sum(n: int, shift: int) -> float:
    """Brute-force squared l2 distance between the 1-D tent and its shift:
    sum over m of |tent((m - shift)/n) - tent(m/n)|^2."""
    if n < 1:
        raise InputError(f"tent half-width must be >= 1, got {n}")
    m = np.arange(-n - abs(shift), n + abs(shift) + 1, dtype=float)
    return float(np.sum((_tent_array(n, m - shift) - _tent_array(n, m)) ** 2))


def shifted_tent_diff_parts(n: int, shift: int) -> tuple[float, float, float]:
    """Exact three-part split of ``shifted_tent_diff_sum`` for 0 <= shift < n.

    The middle range is where both tents are nonzero; each tail collects the
    cells seen by only one tent and sums to ``(1^2 + ... + shift^2) / n^2``
    in closed form.  The three parts add up to the brute-force sum exactly.
    """
    l = abs(shift)
    if not 0 <= l < n:
        raise InputError(f"parts split requires 0 <= |shift| < n, got {shift}, {n}")
    if l == 0:
        return 0.0, 0.0, 0.0
    m = np.arange(-n + 1, n - l, dtype=float)
    middle = float(np.sum((_tent_array(n, m + l) - _tent_array(n, m)) ** 2))
    tail = float(sum(k * k for k in range(1, l + 1))) / (n * n)
    return middle, tail, tail


def _symmetric_pair(graph: PeriodicGraph, k0, xi0: np.ndarray):
    """The symmetric fiber matrix H at ``k0``, ``y = sqrt(deg) * xi0`` and the
    Rayleigh quotient of y under H.

    H = D^{1/2} M D^{-1/2} for the row-normalized fiber matrix M, so the
    weighted residual of xi0 under M is the plain residual of y under H and
    the weighted Rayleigh quotients agree.
    """
    h = fiber_matrices(graph, np.reshape(np.asarray(k0, dtype=float), (1, -1)))[0]
    y = np.sqrt(np.asarray(graph.degrees, dtype=float)) * xi0
    return h, y, float(np.real(np.vdot(y, h @ y) / np.vdot(y, y)))


def _check_eigenpair(graph: PeriodicGraph, band: int, k0, xi0: np.ndarray) -> None:
    h, y, lam = _symmetric_pair(graph, k0, xi0)
    gap = float(np.linalg.norm(h @ y - lam * y))
    if gap > _EIGENPAIR_TOL:
        raise BadEigenpairError(
            f"vector is not an eigenvector at this quasimomentum "
            f"(band {band}, residual {gap:.3e})"
        )


def _bloch_grid(region: Region, k0: np.ndarray, xi0: np.ndarray, n: int) -> np.ndarray:
    """The tent-windowed Bloch state on the region's grid: tent(m) *
    exp(i k0.m) * xi0[label] at offset m from the centre, where the tent of
    half-width n is the product over axes of max(0, 1 - |m_j| / n)."""
    offsets = np.arange(-region.half, region.half + 1)
    tent = np.ones(())
    phase = np.zeros(())
    for k in k0:
        tent = np.multiply.outer(tent, _tent_array(n, offsets))
        phase = np.add.outer(phase, k * offsets)
    # the exponential and the tent go into one complex grid in place, and each
    # input grid is dropped once read, so no more than two grids are held
    grid = 1j * phase
    del phase
    np.exp(grid, out=grid)
    grid *= tent
    del tent
    return np.multiply.outer(grid, xi0)


@dataclass(frozen=True)
class WeylState:
    """A normalized transplanted test state with its construction metadata."""

    n: int
    center: Vertex
    region: Region  # the clear padded box the state was built on, and its ring
    rows: np.ndarray  # the normalized transplanted state, one entry per region key


def build_weyl_state(
    graph: PerturbedGraph,
    lambda_target: float,
    n: int,
    window: Window,
    grid_per_axis: int = 64,
) -> WeylState:
    """Compose the full construction for one half-width ``n``.

    Finds a clear box in ``window``, locates the band value, compiles the
    padded box into a ``Region``, builds the windowed Bloch state on it around
    the box center, transplants it into the perturbed graph and normalizes.
    Raises ``NoClearBoxError`` when the window has no admissible center and
    ``NotInSpectrumError`` when the value is off-band.
    """
    report = _clear_box(graph, n, window)
    location = _band_location(graph.base, lambda_target, grid_per_axis)
    return _state_on_box(graph, report, location)


def _clear_box(graph: PerturbedGraph, n: int, window: Window) -> WindowReport:
    """The first clear box of radius ``n`` in ``window``, or ``NoClearBoxError``.
    A state whose ``Region`` mask (its box of half-width ``n + pad - 1``,
    grown by ``pad``) would pass the cap raises that ``InputError`` first."""
    base, pad = graph.base, propagation_length(graph.base)
    reach = n + 2 * pad - 1
    _check_mask_cap([(-reach, reach)] * base.dim, pad, base.cell_size)
    report = find_unperturbed_box(graph, n, window)
    if report.center is None:
        raise NoClearBoxError(
            f"no box of radius {n} inside the unperturbed set over window "
            f"(searched {report.searched} centers)"
        )
    return report


def _band_location(
    base: PeriodicGraph, lambda_target: float, grid_per_axis: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """``locate_band_value`` with its eigenpair checked."""
    band, k0, xi0 = locate_band_value(base, lambda_target, grid_per_axis)
    _check_eigenpair(base, band, k0, xi0)
    return band, k0, xi0


def _state_on_box(
    graph: PerturbedGraph, report: WindowReport, location: tuple[int, np.ndarray, np.ndarray]
) -> WeylState:
    """The normalized state of half-width ``report.n`` for the band location
    ``(band, k0, xi0)``, built on the region of the box ``report`` found."""
    _, k0, xi0 = location
    region = Region(graph, report.center.cell, report.box_bounds[1])
    rows = region.embed(_bloch_grid(region, np.asarray(k0, dtype=float), xi0, report.n))
    rows /= region.norm(rows)
    return WeylState(report.n, report.center, region, rows)


def residual(state: WeylState, lam: float) -> float:
    """Weighted norm of (perturbed Laplacian - lam) applied to the state."""
    f = state.rows
    return state.region.norm(state.region.laplacian(f) - lam * f)


def embedded_route_residual(state: WeylState, lam: float) -> float:
    """The same residual computed through the base graph.

    Applies (base Laplacian - lam) on the box before transplanting; the
    state's padded box is clear, so the defect operator annihilates the
    state and this equals ``residual``: bit for bit, since both sum the same
    stencil in the same order.
    """
    f = state.rows
    return state.region.norm(state.region.base_laplacian(f) - lam * f)


def sup_norm_bound(state: WeylState) -> float:
    """A priori bound on the state's largest amplitude."""
    lower, _ = state.region.embedding_norm_bounds()
    return (1.0 / lower) * tent_norm_sq(state.n, state.region.graph.base.dim) ** -0.5


def residual_bound(state: WeylState) -> float:
    """Evaluated closed-form bound on the residual for this state.

    Squares to (upper/lower)^2 * (#oriented bridges) * (1-D tent mass)^-1 *
    sum over oriented bridges and their nonzero index components of the
    shifted-tent difference sum.  Conservative: worst-case embedding bounds
    over the padded box are used on both sides.
    """
    lower, upper = state.region.embedding_norm_bounds()
    n = state.n
    bridge_sum = 0.0
    bridges = 0
    for e in state.region.graph.base.oriented_edges():
        if not e.is_bridge:
            continue
        bridges += 1
        for comp in e.index:
            if comp != 0:
                bridge_sum += shifted_tent_diff_sum(n, comp)
    sq = (
        (upper / lower) ** 2
        * bridges
        * bridge_sum
        / tent_norm_sq(n, 1)
    )
    return float(np.sqrt(sq))


@dataclass(frozen=True)
class ResidualRow:
    """One row of a residual sweep."""

    n: int
    center: Vertex
    residual: float
    sup_norm: float
    bound: float
    route_residual: float
    defect_sup: float


def residual_row(state: WeylState, lam: float) -> ResidualRow:
    """Measure one state and check its certificate.

    Raises ``InternalInvariantError`` when the residual exceeds the bound or
    departs from the route residual, or the sup norm exceeds
    ``sup_norm_bound``, by more than 1e-12 * max(1, value), or when the
    defect is nonzero.  The bound gets the same roundoff
    allowance because it is exactly 0 when no edge leaves the cell, while the
    measured residual of such a state is roundoff, not 0.
    """
    row = ResidualRow(
        n=state.n,
        center=state.center,
        residual=residual(state, lam),
        sup_norm=float(np.max(np.abs(state.rows))),
        bound=residual_bound(state),
        route_residual=embedded_route_residual(state, lam),
        defect_sup=float(np.max(np.abs(state.region.defect(state.rows)))),
    )
    where = f"at n={row.n}, centre {row.center}"
    roundoff = 1e-12 * max(1.0, row.residual)
    if not row.residual - row.bound <= roundoff:
        raise InternalInvariantError(
            f"residual {row.residual!r} exceeds its bound {row.bound!r} {where}"
        )
    sup_bound = sup_norm_bound(state)
    if not row.sup_norm - sup_bound <= 1e-12 * max(1.0, row.sup_norm):
        raise InternalInvariantError(
            f"sup norm {row.sup_norm!r} exceeds its bound {sup_bound!r} {where}"
        )
    if not abs(row.route_residual - row.residual) <= roundoff:
        raise InternalInvariantError(
            f"route residual {row.route_residual!r} differs from residual "
            f"{row.residual!r} {where}"
        )
    if row.defect_sup != 0.0:
        raise InternalInvariantError(
            f"defect sup {row.defect_sup!r} is not 0 on the clear box {where}"
        )
    return row


def residual_sweep(
    graph: PerturbedGraph,
    lam: float,
    ns: Sequence[int],
    window: Window,
    grid_per_axis: int = 64,
) -> list[ResidualRow]:
    """Residual rows for each half-width in ``ns``, in that order.

    The band value is located once, after the box search of the first
    half-width, as ``build_weyl_state`` would do it, and shared by every row.
    """
    rows = []
    location = None
    for n in ns:
        report = _clear_box(graph, n, window)
        if location is None:
            location = _band_location(graph.base, lam, grid_per_axis)
        rows.append(residual_row(_state_on_box(graph, report, location), lam))
    return rows


def fit_loglog_slope(ns: Sequence[int], values: Sequence[float]) -> float | None:
    """Least-squares slope of log(value) against log(n), or None when fewer
    than two distinct n leave the slope undetermined or some value is not
    finite and > 0, so has no logarithm."""
    y = np.asarray(values, dtype=float)
    if len(set(ns)) < 2 or not np.all(np.isfinite(y) & (y > 0)):
        return None
    slope, _ = np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(y), 1)
    return float(slope)
