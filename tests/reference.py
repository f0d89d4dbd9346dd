"""The dict reference route: the operators of a residual row, vertex by vertex.

States are finitely supported dicts ``Vertex -> complex``; norms and inner
products are degree-weighted, ``<f, g> = sum conj(f(x)) g(x) deg(x)``.  The
tests compare the package's array route (``region.Region``) against them.

``sector_basis`` is the reference for ``truncation.SectorVectors``: it
lifts every sector solve of an induced box into one ``(n, n)`` array, group
element by group element, and puts its columns in merged order.
``identity_vectors`` goes the other way for a box with no symmetry: it
wraps an ``(n, n)`` eigenvector array as the vectors of the identity sector.

``eroded_by_counts`` is the cumulative-count form of the box search's
lateral erosion, the reference for its doubling shifts.

``truncate_vertex_by_vertex`` is the reference for ``truncation.truncate``:
the box listed cell by cell and built with one ``out_edges`` call per
vertex, the builder the array form replaced.

``band_grid`` samples every band over the whole grid from one
``fiber_matrices`` and one ``eigvalsh``, the reference for the slabs of
``floquet.band_values``, and ``locate_on_whole_grid`` is
``floquet.locate_band_value`` started from it and refined by
``golden_refine``, the golden-section search that evaluates one point per
step, the reference for the speculative batches of
``floquet._golden_refine``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from periodic_spectra import floquet
from periodic_spectra.errors import (
    EmptyBoxError, EmptySupportError, InputError, NotInSpectrumError,
    VertexNotInCommonSubgraphError, VertexNotInGraphError,
)
from periodic_spectra.floquet import band_eigensystem, fiber_matrices
from periodic_spectra.graphs import (
    Cell, GraphOracle, PeriodicGraph, State, Vertex, box_cell_array,
)
from periodic_spectra.perturbation import PerturbedGraph
from periodic_spectra.region import Region
from periodic_spectra.symmetry import sectors
from periodic_spectra.truncation import BoxGraph, SectorVectors
from periodic_spectra.weyl import WeylState, _check_eigenpair, tent_norm_sq


def box_cells(box: Sequence[tuple[int, int]]) -> Iterator[Cell]:
    """Cells of the box ``[lo, hi]`` per axis in lexicographic order (the
    last axis varies fastest); an empty box sequence yields the single cell
    ``()``."""
    return itertools.product(*(range(lo, hi + 1) for lo, hi in box))


def clear_box_corners(clear: np.ndarray, side: int) -> np.ndarray:
    """The first corner of every box of ``side`` cells per axis inside
    ``clear`` whose cells are all true, box by box in lexicographic order, as
    an int ``(m, d)`` array."""
    corners = itertools.product(*(range(m - side + 1) for m in clear.shape))
    found = [at for at in corners if clear[tuple(slice(a, a + side) for a in at)].all()]
    return np.array(found, dtype=int).reshape(len(found), clear.ndim)


def eroded_by_counts(clear: np.ndarray, side: int) -> np.ndarray:
    """``perturbation._eroded`` by cumulative counts: per lateral axis, an
    int32 running count of false cells with a leading zero, differenced
    ``side`` apart, is zero where the ``side`` cells from a position are all
    true."""
    for axis in range(1, clear.ndim):
        lead = (slice(None),) * axis
        shape = list(clear.shape)
        shape[axis] += 1
        blocked = np.zeros(shape, dtype=np.int32)
        np.cumsum(~clear, axis=axis, dtype=np.int32, out=blocked[lead + (slice(1, None),)])
        clear = blocked[lead + (slice(side, None),)] == blocked[lead + (slice(None, -side),)]
    return clear


def region_vertices(region: Region) -> list[Vertex]:
    """Every box vertex of ``region`` in grid order, built from its box: the
    vertices its ``box_keys`` should name."""
    s = region.shape[-1]
    return [Vertex(cell, label) for cell in box_cells(region._box) for label in range(s)]


def box_keys(region: Region) -> np.ndarray:
    """The key of every box vertex of ``region``, in grid order: the box
    slice of the twice-grown grid."""
    keys = np.arange(region._grid_keys).reshape(region._grid_shape)
    return keys[region._inner].reshape(-1)


def region_keys(region: Region) -> np.ndarray:
    """The box and ring keys of ``region`` in ascending order, which is the
    ``(cell, label)`` order of their vertices."""
    return np.union1d(box_keys(region), region._ring)


def region_entries(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """The full CSR of ``region`` as ``(entry_keys, indices)``: every box
    and ring key's neighbour keys in ``out_edges`` order, keys in
    ``region_keys`` order.  A stencil key lists its template targets that
    are box or ring keys; a CSR key (a ring key whose bit is clear) its CSR
    entries."""
    s = region.shape[-1]
    keys = region_keys(region).tolist()
    known = set(keys)
    csr: dict[int, list[int]] = {key: [] for key in region._csr_keys.tolist()}
    for owner, col in zip(region._csr_owner.tolist(), region._csr_cols.tolist()):
        csr[int(region._csr_keys[owner])].append(col)
    rows, cols = [], []
    for key in keys:
        if region._member[key]:
            listed = [key + d for d in region._shifts[key % s] if key + d in known]
        else:
            listed = csr[key]
        rows += [key] * len(listed)
        cols += listed
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def truncate_vertex_by_vertex(
    oracle: GraphOracle, box: Sequence[tuple[int, int]], periodic_wrap: bool = False
) -> tuple[list[Vertex], np.ndarray, np.ndarray, int]:
    """The box ``truncation.truncate`` builds, one vertex at a time: one
    ``vertices_in_cell`` call per cell, one ``out_edges`` call per vertex
    and one dict lookup per target.  Returns the vertices in ``(cell,
    label)`` order, ``rows`` and ``cols`` in the order ``out_edges`` lists
    the targets (a target outside an induced box dropped, one outside a wrap
    reduced modulo the box lengths), and the number of isolated vertices
    dropped; raises ``EmptyBoxError`` as ``truncate`` does.  It makes none
    of ``truncate``'s caps and checks."""
    vertices = [
        v for c in box_cells(box) for v in oracle.vertices_in_cell(c) if oracle.contains(v)
    ]
    if not vertices:
        raise EmptyBoxError("box contains no vertices of the graph")
    vertices.sort(key=lambda v: (v.cell, v.label))
    index = {v: i for i, v in enumerate(vertices)}
    rows, cols = [], []
    for i, v in enumerate(vertices):
        for t in oracle.out_edges(v):
            j = index.get(t)
            if j is None and periodic_wrap:
                cell = tuple(lo + (c - lo) % (hi - lo + 1) for c, (lo, hi) in zip(t.cell, box))
                j = index[Vertex(cell, t.label)]
            if j is not None:
                rows.append(i)
                cols.append(j)
    keep = np.bincount(rows, minlength=len(vertices)) > 0
    if not keep.any():
        raise EmptyBoxError("every vertex in the box is isolated")
    remap = np.cumsum(keep) - 1
    kept = [v for v, k in zip(vertices, keep) if k]
    return kept, remap[rows], remap[cols], len(vertices) - len(kept)


def box_index(box_graph: BoxGraph) -> dict[Vertex, int]:
    """Row of every vertex of a truncated box."""
    return {v: i for i, v in enumerate(box_graph.vertices)}


def state_vector(state: WeylState) -> State:
    """The normalized transplanted test state on its box vertices as a dict,
    zeros dropped, in key order (the state is zero off the box)."""
    keys = np.flatnonzero(state.rows)
    names = state.region._names_of(keys)
    return dict(zip(names, state.rows[keys].tolist()))


def _sorted_items(psi: Mapping[Vertex, complex]):
    return sorted(psi.items(), key=lambda kv: (kv[0].cell, kv[0].label))


def weighted_norm(psi: Mapping[Vertex, complex], oracle: GraphOracle) -> float:
    """Degree-weighted l2 norm ``sqrt(sum |psi(x)|^2 deg x)``."""
    if not psi:
        return 0.0
    terms = []
    for v, val in _sorted_items(psi):
        if not oracle.contains(v):
            raise VertexNotInGraphError(f"state supported on {v}, not in graph")
        terms.append(abs(val) ** 2 * oracle.degree(v))
    return float(np.sqrt(np.sum(np.array(terms, dtype=float))))


def weighted_inner(
    psi: Mapping[Vertex, complex], phi: Mapping[Vertex, complex], oracle: GraphOracle
) -> complex:
    """Degree-weighted inner product, conjugate-linear in the first slot."""
    keys = set(psi) & set(phi)
    if not keys:
        return 0.0 + 0.0j
    terms = []
    for v in sorted(keys, key=lambda u: (u.cell, u.label)):
        if not oracle.contains(v):
            raise VertexNotInGraphError(f"state supported on {v}, not in graph")
        terms.append(np.conj(psi[v]) * phi[v] * oracle.degree(v))
    return complex(np.sum(np.array(terms, dtype=complex)))


def sup_norm(psi: Mapping[Vertex, complex]) -> float:
    return max((abs(v) for v in psi.values()), default=0.0)


def apply_laplacian(psi: Mapping[Vertex, complex], oracle: GraphOracle) -> State:
    """Degree-normalized adjacency average ``(Lf)(x) = mean of f over neighbors``.

    Evaluated on the support of ``psi`` together with one adjacency layer
    around it, which contains the full support of the result.
    """
    window: set[Vertex] = set()
    for v in psi:
        if not oracle.contains(v):
            raise VertexNotInGraphError(f"state supported on {v}, not in graph")
        window.add(v)
        window.update(oracle.out_edges(v))
    out: State = {}
    for x in sorted(window, key=lambda u: (u.cell, u.label)):
        targets = oracle.out_edges(x)
        acc = np.sum(
            np.array([psi.get(t, 0.0) for t in targets], dtype=complex)
        ) if targets else 0.0
        out[x] = complex(acc) / len(targets)
    return out


def translate_state(psi: Mapping[Vertex, complex], shift: Cell) -> State:
    """Move a state by ``shift`` cells: the value at cell m moves to m + shift."""
    return {
        Vertex(tuple(c + o for c, o in zip(v.cell, shift)), v.label): val
        for v, val in psi.items()
    }


def embed_state(graph: PerturbedGraph, psi: Mapping[Vertex, complex]) -> State:
    """Transplant a base-graph state into the perturbed graph.

    Values on the common subgraph keep their vertex; values outside it are
    dropped, and added vertices carry zero.
    """
    return {v: val for v, val in psi.items() if graph.in_common(v)}


def embedding_norm_bounds(
    graph: PerturbedGraph, support: Iterable[Vertex]
) -> tuple[float, float]:
    """Two-sided bounds for the embedding's norm ratio over a given support.

    For any state supported there, ``lower * |psi| <= |embed(psi)| <=
    upper * |psi|``.  The bounds square-root the worst-case degree ratios, so
    they are valid but not always sharp.
    """
    dprime, dbase = _support_degrees(graph, support)
    lower = float(np.sqrt(min(dprime) / max(dbase)))
    upper = float(np.sqrt(max(dprime) / min(dbase)))
    return lower, upper


def _support_degrees(graph: PerturbedGraph, support: Iterable[Vertex]):
    dprime: list[int] = []
    dbase: list[int] = []
    for x in support:
        if not graph.in_common(x):
            raise VertexNotInCommonSubgraphError(
                f"{x} is not a vertex of the common subgraph"
            )
        dprime.append(graph.oracle.degree(x))
        dbase.append(graph.base_oracle.degree(x))
    if not dprime:
        raise EmptySupportError("support is empty")
    return dprime, dbase


def apply_defect(graph: PerturbedGraph, psi: Mapping[Vertex, complex]) -> State:
    """Apply the defect operator to a base-graph state.

    Computes (perturbed Laplacian after embedding) minus (embedding after base
    Laplacian), then zeroes every coordinate lying over the unperturbed set.
    The result lives on the perturbed graph and vanishes identically when the
    state's neighborhood never touches the perturbed part.
    """
    lifted = apply_laplacian(embed_state(graph, psi), graph.oracle)
    pushed = embed_state(graph, apply_laplacian(psi, graph.base_oracle))
    keys = sorted(set(lifted) | set(pushed), key=lambda v: (v.cell, v.label))
    out: State = {}
    for v in keys:
        if graph.in_common(v) and graph.unperturbed.contains(v):
            out[v] = 0.0
        else:
            out[v] = lifted.get(v, 0.0) - pushed.get(v, 0.0)
    return out


def tent_value(n: int, m: Cell | int) -> float:
    """Product tent: each axis contributes max(0, 1 - |m_j| / n)."""
    if n < 1:
        raise InputError(f"tent half-width must be >= 1, got {n}")
    coords = (m,) if isinstance(m, int) else m
    out = 1.0
    for c in coords:
        t = abs(c) / n
        if t >= 1.0:
            return 0.0
        out *= 1.0 - t
    return out


@dataclass(frozen=True)
class TentCutoff:
    """Discrete tent window of half-width ``n`` in ``dim`` axes."""

    n: int
    dim: int

    def value(self, m: Cell) -> float:
        return tent_value(self.n, m)

    def norm_sq(self) -> float:
        return tent_norm_sq(self.n, self.dim)

    def support_cells(self) -> Iterable[Cell]:
        """All cells where the tent is nonzero: [-n+1, n-1]^dim."""
        return box_cells([(-self.n + 1, self.n - 1)] * self.dim)


def windowed_bloch_state(
    graph: PeriodicGraph, band: int, k0: np.ndarray, xi0: np.ndarray, n: int
) -> State:
    """Bloch wave with cell vector ``xi0`` at quasimomentum ``k0``, windowed by
    the tent of half-width ``n``; supported on cells [-n+1, n-1]^d.

    ``xi0`` must be an eigenvector of the fiber matrix at ``k0``; the squared
    weighted norm of the result is ``tent_norm_sq(n, d)`` times the squared
    weighted cell norm of ``xi0``.
    """
    _check_eigenpair(graph, band, k0, xi0)
    k0 = np.asarray(k0, dtype=float)
    tent = TentCutoff(n, graph.dim)
    psi: State = {}
    for cell in tent.support_cells():
        rho = tent.value(cell)
        phase = np.exp(1j * float(np.dot(k0, cell)))
        for label in range(graph.cell_size):
            val = phase * rho * xi0[label]
            if val != 0:
                psi[Vertex(cell, label)] = complex(val)
    return psi


def sector_basis(vectors: SectorVectors) -> np.ndarray:
    """The ``(n, n)`` eigenvector array of ``vectors``.  Each sector's
    vectors ``y``, then its twin's (``Z(reps) y`` with the columns reversed,
    built before ``y`` is scaled), are written into the next contiguous
    columns: ``y`` scaled by ``1 / sqrt(sizes)`` in place, written at
    ``images[e]`` for every element ``e`` where the character is 1, negated
    in place and written at the others.  The columns are then put in merged
    order, position ``p`` at column ``column[p]``."""
    n = len(vectors.column)
    vec = np.zeros((n, n))
    start = 0
    for sector, solve in zip(vectors.sectors, vectors.solves):
        blocks = [(sector.odd, solve.copy())]
        if sector.twin_odd is not None:
            z = np.where(vectors.sides[sector.reps], -1.0, 1.0)
            blocks.append((sector.twin_odd, z[:, None] * solve[:, ::-1]))
        for odd, y in blocks:
            stop = start + len(y)
            y *= 1.0 / np.sqrt(sector.sizes[:, None])
            for rows in sector.images[~odd]:
                vec[rows, start:stop] = y
            np.negative(y, out=y)
            for rows in sector.images[odd]:
                vec[rows, start:stop] = y
            start = stop
    merged = np.empty_like(vec)
    merged[:, vectors.column] = vec
    return merged


def identity_vectors(basis: np.ndarray) -> SectorVectors:
    """The real ``(n, n)`` eigenvector array ``basis`` as ``SectorVectors``
    of the one identity sector, columns in their order: what
    ``spectrum_of_box`` returns for a box with no accepted symmetry."""
    n = len(basis)
    return SectorVectors(sectors([], n, None), [basis], None, np.arange(n))


def grid_points(dim: int, grid: int) -> np.ndarray:
    """Every grid quasimomentum ``2 pi m / grid``, ``m`` in ``{0, ...,
    grid-1}^dim`` in lexicographic order, shape ``(grid^dim, dim)``."""
    return 2.0 * np.pi * box_cell_array([(0, grid - 1)] * dim) / grid


def band_grid(graph: PeriodicGraph, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ks, lambdas)``: ``grid_points`` and the sorted band values there,
    from one ``eigvalsh`` over the fiber matrices of the whole grid."""
    ks = grid_points(graph.dim, grid)
    return ks, np.linalg.eigvalsh(fiber_matrices(graph, ks))


def locate_on_whole_grid(
    graph: PeriodicGraph, target: float, grid: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """``floquet.locate_band_value`` started from the whole-grid ``band_grid``:
    the closest band sample, then golden-section refinement coordinate by
    coordinate over one grid step, at most 8 sweeps."""
    ks, lambdas = band_grid(graph, grid)
    gaps = np.abs(lambdas - target).reshape(-1)
    idx = int(np.argmin(gaps))
    row, band = divmod(idx, graph.cell_size)
    if gaps[idx] > floquet._MATCH_TOL and (
        floquet._band_union(lambdas, grid).distance(target) > floquet._MATCH_TOL
    ):
        raise NotInSpectrumError(f"{target} is not within {floquet._MATCH_TOL} of any band")
    k = np.array(ks[row], dtype=float)
    step = 2.0 * np.pi / grid
    assemble = floquet._fiber_assembler(graph)

    def mismatch_along(axis: int, x: float) -> float:
        probe = k[None, :].copy()
        probe[0, axis] = x
        return abs(float(np.linalg.eigvalsh(assemble(probe))[0, band]) - target)

    for _ in range(8):
        for axis in range(graph.dim):
            k[axis] = golden_refine(
                lambda x: mismatch_along(axis, x), k[axis] - step, k[axis] + step
            )
        mismatch = mismatch_along(0, k[0])
        if mismatch <= floquet._REFINE_TOL:
            return band, k, band_eigensystem(graph, k)[1][:, band]
    raise NotInSpectrumError(
        f"band {band} misses {target} by {mismatch:.3e} at k = {tuple(k.tolist())} "
        f"after refinement (refine_tol {floquet._REFINE_TOL})"
    )


def golden_refine(f, lo: float, hi: float) -> float:
    """Golden-section minimizer of a scalar function on [lo, hi] over
    ``floquet._GOLDEN_STEPS`` steps, one point per step: the reference for
    the speculative batches of ``floquet._golden_refine``."""
    invphi = floquet._INVPHI
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(floquet._GOLDEN_STEPS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return c if fc < fd else d
