"""The dict reference route: the operators of a residual row, vertex by vertex.

States are finitely supported dicts ``Vertex -> complex``; norms and inner
products are degree-weighted, ``<f, g> = sum conj(f(x)) g(x) deg(x)``.  The
tests compare the package's array route (``region.Region``) against them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from periodic_spectra.errors import (
    EmptySupportError, InputError, VertexNotInCommonSubgraphError, VertexNotInGraphError,
)
from periodic_spectra.graphs import Cell, GraphOracle, PeriodicGraph, State, Vertex
from periodic_spectra.perturbation import PerturbedGraph
from periodic_spectra.region import Region
from periodic_spectra.truncation import BoxGraph
from periodic_spectra.weyl import WeylState, _check_eigenpair, _state_rows, tent_norm_sq


def box_cells(box: Sequence[tuple[int, int]]) -> Iterator[Cell]:
    """Cells of the box ``[lo, hi]`` per axis in lexicographic order (the
    last axis varies fastest); an empty box sequence yields the single cell
    ``()``."""
    return itertools.product(*(range(lo, hi + 1) for lo, hi in box))


def region_vertices(region: Region) -> list[Vertex]:
    """Every box vertex of ``region``, kept or not, in grid order."""
    s = region.shape[-1]
    return [Vertex(cell, label) for cell in box_cells(region._box) for label in range(s)]


def region_entries(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """The full CSR of ``region`` as ``(entry_rows, indices)``: every row's
    neighbour rows in ``out_edges`` order, rows in turn.  A stencil row
    lists its template targets that are rows; a CSR row its CSR entries."""
    s = region.shape[-1]
    row_of = {key: r for r, key in enumerate(region._keys.tolist())}
    csr: dict[int, list[int]] = {r: [] for r in region._csr_rows.tolist()}
    for owner, col in zip(region._csr_owner.tolist(), region._csr_cols.tolist()):
        csr[int(region._csr_rows[owner])].append(col)
    rows, cols = [], []
    for r, key in enumerate(region._keys.tolist()):
        if region.unperturbed[r]:
            listed = [row_of[key + d] for d in region._shifts[key % s] if key + d in row_of]
        else:
            listed = csr[r]
        rows += [r] * len(listed)
        cols += listed
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def box_index(box_graph: BoxGraph) -> dict[Vertex, int]:
    """Row of every vertex of a truncated box."""
    return {v: i for i, v in enumerate(box_graph.vertices)}


def state_vector(state: WeylState) -> State:
    """The normalized transplanted test state on its kept box vertices as a
    dict, zeros dropped, in row order."""
    rows = _state_rows(state)[: state.region.kept]
    names = state.region.names
    return {names[r]: complex(rows[r]) for r in np.flatnonzero(rows).tolist()}


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
