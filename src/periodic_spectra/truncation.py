"""Finite box restrictions and their spectra.

Truncation to a box gives an honest finite graph whose degree-normalized
adjacency operator can be diagonalized densely.  Two boundary conditions are
supported: the induced subgraph (degrees recomputed inside the box, edge
effects quantified rather than suppressed) and, for purely periodic graphs, a
wrapped closure where edges reconnect modulo the box lengths.  Wrapped boxes
diagonalize exactly on the band samples, which makes them a sharp cross-check
of the fiber-matrix route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBoxError, InputError
from .floquet import SpectrumApprox
from .graphs import GraphOracle, PeriodicOracle, Vertex, Window, audit_symmetry, box_cells

_DENSE_LIMIT = 4000


class BoxGraph:
    """Finite restriction of a graph to a lattice box.

    ``rows`` and ``cols`` list the box's oriented edges as row-index pairs,
    exactly as ``out_edges`` gives them: every edge in both orientations,
    loops twice, parallel edges once per copy.
    """

    def __init__(
        self,
        vertices: list[Vertex],
        rows: np.ndarray,
        cols: np.ndarray,
        box: Window,
        wrapped: bool,
        dropped: int,
    ):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.rows = rows
        self.cols = cols
        self.box = box
        self.wrapped = wrapped
        self.dropped = dropped
        self.degrees = np.bincount(rows, minlength=len(self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency with multiplicities (loops doubled)."""
        n = len(self.vertices)
        a = np.zeros((n, n), dtype=float)
        np.add.at(a, (self.rows, self.cols), 1.0)
        return a

    def normalized_symmetric(self) -> np.ndarray:
        """The Hermitian form deg^(-1/2) A deg^(-1/2), same spectrum as the
        degree-normalized adjacency operator."""
        a = self.adjacency()
        inv_sqrt = 1.0 / np.sqrt(self.degrees.astype(float))
        return inv_sqrt[:, None] * a * inv_sqrt[None, :]


@dataclass(frozen=True)
class TruncationReport:
    """Comparison of box eigenvalues against a reference spectrum."""

    eigenvalues: tuple[float, ...]
    inside_fraction: float
    boundary_count: int | None = None


def truncate(oracle: GraphOracle, box: Window, periodic_wrap: bool = False) -> BoxGraph:
    """Restrict the graph to cells inside ``box``.

    Without ``periodic_wrap`` the induced subgraph is taken, degrees
    recomputed, and vertices left isolated are dropped (their number is
    recorded on the result).  With it (purely periodic graphs only) edges
    leaving the box re-enter modulo the box lengths.  Raises
    ``InternalInvariantError`` when the oracle's edges are not symmetric.
    """
    for lo, hi in box:
        if lo > hi:
            raise EmptyBoxError(f"box side [{lo}, {hi}] is empty")
    if periodic_wrap and not isinstance(oracle, PeriodicOracle):
        raise InputError("periodic wrap needs a purely periodic oracle")
    vertices = [
        v for c in box_cells(box) for v in oracle.vertices_in_cell(c) if oracle.contains(v)
    ]
    if not vertices:
        raise EmptyBoxError("box contains no vertices of the graph")
    vertices.sort(key=lambda v: (v.cell, v.label))
    index = {v: i for i, v in enumerate(vertices)}
    sides = [(lo, hi - lo + 1) for lo, hi in box]
    rows, cols = [], []
    for i, v in enumerate(vertices):
        for t in oracle.out_edges(v):
            j = index.get(t)
            if j is None and periodic_wrap:  # re-enter modulo the box lengths
                cell = tuple(lo + (c - lo) % ln for c, (lo, ln) in zip(t.cell, sides))
                j = index[Vertex(cell, t.label)]
            if j is not None:  # None: outside an induced box
                rows.append(i)
                cols.append(j)
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    audit_symmetry(vertices, rows, cols)
    keep = np.bincount(rows, minlength=len(vertices)) > 0
    if not keep.any():
        raise EmptyBoxError("every vertex in the box is isolated")
    dropped = len(vertices) - int(keep.sum())
    if dropped:
        remap = np.cumsum(keep) - 1
        rows, cols = remap[rows], remap[cols]
        vertices = [v for v, k in zip(vertices, keep) if k]
    return BoxGraph(vertices, rows, cols, box, periodic_wrap, dropped)


def spectrum_of_box(box_graph: BoxGraph, with_vectors: bool = False):
    """Ascending eigenvalues of the box operator (optionally eigenvectors of
    its symmetric form)."""
    if len(box_graph) > _DENSE_LIMIT:
        raise InputError(
            f"box has {len(box_graph)} vertices; dense solves are capped at "
            f"{_DENSE_LIMIT}"
        )
    h = box_graph.normalized_symmetric()
    if with_vectors:
        lam, vec = np.linalg.eigh(h)
        return lam, vec
    return np.linalg.eigvalsh(h)


def compare_spectra(
    eigenvalues,
    reference: SpectrumApprox,
    eps: float,
    box_graph: BoxGraph | None = None,
    vectors: np.ndarray | None = None,
) -> TruncationReport:
    """Fraction of eigenvalues within ``eps`` of the reference intervals.

    When the box and eigenvectors are supplied, eigenvectors holding at least
    half their weighted mass within graph distance 2 of the box's geometric
    boundary are counted as boundary modes.
    """
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    eigs = [float(x) for x in eigenvalues]
    if not eigs:
        return TruncationReport((), 1.0, None)
    inside = sum(1 for x in eigs if reference.distance(x) <= eps)
    fraction = inside / len(eigs)
    boundary_count: int | None = None
    if box_graph is not None and vectors is not None:
        boundary_count = _count_boundary_modes(box_graph, vectors)
    return TruncationReport(tuple(eigs), fraction, boundary_count)


def _count_boundary_modes(box_graph: BoxGraph, vectors: np.ndarray) -> int:
    near = _near_boundary_mask(box_graph, radius=2)
    # vectors are columns of the symmetric form; |column|^2 already carries
    # the degree weight of the normalized operator's eigenfunctions
    mass = np.abs(vectors) ** 2
    total = mass.sum(axis=0)
    boundary = mass[near].sum(axis=0)
    return int(np.sum(boundary >= 0.5 * total))


def _near_boundary_mask(box_graph: BoxGraph, radius: int) -> np.ndarray:
    cells = np.array([v.cell for v in box_graph.vertices])
    lo, hi = np.array(box_graph.box).T
    near = np.any((cells == lo) | (cells == hi), axis=1)
    for _ in range(radius):
        near[box_graph.cols[near[box_graph.rows]]] = True
    return near


def zero_mode_count(box_graph: BoxGraph, tol: float) -> int:
    """Number of eigenvalues within ``tol`` of zero."""
    if tol < 0:
        raise InputError(f"tolerance must be >= 0, got {tol}")
    eigs = spectrum_of_box(box_graph)
    return int(np.sum(np.abs(eigs) <= tol))
