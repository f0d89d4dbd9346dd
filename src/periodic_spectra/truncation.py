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
from .graphs import GraphOracle, PeriodicOracle, Vertex, Window, box_cells

_DENSE_LIMIT = 4000


class BoxGraph:
    """Finite restriction of a graph to a lattice box."""

    def __init__(
        self,
        vertices: list[Vertex],
        pair_counts: dict[tuple[int, int], int],
        box: Window,
        wrapped: bool,
        dropped: int,
    ):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.box = box
        self.wrapped = wrapped
        self.dropped = dropped
        n = len(self.vertices)
        deg = np.zeros(n, dtype=np.int64)
        for (i, j), c in pair_counts.items():
            deg[i] += c
            if i != j:
                deg[j] += c
            else:
                deg[i] += c  # loops count twice
        self.degrees = deg
        self._pairs = pair_counts

    def __len__(self) -> int:
        return len(self.vertices)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency with multiplicities (loops doubled)."""
        n = len(self.vertices)
        a = np.zeros((n, n), dtype=float)
        for (i, j), c in self._pairs.items():
            if i == j:
                a[i, i] += 2.0 * c
            else:
                a[i, j] += c
                a[j, i] += c
        return a

    def normalized_symmetric(self) -> np.ndarray:
        """The Hermitian form deg^(-1/2) A deg^(-1/2), same spectrum as the
        degree-normalized adjacency operator."""
        a = self.adjacency()
        inv_sqrt = 1.0 / np.sqrt(self.degrees.astype(float))
        return inv_sqrt[:, None] * a * inv_sqrt[None, :]

    def neighbor_lists(self) -> list[list[int]]:
        n = len(self.vertices)
        out: list[list[int]] = [[] for _ in range(n)]
        for (i, j), _ in self._pairs.items():
            out[i].append(j)
            if i != j:
                out[j].append(i)
        return out


@dataclass(frozen=True)
class TruncationReport:
    """Comparison of box eigenvalues against a reference spectrum."""

    eigenvalues: tuple[float, ...]
    inside_fraction: float
    boundary_count: int | None = None


def truncate(oracle: GraphOracle, box: Window, periodic_wrap: bool = False) -> BoxGraph:
    """Restrict the graph to cells inside ``box``.

    With ``periodic_wrap`` (purely periodic graphs only) edges leaving the box
    re-enter modulo the box lengths.  Without it the induced subgraph is
    taken, degrees recomputed, and vertices left isolated are dropped (their
    number is recorded on the result).
    """
    for lo, hi in box:
        if lo > hi:
            raise EmptyBoxError(f"box side [{lo}, {hi}] is empty")
    if periodic_wrap:
        if not isinstance(oracle, PeriodicOracle):
            raise InputError("periodic wrap needs a purely periodic oracle")
        return _truncate_wrapped(oracle, box)
    vertices: list[Vertex] = []
    for cell in box_cells(box):
        for v in oracle.vertices_in_cell(cell):
            if oracle.contains(v):
                vertices.append(v)
    if not vertices:
        raise EmptyBoxError("box contains no vertices of the graph")
    vertices.sort(key=lambda v: (v.cell, v.label))
    index = {v: i for i, v in enumerate(vertices)}
    oriented: dict[tuple[int, int], int] = {}
    for v in vertices:
        i = index[v]
        for t in oracle.out_edges(v):
            j = index.get(t)
            if j is not None:
                oriented[(i, j)] = oriented.get((i, j), 0) + 1
    pair_counts: dict[tuple[int, int], int] = {}
    for (i, j), c in oriented.items():
        if i < j:
            pair_counts[(i, j)] = c
        elif i == j:
            # loops appear twice in out_edges
            pair_counts[(i, i)] = c // 2
    incident = [False] * len(vertices)
    for i, j in pair_counts:
        incident[i] = True
        incident[j] = True
    keep = [i for i in range(len(vertices)) if incident[i]]
    dropped = len(vertices) - len(keep)
    if not keep:
        raise EmptyBoxError("every vertex in the box is isolated")
    if dropped:
        remap = {old: new for new, old in enumerate(keep)}
        pair_counts = {
            (remap[i], remap[j]): c for (i, j), c in pair_counts.items()
        }
        vertices = [vertices[i] for i in keep]
    return BoxGraph(vertices, pair_counts, box, wrapped=False, dropped=dropped)


def _truncate_wrapped(oracle: PeriodicOracle, box: Window) -> BoxGraph:
    graph = oracle.graph
    if len(box) != graph.dim:
        raise InputError(f"box has {len(box)} axes, graph dimension is {graph.dim}")
    lengths = [hi - lo + 1 for lo, hi in box]
    los = [lo for lo, _ in box]
    vertices = [
        Vertex(cell, label)
        for cell in box_cells(box)
        for label in range(graph.cell_size)
    ]
    index = {v: i for i, v in enumerate(vertices)}
    pair_counts: dict[tuple[int, int], int] = {}
    for cell in box_cells(box):
        for e in graph.edges:
            target_cell = tuple(
                lo + ((c + x - lo) % ln)
                for c, x, lo, ln in zip(cell, e.index, los, lengths)
            )
            i = index[Vertex(cell, e.origin)]
            j = index[Vertex(target_cell, e.target)]
            key = (i, j) if i <= j else (j, i)
            pair_counts[key] = pair_counts.get(key, 0) + 1
    return BoxGraph(list(vertices), pair_counts, box, wrapped=True, dropped=0)


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
    deg = box_graph.degrees.astype(float)
    # vectors are columns of the symmetric form; |column|^2 already carries
    # the degree weight of the normalized operator's eigenfunctions
    mass = np.abs(vectors) ** 2
    total = mass.sum(axis=0)
    boundary = mass[near].sum(axis=0)
    return int(np.sum(boundary >= 0.5 * total))


def _near_boundary_mask(box_graph: BoxGraph, radius: int) -> np.ndarray:
    on_edge = np.zeros(len(box_graph), dtype=bool)
    for i, v in enumerate(box_graph.vertices):
        for (lo, hi), c in zip(box_graph.box, v.cell):
            if c == lo or c == hi:
                on_edge[i] = True
                break
    frontier = set(np.nonzero(on_edge)[0].tolist())
    seen = set(frontier)
    neighbors = box_graph.neighbor_lists()
    for _ in range(radius):
        frontier = {
            j for i in frontier for j in neighbors[i] if j not in seen
        }
        seen |= frontier
    mask = np.zeros(len(box_graph), dtype=bool)
    mask[list(seen)] = True
    return mask


def zero_mode_count(box_graph: BoxGraph, tol: float) -> int:
    """Number of eigenvalues within ``tol`` of zero."""
    if tol < 0:
        raise InputError(f"tolerance must be >= 0, got {tol}")
    eigs = spectrum_of_box(box_graph)
    return int(np.sum(np.abs(eigs) <= tol))
