"""Periodic graphs over the integer lattice and local adjacency oracles.

A graph is described by its fundamental domain: ``cell_size`` vertex labels
living at every lattice cell of Z^d, plus a multiset of edge templates.  Each
template connects ``(cell, origin)`` to ``(cell + index, target)`` for every
cell, so the whole (infinite) graph is generated by finitely many records.

States are finitely supported maps ``Vertex -> complex`` held as plain dicts.
All norms and inner products are degree-weighted: ``<f, g> = sum conj(f(x)) *
g(x) * deg(x)``, which makes the degree-normalized adjacency operator
self-adjoint.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    InternalInvariantError,
    IsolatedVertexError,
    VertexNotInGraphError,
)

Cell = tuple[int, ...]
State = dict["Vertex", complex]


@dataclass(frozen=True, slots=True)
class Vertex:
    """A lattice vertex: integer cell coordinate plus a label within the cell.

    Labels ``0 .. cell_size-1`` belong to the periodic base graph; larger
    labels are reserved for vertices introduced by perturbations.
    """

    cell: Cell
    label: int

    def shifted(self, offset: Cell) -> "Vertex":
        return Vertex(tuple(c + o for c, o in zip(self.cell, offset)), self.label)

    def __repr__(self) -> str:  # compact: (1,-2|v0)
        return f"({','.join(map(str, self.cell))}|v{self.label})"


def vert(*cell: int, label: int = 0) -> Vertex:
    """Convenience constructor: ``vert(1, -2, label=0)``."""
    return Vertex(tuple(cell), label)


@dataclass(frozen=True, slots=True)
class FundEdge:
    """One unoriented edge template, stored in a canonical orientation.

    ``index`` is the lattice displacement from the origin label's cell to the
    target label's cell.  The reversed orientation ``(target, origin, -index)``
    is implied and must not be stored as a second record; a second record with
    the same endpoints means a genuine parallel edge.
    """

    origin: int
    target: int
    index: Cell

    def reversed(self) -> "FundEdge":
        return FundEdge(self.target, self.origin, tuple(-i for i in self.index))

    def canonical(self) -> "FundEdge":
        rev = self.reversed()
        mine = (self.origin, self.target, self.index)
        theirs = (rev.origin, rev.target, rev.index)
        return self if mine <= theirs else rev

    @property
    def is_bridge(self) -> bool:
        return any(i != 0 for i in self.index)


@dataclass(frozen=True)
class PeriodicGraph:
    """Validated fundamental-domain description of a Z^d-periodic graph."""

    dim: int
    cell_size: int
    edges: tuple[FundEdge, ...]
    degrees: tuple[int, ...]

    def oriented_edges(self) -> list[FundEdge]:
        """Both orientations of every stored template (loops twice)."""
        out = []
        for e in self.edges:
            out.append(e)
            out.append(e.reversed())
        return out


def build_periodic(dim: int, cell_size: int, edges: Iterable[FundEdge]) -> PeriodicGraph:
    """Validate edge templates, canonicalize orientations and derive degrees.

    Raises ``DimensionMismatchError`` for index vectors of the wrong length
    and ``IsolatedVertexError`` if some label ends up with degree zero.
    """
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    if cell_size < 1:
        raise IsolatedVertexError(f"cell size must be >= 1, got {cell_size}")
    stored = []
    degrees = [0] * cell_size
    for e in edges:
        if len(e.index) != dim:
            raise DimensionMismatchError(
                f"edge {e} has index of length {len(e.index)}, expected {dim}"
            )
        if not (0 <= e.origin < cell_size and 0 <= e.target < cell_size):
            raise VertexNotInGraphError(
                f"edge {e} references labels outside 0..{cell_size - 1}"
            )
        c = e.canonical()
        stored.append(c)
        degrees[c.origin] += 1
        degrees[c.target] += 1
    for label, deg in enumerate(degrees):
        if deg == 0:
            raise IsolatedVertexError(f"label {label} has no incident edges")
    if stored and all(not e.is_bridge for e in stored):
        warnings.warn(
            "all edge indices are zero: the graph does not propagate between "
            "cells and its bands are constant",
            stacklevel=2,
        )
    return PeriodicGraph(dim, cell_size, tuple(stored), tuple(degrees))


Window = tuple[tuple[int, int], ...]  # inclusive ``(lo, hi)`` per axis


def box_cells(box: Sequence[tuple[int, int]]) -> Iterator[Cell]:
    """Cells of the box ``[lo, hi]`` per axis in lexicographic order (the
    last axis varies fastest); an empty box sequence yields the single cell
    ``()``."""
    return itertools.product(*(range(lo, hi + 1) for lo, hi in box))


def box_cell_array(box: Sequence[tuple[int, int]], at: np.ndarray | None = None) -> np.ndarray:
    """The cells of ``box`` as an int64 array of shape ``(m, d)`` in
    ``box_cells`` order, or only the cells at positions ``at`` of that order;
    raises ``InputError`` when a coordinate does not fit in 64 bits."""
    limit = 1 << 63
    if any(lo < -limit or hi >= limit for lo, hi in box if lo <= hi):
        raise InputError(f"box {list(box)} has coordinates outside the 64-bit range")
    sizes = [max(hi - lo + 1, 0) for lo, hi in box]
    if at is None:
        # the whole box: each axis's coordinates broadcast over the others
        cells = np.empty((*sizes, len(box)), dtype=np.int64)
        for axis, ((lo, _), size) in enumerate(zip(box, sizes)):
            shape = [1] * len(box)
            shape[axis] = size
            cells[..., axis] = (lo + np.arange(size, dtype=np.int64)).reshape(shape)
        return cells.reshape(-1, len(box))
    cells = np.empty((len(at), len(box)), dtype=np.int64)
    for axis, offsets in enumerate(np.unravel_index(at, sizes)):
        np.add(offsets, box[axis][0], out=cells[:, axis])
    return cells


def edge_index(origin: Vertex, target: Vertex) -> Cell:
    """Lattice displacement ``target.cell - origin.cell`` of an oriented edge."""
    if len(origin.cell) != len(target.cell):
        raise DimensionMismatchError(
            f"vertices {origin} and {target} have different dimensions"
        )
    return tuple(t - o for o, t in zip(origin.cell, target.cell))


def propagation_length(graph: PeriodicGraph) -> int:
    """Largest absolute component of any edge index.

    One application of the adjacency operator moves support by at most this
    many cells per axis.  Zero means every edge stays inside its own cell.
    """
    best = 0
    for e in graph.edges:
        for comp in e.index:
            best = max(best, abs(comp))
    return best


class GraphOracle:
    """Uniform local-query interface over a possibly infinite graph.

    Implementations must be pure: the same query always returns the same
    answer, and adjacency is symmetric with matching multiplicities.
    """

    def contains(self, v: Vertex) -> bool:
        raise NotImplementedError

    def out_edges(self, v: Vertex) -> tuple[Vertex, ...]:
        """Targets of all oriented edges at ``v``, with multiplicity (loops twice)."""
        raise NotImplementedError

    def degree(self, v: Vertex) -> int:
        return len(self.out_edges(v))

    def vertices_in_cell(self, cell: Cell) -> tuple[Vertex, ...]:
        """All vertices of the graph whose lattice coordinate is ``cell``."""
        raise NotImplementedError


def audit_symmetry(
    n: int, name: Callable[[int], Vertex], rows: np.ndarray, cols: np.ndarray
) -> None:
    """Check that the oriented edges ``rows[k] -> cols[k]`` between ``n``
    vertices list every edge from both ends with the same multiplicity;
    raise ``InternalInvariantError`` naming one pair (``name`` gives the
    vertex of an index) and both counts if not."""
    forward, backward = rows * n, cols * n  # sorted in place: entries can be many
    forward += cols
    backward += rows
    forward.sort()
    backward.sort()
    differ = np.flatnonzero(forward != backward)
    if differ.size:
        # below the first difference the sorted keys agree, so the smaller
        # key there is listed more often in one direction than in the other
        key = min(forward[differ[0]], backward[differ[0]])
        u, v = map(name, divmod(int(key), n))
        raise InternalInvariantError(
            f"oracle adjacency is not symmetric: {u} -> {v} is listed "
            f"{np.count_nonzero(forward == key)} times, {v} -> {u} "
            f"{np.count_nonzero(backward == key)} times"
        )


class PeriodicOracle(GraphOracle):
    """Adjacency oracle generated by a fundamental-domain description."""

    def __init__(self, graph: PeriodicGraph):
        self.graph = graph
        # per-label adjacency templates: label -> ((cell offset, target label), ...)
        templates: list[list[tuple[Cell, int]]] = [[] for _ in range(graph.cell_size)]
        for e in graph.edges:
            templates[e.origin].append((e.index, e.target))
            rev = e.reversed()
            templates[rev.origin].append((rev.index, rev.target))
        self._templates = tuple(tuple(t) for t in templates)
        self._dim = graph.dim
        self._size = graph.cell_size

    def contains(self, v: Vertex) -> bool:
        return len(v.cell) == self._dim and 0 <= v.label < self._size

    def out_edges(self, v: Vertex) -> tuple[Vertex, ...]:
        cell, label = v.cell, v.label
        if len(cell) != self._dim or not 0 <= label < self._size:
            raise VertexNotInGraphError(f"{v} is not a vertex of this graph")
        add = operator.add
        return tuple(
            [Vertex(tuple(map(add, cell, off)), lbl) for off, lbl in self._templates[label]]
        )

    def degree(self, v: Vertex) -> int:
        if not self.contains(v):
            raise VertexNotInGraphError(f"{v} is not a vertex of this graph")
        return len(self._templates[v.label])

    def vertices_in_cell(self, cell: Cell) -> tuple[Vertex, ...]:
        return tuple(Vertex(cell, label) for label in range(self.graph.cell_size))


def periodic_oracle(graph: PeriodicGraph) -> PeriodicOracle:
    return PeriodicOracle(graph)


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
    return {v.shifted(shift): val for v, val in psi.items()}
