"""Periodic graphs over the integer lattice and local adjacency oracles.

A graph is described by its fundamental domain: ``cell_size`` vertex labels
living at every lattice cell of Z^d, plus a multiset of edge templates.  Each
template connects ``(cell, origin)`` to ``(cell + index, target)`` for every
cell, so the whole (infinite) graph is generated by finitely many records.

States are finitely supported functions on the vertices, held as arrays over
a compiled box (``region.Region``); the dict form ``State`` and its
vertex-by-vertex operators are the tests' reference, in ``tests/reference.py``.
All norms and inner products are degree-weighted: ``<f, g> = sum conj(f(x)) *
g(x) * deg(x)``, which makes the degree-normalized adjacency operator
self-adjoint.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

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

    @cached_property
    def templates(self) -> tuple[tuple[tuple[Cell, int], ...], ...]:
        """Per label, the ``(index, target)`` of every oriented template at it
        in ``oriented_edges()`` order, the one order in which ``PeriodicOracle``
        lists a vertex's neighbours and ``Region`` builds its template rows."""
        out: list[list[tuple[Cell, int]]] = [[] for _ in range(self.cell_size)]
        for e in self.oriented_edges():
            out[e.origin].append((e.index, e.target))
        return tuple(map(tuple, out))


# The largest edge index component: the float64 phase ``k.x`` of a fiber
# matrix is off by about 2^-52 * 2 pi * |x|, which stays under 1.5e-9 here,
# below the band refinement's tolerance.
_INDEX_LIMIT = 1 << 20


def build_periodic(dim: int, cell_size: int, edges: Iterable[FundEdge]) -> PeriodicGraph:
    """Validate edge templates, canonicalize orientations and derive degrees.

    Raises ``DimensionMismatchError`` for index vectors of the wrong length,
    ``InputError`` for an index component past ``_INDEX_LIMIT`` and
    ``IsolatedVertexError`` if some label ends up with degree zero.
    """
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    if cell_size < 1:
        raise IsolatedVertexError(f"cell size must be >= 1, got {cell_size}")
    stored = []
    for e in edges:
        if len(e.index) != dim:
            raise DimensionMismatchError(
                f"edge {e} has index of length {len(e.index)}, expected {dim}"
            )
        if not (0 <= e.origin < cell_size and 0 <= e.target < cell_size):
            raise VertexNotInGraphError(
                f"edge {e} references labels outside 0..{cell_size - 1}"
            )
        if any(abs(x) > _INDEX_LIMIT for x in e.index):
            raise InputError(
                f"edge {e} has an index component past {_INDEX_LIMIT}, where the "
                f"float64 phase k.x of a fiber matrix loses its accuracy"
            )
        stored.append(e.canonical())
    # the first label with no edge, found before ``cell_size`` degrees are
    # listed: the scan passes at most two labels per edge
    ends = {label for c in stored for label in (c.origin, c.target)}
    isolated = next((label for label in range(cell_size) if label not in ends), None)
    if isolated is not None:
        raise IsolatedVertexError(f"label {isolated} has no incident edges")
    degrees = [0] * cell_size
    for c in stored:
        degrees[c.origin] += 1
        degrees[c.target] += 1
    if stored and all(not e.is_bridge for e in stored):
        warnings.warn(
            "all edge indices are zero: the graph does not propagate between "
            "cells and its bands are constant",
            stacklevel=2,
        )
    return PeriodicGraph(dim, cell_size, tuple(stored), tuple(degrees))


Window = tuple[tuple[int, int], ...]  # inclusive ``(lo, hi)`` per axis

# Cells of a whole box that ``box_cell_array`` lists, checked before
# allocating.  The size of the unperturbed-set mask cap: 256^3 cells (the
# ``bands`` grid 256 of a 3-D graph) sit exactly at it.
_BOX_CELL_LIMIT = 1 << 24
# The most axes of a whole box of two or more cells per axis under that cap.
_AXIS_LIMIT = _BOX_CELL_LIMIT.bit_length() - 1


def box_cell_count(box: Sequence[tuple[int, int]]) -> int:
    """The number of cells of ``box``; raises ``InputError`` when a
    coordinate does not fit in 64 bits or, as soon as the product of the
    axes so far passes it, when there are more than ``_BOX_CELL_LIMIT``."""
    count = 1
    for n in _cell_sizes(box):
        count *= n
        if count > _BOX_CELL_LIMIT:
            raise _too_many_cells(len(box))
    return count


def _too_many_cells(axes: int) -> InputError:
    return InputError(
        f"a box of {axes} axes has too many cells: a whole box is capped at {_BOX_CELL_LIMIT}"
    )


def _cell_sizes(box: Sequence[tuple[int, int]]) -> Iterator[int]:
    """Cells per axis of ``box``, each once the axis's coordinates fit in 64
    bits."""
    limit = 1 << 63
    for axis, (lo, hi) in enumerate(box):
        if lo <= hi and (lo < -limit or hi >= limit):
            raise InputError(
                f"box axis {axis} [{lo}, {hi}] has coordinates outside the 64-bit range"
            )
        yield max(hi - lo + 1, 0)


def box_cell_array(box: Sequence[tuple[int, int]], at: np.ndarray | None = None) -> np.ndarray:
    """The cells of ``box`` as an int64 array of shape ``(m, d)`` in
    lexicographic order (the last axis varies fastest), or only the cells at
    positions ``at`` of that order; raises ``InputError`` when a coordinate
    does not fit in 64 bits, or when the whole box is asked for and
    ``box_cell_count`` refuses it."""
    sizes = list(_cell_sizes(box))
    if at is None:
        cells = np.empty((box_cell_count(box), len(box)), dtype=np.int64)
        if not len(cells):
            return cells  # an empty axis, whose ends may pass 64 bits
        # the whole box: each axis's coordinates broadcast over the others
        grid = cells.reshape(*sizes, len(box))
        for axis, ((lo, _), size) in enumerate(zip(box, sizes)):
            shape = [1] * len(box)
            shape[axis] = size
            grid[..., axis] = (lo + np.arange(size, dtype=np.int64)).reshape(shape)
        return cells
    cells = np.empty((len(at), len(box)), dtype=np.int64)
    for axis, offsets in enumerate(np.unravel_index(at, sizes)):
        np.add(offsets, box[axis][0], out=cells[:, axis])
    return cells


def _foreign_neighbour(v: Vertex, dim: int) -> InputError:
    """The refusal of a graph that lists ``v``, whose cell has another
    number of coordinates than ``dim``, as a neighbour."""
    return InputError(
        f"the graph lists {v}, whose cell has {len(v.cell)} coordinates, "
        f"as a neighbour in a {dim}-dimensional graph"
    )


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
            [Vertex(tuple(map(add, cell, off)), lbl) for off, lbl in self.graph.templates[label]]
        )

    def vertices_in_cell(self, cell: Cell) -> tuple[Vertex, ...]:
        return tuple(Vertex(cell, label) for label in range(self.graph.cell_size))


def periodic_oracle(graph: PeriodicGraph) -> PeriodicOracle:
    return PeriodicOracle(graph)
