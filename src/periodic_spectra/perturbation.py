"""Perturbed periodic graphs sharing a common subgraph with their base.

A perturbation removes base vertices/edges and adds new ones, possibly
infinitely many.  The common subgraph consists of the kept base vertices with
the untouched base edges.  A kept base vertex keeps its base name in the
perturbed graph, so states move between the two graphs unchanged on the
common subgraph.

The key derived object is the *unperturbed set*: kept base vertices whose
degree and full edge neighborhood survive the perturbation untouched.  On its
image the perturbed and base operators agree exactly, so states supported
deep inside it cannot feel the perturbation.  The *defect operator* measures
everything outside that image.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import (
    InputError,
    InternalInvariantError,
    VertexNotInCommonSubgraphError,
    VertexNotInGraphError,
)
from .graphs import (
    Cell,
    GraphOracle,
    PeriodicGraph,
    Vertex,
    Window,
    _cell_sizes,
    periodic_oracle,
    propagation_length,
)
from .randomfield import cell_hash_array

_NO_NEIGHBORS: tuple[Vertex, ...] = ()

# Grid form of a vertex predicate: one int64 coordinate array per axis and the
# label array, broadcasting over a block of vertices -> a bool array that
# broadcasts to that block.
GridPredicate = Callable[[tuple[np.ndarray, ...], np.ndarray], np.ndarray]

# Vertices of the padded box of one ``UnperturbedSet.mask`` call, checked
# before allocating: the mask holds about 13 bytes per such vertex (measured
# on a 2001 x 2001 window), so the cap bounds it near 210 MiB and leaves a
# 2001 x 2001 or 255^3 window room to run.
_MASK_LIMIT = 1 << 24

# Cells of a search window padded by the box half-width on every side, checked
# before the search reads any: the 3-D n=96 default window, 389 cells per axis
# padded by 96, is 581^3, about 2 * 10^8 cells; reading 2^32 would take minutes.
_SEARCH_LIMIT = 1 << 32

# Besides the box corners, ``mask`` checks every this many box vertices of a
# hook's answer against the scalar predicate.
_SAMPLE_STRIDE = 4096
# Vertices per hook call, so a hook's temporaries stay small and in cache.
_HOOK_ROWS = 1 << 16


def _pair_key(u: Vertex, v: Vertex) -> tuple:
    a, b = sorted([u, v], key=lambda w: (w.cell, w.label))
    return (a.cell, a.label, b.cell, b.label)


@dataclass(frozen=True)
class Patch:
    """Explicit finite perturbation: vertex/edge removals and additions.

    Edges are unordered vertex pairs; repeating a pair means parallel edges.
    Removing a vertex silently removes its incident edges, so removal entries
    that mention a removed vertex are normalized away.
    """

    removed_vertices: frozenset[Vertex] = frozenset()
    removed_edges: tuple[tuple[Vertex, Vertex], ...] = ()
    added_vertices: frozenset[Vertex] = frozenset()
    added_edges: tuple[tuple[Vertex, Vertex], ...] = ()


@dataclass(frozen=True)
class PredicatePatch:
    """Predicate-defined perturbation, usable for infinite modifications.

    ``keep`` decides which base vertices survive; ``added_contains`` tests
    membership of new vertices; ``added_neighbors`` lists, for any vertex of
    the perturbed graph, the targets of added edges at it (symmetrically and
    with multiplicity); ``added_in_cell`` lists the added vertices of a cell.
    These scalar callables are the contract.

    ``keep_grid`` and ``has_added_grid`` are optional grid forms that
    ``UnperturbedSet.mask`` calls instead, on blocks of at most 65,536
    vertices.  Each takes a tuple ``x`` of int64 coordinate arrays, one per
    axis, and a label array ``labels``, all shaped to broadcast over the
    block ``(run, later axes..., labels)``, and returns a bool array that
    broadcasts to the block (a 0-d answer covers all of it): ``keep_grid``
    is ``keep`` vertex by vertex, ``has_added_grid`` is true where
    ``added_neighbors`` lists anything (its answer off the common subgraph
    is not read).  A missing hook is replaced by the scalar callable applied
    vertex by vertex.  Every ``mask`` call checks both hooks against the
    scalar callables at the box corners and every 4096th box vertex (for
    ``has_added_grid``, those that kept all of their base edges), and raises
    ``InternalInvariantError`` naming the first vertex where they differ.
    """

    keep: Callable[[Vertex], bool]
    added_contains: Callable[[Vertex], bool] = lambda v: False
    added_neighbors: Callable[[Vertex], tuple[Vertex, ...]] = lambda v: _NO_NEIGHBORS
    added_in_cell: Callable[[Cell], tuple[Vertex, ...]] = lambda cell: _NO_NEIGHBORS
    keep_grid: GridPredicate | None = None
    has_added_grid: GridPredicate | None = None


class PerturbedOracle(GraphOracle):
    """Adjacency oracle of the perturbed graph."""

    def __init__(self, owner: "PerturbedGraph"):
        self._g = owner

    def contains(self, v: Vertex) -> bool:
        g = self._g
        return g.in_common(v) or g._added_contains(v)

    def out_edges(self, v: Vertex) -> tuple[Vertex, ...]:
        """A kept base vertex has its surviving base edges plus its added
        edges; any other vertex is an added vertex or absent."""
        g = self._g
        if g.in_common(v):
            keep = g._keep
            removed = g._removed_count
            targets = [
                t
                for t in g.base_oracle.out_edges(v)
                if keep(t) and not (removed and removed.get(_pair_key(v, t), 0) > 0)
            ]
        elif g._added_contains(v):
            targets = []
        else:
            raise VertexNotInGraphError(f"{v} is not a vertex of the perturbed graph")
        targets.extend(g._added_neighbors(v))
        return tuple(targets)

    def vertices_in_cell(self, cell) -> tuple[Vertex, ...]:
        g = self._g
        out = [v for v in (Vertex(cell, a) for a in range(g.base.cell_size)) if g._keep(v)]
        out.extend(g._added_in_cell(cell))
        return tuple(out)


class UnperturbedSet:
    """Membership in the unperturbed set, per vertex or for a whole box.

    A kept base vertex belongs iff its perturbed degree equals its base degree
    and every base edge at it keeps both endpoints and is not removed.
    ``contains`` answers for one vertex; ``mask`` answers for every vertex of
    a box at once, and the scalar test is its reference.
    """

    def __init__(self, owner: "PerturbedGraph"):
        self._g = owner

    def contains(self, x: Vertex) -> bool:
        if not self._g.in_common(x):
            raise VertexNotInCommonSubgraphError(
                f"{x} is not a vertex of the common subgraph"
            )
        return self._contains_known(x)

    def _contains_known(self, x: Vertex) -> bool:
        """Membership of a kept base vertex ``x``."""
        g = self._g
        removed = g._removed_count
        for t in g.base_oracle.out_edges(x):
            if not g._keep(t) or (removed and removed.get(_pair_key(x, t), 0) > 0):
                return False
        return g.oracle.degree(x) == g.base_oracle.degree(x)

    def mask(self, box: Window) -> np.ndarray:
        """Membership of every vertex of ``box`` as a boolean array of shape
        ``(sizes..., cell_size)``, cells in lexicographic order and labels
        last; an entry is ``in_common(x) and _contains_known(x)``.

        The kept grid (``keep_grid``) over the box padded by the propagation
        length is ANDed with itself shifted by every oriented edge template,
        and the endpoints of removed base edges are cleared.  A vertex that
        survives has all of its base edges, so it belongs iff
        ``has_added_grid``, asked over the whole box, is false at it.  A
        padded box of more than ``_MASK_LIMIT`` vertices raises
        ``InputError`` before anything is allocated.
        """
        return self._kept_and_mask(box)[1]

    def _kept_and_mask(self, box: Window) -> tuple[np.ndarray, np.ndarray]:
        """``mask(box)`` and the kept grid it is read from, which covers
        ``box`` padded by the propagation length (both empty for an empty
        box)."""
        g = self._g
        base = g.base
        if len(box) != base.dim:
            raise InputError(f"box has {len(box)} axes, graph has dimension {base.dim}")
        s = base.cell_size
        sizes = tuple(max(hi - lo + 1, 0) for lo, hi in box)
        if 0 in sizes:
            empty = np.zeros(sizes + (s,), dtype=bool)
            return empty, empty
        pad = propagation_length(base)
        padded = [(lo - pad, hi + pad) for lo, hi in box]
        _check_mask_cap(box, pad, s)
        kept = _checked_hook(g._keep_grid, g._keep, padded, s, "keep_grid")
        out = kept[tuple(slice(pad, pad + n) for n in sizes)].copy()
        for label, at in enumerate(base.templates):
            for index, target in at:
                ahead = tuple(slice(pad + i, pad + i + n) for i, n in zip(index, sizes))
                out[..., label] &= kept[ahead + (target,)]
        if g._removed_ends is not None:
            cells, labels = g._removed_ends[:, :-1], g._removed_ends[:, -1]
            lows, highs = np.array(box, dtype=np.int64).T
            inside = ((cells >= lows) & (cells <= highs)).all(axis=1)
            out[tuple((cells[inside] - lows).T) + (labels[inside],)] = False
        out &= ~_checked_hook(g._has_added_grid, g._has_added, box, s, "has_added_grid", out)
        return kept, out


def _check_mask_cap(box: Window, pad: int, s: int) -> None:
    """``InputError`` when ``box`` padded by ``pad``, ``s`` labels per cell,
    holds more than ``_MASK_LIMIT`` vertices, as soon as the product of the
    axes so far passes it; the message prints no size of the box."""
    count = s
    for lo, hi in box:
        count *= max(hi - lo + 1, 0) + 2 * pad
        if count > _MASK_LIMIT:
            raise InputError(
                f"a box of {len(box)} axes padded by {pad}, {s} labels per cell, has "
                f"too many vertices: the unperturbed-set mask is capped at {_MASK_LIMIT}"
            )


def _checked_hook(
    hook: GridPredicate,
    scalar: Callable[[Vertex], bool],
    box: Window,
    s: int,
    name: str,
    where: np.ndarray | None = None,
) -> np.ndarray:
    """``hook`` at every vertex of ``box`` as a bool array of shape
    ``(sizes..., s)``.  It is asked per block of at most ``_HOOK_ROWS``
    vertices: the leading axes fixed (0-d coordinates), a run of one axis
    and every later axis whole, each axis one coordinate range shaped to
    broadcast over the block.  The answer is compared with ``scalar`` at the
    box corners and at every ``_SAMPLE_STRIDE``-th vertex, only where
    ``where`` (of the same shape) is set if it is given; the first vertex
    where they differ raises ``InternalInvariantError``, as does an answer
    that is not a bool array broadcasting to its block.  A coordinate past
    64 bits raises ``InputError``."""
    sizes, d = list(_cell_sizes(box)), len(box)
    got = np.empty((*sizes, s), dtype=bool)
    # blocks run along ``axis``, the first whose later axes hold few enough vertices
    axis = next((a for a in range(d) if math.prod(sizes[a + 1 :]) * s <= _HOOK_ROWS), d - 1)
    step = max(_HOOK_ROWS // (math.prod(sizes[axis + 1 :]) * s), 1)
    whole = [
        (np.arange(sizes[a]) + box[a][0]).reshape((-1,) + (1,) * (d - a))
        for a in range(axis + 1, d)
    ]
    labels = np.arange(s)
    for prefix in itertools.product(*map(range, sizes[:axis])):
        fixed = [np.array(box[a][0] + c, dtype=np.int64) for a, c in enumerate(prefix)]
        for j0 in range(0, sizes[axis], step):
            j1 = min(j0 + step, sizes[axis])
            run = (np.arange(j0, j1) + box[axis][0]).reshape((-1,) + (1,) * (d - axis))
            block = got[prefix + (slice(j0, j1),)]
            answer = hook((*fixed, run, *whole), labels)
            shape = getattr(answer, "shape", ())
            if getattr(answer, "dtype", None) != bool or len(shape) > block.ndim or any(
                n not in (1, m) for n, m in zip(shape[::-1], block.shape[::-1])
            ):
                raise InternalInvariantError(
                    f"{name} returned a {type(answer).__name__} of dtype "
                    f"{getattr(answer, 'dtype', None)} and shape {shape}, expected a bool "
                    f"array that broadcasts to {block.shape}"
                )
            block[...] = answer

    # the sample as index tuples, which sort in grid order
    corners = itertools.product(*[(0, n - 1) for n in sizes], range(s))
    strided = np.unravel_index(np.arange(0, got.size, _SAMPLE_STRIDE), got.shape)
    for at in sorted(set(corners).union(zip(*(a.tolist() for a in strided)))):
        if where is not None and not where[at]:
            continue
        v = Vertex(tuple(lo + c for (lo, _), c in zip(box, at)), at[-1])
        if bool(scalar(v)) != got[at]:
            raise InternalInvariantError(
                f"{name} gives {bool(got[at])} at {v}, its scalar predicate {not got[at]}"
            )
    return got


def _int64_rows(rows: list[tuple[int, ...]], width: int) -> np.ndarray:
    """The ``rows`` of ``width`` integers as an int64 array of shape
    ``(m, width)``, leaving out any row with a value past 64 bits."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        limit = 1 << 63
        fit = [r for r in rows if all(-limit <= x < limit for x in r)]
        return np.array(fit, dtype=np.int64).reshape(len(fit), width)


def _row_by_row(predicate: Callable[[Vertex], bool]) -> GridPredicate:
    """Grid form of a scalar vertex predicate: one call per vertex of the
    coordinates' broadcast block."""

    def apply(x: tuple[np.ndarray, ...], labels: np.ndarray) -> np.ndarray:
        *cells, labels = np.broadcast_arrays(*x, labels)
        rows = zip(zip(*(c.reshape(-1).tolist() for c in cells)), labels.reshape(-1).tolist())
        got = np.fromiter(
            (bool(predicate(Vertex(c, a))) for c, a in rows), dtype=bool, count=labels.size
        )
        return got.reshape(labels.shape)

    return apply


def _finite_membership(vertices: Iterable[Vertex], dim: int) -> GridPredicate:
    """Grid form of ``v in vertices`` for a finite vertex set, asked at
    cells of ``dim`` coordinates.  A vertex whose ``cell_hash`` of
    ``(cell..., label)`` is a member's hash is a candidate, found by one
    ``searchsorted`` in the members' hashes (sorted once here), and each
    candidate is then looked up exactly.  A member past 64 bits is no such
    vertex and is left out of the hashes."""
    members = frozenset(vertices)
    keys = [v.cell + (v.label,) for v in members]
    hashes = np.sort(cell_hash_array(0, _int64_rows(keys, dim + 1).T))

    def contains(x: tuple[np.ndarray, ...], labels: np.ndarray) -> np.ndarray:
        if not len(hashes):
            return np.zeros((), dtype=bool)
        keys = cell_hash_array(0, (*x, labels))
        # a key past the greatest hash is compared with the greatest
        nearest = np.minimum(np.searchsorted(hashes, keys), len(hashes) - 1)
        out = hashes[nearest] == keys
        at = np.nonzero(out)
        *cells, labels = (np.broadcast_to(c, out.shape)[at].tolist() for c in (*x, labels))
        out[at] = [Vertex(c, a) in members for c, a in zip(zip(*cells), labels)]
        return out

    return contains


@dataclass(frozen=True)
class WindowReport:
    """Outcome of scanning a window for a box inside the unperturbed set."""

    n: int
    center: Vertex | None
    searched: int
    box_bounds: tuple[int, int]


class PerturbedGraph:
    """A base periodic graph plus a patch, with derived oracles.

    A kept base vertex keeps its base name.  Every other vertex of the
    perturbed graph is an added vertex, which may reuse the name of a removed
    base vertex.
    """

    def __init__(self, base: PeriodicGraph, patch: Patch | PredicatePatch, name: str = ""):
        self.base = base
        self.base_oracle = periodic_oracle(base)
        self.name = name
        self.patch = patch
        if isinstance(patch, Patch):
            self._init_from_patch(patch)
        else:
            self._keep = patch.keep
            self._added_contains = patch.added_contains
            self._added_neighbors = patch.added_neighbors
            self._added_in_cell = patch.added_in_cell
            self._removed_count: dict | None = None
            self._removed_ends = None
            self._keep_grid = patch.keep_grid or _row_by_row(patch.keep)
            self._has_added_grid = patch.has_added_grid or _row_by_row(self._has_added)
        self.oracle = PerturbedOracle(self)
        self.unperturbed = UnperturbedSet(self)

    def _init_from_patch(self, patch: Patch) -> None:
        removed_v = patch.removed_vertices
        for v in removed_v:
            if not self._is_base_name(v):
                raise InputError(f"cannot remove {v}: not a base vertex")
        removed_edges = [
            (u, v)
            for u, v in patch.removed_edges
            if u not in removed_v and v not in removed_v
        ]
        self._removed_count = Counter(_pair_key(u, v) for u, v in removed_edges)
        # the endpoints of removed base edges, which ``mask`` clears
        moves = {(a, b, index) for a, at in enumerate(self.base.templates) for index, b in at}
        ends = [
            x.cell + (x.label,)
            for u, v in removed_edges
            if len(u.cell) == len(v.cell)
            and (u.label, v.label, tuple(map(operator.sub, v.cell, u.cell))) in moves
            for x in (u, v)
        ]
        self._removed_ends = _int64_rows(ends, self.base.dim + 1) if ends else None
        self._keep = lambda v: v not in removed_v
        removed_at = _finite_membership(removed_v, self.base.dim)
        self._keep_grid = lambda x, labels: ~removed_at(x, labels)
        added_v = set(patch.added_vertices)
        for v in added_v:
            if len(v.cell) != self.base.dim:
                raise InputError(
                    f"added vertex {v} has {len(v.cell)} coordinates, "
                    f"the graph has dimension {self.base.dim}"
                )
            if self.in_common(v):
                raise InputError(f"added vertex {v} collides with a base vertex")
        neighbor_map: dict[Vertex, list[Vertex]] = {}
        for u, v in patch.added_edges:
            if not all(self.in_common(w) or w in added_v for w in (u, v)):
                raise InputError(f"added edge ({u}, {v}) references an absent vertex")
            neighbor_map.setdefault(u, []).append(v)
            neighbor_map.setdefault(v, []).append(u)
        frozen = {k: tuple(v) for k, v in neighbor_map.items()}
        added_by_cell: dict[Cell, list[Vertex]] = {}
        for v in sorted(added_v, key=lambda u: (u.cell, u.label)):
            added_by_cell.setdefault(v.cell, []).append(v)
        frozen_cells = {c: tuple(vs) for c, vs in added_by_cell.items()}
        self._added_contains = lambda v: v in added_v
        self._added_neighbors = lambda v: frozen.get(v, _NO_NEIGHBORS)
        self._added_in_cell = lambda cell: frozen_cells.get(cell, ())
        self._has_added_grid = _finite_membership(frozen, self.base.dim)

    def _has_added(self, v: Vertex) -> bool:
        """Does a kept base vertex ``v`` have added edges?  False off the
        common subgraph, where ``added_neighbors`` is not asked."""
        return self.in_common(v) and bool(self._added_neighbors(v))

    def _is_base_name(self, v: Vertex) -> bool:
        return len(v.cell) == self.base.dim and 0 <= v.label < self.base.cell_size

    def in_common(self, x: Vertex) -> bool:
        """Is ``x`` a vertex of the common subgraph (a kept base vertex)?"""
        return self._is_base_name(x) and self._keep(x)


def find_unperturbed_box(
    graph: PerturbedGraph, n: int, window: Window
) -> WindowReport:
    """First center, in lexicographic order over ``window``, whose padded box
    lies inside the unperturbed set.

    ``searched`` is the center's rank plus one, or the number of centers in
    the window with ``center=None`` when none is clear.  Centers are taken
    in slabs of 1, 2, 4, ... rows along the first axis, and the cell rows
    they need are read once, in order, from ``mask`` calls of at most
    ``_MASK_LIMIT`` vertices; only a window whose single padded row is past
    the cap raises ``InputError``.  Each piece of rows is eroded across the
    lateral axes, and an int32 counter per lateral center holds how many
    eroded rows in a row are clear: center row ``r`` is clear where it
    reaches the box side at cell row ``r + half``.  A box side past 2**31 - 1
    cells, a window coordinate outside 64 bits, a padded row past the mask
    cap, or a window of more than ``_SEARCH_LIMIT`` cells padded by ``half``,
    raises ``InputError`` before any ``mask`` call.
    """
    if n < 1:
        raise InputError(f"box radius must be >= 1, got {n}")
    if len(window) != graph.base.dim:
        raise InputError(
            f"window has {len(window)} axes, graph has dimension {graph.base.dim}"
        )
    pad = propagation_length(graph.base)
    half = n + pad - 1
    side = 2 * half + 1
    if side > np.iinfo(np.int32).max:
        raise InputError(f"box side {side} is past the int32 run counter of the search")
    bounds = (-half, half)
    rows, *lateral = _cell_sizes(window)
    (lo, hi), rest = window[0], window[1:]
    across = [(a - half, b + half) for a, b in rest]
    per_row = math.prod(lateral)
    if rows == 0 or per_row == 0:
        return WindowReport(n, None, 0, bounds)
    s = graph.base.cell_size
    # a padded row past the mask cap is refused as the first ``mask`` call would
    _check_mask_cap([(0, 0)] + across, pad, s)
    if (rows + 2 * half) * math.prod(b - a + 1 for a, b in across) > _SEARCH_LIMIT:
        raise InputError(
            f"a window of {len(window)} axes padded by {half} has too many cells: the "
            f"box search is capped at {_SEARCH_LIMIT}"
        )
    padded_row = math.prod(b - a + 1 + 2 * pad for a, b in across) * s
    piece = max(_MASK_LIMIT // padded_row - 2 * pad, 1)
    run = np.int32(0)  # clear rows in a row, per lateral center once a piece is read
    top, first, slab = lo - half, lo, 1  # top: the next cell row to read
    while first <= hi:
        last = min(first + slab - 1, hi)
        for a in range(top, last + half + 1, piece):
            b = min(a + piece - 1, last + half)
            clear = _eroded(graph.unperturbed.mask([(a, b)] + across).all(axis=-1), side)
            # run at piece row i: i minus the last blocked row at or before i,
            # which is -1 - run when no row of the piece is blocked yet
            at = np.arange(b - a + 1, dtype=np.int32).reshape((-1,) + (1,) * len(rest))
            runs = np.where(clear, -1 - run, at)
            np.subtract(at, np.maximum.accumulate(runs, axis=0, out=runs), out=runs)
            hits = np.flatnonzero(runs >= side)
            if hits.size:
                index = np.unravel_index(hits[0], runs.shape)
                origin = (a - half,) + tuple(c for c, _ in rest)
                cell = tuple(int(i) + c for i, c in zip(index, origin))
                searched = (a - half - lo) * per_row + int(hits[0]) + 1
                return WindowReport(n, Vertex(cell, 0), searched, bounds)
            run = np.minimum(runs[-1], side)
        top, first, slab = last + half + 1, last + 1, 2 * slab
    return WindowReport(n, None, (hi - lo + 1) * per_row, bounds)


def _eroded(clear: np.ndarray, side: int) -> np.ndarray:
    """True at each position whose box of ``side`` cells along every axis
    but the first, starting there, is all true: per axis, a cumulative count
    of false cells with a leading zero, differenced ``side`` apart."""
    for axis in range(1, clear.ndim):
        lead = (slice(None),) * axis
        shape = list(clear.shape)
        shape[axis] += 1
        blocked = np.zeros(shape, dtype=np.int32)
        np.cumsum(~clear, axis=axis, dtype=np.int32, out=blocked[lead + (slice(1, None),)])
        clear = blocked[lead + (slice(side, None),)] == blocked[lead + (slice(None, -side),)]
    return clear
