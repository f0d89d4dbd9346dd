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

import bisect
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

# Array form of a vertex predicate: int64 cells (m, d), labels (m,) -> bool (m,).
RowPredicate = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Vertices of the padded box of one ``UnperturbedSet.mask`` call, checked
# before allocating: the mask holds about 13 bytes per such vertex (measured
# on a 2001 x 2001 window), so the cap bounds it near 210 MiB and leaves a
# 2001 x 2001 or 255^3 window room to run.
_MASK_LIMIT = 1 << 24

# Besides the box corners, ``mask`` checks every this many rows of a hook's
# answer against the scalar predicate.
_SAMPLE_STRIDE = 4096
# Rows per hook call, so a hook's temporaries stay small and in cache.
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

    ``keep_array`` and ``has_added_array`` are optional array forms that
    ``UnperturbedSet.mask`` calls instead, on 65,536 rows at a time.  Each
    takes an int64 array ``cells`` of shape ``(m, d)`` and a label array
    ``labels`` of shape ``(m,)`` and returns a bool array of shape ``(m,)``:
    ``keep_array`` is
    ``keep`` row by row, ``has_added_array`` is true where ``added_neighbors``
    lists anything (it is asked only about kept base vertices).  A missing
    hook is replaced by the scalar callable applied row by row.  Every
    ``mask`` call checks both hooks against the scalar callables on the rows
    at the box corners and every 4096th row, and raises
    ``InternalInvariantError`` naming the first vertex where they differ.
    """

    keep: Callable[[Vertex], bool]
    added_contains: Callable[[Vertex], bool] = lambda v: False
    added_neighbors: Callable[[Vertex], tuple[Vertex, ...]] = lambda v: _NO_NEIGHBORS
    added_in_cell: Callable[[Cell], tuple[Vertex, ...]] = lambda cell: _NO_NEIGHBORS
    keep_array: RowPredicate | None = None
    has_added_array: RowPredicate | None = None


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

        The kept grid (``keep_array``) over the box padded by the propagation
        length is ANDed with itself shifted by every oriented edge template,
        and the endpoints of removed base edges are cleared.  A vertex that
        survives has all of its base edges, so it belongs iff
        ``has_added_array`` is false at it.  A padded box of more than
        ``_MASK_LIMIT`` vertices raises ``InputError`` before anything is
        allocated.
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
        shape = tuple(n + 2 * pad for n in sizes) + (s,)
        count = math.prod(shape)
        if count > _MASK_LIMIT:
            raise InputError(
                f"box {list(box)} padded by {pad} has {count} vertices; "
                f"the unperturbed-set mask is capped at {_MASK_LIMIT}"
            )
        kept = _checked_hook(g._keep_array, g._keep, padded, s, "keep_array").reshape(shape)
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
        flat = out.reshape(-1)
        rows = np.flatnonzero(flat)
        flat[rows] = ~_checked_hook(
            g._has_added_array, g._has_added, box, s, "has_added_array", rows
        )
        return kept, out


def _checked_hook(
    hook: RowPredicate,
    scalar: Callable[[Vertex], bool],
    box: Window,
    s: int,
    name: str,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """``hook`` at the vertices of ``box`` with sorted positions ``rows``
    (all by default) in the order cells first, labels last.  It is asked per
    block of at most ``_HOOK_ROWS`` box rows: the leading axes fixed, a run
    of one axis and every later axis whole, so the block's cells are
    broadcast from one coordinate range per axis.  Each answer is compared
    with ``scalar`` at the rows whose cell is a corner of ``box`` and at
    every ``_SAMPLE_STRIDE``-th row, positions found once per call; the first
    vertex where they differ raises ``InternalInvariantError``.  A
    coordinate past 64 bits raises ``InputError``."""
    sizes, d = _cell_sizes(box), len(box)
    count = math.prod(sizes) * s
    if rows is not None and len(rows) == count:
        rows = None  # sorted positions, as many as the box has: all of them
    elif rows is not None:
        count = len(rows)
    got = np.empty(count, dtype=bool)
    corners = []
    for cell in itertools.product(*[(0, n - 1) for n in sizes]):
        place = 0
        for c, n in zip(cell, sizes):
            place = place * n + c
        corners += range(place * s, place * s + s)
    if rows is not None:
        found = np.searchsorted(rows, corners).tolist()
        corners = [i for i, c in zip(found, corners) if i < count and rows[i] == c]
    spots = sorted(set(corners).union(range(0, count, _SAMPLE_STRIDE)))

    # blocks run along ``axis``, the first whose later axes hold few enough rows
    axis = next((a for a in range(d) if math.prod(sizes[a + 1 :]) * s <= _HOOK_ROWS), d - 1)
    unit = math.prod(sizes[axis + 1 :]) * s  # rows per cell of ``axis``
    step = max(_HOOK_ROWS // unit, 1)
    whole = [
        (np.arange(sizes[a]) + box[a][0]).reshape((-1,) + (1,) * (d - a))
        for a in range(axis + 1, d)
    ]
    for p, prefix in enumerate(itertools.product(*map(range, sizes[:axis]))):
        for j0 in range(0, sizes[axis], step):
            j1 = min(j0 + step, sizes[axis])
            start = (p * sizes[axis] + j0) * unit
            stop = (p * sizes[axis] + j1) * unit
            if rows is not None:
                first, last = np.searchsorted(rows, (start, stop)).tolist()
                if first == last:
                    continue
            cells = np.empty((j1 - j0, *sizes[axis + 1 :], s, d), dtype=np.int64)
            for a, c in enumerate(prefix):
                cells[..., a] = box[a][0] + c
            run = np.arange(j0, j1) + box[axis][0]
            cells[..., axis] = run.reshape((-1,) + (1,) * (d - axis))
            for a, coords in enumerate(whole, axis + 1):
                cells[..., a] = coords
            labels = np.empty(cells.shape[:-1], dtype=np.int64)
            labels[:] = np.arange(s)
            cells, labels = cells.reshape(-1, d), labels.reshape(-1)
            if rows is not None:
                pick = rows[first:last] - start
                cells, labels = cells.take(pick, axis=0), labels.take(pick)
                start, stop = first, last
            answer = np.asarray(hook(cells, labels))
            if answer.dtype != bool or answer.shape != labels.shape:
                raise InternalInvariantError(
                    f"{name} returned an array of dtype {answer.dtype} and shape "
                    f"{answer.shape}, expected bool and {labels.shape}"
                )
            for i in spots[bisect.bisect_left(spots, start) : bisect.bisect_left(spots, stop)]:
                v = Vertex(tuple(cells[i - start].tolist()), int(labels[i - start]))
                if bool(scalar(v)) != answer[i - start]:
                    raise InternalInvariantError(
                        f"{name} gives {bool(answer[i - start])} at {v}, its scalar "
                        f"predicate {not answer[i - start]}"
                    )
            got[start:stop] = answer
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


def _row_by_row(predicate: Callable[[Vertex], bool]) -> RowPredicate:
    """Array form of a scalar vertex predicate: one call per row."""

    def apply(cells: np.ndarray, labels: np.ndarray) -> np.ndarray:
        rows = zip(map(tuple, cells.tolist()), labels.tolist())
        return np.fromiter(
            (bool(predicate(Vertex(c, a))) for c, a in rows), dtype=bool, count=len(labels)
        )

    return apply


def _finite_membership(vertices: Iterable[Vertex], dim: int) -> RowPredicate:
    """Array form of ``v in vertices`` for a finite vertex set, asked at
    cells of ``dim`` coordinates.  A row whose ``cell_hash`` of
    ``(cell..., label)`` is a member's hash is a candidate, found by one
    ``searchsorted`` in the members' hashes (sorted once here), and each
    candidate is then looked up exactly.  A member of another cell length,
    or past 64 bits, is no such row and is left out of the hashes."""
    members = frozenset(vertices)
    keys = [v.cell + (v.label,) for v in members if len(v.cell) == dim]
    hashes = np.sort(cell_hash_array(0, _int64_rows(keys, dim + 1)))

    def contains(cells: np.ndarray, labels: np.ndarray) -> np.ndarray:
        if not len(hashes):
            return np.zeros(len(labels), dtype=bool)
        rows = np.column_stack([cells, labels])
        keys = cell_hash_array(0, rows)
        # a key past the greatest hash is compared with the greatest
        nearest = np.minimum(np.searchsorted(hashes, keys), len(hashes) - 1)
        out = hashes[nearest] == keys
        at = np.flatnonzero(out)
        out[at] = [Vertex(tuple(r[:-1]), r[-1]) in members for r in rows[at].tolist()]
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
            self._keep_array = patch.keep_array or _row_by_row(patch.keep)
            self._has_added_array = patch.has_added_array or _row_by_row(self._has_added)
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
        self._keep_array = lambda cells, labels: ~removed_at(cells, labels)
        added_v = set(patch.added_vertices)
        for v in added_v:
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
        self._has_added_array = _finite_membership(frozen, self.base.dim)

    def _has_added(self, v: Vertex) -> bool:
        return bool(self._added_neighbors(v))

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
    in slabs of 1, 2, 4, ... rows along the first axis; each row of the
    membership mask is computed once, and a summed-area table counts the
    clear cells of every box in a slab at once.  Mask rows are asked in
    pieces along the first axis that stay within ``_MASK_LIMIT``; only a
    window whose single padded row is past the cap raises ``InputError``.
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
    bounds = (-half, half)
    (lo, hi), rest = window[0], window[1:]
    across = [(a - half, b + half) for a, b in rest]
    per_row = int(np.prod([max(b - a + 1, 0) for a, b in rest]))
    if hi < lo or per_row == 0:
        return WindowReport(n, None, 0, bounds)
    padded_row = math.prod(b - a + 1 + 2 * pad for a, b in across) * graph.base.cell_size
    piece = max(_MASK_LIMIT // padded_row - 2 * pad, 1)

    def clear_cells(first: int, last: int) -> np.ndarray:
        """Clear cells of the cell rows ``first .. last`` across the window,
        from one ``mask`` call per ``piece`` rows."""
        starts = range(first, last + 1, piece) if last - first >= piece else (first,)
        pieces = [
            graph.unperturbed.mask([(a, min(a + piece - 1, last))] + across).all(axis=-1)
            for a in starts
        ]
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    # rows holds the clear cells of the window's cell rows first - half ..
    # first + half - 1; a slab of centres needs them up to last + half
    rows = clear_cells(lo - half, lo + half - 1)
    first, slab = lo, 1
    while first <= hi:
        last = min(first + slab - 1, hi)
        fresh = clear_cells(first + half, last + half)
        rows = np.concatenate([rows[len(rows) - 2 * half :], fresh])
        clear = _box_sums(rows, side) == side ** len(window)
        hits = np.flatnonzero(clear)
        if hits.size:
            at = np.unravel_index(hits[0], clear.shape)
            origin = (first,) + tuple(a for a, _ in rest)
            cell = tuple(int(i) + c for i, c in zip(at, origin))
            searched = (first - lo) * per_row + int(hits[0]) + 1
            return WindowReport(n, Vertex(cell, 0), searched, bounds)
        first, slab = last + 1, 2 * slab
    return WindowReport(n, None, (hi - lo + 1) * per_row, bounds)


def _box_sums(cells: np.ndarray, side: int) -> np.ndarray:
    """Number of true entries in every box of ``side`` cells per axis that
    fits inside ``cells``: a summed-area table built one axis at a time (a
    cumulative sum with a leading zero), differenced ``side`` apart.  No sum
    exceeds the number of cells, so it is counted in int32 unless there are
    2**31 cells or more."""
    dtype = np.int32 if cells.size < 2**31 else np.int64
    sums = cells.astype(dtype)
    for axis in range(sums.ndim):
        lead = (slice(None),) * axis
        table = np.cumsum(sums, axis=axis, dtype=dtype)
        zero = np.zeros_like(table[lead + (slice(0, 1),)])
        table = np.concatenate([zero, table], axis=axis)
        sums = table[lead + (slice(side, None),)] - table[lead + (slice(None, -side),)]
    return sums
