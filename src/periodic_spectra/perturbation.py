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

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    EmptySupportError,
    InputError,
    InternalInvariantError,
    VertexNotInCommonSubgraphError,
    VertexNotInGraphError,
)
from .graphs import (
    Cell,
    GraphOracle,
    PeriodicGraph,
    State,
    Vertex,
    Window,
    apply_laplacian,
    box_cell_array,
    periodic_oracle,
    propagation_length,
)
from .randomfield import cell_hash, cell_hash_array
from .truncation import _MASK_LIMIT

_NO_NEIGHBORS: tuple[Vertex, ...] = ()

# Array form of a vertex predicate: int64 cells (m, d), labels (m,) -> bool (m,).
RowPredicate = Callable[[np.ndarray, np.ndarray], np.ndarray]

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

    __contains__ = contains

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
        for e in base.oriented_edges():
            ahead = tuple(slice(pad + i, pad + i + n) for i, n in zip(e.index, sizes))
            out[..., e.origin] &= kept[ahead + (e.target,)]
        for a, la, b, lb in g._removed_count or ():
            u, v = Vertex(a, la), Vertex(b, lb)
            if g._is_base_name(u) and v in g.base_oracle.out_edges(u):
                for x in (u, v):
                    at = tuple(c - lo for c, (lo, _) in zip(x.cell, box))
                    if all(0 <= i < n for i, n in zip(at, sizes)):
                        out[at + (x.label,)] = False
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
    """``hook`` at the vertices of ``box`` with positions ``rows`` (all by
    default) in the order cells first, labels last, asked ``_HOOK_ROWS`` rows
    at a time.  Each answer is compared with ``scalar`` at the rows whose cell
    is a corner of ``box`` and at every ``_SAMPLE_STRIDE``-th row; the first
    vertex where they differ raises ``InternalInvariantError``."""
    total = math.prod(hi - lo + 1 for lo, hi in box) * s if rows is None else len(rows)
    got = np.empty(total, dtype=bool)
    for start in range(0, total, _HOOK_ROWS):
        stop = min(start + _HOOK_ROWS, total)
        at = np.arange(start, stop) if rows is None else rows[start:stop]
        cell_at, labels = np.divmod(at, s)
        cells = box_cell_array(box, cell_at)
        answer = np.asarray(hook(cells, labels))
        if answer.dtype != bool or answer.shape != labels.shape:
            raise InternalInvariantError(
                f"{name} returned an array of dtype {answer.dtype} and shape "
                f"{answer.shape}, expected bool and {labels.shape}"
            )
        corners = np.arange(len(at))
        for axis, (lo, hi) in enumerate(box):
            side = cells[corners, axis]
            corners = corners[(side == lo) | (side == hi)]
        strided = np.arange(-start % _SAMPLE_STRIDE, len(at), _SAMPLE_STRIDE)
        for i in np.union1d(corners, strided).tolist():
            v = Vertex(tuple(cells[i].tolist()), int(labels[i]))
            if bool(scalar(v)) != answer[i]:
                raise InternalInvariantError(
                    f"{name} gives {bool(answer[i])} at {v}, its scalar predicate "
                    f"{not answer[i]}"
                )
        got[start:stop] = answer
    return got


def _row_by_row(predicate: Callable[[Vertex], bool]) -> RowPredicate:
    """Array form of a scalar vertex predicate: one call per row."""

    def apply(cells: np.ndarray, labels: np.ndarray) -> np.ndarray:
        rows = zip(map(tuple, cells.tolist()), labels.tolist())
        return np.fromiter(
            (bool(predicate(Vertex(c, a))) for c, a in rows), dtype=bool, count=len(labels)
        )

    return apply


def _finite_membership(vertices: Iterable[Vertex]) -> RowPredicate:
    """Array form of ``v in vertices`` for a finite vertex set.  A row whose
    ``cell_hash`` of ``(cell..., label)`` is a member's hash is a candidate,
    and each candidate is then looked up exactly."""
    members = frozenset(vertices)
    hashes = np.array([cell_hash(0, v.cell + (v.label,)) for v in members], dtype=np.uint64)

    def contains(cells: np.ndarray, labels: np.ndarray) -> np.ndarray:
        rows = np.column_stack([cells, labels])
        out = np.isin(cell_hash_array(0, rows), hashes)
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
        self._keep = lambda v: v not in removed_v
        removed_at = _finite_membership(removed_v)
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
        self._has_added_array = _finite_membership(frozen)

    def _has_added(self, v: Vertex) -> bool:
        return bool(self._added_neighbors(v))

    def _is_base_name(self, v: Vertex) -> bool:
        return len(v.cell) == self.base.dim and 0 <= v.label < self.base.cell_size

    def in_common(self, x: Vertex) -> bool:
        """Is ``x`` a vertex of the common subgraph (a kept base vertex)?"""
        return self._is_base_name(x) and self._keep(x)


def in_unperturbed_set(graph: PerturbedGraph, x: Vertex) -> bool:
    """Does the perturbation leave ``x`` and its whole edge neighborhood alone?"""
    return graph.unperturbed.contains(x)


def box_is_clear(graph: PerturbedGraph, center: Cell, n: int) -> bool:
    """Is the box of radius ``n`` (padded by the propagation length) around
    ``center`` entirely inside the unperturbed set?"""
    half = n + propagation_length(graph.base) - 1
    return bool(graph.unperturbed.mask([(c - half, c + half) for c in center]).all())


def find_unperturbed_box(
    graph: PerturbedGraph, n: int, window: Window
) -> WindowReport:
    """First center, in lexicographic order over ``window``, whose padded box
    lies inside the unperturbed set.

    ``searched`` is the center's rank plus one, or the number of centers in
    the window with ``center=None`` when none is clear.  Centers are taken
    in slabs of 1, 2, 4, ... rows along the first axis; each row of the
    membership mask is computed once, and a summed-area table counts the
    clear cells of every box in a slab at once.
    """
    if n < 1:
        raise InputError(f"box radius must be >= 1, got {n}")
    if len(window) != graph.base.dim:
        raise InputError(
            f"window has {len(window)} axes, graph has dimension {graph.base.dim}"
        )
    half = n + propagation_length(graph.base) - 1
    side = 2 * half + 1
    bounds = (-half, half)
    (lo, hi), rest = window[0], window[1:]
    across = [(a - half, b + half) for a, b in rest]
    per_row = int(np.prod([max(b - a + 1, 0) for a, b in rest]))
    if hi < lo or per_row == 0:
        return WindowReport(n, None, 0, bounds)
    members = graph.unperturbed
    # rows holds the clear cells of the window's cell rows first - half ..
    # first + half - 1; a slab of centres needs them up to last + half
    rows = members.mask([(lo - half, lo + half - 1)] + across).all(axis=-1)
    first, slab = lo, 1
    while first <= hi:
        last = min(first + slab - 1, hi)
        fresh = members.mask([(first + half, last + half)] + across)
        rows = np.concatenate([rows[len(rows) - 2 * half :], fresh.all(axis=-1)])
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
    cumulative sum with a leading zero), differenced ``side`` apart."""
    sums = cells.astype(np.int64)
    for axis in range(sums.ndim):
        lead = (slice(None),) * axis
        table = np.cumsum(sums, axis=axis)
        zero = np.zeros_like(table[lead + (slice(0, 1),)])
        table = np.concatenate([zero, table], axis=axis)
        sums = table[lead + (slice(side, None),)] - table[lead + (slice(None, -side),)]
    return sums


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
        if graph.in_common(v) and graph.unperturbed._contains_known(v):
            out[v] = 0.0
        else:
            out[v] = lifted.get(v, 0.0) - pushed.get(v, 0.0)
    return out
