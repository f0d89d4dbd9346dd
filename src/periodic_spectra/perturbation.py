"""Perturbed periodic graphs sharing a common subgraph with their base.

A perturbation removes base vertices/edges and adds new ones, possibly
infinitely many.  The common subgraph consists of the kept base vertices with
the untouched base edges; an identification map (identity unless a finite
rename table is given) carries states between the base and the perturbed
graph.

The key derived object is the *unperturbed set*: kept base vertices whose
degree and full edge neighborhood survive the perturbation untouched.  On its
image the perturbed and base operators agree exactly, so states supported
deep inside it cannot feel the perturbation.  The *defect operator* measures
everything outside that image.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    EmptySupportError,
    InputError,
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
    box_cells,
    periodic_oracle,
    propagation_length,
)

_NO_NEIGHBORS: tuple[Vertex, ...] = ()


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
    with multiplicity).
    """

    keep: Callable[[Vertex], bool]
    added_contains: Callable[[Vertex], bool] = lambda v: False
    added_neighbors: Callable[[Vertex], tuple[Vertex, ...]] = lambda v: _NO_NEIGHBORS
    added_in_cell: Callable[[Cell], tuple[Vertex, ...]] = lambda cell: _NO_NEIGHBORS


class PerturbedOracle(GraphOracle):
    """Adjacency oracle of the perturbed graph."""

    def __init__(self, owner: "PerturbedGraph"):
        self._g = owner

    def contains(self, v: Vertex) -> bool:
        g = self._g
        if v in g._rename_inverse:
            return True
        if g._is_base_name(v) and v not in g._rename:
            return g._keep(v)
        return g._added_contains(v)

    def out_edges(self, v: Vertex) -> tuple[Vertex, ...]:
        g = self._g
        # ``contains(v)`` and ``phi(v)`` resolved in one pass
        base_name = g._rename_inverse.get(v)
        if base_name is None and g._is_base_name(v) and v not in g._rename:
            base_name = v if g._keep(v) else None
            present = base_name is not None
        else:
            present = base_name is not None or g._added_contains(v)
        if not present:
            raise VertexNotInGraphError(f"{v} is not a vertex of the perturbed graph")
        targets: list[Vertex] = []
        if base_name is not None:
            keep = g._keep
            removed = g._removed_count
            rename = g._rename
            for t in g.base_oracle.out_edges(base_name):
                if not keep(t):
                    continue
                if removed and removed.get(_pair_key(base_name, t), 0) > 0:
                    continue
                targets.append(rename.get(t, t))
        targets.extend(g._added_neighbors(v))
        return tuple(targets)

    def vertices_in_cell(self, cell) -> tuple[Vertex, ...]:
        g = self._g
        out: list[Vertex] = []
        for label in range(g.base.cell_size):
            v = Vertex(cell, label)
            if g._keep(v) and v not in g._rename:
                out.append(v)
        out.extend(v for v in g._renamed_into_cell(cell))
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
        g = self._g
        removed = g._removed_count
        for t in g.base_oracle.out_edges(x):
            if not g._keep(t) or (removed and removed.get(_pair_key(x, t), 0) > 0):
                return False
        return g.oracle.degree(g.phi_inv(x)) == g.base_oracle.degree(x)

    def mask(self, box: Window) -> np.ndarray:
        """Membership of every vertex of ``box`` as a boolean array of shape
        ``(sizes..., cell_size)``, cells in lexicographic order and labels
        last; an entry is ``in_common(x) and _contains_known(x)``.

        The kept grid over the box padded by the propagation length is ANDed
        with itself shifted by every oriented edge template, and the endpoints
        of removed base edges are cleared.  A vertex that survives has all of
        its base edges, so it belongs iff no added edge meets it.  The
        finitely many vertices named in the rename table take the scalar
        test.
        """
        g = self._g
        base = g.base
        if len(box) != base.dim:
            raise InputError(f"box has {len(box)} axes, graph has dimension {base.dim}")
        s = base.cell_size
        sizes = tuple(max(hi - lo + 1, 0) for lo, hi in box)
        if 0 in sizes:
            return np.zeros(sizes + (s,), dtype=bool)
        pad = propagation_length(base)
        padded = [(lo - pad, hi + pad) for lo, hi in box]
        shape = tuple(n + 2 * pad for n in sizes) + (s,)
        in_common = g.in_common
        kept = np.fromiter(
            (in_common(Vertex(c, a)) for c, a in itertools.product(box_cells(padded), range(s))),
            dtype=bool,
            count=int(np.prod(shape)),
        ).reshape(shape)
        out = kept[tuple(slice(pad, pad + n) for n in sizes)].copy()
        for e in base.oriented_edges():
            ahead = tuple(slice(pad + i, pad + i + n) for i, n in zip(e.index, sizes))
            out[..., e.origin] &= kept[ahead + (e.target,)]

        def position(x: Vertex) -> tuple[int, ...] | None:
            if not g._is_base_name(x):
                return None
            at = tuple(c - lo for c, (lo, _) in zip(x.cell, box))
            if all(0 <= i < n for i, n in zip(at, sizes)):
                return at + (x.label,)
            return None

        for a, la, b, lb in g._removed_count or ():
            u, v = Vertex(a, la), Vertex(b, lb)
            if g._is_base_name(u) and v in g.base_oracle.out_edges(u):
                for x in (u, v):
                    at = position(x)
                    if at is not None:
                        out[at] = False
        # a renamed vertex's perturbed name differs from its base name, and a
        # rename target may shadow a base name: these take the scalar test
        named = {}
        for x in itertools.chain(g._rename, g._rename_inverse):
            at = position(x)
            if at is not None:
                named[at] = x
                out[at] = False
        added = g._added_neighbors
        flat = out.reshape(-1)
        candidates = itertools.compress(
            itertools.product(box_cells(box), range(s)), flat.tolist()
        )
        flat[np.flatnonzero(flat)] = [not added(Vertex(c, a)) for c, a in candidates]
        for at, x in named.items():
            out[at] = in_common(x) and self._contains_known(x)
        return out


@dataclass(frozen=True)
class WindowReport:
    """Outcome of scanning a window for a box inside the unperturbed set."""

    n: int
    center: Vertex | None
    searched: int
    box_bounds: tuple[int, int]


class PerturbedGraph:
    """A base periodic graph plus a patch, with derived oracles.

    ``rename`` optionally maps finitely many kept base vertices to different
    names in the perturbed graph (the identification defaults to the identity
    on shared coordinates).
    """

    def __init__(
        self,
        base: PeriodicGraph,
        patch: Patch | PredicatePatch,
        rename: Mapping[Vertex, Vertex] | None = None,
        name: str = "",
    ):
        self.base = base
        self.base_oracle = periodic_oracle(base)
        self.name = name
        self.patch = patch
        self._rename: dict[Vertex, Vertex] = dict(rename or {})
        self._rename_inverse = {v: k for k, v in self._rename.items()}
        if len(self._rename_inverse) != len(self._rename):
            raise InputError("rename table must be injective")
        if isinstance(patch, Patch):
            self._init_from_patch(patch)
        else:
            self._keep = patch.keep
            self._added_contains = patch.added_contains
            self._added_neighbors = patch.added_neighbors
            self._added_in_cell = patch.added_in_cell
            self._removed_count: dict | None = None
        by_cell: dict[Cell, list[Vertex]] = {}
        for v in self._rename_inverse:
            by_cell.setdefault(v.cell, []).append(v)
        self._renamed_by_cell = {c: tuple(vs) for c, vs in by_cell.items()}
        self.oracle = PerturbedOracle(self)
        self.unperturbed = UnperturbedSet(self)

    def _renamed_into_cell(self, cell: Cell) -> tuple[Vertex, ...]:
        return self._renamed_by_cell.get(cell, ())

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
        added_v = set(patch.added_vertices)
        for v in added_v:
            if self._is_base_name(v) and v not in removed_v and v not in self._rename:
                raise InputError(f"added vertex {v} collides with a base vertex")
        neighbor_map: dict[Vertex, list[Vertex]] = {}
        present = lambda v: (
            v in added_v
            or v in self._rename_inverse
            or (self._is_base_name(v) and v not in removed_v and v not in self._rename)
        )
        for u, v in patch.added_edges:
            if not (present(u) and present(v)):
                raise InputError(f"added edge ({u}, {v}) references an absent vertex")
            neighbor_map.setdefault(u, []).append(v)
            neighbor_map.setdefault(v, []).append(u)
        frozen = {k: tuple(v) for k, v in neighbor_map.items()}
        added_by_cell: dict[Cell, list[Vertex]] = {}
        for v in sorted(added_v, key=lambda u: (u.cell, u.label)):
            added_by_cell.setdefault(v.cell, []).append(v)
        frozen_cells = {c: tuple(vs) for c, vs in added_by_cell.items()}
        self._keep = lambda v: v not in removed_v
        self._added_contains = lambda v: v in added_v
        self._added_neighbors = lambda v: frozen.get(v, _NO_NEIGHBORS)
        self._added_in_cell = lambda cell: frozen_cells.get(cell, ())

    def _is_base_name(self, v: Vertex) -> bool:
        return len(v.cell) == self.base.dim and 0 <= v.label < self.base.cell_size

    def in_common(self, x: Vertex) -> bool:
        """Is ``x`` a vertex of the common subgraph (a kept base vertex)?"""
        return self._is_base_name(x) and self._keep(x)

    def phi_inv(self, x: Vertex) -> Vertex:
        """Name of the common-subgraph vertex ``x`` inside the perturbed graph."""
        return self._rename.get(x, x)

    def phi(self, v: Vertex) -> Vertex | None:
        """Base name of a perturbed-graph vertex, or None for added vertices."""
        if v in self._rename_inverse:
            return self._rename_inverse[v]
        if self._is_base_name(v) and v not in self._rename and self._keep(v):
            return v
        return None


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

    Values on the common subgraph move through the identification; values
    outside it are dropped, and added vertices carry zero.
    """
    out: State = {}
    for v, val in psi.items():
        if graph.in_common(v):
            out[graph.phi_inv(v)] = val
    return out


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
        dprime.append(graph.oracle.degree(graph.phi_inv(x)))
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
        x = graph.phi(v)
        if x is not None and graph.unperturbed._contains_known(x):
            out[v] = 0.0
        else:
            out[v] = lifted.get(v, 0.0) - pushed.get(v, 0.0)
    return out
