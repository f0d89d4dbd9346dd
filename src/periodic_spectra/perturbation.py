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
    apply_laplacian,
    box_cells,
    periodic_oracle,
    propagation_length,
)

Window = tuple[tuple[int, int], ...]

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
    with multiplicity).  ``influence_radius`` declares how far, in cells, the
    patch can reach around a vertex; degree and unperturbed-set queries are
    decidable from that neighborhood alone.
    """

    keep: Callable[[Vertex], bool]
    added_contains: Callable[[Vertex], bool] = lambda v: False
    added_neighbors: Callable[[Vertex], tuple[Vertex, ...]] = lambda v: _NO_NEIGHBORS
    added_in_cell: Callable[[Cell], tuple[Vertex, ...]] = lambda cell: _NO_NEIGHBORS
    influence_radius: int = 0


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
        if not self.contains(v):
            raise VertexNotInGraphError(f"{v} is not a vertex of the perturbed graph")
        base_name = g.phi(v)
        targets: list[Vertex] = []
        if base_name is not None:
            removed = g._removed_count
            for t in g.base_oracle.out_edges(base_name):
                if not g._keep(t):
                    continue
                if removed and removed.get(_pair_key(base_name, t), 0) > 0:
                    continue
                targets.append(g.phi_inv(t))
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
    """Membership query for the unperturbed set, cached per vertex.

    A kept base vertex belongs iff its perturbed degree equals its base degree
    and every base edge at it keeps both endpoints and is not removed.
    """

    def __init__(self, owner: "PerturbedGraph", closed_form: str | None = None):
        self._g = owner
        self._cache: dict[Vertex, bool] = {}
        self.closed_form = closed_form

    def contains(self, x: Vertex) -> bool:
        if not self._g.in_common(x):
            raise VertexNotInCommonSubgraphError(
                f"{x} is not a vertex of the common subgraph"
            )
        return self._contains_known(x)

    __contains__ = contains

    def _contains_known(self, x: Vertex) -> bool:
        hit = self._cache.get(x)
        if hit is not None:
            return hit
        g = self._g
        ok = True
        removed = g._removed_count
        for t in g.base_oracle.out_edges(x):
            if not g._keep(t) or (removed and removed.get(_pair_key(x, t), 0) > 0):
                ok = False
                break
        if ok:
            ok = g.oracle.degree(g.phi_inv(x)) == g.base_oracle.degree(x)
        self._cache[x] = ok  # idempotent write; safe under concurrent insertion
        return ok


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
        lambda_closed_form: str | None = None,
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
            self.influence_radius = patch.influence_radius
        by_cell: dict[Cell, list[Vertex]] = {}
        for v in self._rename_inverse:
            by_cell.setdefault(v.cell, []).append(v)
        self._renamed_by_cell = {c: tuple(vs) for c, vs in by_cell.items()}
        self.oracle = PerturbedOracle(self)
        self.unperturbed = UnperturbedSet(self, lambda_closed_form)

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
        reach = [0]
        for u, v in patch.added_edges:
            if len(u.cell) == len(v.cell):
                reach.append(max(abs(a - b) for a, b in zip(u.cell, v.cell)))
        self.influence_radius = max(reach)

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
    members = graph.unperturbed
    s = graph.base.cell_size
    for cell in box_cells([(c - half, c + half) for c in center]):
        for label in range(s):
            x = Vertex(cell, label)
            if not graph.in_common(x) or not members._contains_known(x):
                return False
    return True


def find_unperturbed_box(
    graph: PerturbedGraph, n: int, window: Window
) -> WindowReport:
    """Scan candidate centers in lexicographic order over ``window``.

    Returns the first center whose padded box lies inside the unperturbed
    set, or a report with ``center=None`` when the window is exhausted.
    """
    if n < 1:
        raise InputError(f"box radius must be >= 1, got {n}")
    if len(window) != graph.base.dim:
        raise InputError(
            f"window has {len(window)} axes, graph has dimension {graph.base.dim}"
        )
    half = n + propagation_length(graph.base) - 1
    bounds = (-half, half)
    searched = 0
    for cell in box_cells(window):
        searched += 1
        if box_is_clear(graph, cell, n):
            return WindowReport(n, Vertex(cell, 0), searched, bounds)
    return WindowReport(n, None, searched, bounds)


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


def degree_ratio_bounds(
    graph: PerturbedGraph, support: Iterable[Vertex]
) -> tuple[float, float]:
    """Raw worst-case degree ratios (the squares of ``embedding_norm_bounds``)."""
    dprime, dbase = _support_degrees(graph, support)
    return min(dprime) / max(dbase), max(dprime) / min(dbase)


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
