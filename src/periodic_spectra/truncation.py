"""Finite box restrictions and their spectra.

Truncation to a box gives an honest finite graph whose degree-normalized
adjacency operator is diagonalized exactly.  Two boundary conditions are
supported: the induced subgraph (degrees recomputed inside the box, edge
effects quantified rather than suppressed) and, for purely periodic graphs, a
wrapped closure where edges reconnect modulo the box lengths.  A wrapped box
with lengths ``L`` is the quotient ``Z^d / L Z^d`` of the periodic graph, and
Bloch variables block-diagonalize it exactly, so ``spectrum_of_box`` solves it
from the fiber matrices at ``k = 2 pi m / L``.  A wrap is therefore not an
independent cross-check of the fiber route: the tests compare wraps with the
dense ``eigvalsh`` of ``normalized_symmetric()``.  An induced box is split
the same way by its own mirror symmetries (axis reflections and axis swaps
of the box that map its vertices and edges onto themselves; ``symmetry``):
each character of the group they generate gives one sector, solved by an
SVD when the box is bipartite and every accepted mirror keeps its two sides,
and by ``eigh`` otherwise; when a mirror swaps the sides of a bipartite box,
the sectors pair up and one ``eigh`` solves both sectors of a pair.  A box
with no accepted mirror is the one identity sector: every induced box returns
``SectorVectors``, every wrap ``BlochVectors``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import EmptyBoxError, InputError, InternalInvariantError
from .floquet import SpectrumApprox, fiber_matrices
from .graphs import (
    GraphOracle,
    PeriodicGraph,
    PeriodicOracle,
    Vertex,
    Window,
    _foreign_neighbour,
    audit_symmetry,
    box_cell_array,
    box_cell_count,
)
from .perturbation import _SAMPLE_STRIDE, PerturbedGraph, PerturbedOracle, _checked_hook
from .symmetry import Sector, SectorVectors, mirror_symmetries, sectors

# Vertices of an induced box, which is solved densely, checked while its
# cells are listed, ``_CELL_CHUNK`` at a time.
_DENSE_LIMIT = 4000
_CELL_CHUNK = 4096
# Vertices of a wrap, which is solved by fibers, checked before its cells are
# listed: a wrap of 10^6 vertices takes about 13 s and 600 MiB to build.
_WRAP_LIMIT = 1 << 20

# Eigenvalues this close to zero are zero modes.
_ZERO_TOL = 1e-12

# Ascending eigenvalues split into clusters at gaps above this.  Rounding fixes
# the eigenvectors of eigenvalues this close only to about 1e-16 / 1e-9, so
# inside a cluster the solver, not the matrix, picks the basis, and the
# boundary count looks only at the cluster's whole eigenspace.
_CLUSTER_GAP = 1e-9

# A cluster counts the eigenvalues of its Gram that are at least 1/2.  A mode
# with exactly half its mass near the boundary comes out of the solvers a few
# ulps above or below 1/2, so values this close below 1/2 count too.
_HALF_TOL = 1e-9

# Roundoff allowance of the moment certificate, per vertex: ``sum(lam)`` and
# ``sum(lam**2)`` may miss their closed forms by ``n * _MOMENT_TOL``.  A
# backward-stable symmetric solver moves each eigenvalue of the form (norm
# at most 1) by at most about ``n * eps``, under 1e-12 for ``n`` up to
# ``_DENSE_LIMIT``; on catalog boxes of up to 40,000 vertices the misses are
# below ``5e-15 * n``.
_MOMENT_TOL = 1e-12

# Residual and orthonormality allowance of the eigenpair check, per vertex,
# on about ``_EIGENPAIR_SAMPLES`` sampled columns of an induced box's vectors.
_EIGENPAIR_TOL = 1e-12
_EIGENPAIR_SAMPLES = 30

# The boundary count's near rows lie within this graph distance of a box face.
_NEAR_RADIUS = 2

# Entries of one batch of cluster Gram inputs in the boundary count (512 KiB,
# so that a batch and its transpose stay well below the near rows ``W``).
_GRAM_BATCH = 1 << 16


class BoxGraph:
    """Finite restriction of a graph to a lattice box.

    The vertices are held as arrays in ``(cell, label)`` order: ``offsets``,
    each vertex's cell minus the box's low corner, shape ``(n, d)``, and
    ``labels``; ``vertices`` builds their ``Vertex`` names when asked.
    ``rows`` and ``cols`` list the box's oriented edges as row-index pairs,
    exactly as ``out_edges`` gives them: every edge in both orientations,
    loops twice, parallel edges once per copy.  ``periodic`` is the periodic
    graph a wrapped box is the quotient of, and None for an induced box.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        labels: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        box: Window,
        periodic: PeriodicGraph | None,
        dropped: int,
    ):
        self.offsets = offsets
        self.labels = labels
        self.rows = rows
        self.cols = cols
        self.box = box
        self.periodic = periodic
        self.dropped = dropped
        self.degrees = np.bincount(rows, minlength=len(labels))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def wrapped(self) -> bool:
        return self.periodic is not None

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """Every vertex's name, in row order."""
        return _names(self.box, self.offsets, self.labels)

    @cached_property
    def moments(self) -> tuple[float, float]:
        """``(trace, squared Frobenius norm)`` of the symmetric form, that is
        ``sum_i A_ii / d_i`` and ``sum_ij A_ij**2 / (d_i d_j)``, from one
        ``np.unique`` over the ``(row, col)`` pair keys."""
        n = len(self)
        keys, counts = np.unique(self.rows * n + self.cols, return_counts=True)
        i, j = np.divmod(keys, n)
        d = self.degrees.astype(float)
        entries = counts / np.sqrt(d[i] * d[j])
        return float(entries[i == j].sum()), float(np.dot(entries, entries))

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency with multiplicities (loops doubled)."""
        n = len(self)
        a = np.zeros((n, n), dtype=float)
        np.add.at(a, (self.rows, self.cols), 1.0)
        return a

    def normalized_symmetric(self) -> np.ndarray:
        """The Hermitian form deg^(-1/2) A deg^(-1/2), same spectrum as the
        degree-normalized adjacency operator."""
        a = self.adjacency()
        inv_sqrt = 1.0 / np.sqrt(self.degrees.astype(float))
        a *= inv_sqrt[:, None]
        a *= inv_sqrt[None, :]
        return a

    @cached_property
    def sides(self) -> np.ndarray | None:
        """Side (False or True) of every vertex such that each edge joins the
        two sides, or None when an edge joins two vertices of one side (a loop
        or an odd cycle).  Breadth first over each component, from its first
        vertex, on a CSR of the edges built by one ``argsort``."""
        targets = self.cols[np.argsort(self.rows, kind="stable")].tolist()
        bounds = [0, *np.cumsum(self.degrees).tolist()]
        side = [-1] * len(self)
        for start in range(len(side)):
            if side[start] >= 0:
                continue
            side[start] = 0
            queue = [start]
            for v in queue:
                other = 1 - side[v]
                for t in targets[bounds[v] : bounds[v + 1]]:
                    if side[t] < 0:
                        side[t] = other
                        queue.append(t)
                    elif side[t] != other:
                        return None
        return np.array(side, dtype=bool)


def _names(box: Window, offsets: np.ndarray, labels: np.ndarray) -> tuple[Vertex, ...]:
    """The ``Vertex`` of every ``(offset, label)`` row of a box."""
    cells = map(tuple, (offsets + np.array([lo for lo, _ in box], dtype=np.int64)).tolist())
    return tuple(map(Vertex, cells, labels.tolist()))


@dataclass(frozen=True)
class TruncationReport:
    """Comparison of box eigenvalues against a reference spectrum."""

    inside_fraction: float
    boundary_count: int | None = None


def truncate(oracle: GraphOracle, box: Window, periodic_wrap: bool = False) -> BoxGraph:
    """Restrict the graph of a ``PeriodicOracle`` or a ``PerturbedOracle`` to
    the cells inside ``box``.

    Without ``periodic_wrap`` the induced subgraph is taken, degrees
    recomputed, and vertices left isolated are dropped (their number is
    recorded on the result).  With it (purely periodic graphs only) edges
    leaving the box re-enter modulo the box lengths.

    The box is built from arrays (``_BoxBuilder``): a kept base vertex with
    no added and no removed edge takes the entries of its label's edge
    templates whose target is a box vertex; an added vertex, a vertex with
    added edges and an end of a removed ``Patch`` edge take one
    ``out_edges`` call each; and a sample of template rows is compared with
    ``out_edges``.

    Raises ``InternalInvariantError`` when the oracle's edges are not
    symmetric, when a sampled template row or hook answer differs from the
    oracle, when an edge reaches a vertex in a box cell that is not a box
    vertex, or when ``added_in_cell`` breaks its contract.  Raises
    ``InputError`` for another kind of oracle or number of axes, when
    ``box_cell_count`` refuses the box, when a wrap has more than
    ``_WRAP_LIMIT`` vertices (checked before any cell is listed), when an
    induced box lists more than ``_DENSE_LIMIT`` vertices (checked after
    every ``_CELL_CHUNK`` cells, before any ``out_edges`` call), or when an
    edge reaches a vertex whose cell has another number of coordinates.
    """
    for lo, hi in box:
        if lo > hi:
            raise EmptyBoxError(f"box side [{lo}, {hi}] is empty")
    if periodic_wrap and not isinstance(oracle, PeriodicOracle):
        raise InputError("periodic wrap needs a purely periodic oracle")
    if isinstance(oracle, PerturbedOracle):
        graph, base = oracle._g, oracle._g.base
    elif isinstance(oracle, PeriodicOracle):
        graph, base = None, oracle.graph
    else:
        raise InputError(f"cannot truncate a {type(oracle).__name__}")
    if len(box) != base.dim:
        raise InputError(f"box has {len(box)} axes, graph has dimension {base.dim}")
    count = box_cell_count(box)
    if periodic_wrap and count * base.cell_size > _WRAP_LIMIT:
        raise InputError(
            f"a wrap of {count} cells, {base.cell_size} labels per cell, has too "
            f"many vertices: a wrap is capped at {_WRAP_LIMIT}"
        )
    return _BoxBuilder(oracle, graph, base, box, periodic_wrap).build()


class _BoxBuilder:
    """The arrays of one ``truncate`` call.

    The box's rows are its vertices in ``(cell, label)`` order.  The kept
    base vertices are also numbered by *ordinal* among themselves and named
    by *key*, ``position * cell_size + label`` with ``position`` the cell's
    place in the box's lexicographic order; ordinals and keys ascend
    together.  ``_row[k]`` is the row of ordinal ``k``, and ``_added_at``
    the row of each added vertex."""

    def __init__(
        self,
        oracle: GraphOracle,
        graph: PerturbedGraph | None,
        base: PeriodicGraph,
        box: Window,
        wrap: bool,
    ):
        self.oracle, self.graph, self.base, self.box, self.wrap = oracle, graph, base, box, wrap
        self.s = base.cell_size
        self.lows = np.array([lo for lo, _ in box], dtype=np.int64)
        self.lengths = np.array([hi - lo + 1 for lo, hi in box], dtype=np.int64)
        # cell strides of the box's lexicographic order
        self.strides = np.append(np.cumprod(self.lengths[:0:-1])[::-1], 1)
        self._lengths, self._strides = self.lengths.tolist(), self.strides.tolist()

    def build(self) -> BoxGraph:
        keys, offsets, marked, added = self._list()
        self._merge(keys, offsets, added)
        n = len(self.labels)
        template = ~marked
        at, labels = offsets[template], keys[template] % self.s
        table = self._template_table(at, labels)
        asked = np.ones(n, dtype=bool)
        asked[self._row[template]] = False
        listed = [
            self._columns(v)[1] for v in _names(self.box, self.offsets[asked], self.labels[asked])
        ]
        self._check_templates(table, at, labels)
        rows, cols = _entries(table, asked, listed)
        audit_symmetry(n, self._name, rows, cols)

        keep = np.bincount(rows, minlength=n) > 0
        if not keep.any():
            raise EmptyBoxError("every vertex in the box is isolated")
        dropped = n - int(keep.sum())
        offsets, labels = self.offsets, self.labels
        if dropped:
            remap = np.cumsum(keep) - 1
            rows, cols = remap[rows], remap[cols]
            offsets, labels = offsets[keep], labels[keep]
        periodic = self.base if self.wrap else None
        return BoxGraph(offsets, labels, rows, cols, self.box, periodic, dropped)

    def _list(self):
        """The kept base vertices as ascending keys with their offsets, and
        whether each is *marked* (takes an ``out_edges`` call: it has added
        edges or ends a removed edge); and the added vertices as ``(vertex,
        cell position)`` pairs.  The box is listed one chunk (``_chunks``)
        at a time, and an induced box of more than ``_DENSE_LIMIT`` vertices
        is refused after the chunk that passes it."""
        s, g = self.s, self.graph
        keys, offsets, marked, added = [], [], [], []
        listed, start = 0, 0
        for sub in _chunks(self.box):
            cells = box_cell_array(sub)
            positions = np.arange(start, start + len(cells))
            start += len(cells)
            chunk_keys = (positions[:, None] * s + np.arange(s)).reshape(-1)
            chunk_offsets = np.repeat(cells - self.lows, s, axis=0)
            if g is None:
                kept = np.ones(len(chunk_keys), dtype=bool)
                has_added = np.zeros(len(chunk_keys), dtype=bool)
            else:
                grid = _checked_hook(g._keep_grid, g._keep, sub, s, "keep_grid")
                has_added = _checked_hook(
                    g._has_added_grid, g._has_added, sub, s, "has_added_grid", grid
                ).reshape(-1)
                kept = grid.reshape(-1)
                for cell, p in zip(map(tuple, cells.tolist()), positions.tolist()):
                    for v in g._added_in_cell(cell):
                        if v.cell != cell:
                            raise InternalInvariantError(
                                f"added_in_cell lists {v} for the cell {cell}"
                            )
                        if self.oracle.contains(v):
                            added.append((v, p))
            keys.append(chunk_keys[kept])
            offsets.append(chunk_offsets[kept])
            marked.append(has_added[kept])
            listed += len(keys[-1])
            if not self.wrap and listed + len(added) > _DENSE_LIMIT:
                raise InputError(
                    f"box lists more than {_DENSE_LIMIT} vertices; dense solves are "
                    f"capped at {_DENSE_LIMIT}"
                )
        keys, marked = np.concatenate(keys), np.concatenate(marked)
        if g is not None and g._removed_ends is not None:
            ends = self._ordinals(
                g._removed_ends[:, :-1] - self.lows, g._removed_ends[:, -1], keys
            )
            marked[ends[ends >= 0]] = True
        return keys, np.concatenate(offsets), marked, added

    def _ordinals(self, offsets: np.ndarray, labels: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The ordinal of every base vertex ``(offset, label)`` among ``keys``,
        -1 where it is outside the box or not kept."""
        inside = ((offsets >= 0) & (offsets < self.lengths)).all(axis=1)
        inside &= (labels >= 0) & (labels < self.s)
        key = np.where(inside, offsets @ self.strides * self.s + labels, 0)
        if self.graph is None:  # every vertex of every cell, in key order
            return np.where(inside, key, -1)
        if not len(keys):
            return np.full(len(key), -1)
        ordinal = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return np.where(inside & (keys[ordinal] == key), ordinal, -1)

    def _merge(self, keys: np.ndarray, offsets: np.ndarray, added: list) -> None:
        """Merge the added vertices, sorted by name, into the kept base
        vertices: ``self.offsets`` and ``self.labels`` in row order."""
        if not len(keys) + len(added):
            raise EmptyBoxError("box contains no vertices of the graph")
        added.sort(key=lambda pair: (pair[1], pair[0].label))
        s = self.s
        # an added vertex goes before the first base vertex of a greater name
        placed = np.array([p * s + min(max(v.label, 0), s) for v, p in added], dtype=np.int64)
        before = np.searchsorted(keys, placed)
        at = (before + np.arange(len(added))).tolist()
        self._added_at = {v: j for (v, _), j in zip(added, at)}
        if len(self._added_at) < len(added):
            raise InternalInvariantError("added_in_cell lists a vertex twice")
        for (v, _), k, q in zip(added, before.tolist(), placed.tolist()):
            if 0 <= v.label < s and k < len(keys) and keys[k] == q:
                raise InternalInvariantError(f"added_in_cell lists {v}, a kept base vertex")
        self._keys = keys
        self._key_list = None if self.graph is None else keys.tolist()
        self._row = np.arange(len(keys)) + np.searchsorted(before, np.arange(len(keys)), "right")
        n = len(keys) + len(added)
        self.labels = np.empty(n, dtype=np.intp)
        self.offsets = np.empty((n, len(self.box)), dtype=np.int64)
        self.labels[self._row] = keys % s
        self.offsets[self._row] = offsets
        for (v, _), j in zip(added, at):
            self.labels[j] = v.label
            self.offsets[j] = np.subtract(v.cell, self.lows)

    def _template_table(self, offsets: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The entries of the template rows ``(offsets, labels)``, one row
        each: at column ``k``, the row of the target of the ``k``-th template
        at the label, or -1 where that target is no box vertex (or there is
        no ``k``-th template)."""
        templates = self.base.templates
        table = np.full((len(labels), max(map(len, templates))), -1, dtype=np.intp)
        for a, at in enumerate(templates):
            rows = np.flatnonzero(labels == a)
            here = offsets[rows]
            for k, (index, target) in enumerate(at):
                there = here + np.array(index, dtype=np.int64)
                if self.wrap:
                    there %= self.lengths
                ordinal = self._ordinals(there, np.full(len(rows), target), self._keys)
                table[rows, k] = np.where(ordinal >= 0, self._row[ordinal], -1)
        return table

    def _check_templates(self, table: np.ndarray, offsets: np.ndarray, labels: np.ndarray):
        """Compare the template rows at the first and last ``2 * cell_size``
        places and at every ``_SAMPLE_STRIDE``-th with ``out_edges``; raise
        ``InternalInvariantError`` naming the first vertex where they
        differ."""
        m, edge = len(table), 2 * self.s
        sample = sorted({*range(min(edge, m)), *range(max(m - edge, 0), m),
                         *range(0, m, _SAMPLE_STRIDE)})
        names = _names(self.box, offsets[sample], labels[sample])
        for v, entries in zip(names, table[sample]):
            have = entries[entries >= 0]
            targets, cols = self._columns(v)
            if cols != have.tolist():
                raise InternalInvariantError(
                    f"edge templates give {v} the neighbours "
                    f"{[self._name(j) for j in have.tolist()]}, out_edges {list(targets)}"
                )

    def _columns(self, v: Vertex) -> tuple[tuple[Vertex, ...], list[int]]:
        """``out_edges(v)`` and the row of each target, target by target: a
        target outside an induced box is dropped, one outside a wrap
        re-enters modulo the box lengths."""
        targets = self.oracle.out_edges(v)
        cols = []
        for t in targets:
            j = self._added_at.get(t)
            if j is None:
                j = self._base_row(v, t)
            if j is not None:
                cols.append(j)
        return targets, cols

    def _base_row(self, v: Vertex, t: Vertex) -> int | None:
        """The row of the target ``t`` of ``v`` if it is a kept base vertex
        of the box (reduced modulo the lengths on a wrap), None if it lies
        outside an induced box; in Python integers, as a target may lie
        past 64 bits."""
        d = len(self.box)
        if len(t.cell) != d:
            raise _foreign_neighbour(t, d)
        offset = [c - lo for c, (lo, _) in zip(t.cell, self.box)]
        if not all(0 <= o < n for o, n in zip(offset, self._lengths)):
            if not self.wrap:
                return None
            offset = [o % n for o, n in zip(offset, self._lengths)]
        key = sum(map(operator.mul, offset, self._strides)) * self.s + t.label
        ordinal = -1
        if 0 <= t.label < self.s:
            # a periodic box holds every key from 0, and keeps no list of them
            keys = range(len(self._keys)) if self._key_list is None else self._key_list
            ordinal = bisect.bisect_left(keys, key)
        if not 0 <= ordinal < len(self._keys) or self._keys[ordinal] != key:
            raise InternalInvariantError(
                f"{v} has an edge to {t}, which lies in a box cell but is not a box vertex"
            )
        return int(self._row[ordinal])

    def _name(self, row: int) -> Vertex:
        return _names(self.box, self.offsets[row : row + 1], self.labels[row : row + 1])[0]


def _chunks(box: Window) -> Iterator[Window]:
    """Sub-boxes of at most ``_CELL_CHUNK`` cells that give the cells of
    ``box`` once each, in its lexicographic order: the leading axes fixed,
    a run of one axis and every later axis whole."""
    sizes = [hi - lo + 1 for lo, hi in box]
    axis = next(a for a in range(len(box)) if math.prod(sizes[a + 1 :]) <= _CELL_CHUNK)
    step = _CELL_CHUNK // math.prod(sizes[axis + 1 :])
    lo, hi = box[axis]
    for prefix in itertools.product(*(range(a, b + 1) for a, b in box[:axis])):
        for first in range(lo, hi + 1, step):
            yield (*((c, c) for c in prefix), (first, min(first + step - 1, hi)), *box[axis + 1 :])


def _entries(
    table: np.ndarray, asked: np.ndarray, listed: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and ``cols`` of every entry, row by row: the template rows
    (``~asked``, in row order) from ``table``, the other rows from their
    ``listed`` columns."""
    present = table >= 0
    degrees = np.zeros(len(asked), dtype=np.intp)
    degrees[~asked] = present.sum(axis=1)
    degrees[asked] = [len(c) for c in listed]
    rows = np.repeat(np.arange(len(asked)), degrees)
    if not listed:
        return rows, table[present]
    cols = np.empty(len(rows), dtype=np.intp)
    from_table = np.repeat(~asked, degrees)
    cols[from_table] = table[present]
    cols[~from_table] = [j for c in listed for j in c]
    return rows, cols


@dataclass(frozen=True)
class BlochVectors:
    """Orthonormal eigenvectors of a wrapped box's symmetric form as Bloch
    waves, one per eigenvalue of ``spectrum_of_box`` in the same order.

    Column ``j`` is ``exp(2 pi i m_j . x / L) u_j[a] / sqrt(|L|)`` at the
    vertex of label ``a`` whose cell is ``x`` past the box's low corner, where
    ``m_j = modes[j]``, ``L`` the box lengths, ``|L|`` their product and
    ``u_j = fibers[j]`` the unit eigenvector of the fiber matrix at
    ``k = 2 pi m_j / L``.  No ``n x n`` array is built: ``rows`` gives the
    entries at chosen vertices only.
    """

    lengths: tuple[int, ...]
    modes: np.ndarray
    fibers: np.ndarray

    def rows(self, offsets: np.ndarray, labels: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Entries at the vertices ``(offsets, labels)`` of the columns
        ``columns`` (any shape ``(..., m)``), shape ``(..., len(labels), m)``.
        The phase is reduced modulo ``L`` in integers before scaling."""
        lengths = np.array(self.lengths, dtype=np.int64)
        modes = self.modes[columns][..., None, :, :]
        turns = ((offsets[:, None, :] * modes) % lengths / lengths).sum(axis=-1)
        amplitude = np.swapaxes(self.fibers[columns][..., labels], -1, -2)
        return np.exp(2j * np.pi * turns) * amplitude / np.sqrt(lengths.prod())


Eigenvectors = BlochVectors | SectorVectors


def spectrum_of_box(box_graph: BoxGraph, with_vectors: bool = False):
    """Ascending eigenvalues of the box operator, and with ``with_vectors``
    orthonormal eigenvectors of its symmetric form ``D^-1/2 A D^-1/2`` in the
    same order.  One of four routes solves the box:

    - A wrapped box with lengths ``L`` is the quotient ``Z^d / L Z^d``, which
      the discrete Fourier transform block-diagonalizes: its spectrum is the
      union of the fiber spectra at ``k = 2 pi m / L``, ``m`` in the box
      ``[0, L)``, from one batched ``eigh`` (or ``eigvalsh``) of
      ``fiber_matrices``.  The vectors come back as ``BlochVectors``, with no
      ``n x n`` array and no ``_DENSE_LIMIT``.
    - A bipartite induced box (``BoxGraph.sides`` is not None) whose accepted
      mirrors all keep its sides orders the orbits of each sector (below) as
      sides ``P`` and ``Q``; there the sector's block is ``[[0, B], [B^T,
      0]]``, so its spectrum is ``-s``, then ``|p - q|`` zeros, then ``s``
      ascending, for the singular values ``s`` of ``B``.  The eigenvector of
      ``-+s_i`` is ``[u_i; -+v_i] / sqrt(2)`` and the extra zero modes are
      the remaining columns of ``U`` (or ``V``).
    - A bipartite induced box with an accepted mirror that swaps the sides
      takes ``eigh``/``eigvalsh`` of the block of only one sector of each
      pair (below).
    - Every other induced box, one with loops or odd cycles (``cone`` boxes
      over its glued arcs), takes ``eigh``/``eigvalsh`` of each sector's
      dense block.

    An induced box is solved by the sectors of its mirror symmetries
    (``symmetry.sectors``): the form leaves each sector invariant, so each
    sector's block (``Sector.block``, from the edges alone) is solved on its
    own.  On a bipartite box, ``Z`` (+1 on ``P``, -1 on ``Q``) anticommutes
    with the form, so its spectrum is symmetric about 0 (Cvetkovic, Doob &
    Sachs, *Spectra of Graphs*, 1980); a mirror ``g`` that swaps the sides
    has ``g Z g = -Z``, so ``Z`` maps the sector of ``chi`` onto that of
    ``chi psi``, where ``psi(g)`` is -1 exactly when ``g`` swaps the sides.
    When some accepted mirror does, only the first sector of each such pair
    is solved: the other's values are ``-lam`` reversed, and its vectors
    ``Z(reps) y`` with the columns reversed.

    A box without an accepted symmetry is the identity sector, whose block
    is the whole form.  ``_merge`` checks each solved block's moments, merges
    the values by one stable ``argsort`` and returns ``SectorVectors``; on
    the identity sector the merge is the identity and the lift multiplies by
    exactly 1.0, so the outputs have the bits of the whole form's solve.

    Every solve is checked by ``_check_moments``, and every solve with
    vectors by ``_check_eigenpairs`` (exit code 4 on a miss).
    ``zero_mode_count`` calls this function again for the values: the
    benchmark's self-test expects two solves per ``truncate`` command."""
    n = len(box_graph)
    if box_graph.wrapped:
        solved, miss = _bloch_solve(box_graph, with_vectors), 0.0
    else:
        sides = box_graph.sides
        split = sectors(mirror_symmetries(box_graph, sides), n, sides)
        if sides is None or split[0].twin_odd is not None:  # odd cycles, or paired sectors
            parts = [_dense_solve(box_graph, sector, with_vectors) for sector in split]
        else:
            parts = [_bipartite_solve(box_graph, sector, sides, with_vectors) for sector in split]
        solved, miss = _merge(box_graph, split, parts, sides, with_vectors)
    _check_moments(solved[0] if with_vectors else solved, n, box_graph.moments)
    if with_vectors:
        _check_eigenpairs(box_graph, *solved, miss)
    return solved


def _merge(
    box_graph: BoxGraph, split: list[Sector], parts: list, sides: np.ndarray | None,
    with_vectors: bool,
):
    """The merged solve and its orthonormality miss: each solved block's
    values checked against its own moments (a twin copies any fault of its
    sector, which the box's moments cannot see), each twin's ``-lam``
    reversed put after its sector's, all merged by one stable ``argsort``;
    the ``_gram_miss`` of each sector's vectors at the columns that lift to
    sampled ones, its own or, reversed, its twin's (``Z`` changes no product)."""
    values = []
    for sector, part in zip(split, parts):
        lam = part[0] if with_vectors else part
        _check_moments(lam, len(sector.reps), sector.moments(box_graph), "sector")
        values.append(lam)
        if sector.twin_odd is not None:
            values.append(-lam[::-1])
    lam = np.concatenate(values)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    if not with_vectors:
        return lam, 0.0
    column = np.argsort(order)  # the merged column of each position
    sampled = np.zeros(len(lam), dtype=bool)
    sampled[order[_eigenpair_sample(len(lam))]] = True  # at the positions of sampled columns
    miss, start = 0.0, 0
    for sector, (_, y) in zip(split, parts):
        at = sampled[start : start + len(y)]
        start += len(y)
        if sector.twin_odd is not None:
            at = at | sampled[start : start + len(y)][::-1]
            start += len(y)
        miss = max(miss, _gram_miss(y, np.flatnonzero(at)))
    return (lam, SectorVectors(split, [y for _, y in parts], sides, column)), miss


def _check_moments(
    lam: np.ndarray, n: int, moments: tuple[float, float], what: str = "box"
) -> None:
    """Raise ``InternalInvariantError`` unless ``lam`` has ``n`` values,
    ``sum(lam)`` equals the trace ``moments[0]`` of the symmetric form (of a
    box, or of a sector's block) and ``sum(lam**2)`` its squared Frobenius
    norm ``moments[1]``, both to ``n * _MOMENT_TOL``.  A missing, extra,
    negated or rescaled value fails; a permuted spectrum passes, as it has
    the same moments."""
    trace, square = moments
    allowance = n * _MOMENT_TOL
    if lam.shape != (n,):
        raise InternalInvariantError(
            f"{what} solve gave {lam.shape} eigenvalues for a form of order {n}"
        )
    misses = (abs(float(lam.sum()) - trace), abs(float(np.dot(lam, lam)) - square))
    if max(misses) > allowance:
        raise InternalInvariantError(
            f"{what} eigenvalues miss their moments: |sum(lam) - trace| = {misses[0]:.3e}, "
            f"|sum(lam^2) - |H|_F^2| = {misses[1]:.3e}, allowance {allowance:.3e}"
        )


def _eigenpair_sample(n: int) -> np.ndarray:
    """The columns the eigenpair check samples: the first, the last and
    every ``ceil(n / _EIGENPAIR_SAMPLES)``-th."""
    return np.append(np.arange(0, n - 1, -(-n // _EIGENPAIR_SAMPLES)), n - 1)


def _gram_miss(y: np.ndarray, columns: np.ndarray) -> float:
    """``max |Y^T Y[:, columns] - I[:, columns]|`` of one solve's vectors
    ``y``, 0 with no column.  The sector bases are orthonormal and the
    sectors orthogonal, so over the sectors of a box this is the
    orthonormality miss of the sampled columns of its lifted vectors, at
    a quarter to a sixteenth of the products."""
    gram = y[:, columns].T @ y
    gram[np.arange(len(columns)), columns] -= 1.0
    return float(np.max(np.abs(gram), initial=0.0))


def _check_eigenpairs(
    box_graph: BoxGraph, lam: np.ndarray, vec: Eigenvectors, gram_miss: float
) -> None:
    """Raise ``InternalInvariantError`` unless the sampled columns
    (``_eigenpair_sample``) of ``vec`` are unit eigenvectors of their values
    and ``gram_miss``, their orthonormality miss from ``_gram_miss``, is
    small: ``|H v - lam v|``, ``|v^H v - 1|`` and ``gram_miss`` at most
    ``n * _EIGENPAIR_TOL``.  For ``SectorVectors``, ``H v`` is one
    ``bincount`` over the edges per sampled column, with no ``n x n``
    product.  For ``BlochVectors`` each sampled column is checked as its
    fiber pair ``(u, H(k) u)``, with ``H(k)`` assembled again by
    ``fiber_matrices`` at the sampled modes only."""
    n = len(box_graph)
    sample = _eigenpair_sample(n)
    if isinstance(vec, BlochVectors):
        v = vec.fibers[sample]
        ks = 2.0 * np.pi * vec.modes[sample] / np.array(vec.lengths)
        hv = (fiber_matrices(box_graph.periodic, ks) @ v[:, :, None])[:, :, 0]
    else:
        v = vec.columns(sample).T
        inv_sqrt = 1.0 / np.sqrt(box_graph.degrees.astype(float))
        rows, cols = box_graph.rows, box_graph.cols
        weights = inv_sqrt[rows] * inv_sqrt[cols]
        hv = np.array([np.bincount(rows, weights * x[cols], minlength=n) for x in v])
    norms = np.einsum("ij,ij->i", np.conj(v), v)
    misses = (
        float(np.max(np.abs(hv - lam[sample, None] * v))),
        max(float(np.max(np.abs(norms - 1.0))), gram_miss),
    )
    allowance = n * _EIGENPAIR_TOL
    if max(misses) > allowance:
        raise InternalInvariantError(
            f"box eigenvectors miss their checks on {len(sample)} sampled columns: "
            f"|Hv - lam v| = {misses[0]:.3e}, |V^H V - I| = {misses[1]:.3e}, "
            f"allowance {allowance:.3e}"
        )


def _bloch_solve(box_graph: BoxGraph, with_vectors: bool):
    """``spectrum_of_box`` of a wrapped box from its fiber matrices."""
    lengths = tuple(hi - lo + 1 for lo, hi in box_graph.box)
    modes = box_cell_array([(0, ln - 1) for ln in lengths])
    h = fiber_matrices(box_graph.periodic, 2.0 * np.pi * modes / np.array(lengths))
    if not with_vectors:
        return np.sort(np.linalg.eigvalsh(h).reshape(-1))
    lam, u = np.linalg.eigh(h)
    s = h.shape[1]
    order = np.argsort(lam.reshape(-1), kind="stable")
    fibers = np.swapaxes(u, 1, 2).reshape(-1, s)[order]
    return lam.reshape(-1)[order], BlochVectors(lengths, np.repeat(modes, s, axis=0)[order], fibers)


def _dense_solve(box_graph: BoxGraph, sector: Sector, with_vectors: bool):
    """Values (and vectors) of one sector by ``eigh`` of its dense block."""
    every = np.arange(len(sector.reps))
    h = sector.block(box_graph, every, every)
    return np.linalg.eigh(h) if with_vectors else np.linalg.eigvalsh(h)


def _bipartite_solve(
    box_graph: BoxGraph, sector: Sector, sides: np.ndarray, with_vectors: bool
):
    """Values (and vectors) of one sector of a bipartite box from the SVD of
    its ``P x Q`` block."""
    n = len(sector.reps)
    on_q = sides[sector.reps]
    at_p, at_q = np.flatnonzero(~on_q), np.flatnonzero(on_q)
    p = len(at_p)
    b = sector.block(box_graph, at_p, at_q)
    if not with_vectors:
        s = np.linalg.svd(b, compute_uv=False)
        return np.concatenate([-s, np.zeros(n - 2 * len(s)), s[::-1]])
    u, s, vt = np.linalg.svd(b)
    del b
    r = len(s)
    lam = np.concatenate([-s, np.zeros(n - 2 * r), s[::-1]])
    u[:, :r] *= np.sqrt(0.5)
    vt[:r] *= np.sqrt(0.5)
    vec = np.zeros((n, n))
    vec[at_p, :r] = u[:, :r]
    vec[at_q, :r] = -vt[:r].T
    vec[at_p, n - r :] = u[:, :r][:, ::-1]
    vec[at_q, n - r :] = vt[:r][::-1].T
    if p > r:
        vec[at_p, r : n - r] = u[:, r:]
    else:
        vec[at_q, r : n - r] = vt[r:].T
    return lam, vec


def check_eps(eps: float) -> None:
    """Raise ``InputError`` unless ``eps`` is positive and finite."""
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be positive and finite, got {eps}")


def compare_spectra(
    eigenvalues,
    reference: SpectrumApprox,
    eps: float,
    box_graph: BoxGraph | None = None,
    vectors: Eigenvectors | None = None,
) -> TruncationReport:
    """Fraction of eigenvalues within ``eps`` of the reference intervals.

    When the box and the eigenvectors ``spectrum_of_box`` gave with the
    (ascending) eigenvalues are supplied (``BlochVectors`` or ``SectorVectors``),
    ``boundary_count`` counts the boundary modes (``_count_boundary_modes``).
    An ``eps`` that is not positive and finite raises ``InputError``.
    """
    check_eps(eps)
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    if not eigs.size:
        return TruncationReport(1.0, None)
    # ``reference.distance(x) <= eps`` for every x at once: with eps > 0,
    # max(lo - x, x - hi, 0) <= eps holds iff both differences are <= eps
    lo, hi = np.array(reference.intervals, dtype=np.float64).reshape(-1, 2).T
    near = (lo - eigs[:, None] <= eps) & (eigs[:, None] - hi <= eps)
    fraction = int(np.count_nonzero(near.any(axis=1))) / eigs.size
    boundary_count: int | None = None
    if box_graph is not None and vectors is not None:
        boundary_count = _count_boundary_modes(box_graph, eigs, vectors)
    return TruncationReport(fraction, boundary_count)


def _count_boundary_modes(
    box_graph: BoxGraph, eigenvalues: np.ndarray, vectors: Eigenvectors
) -> int:
    """Number of boundary modes, a function of the box alone.

    The ascending eigenvalues split into clusters at gaps above
    ``_CLUSTER_GAP``.  For a cluster whose eigenvectors have the rows ``W``
    at the vertices within graph distance ``_NEAR_RADIUS`` of the box's
    faces, the count adds the eigenvalues of ``W^H W`` that are at least 1/2
    (less ``_HALF_TOL``, so that an exact half does not follow roundoff): the
    squared cosines of the principal angles between the cluster's eigenspace
    and those coordinates.  They do not depend on the basis of the cluster or
    on the order of the vertices, and on a simple eigenvalue the count is
    the old column rule (at least half of the unit mass near the boundary).
    When a cluster has more columns than there are near rows, ``W W^H``
    (the same nonzero eigenvalues) is taken instead.
    """
    near = _near_boundary_mask(box_graph)
    r = int(near.sum())
    if r == 0:
        return 0
    if isinstance(vectors, BlochVectors):
        grams = _bloch_grams(box_graph, near, vectors)
    else:
        grams = _dense_grams(vectors.rows(np.flatnonzero(near)))
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.diff(eigenvalues) > _CLUSTER_GAP) + 1, [len(eigenvalues)]]
    )
    sizes = np.diff(bounds)
    count = 0
    for m in sorted(set(sizes.tolist())):
        firsts = bounds[:-1][sizes == m]
        # a batch reads ``m * width`` numbers per cluster: its near rows, or
        # for Bloch vectors with no more columns than near rows, ``m`` factor
        # entries per label for each column
        width = max(m, r)
        if isinstance(vectors, BlochVectors) and m <= r:
            width = m * vectors.fibers.shape[1]
        step = max(1, _GRAM_BATCH // (m * width))
        for start in range(0, len(firsts), step):
            columns = firsts[start : start + step, None] + np.arange(m)
            count += int(np.sum(np.linalg.eigvalsh(grams(columns)) >= 0.5 - _HALF_TOL))
    return count


def _dense_grams(near_rows: np.ndarray):
    """Cluster Grams from the ``(r, n)`` near rows of a split box's lifted
    eigenvectors: columns ``(c, m)`` give ``c`` Grams of size ``min(m, r)``,
    each batch reading its ``(r, c, m)`` block from ``near_rows``."""

    def grams(columns: np.ndarray) -> np.ndarray:
        w = np.moveaxis(near_rows[:, columns], 0, 1)  # (c, r, m)
        # ``.conj()`` of a real batch is the batch itself, not a copy
        if columns.shape[1] <= len(near_rows):
            return np.swapaxes(w, 1, 2).conj() @ w
        return w @ np.swapaxes(w, 1, 2).conj()

    return grams


def _bloch_grams(box_graph: BoxGraph, near: np.ndarray, vectors: BlochVectors):
    """Cluster Grams of a wrapped box's Bloch vectors.

    For Bloch columns ``j`` and ``l``, ``(W^H W)_jl`` is ``sum_a conj(u_j[a])
    u_l[a] S_a(m_l - m_j)`` with ``S_a(m) = sum_x exp(2 pi i m . x / L) /
    |L|`` over the near cells ``x`` of label ``a``: one inverse FFT of the
    near indicator per label gives every ``S_a``, so no near row is built.
    A cluster with more columns than near rows builds its rows ``W``
    (``BlochVectors.rows``) and takes ``W W^H``.
    """
    offsets, labels = box_graph.offsets[near], box_graph.labels[near]
    lengths = vectors.lengths
    indicator = np.zeros((vectors.fibers.shape[1], *lengths))
    indicator[(labels, *offsets.T)] = 1.0
    factor = np.fft.ifftn(indicator, axes=tuple(range(1, len(lengths) + 1)))
    factor = factor.reshape(len(indicator), -1)

    def grams(columns: np.ndarray) -> np.ndarray:
        if columns.shape[1] > len(labels):
            w = vectors.rows(offsets, labels, columns)  # (c, r, m)
            return w @ np.conj(np.swapaxes(w, 1, 2))
        modes = vectors.modes[columns]
        shift = (modes[:, None, :, :] - modes[:, :, None, :]) % np.array(lengths)
        at = np.ravel_multi_index(tuple(np.moveaxis(shift, -1, 0)), lengths)
        u = vectors.fibers[columns]
        return np.einsum("cja,cla,acjl->cjl", np.conj(u), u, factor[:, at])

    return grams


def _near_boundary_mask(box_graph: BoxGraph) -> np.ndarray:
    lengths = np.array([hi - lo for lo, hi in box_graph.box])
    offsets = box_graph.offsets
    near = np.any((offsets == 0) | (offsets == lengths), axis=1)
    for _ in range(_NEAR_RADIUS):
        near[box_graph.cols[near[box_graph.rows]]] = True
    return near


def zero_mode_count(box_graph: BoxGraph) -> int:
    """Number of eigenvalues within ``_ZERO_TOL`` of zero."""
    return int(np.sum(np.abs(spectrum_of_box(box_graph)) <= _ZERO_TOL))
