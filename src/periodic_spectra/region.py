"""Array form of the padded clear box that carries one test state.

A ``Region`` covers the box ``[c - h, c + h]^d`` around a centre cell ``c``
and is compiled once per test state.  The box must lie inside the
unperturbed set: a box vertex outside it raises ``InputError`` naming the
first one.  A ``Region`` has two sides:

* the *base side* is the dense grid ``(2h+1, ..., 2h+1, cell_size)`` of base
  vertices in lexicographic cell order, labels last.  ``base_laplacian``
  sets it on the box of the twice-grown grid, zeros around it, and applies
  the stencil below there; it asks no oracle;
* the *perturbed side* lists, as rows, the box vertices in grid order, then
  the *ring*: their neighbours outside the box, which ``_stencil`` run over
  the box's bits finds, in grid order.

Every box vertex is kept and has exactly its base edges, so the box rows are
the box slice of the grid grown twice by the propagation length, and every
ring row is a kept base vertex of the box grown once.  One call of
``UnperturbedSet.mask`` over the once-grown box gives the unperturbed bit of
every row, and with it the kept bits of the twice-grown grid.  The bit
splits the rows in two kinds:

* a *stencil row* (bit set: every box row and most ring rows) stores no
  neighbours.  ``laplacian`` writes the box rows into their slice of the
  twice-grown grid and the ring rows at their positions, where any other
  position holds 0, applies the one base stencil ``_stencil`` (a shifted
  slice per oriented template at each label, in ``PeriodicGraph.templates``
  order, which the oracle lists too) and reads the sums back;
* a *CSR row* (a ring row whose bit is clear) takes one ``out_edges`` call
  and keeps the targets that are rows as CSR entries, which a small
  ``bincount`` sums.

Both add a row's neighbour values in ``out_edges`` order from 0, so the sums
have the bits one ``bincount`` over a full CSR gives.  A row is known by its
*key*, its position on the twice-grown grid; a name that is not a kept
vertex of that grid is no row.  ``Vertex`` names are built only on demand.

Four checks run on every compile: the box is clear; every oriented template
has its reversal; the stencil rows at the corners of their block and at
every 4096th of them equal ``out_edges``; and ``graphs.audit_symmetry``
finds every CSR entry, and every stencil entry that lands on a CSR row,
listed from both ends.  Two stencil rows list each other through a template
and its reversal, so they need no audit.  ``tests/reference.py`` holds the
dict operators that compute the same quantities vertex by vertex,
``state_vector`` and ``region_entries``, which lays out the full CSR of
every row.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import InputError, InternalInvariantError
from .graphs import (
    Cell,
    PeriodicGraph,
    Vertex,
    _foreign_neighbour,
    audit_symmetry,
    box_cell_array,
    propagation_length,
)
from .perturbation import _SAMPLE_STRIDE, PerturbedGraph


class Region:
    """Padded clear box of half-width ``half`` around ``center`` with both
    operators in array form.

    Grid arrays have shape ``self.shape``; row arrays have length
    ``self.size``, the box rows first (``self.kept`` of them).
    ``laplacian`` is exact only for row vectors supported on the box rows,
    which is what ``embed`` produces.
    """

    def __init__(self, graph: PerturbedGraph, center: Cell, half: int):
        base = graph.base
        self.graph = graph
        self.half = half
        s, dim = base.cell_size, base.dim
        side = 2 * half + 1
        self.shape = (side,) * dim + (s,)
        self.kept = math.prod(self.shape)
        self._box = [(c - half, c + half) for c in center]
        self._pad = pad = propagation_length(base)
        kept, members = graph.unperturbed._kept_and_mask(
            [(lo - pad, hi + pad) for lo, hi in self._box]
        )
        # keys of rows are positions on ``kept``'s grid, the box grown twice
        self._wide = [(lo - 2 * pad, hi + 2 * pad) for lo, hi in self._box]
        self._grid_shape = kept.shape[:-1]
        self._grid_keys = kept.size
        self._lo = np.array([lo for lo, _ in self._wide], dtype=np.int64)
        self._strides = s * self._grid_shape[0] ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        self._kept_bits = kept.reshape(-1)
        outside = np.flatnonzero(~members[(slice(pad, pad + side),) * dim].reshape(-1))
        if outside.size:
            raise InputError(
                f"{self._names_of(self._box_keys(outside[:1]))[0]} is not in the "
                f"unperturbed set: a Region needs a clear box"
            )
        self._base_degrees = np.asarray(base.degrees, dtype=np.int64)
        self._shifts = _label_shifts(base, self._strides.tolist())
        _check_reversals(self._shifts)

        self._inner = (slice(2 * pad, 2 * pad + side),) * dim  # the box on that grid
        # ``row_at[-1]`` is never a row: it answers the key -1 of ``_keys_of``
        row_at = np.full(self._grid_keys + 1, -1, dtype=np.intp)
        row_at[:-1].reshape(kept.shape)[self._inner] = np.arange(self.kept).reshape(self.shape)
        box = row_at[:-1] >= 0
        self._ring = np.flatnonzero(self._stencil(box) & ~box)  # bool sums are ORs
        self.size = self.kept + len(self._ring)
        row_at[self._ring] = np.arange(self.kept, self.size)
        *cell, label = np.unravel_index(self._ring, kept.shape)
        ring_bits = members[tuple(c - pad for c in cell) + (label,)]
        self.unperturbed = np.concatenate([np.ones(self.kept, dtype=bool), ring_bits])

        asked = np.flatnonzero(~ring_bits)
        listed, counts = _ask(graph, self._names_of(self._ring[asked]))
        cols = row_at[self._keys_of(listed)]
        self._csr_rows = self.kept + asked
        self._csr_owner = np.repeat(np.arange(len(counts)), counts)[cols >= 0]
        self._csr_cols = cols[cols >= 0]
        self.degrees = np.concatenate(
            [np.tile(self._base_degrees, self.kept // s), self._base_degrees[self._ring % s]]
        )
        self.degrees[self._csr_rows] = counts

        self._audit(row_at)
        self._check_templates(row_at)

    def _keys_of(self, targets: Sequence[Vertex]) -> np.ndarray:
        """Key of every vertex in ``targets``: its grid position when it is a
        kept base vertex on the grid, otherwise -1.  A vertex whose cell has
        another number of coordinates than the grid raises ``InputError``."""
        m, s, d = len(targets), self.shape[-1], len(self._lo)
        wrong = next((v for v in targets if len(v.cell) != d), None)
        if wrong is not None:
            raise _foreign_neighbour(wrong, d)
        labels = np.fromiter(map(attrgetter("label"), targets), dtype=np.int64, count=m)
        offsets = np.array(list(map(attrgetter("cell"), targets)), dtype=np.int64)
        offsets = offsets.reshape(m, d) - self._lo
        on = (labels >= 0) & (labels < s)
        on &= ((offsets >= 0) & (offsets < self._grid_shape[0])).all(axis=1)
        keys = np.where(on, offsets @ self._strides + labels, 0)
        on[on] = self._kept_bits[keys[on]]
        return np.where(on, keys, -1)

    def _box_keys(self, rows: np.ndarray) -> np.ndarray:
        """The key of every box row in ``rows``, from its place in the box."""
        s = self.shape[-1]
        return (box_cell_array(self._box, rows // s) - self._lo) @ self._strides + rows % s

    def _row_keys(self, rows: np.ndarray) -> np.ndarray:
        """The key of every row in ``rows``: box rows by their place in the
        box, ring rows from the ring list."""
        box = rows < self.kept
        keys = np.empty(len(rows), dtype=np.int64)
        keys[box] = self._box_keys(rows[box])
        keys[~box] = self._ring[rows[~box] - self.kept]
        return keys

    def _names_of(self, keys: np.ndarray) -> list[Vertex]:
        """The vertex of every key in ``keys``."""
        s = self.shape[-1]
        cells = map(tuple, box_cell_array(self._wide, keys // s).tolist())
        return list(map(Vertex, cells, (keys % s).tolist()))

    def _name(self, row: int) -> Vertex:
        return self._names_of(self._row_keys(np.array([row])))[0]

    def _audit(self, row_at: np.ndarray) -> None:
        """``audit_symmetry`` over the CSR entries and every stencil entry
        that lands on a CSR row (``row_at`` maps keys to rows, -1 for none).
        Such an entry ``p -> t`` is found from ``t``: ``p`` is ``t`` moved by
        a template at ``t``'s label, whose reversal ``_check_reversals`` has
        confirmed.  Every CSR row is a ring row, on the once-grown grid, so
        the move stays on the twice-grown grid."""
        rows, cols = [self._csr_rows[self._csr_owner]], [self._csr_cols]
        csr = self._csr_rows
        keys = self._ring[csr - self.kept]
        labels = keys % self.shape[-1]
        for a, shifts in enumerate(self._shifts):
            at, ends = keys[labels == a], csr[labels == a]
            for shift in shifts:
                r = row_at[at + shift]
                found = (r >= 0) & self.unperturbed[r]
                rows.append(r[found])
                cols.append(ends[found])
        audit_symmetry(self.size, self._name, np.concatenate(rows), np.concatenate(cols))

    def _check_templates(self, row_at: np.ndarray) -> None:
        """Compare the stencil rows at the corners of their block (the box,
        or the once-grown box for ring rows) and at every
        ``_SAMPLE_STRIDE``-th of them with ``out_edges``; raise
        ``InternalInvariantError`` naming the first vertex where they
        differ."""
        s, side, pad = self.shape[-1], self.shape[0], self._pad
        strides = self._strides.tolist()
        corners = [
            sum(map(int.__mul__, cell, strides)) + label
            for first, length in ((2 * pad, side), (pad, side + 2 * pad))
            for cell in itertools.product((first, first + length - 1), repeat=len(strides))
            for label in range(s)
        ]
        at = row_at[corners]
        at = at[at >= 0]
        sample = set(np.flatnonzero(self.unperturbed)[::_SAMPLE_STRIDE].tolist())
        sample = np.array(sorted(sample.union(at[self.unperturbed[at]].tolist())), dtype=np.intp)
        keys = self._row_keys(sample)
        names = self._names_of(keys)
        listed, degrees = _ask(self.graph, names)
        wanted = self._keys_of(listed)
        stops = np.cumsum(degrees).tolist()
        for v, key, stop, d in zip(names, keys.tolist(), stops, degrees.tolist()):
            have = np.add(key, self._shifts[key % s])
            if not np.array_equal(wanted[stop - d : stop], have):
                raise InternalInvariantError(
                    f"edge templates give {v} the neighbours "
                    f"{self._names_of(have)}, out_edges {listed[stop - d : stop]}"
                )

    @cached_property
    def names(self) -> list[Vertex]:
        """The vertex of every row, built when first read."""
        return self._names_of(self._row_keys(np.arange(self.size)))

    def base_laplacian(self, grid: np.ndarray) -> np.ndarray:
        """Base Laplacian of a grid state, taken as zero outside the box;
        exact on the box for states supported ``propagation_length`` cells
        inside its faces.  ``_stencil`` runs over the state set on the box of
        the twice-grown grid, zeros around it."""
        wide = np.zeros(self._grid_shape + grid.shape[-1:], dtype=grid.dtype)
        wide[self._inner] = grid
        sums = self._stencil(wide.reshape(-1)).reshape(wide.shape)[self._inner]
        return sums / self._base_degrees

    def embed(self, grid: np.ndarray) -> np.ndarray:
        """Rows of the transplanted state: grid values move to the box rows
        and every ring row carries zero."""
        out = np.zeros(self.size, dtype=grid.dtype)
        out[: self.kept] = grid.reshape(-1)
        return out

    def laplacian(self, rows: np.ndarray) -> np.ndarray:
        """Perturbed Laplacian: each row averages its neighbours' values.
        ``_stencil`` runs over the box rows set on their slice of the
        twice-grown grid and the ring rows set at their keys; the CSR rows
        take their own sums."""
        wide = np.zeros(self._grid_shape + self.shape[-1:], dtype=complex)
        wide[self._inner] = rows[: self.kept].reshape(self.shape)
        flat = wide.reshape(-1)
        flat[self._ring] = rows[self.kept :]
        sums = self._stencil(flat)
        out = np.empty(self.size, dtype=complex)
        out[: self.kept].reshape(self.shape)[...] = sums.reshape(wide.shape)[self._inner]
        out[self.kept :] = sums[self._ring]
        out[self._csr_rows] = self._csr_sums(rows)
        return _mean(out, self.degrees)

    def _stencil(self, flat: np.ndarray) -> np.ndarray:
        """Sums over the base edge templates of ``flat``, a state on the flat
        twice-grown grid, at every position of the once-grown grid (which a
        template keeps on the twice-grown grid): one shifted slice per
        template at each label, added from 0 in ``PeriodicGraph.templates``
        order, which the oracle lists too.  Every other key sums to 0."""
        sums = np.zeros_like(flat)
        s = self.shape[-1]
        first = self._pad * int(self._strides.sum())  # key of the once-grown grid's first row
        stop = self._grid_keys - first
        for a, shifts in enumerate(self._shifts):
            out = sums[first + a : stop : s]
            for shift in shifts:
                out += flat[first + a + shift : stop + shift : s]
        return sums

    def _csr_sums(self, rows: np.ndarray) -> np.ndarray:
        """Sum of the listed neighbours' values at every CSR row."""
        n = len(self._csr_rows)
        real = np.bincount(self._csr_owner, weights=rows.real[self._csr_cols], minlength=n)
        imag = np.bincount(self._csr_owner, weights=rows.imag[self._csr_cols], minlength=n)
        return real + 1j * imag

    def norm(self, rows: np.ndarray) -> float:
        """Degree-weighted l2 norm in the perturbed graph."""
        return float(np.sqrt(np.sum(np.abs(rows) ** 2 * self.degrees)))

    def defect(self, grid: np.ndarray) -> np.ndarray:
        """Defect operator on the rows: perturbed Laplacian after embedding
        minus embedding after the base Laplacian, for a state supported
        ``propagation_length`` cells inside the box's faces, whose base
        Laplacian is zero on the ring.  It is zero over the unperturbed set,
        that is at every stencil row; at a CSR row it is the average over
        its CSR entries.  A box with no CSR row builds no rows."""
        out = np.zeros(self.size, dtype=complex)
        at = self._csr_rows
        if at.size:
            out[at] = _mean(self._csr_sums(self.embed(grid)), self.degrees[at])
        return out

    def embedding_norm_bounds(self) -> tuple[float, float]:
        """Two-sided bounds ``(lower, upper)`` on the embedding's norm ratio
        over every box vertex: the square roots of the worst-case ratios of
        perturbed to base degree.  Every box vertex keeps its base degree,
        and the box holds every label."""
        dbase = self.graph.base.degrees
        lower = float(np.sqrt(min(dbase) / max(dbase)))
        upper = float(np.sqrt(max(dbase) / min(dbase)))
        return lower, upper


def _mean(sums: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """``sums / degrees`` in place; a row of degree 0 lists nothing, so its
    sum stays 0."""
    return np.divide(sums, degrees, out=sums, where=degrees > 0)


def _ask(graph: PerturbedGraph, vertices: Sequence[Vertex]) -> tuple[list[Vertex], np.ndarray]:
    """The targets of ``out_edges`` at every vertex in turn, as one list, and
    the number at each vertex."""
    out_edges = graph.oracle.out_edges
    targets: list[Vertex] = []
    degrees = np.empty(len(vertices), dtype=np.int64)
    for i, v in enumerate(vertices):
        listed = out_edges(v)
        degrees[i] = len(listed)
        targets.extend(listed)
    return targets, degrees


def _label_shifts(base: PeriodicGraph, strides: list[int]) -> list[list[int]]:
    """Per label, the shift of grid position (cell strides ``strides``) to
    the target of each oriented edge template at it, read from
    ``base.templates``, the table whose order ``PeriodicOracle.out_edges``
    lists neighbours in and ``Region._check_templates`` compares against."""
    return [
        [sum(i * k for i, k in zip(index, strides)) + target - label for index, target in at]
        for label, at in enumerate(base.templates)
    ]


def _check_reversals(shifts: list[list[int]]) -> None:
    """Raise ``InternalInvariantError`` unless every shift ``d`` at label
    ``a`` has its reversal ``-d`` at the target's label ``(a + d) mod s``,
    as often: then two stencil rows list each other equally often."""
    s = len(shifts)
    moves = [(a, d) for a, at in enumerate(shifts) for d in at]
    unmatched = Counter(moves) - Counter(((a + d) % s, -d) for a, d in moves)
    if unmatched:
        a, d = next(iter(unmatched))
        raise InternalInvariantError(
            f"the edge template shift {d} at label {a + 1} has no reversal at "
            f"label {(a + d) % s + 1}"
        )
