"""Array form of the padded box that carries one test state.

A ``Region`` covers the box ``[c - h, c + h]^d`` around a centre cell ``c``
and is compiled once per test state.  It has two sides:

* the *base side* is the dense grid ``(2h+1, ..., 2h+1, cell_size)`` of base
  vertices in lexicographic cell order, labels last.  The base Laplacian acts
  on it, padded with zeros by the propagation length, by one shift-and-add
  per oriented edge template, and asks no oracle;
* the *perturbed side* lists, as rows, the kept box vertices (in grid
  order) followed by every neighbour outside them.

One call of ``UnperturbedSet.mask`` over the box grown by the propagation
length gives the unperturbed bit of every grid row, and with it the kept
bits over the box grown twice, which decide the kept box rows.  The bit
splits the rows in two kinds:

* a *stencil row* (bit set) has exactly its base edges and stores no
  neighbours.  ``laplacian`` scatters the rows onto the twice-grown grid,
  where a position that is no row holds 0, adds one shifted slice per
  oriented template at each label (in ``PeriodicGraph.templates`` order,
  which the oracle lists too) and reads the sums back at these rows;
* a *CSR row* (a perturbed or added vertex, or a base name outside the
  common subgraph) takes one ``out_edges`` call and keeps the targets that
  are rows as CSR entries, which a small ``bincount`` sums.

Both add a row's neighbour values in ``out_edges`` order from 0, so the sums
have the bits one ``bincount`` over a full CSR gives.  A row is known by its
*key*: its position on the twice-grown grid when it is a kept base vertex
there, otherwise a number given to its name.  The outside rows are the keys
that the box rows list and that are not box rows, in the order of their
first occurrence; only CSR box rows and stencil box rows within the
propagation length of a face can list one.  ``Vertex`` names are built only
on demand.

Three checks run on every compile: every oriented template has its
reversal; the stencil rows at the corners of their block and at every
4096th of them equal ``out_edges``; and ``graphs.audit_symmetry`` finds
every CSR entry, and every stencil entry that lands on a CSR row, listed
from both ends.  Two stencil rows list each other through a template and its
reversal, so they need no audit.  A row off the once-grown grid has no mask
bit: it is a CSR row, joined to the box only by an added edge that the audit
makes it list back.  ``tests/reference.py`` holds the dict operators that
compute the same quantities vertex by vertex, ``state_vector`` and
``region_entries``, which lays out the full CSR of every row.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import InternalInvariantError, VertexNotInCommonSubgraphError
from .graphs import (
    Cell,
    PeriodicGraph,
    Vertex,
    audit_symmetry,
    box_cell_array,
    propagation_length,
)
from .perturbation import _SAMPLE_STRIDE, PerturbedGraph


class Region:
    """Padded box of half-width ``half`` around ``center`` with both operators
    in array form.

    Grid arrays have shape ``self.shape``; row arrays have length
    ``self.size``.  ``laplacian`` is exact only for row vectors supported on
    the kept box rows (the first ``self.kept`` rows), which is what ``embed``
    produces.
    """

    def __init__(self, graph: PerturbedGraph, center: Cell, half: int):
        base = graph.base
        self.graph = graph
        self.half = half
        s, dim = base.cell_size, base.dim
        side = 2 * half + 1
        self.shape = (side,) * dim + (s,)
        self._box = [(c - half, c + half) for c in center]
        self._pad = pad = propagation_length(base)
        kept, members = graph.unperturbed._kept_and_mask(
            [(lo - pad, hi + pad) for lo, hi in self._box]
        )
        # keys of grid rows are positions on ``kept``'s grid, the box grown twice
        self._wide = [(lo - 2 * pad, hi + 2 * pad) for lo, hi in self._box]
        self._grid_shape = kept.shape[:-1]
        self._grid_keys = kept.size
        self._lo = np.array([lo for lo, _ in self._wide], dtype=np.int64)
        self._strides = s * self._grid_shape[0] ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        self._kept_bits = kept.reshape(-1)
        member = np.zeros(kept.shape, dtype=bool)  # no bit past the once-grown grid
        member[(slice(pad, pad + side + 2 * pad),) * dim] = members
        self._member = member.reshape(-1)
        self._off_grid: dict[Vertex, int] = {}  # key of every name off the grid
        self._base_degrees = np.asarray(base.degrees, dtype=np.int64)
        self._shifts = _label_shifts(base, self._strides.tolist())
        _check_reversals(self._shifts)

        inner = (slice(2 * pad, 2 * pad + side),) * dim
        box_keys = np.arange(kept.size).reshape(kept.shape)[inner].reshape(-1)
        self._kept_at = np.flatnonzero(self._kept_bits[box_keys])
        self.kept = len(self._kept_at)
        box_keys = box_keys[self._kept_at]
        box_bits = self._member[box_keys]
        # a stencil row at least ``pad`` cells inside every face lists box rows only
        deep = np.zeros(self.shape, dtype=bool)
        deep[(slice(pad, side - pad),) * dim] = True
        lists = np.flatnonzero(~(box_bits & deep.reshape(-1)[self._kept_at]))
        degrees, targets, asked = self._lists(box_keys[lists], box_bits[lists])

        row_at = np.full(self._grid_keys + len(self._off_grid), -1, dtype=np.intp)
        row_at[box_keys] = np.arange(self.kept)
        outside = targets[row_at[targets] < 0]
        outside = outside[np.sort(np.unique(outside, return_index=True)[1])]
        self.size = self.kept + len(outside)
        row_at[outside] = np.arange(self.kept, self.size)
        self._keys = np.concatenate([box_keys, outside])
        on = outside < self._grid_keys
        outside_bits = np.zeros(len(outside), dtype=bool)
        outside_bits[on] = self._member[outside[on]]
        self.unperturbed = np.concatenate([box_bits, outside_bits])

        # CSR rows: the box rows asked above, then the outside rows asked here
        outside_asked = np.flatnonzero(~outside_bits)
        listed, counts = _ask(graph, self._names_of(outside[outside_asked]))
        counts = np.concatenate([degrees[asked], counts])
        csr_keys = np.concatenate(
            [targets[np.repeat(~box_bits[lists], degrees)], self._keys_of(listed)]
        )
        cols = np.full(csr_keys.size, -1, dtype=np.intp)
        known = csr_keys < row_at.size  # a name first met here is no row
        cols[known] = row_at[csr_keys[known]]
        self._csr_rows = np.concatenate([lists[asked], self.kept + outside_asked])
        self._csr_owner = np.repeat(np.arange(len(counts)), counts)[cols >= 0]
        self._csr_cols = cols[cols >= 0]
        self.degrees = self._base_degrees[self._keys % s]
        self.degrees[self._csr_rows] = counts

        self._audit(row_at)
        self._check_templates(row_at)

    def _lists(
        self, keys: np.ndarray, bits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(degrees, target keys, asked)`` of the rows with ``keys``, each
        row's targets in ``out_edges`` order.  A row whose bit in ``bits`` is
        set takes them from the edge templates, every other row (listed in
        ``asked``) from one ``out_edges`` call."""
        labels = keys % self.shape[-1]
        degrees = np.where(bits, self._base_degrees[labels], 0)
        asked = np.flatnonzero(~bits)
        listed, asked_degrees = _ask(self.graph, self._names_of(keys[asked]))
        degrees[asked] = asked_degrees
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        targets = np.empty(int(indptr[-1]), dtype=np.int64)
        for a, shifts in enumerate(self._shifts):
            rows = np.flatnonzero(bits & (labels == a))
            for j, shift in enumerate(shifts):
                targets[indptr[rows] + j] = keys[rows] + shift
        targets[_entry_slots(indptr[asked], asked_degrees)] = self._keys_of(listed)
        return degrees, targets, asked

    def _keys_of(self, targets: Sequence[Vertex]) -> np.ndarray:
        """Key of every vertex in ``targets``: its grid position when it is a
        kept base vertex on the grid, otherwise the number of its name (a
        name met for the first time gets the next one)."""
        m, s = len(targets), self.shape[-1]
        labels = np.fromiter(map(attrgetter("label"), targets), dtype=np.int64, count=m)
        offsets = np.array(list(map(attrgetter("cell"), targets)), dtype=np.int64)
        offsets = offsets.reshape(m, len(self._lo)) - self._lo
        on = (labels >= 0) & (labels < s)
        on &= ((offsets >= 0) & (offsets < self._grid_shape[0])).all(axis=1)
        keys = np.where(on, offsets @ self._strides + labels, 0)
        on[on] = self._kept_bits[keys[on]]
        for k in np.flatnonzero(~on).tolist():
            fresh = self._grid_keys + len(self._off_grid)
            keys[k] = self._off_grid.setdefault(targets[k], fresh)
        return keys

    def _names_of(self, keys: np.ndarray) -> list[Vertex]:
        """The vertex of every key in ``keys``."""
        s = self.shape[-1]
        on = keys < self._grid_keys
        at = keys[on]
        cells = map(tuple, box_cell_array(self._wide, at // s).tolist())
        grid = map(Vertex, cells, (at % s).tolist())
        off = list(self._off_grid)
        return [
            next(grid) if o else off[k - self._grid_keys]
            for o, k in zip(on.tolist(), keys.tolist())
        ]

    def _name(self, row: int) -> Vertex:
        return self._names_of(self._keys[row : row + 1])[0]

    def _audit(self, row_at: np.ndarray) -> None:
        """``audit_symmetry`` over the CSR entries and every stencil entry
        that lands on a CSR row (``row_at`` maps keys to rows, -1 for none).
        Such an entry ``p -> t`` is found from ``t``: ``p`` is ``t`` moved by
        a template at ``t``'s label, whose reversal ``_check_reversals`` has
        confirmed.  A move that leaves the grid or wraps round an axis lands
        past the once-grown grid, where no bit is set."""
        rows, cols = [self._csr_rows[self._csr_owner]], [self._csr_cols]
        csr = self._csr_rows[self._keys[self._csr_rows] < self._grid_keys]
        keys = self._keys[csr]
        labels = keys % self.shape[-1]
        for a, shifts in enumerate(self._shifts):
            at, ends = keys[labels == a], csr[labels == a]
            for shift in shifts:
                p = at + shift
                hit = (p >= 0) & (p < self._grid_keys)
                hit[hit] = self._member[p[hit]]
                found = row_at[p[hit]]
                rows.append(found[found >= 0])
                cols.append(ends[hit][found >= 0])
        audit_symmetry(self.size, self._name, np.concatenate(rows), np.concatenate(cols))

    def _check_templates(self, row_at: np.ndarray) -> None:
        """Compare the stencil rows at the corners of their block (the box,
        or the once-grown box for outside rows) and at every
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
        keys = self._keys[sample]
        names = self._names_of(keys)
        listed, degrees = _ask(self.graph, names)
        wanted = np.split(self._keys_of(listed), np.cumsum(degrees)[:-1])
        for v, key, want in zip(names, keys.tolist(), wanted):
            have = np.add(key, self._shifts[key % s])
            if not np.array_equal(want, have):
                raise InternalInvariantError(
                    f"edge templates give {v} the neighbours "
                    f"{self._names_of(have)}, out_edges {self._names_of(want)}"
                )

    @cached_property
    def names(self) -> list[Vertex]:
        """The vertex of every row, built when first read."""
        return self._names_of(self._keys)

    @property
    def clear(self) -> bool:
        """Is every box vertex kept and inside the unperturbed set?"""
        return self.kept == math.prod(self.shape) and bool(
            self.unperturbed[: self.kept].all()
        )

    def base_laplacian(self, grid: np.ndarray) -> np.ndarray:
        """Base Laplacian of a grid state, taken as zero outside the box;
        exact on the box for states supported ``propagation_length`` cells
        inside its faces.  The grid is padded by the propagation length, so
        every edge template reads one full shifted slice of it."""
        pad, side = self._pad, self.shape[0]
        padded = np.pad(grid, [(pad, pad)] * (grid.ndim - 1) + [(0, 0)])
        out = np.zeros_like(grid)
        for e in self.graph.base.oriented_edges():
            ahead = tuple(slice(pad + i, pad + i + side) for i in e.index)
            out[..., e.origin] += padded[ahead + (e.target,)]
        return out / self._base_degrees

    def embed(self, grid: np.ndarray) -> np.ndarray:
        """Rows of the transplanted state: grid values move to the kept rows,
        removed vertices drop out and every other row carries zero."""
        out = np.zeros(self.size, dtype=grid.dtype)
        flat = grid.reshape(-1)
        out[: self.kept] = flat if self.kept == flat.size else flat[self._kept_at]
        return out

    def laplacian(self, rows: np.ndarray) -> np.ndarray:
        """Perturbed Laplacian: each row averages its neighbours' values.
        The stencil runs over the once-grown grid, whose every position
        moved by a template at its label stays on the twice-grown grid."""
        grid = np.zeros(self._grid_keys + len(self._off_grid), dtype=complex)
        grid[self._keys] = rows
        sums = np.zeros_like(grid)
        s = self.shape[-1]
        first = self._pad * int(self._strides.sum())  # key of the once-grown grid's first row
        stop = self._grid_keys - first
        for a, shifts in enumerate(self._shifts):
            out = sums[first + a : stop : s]
            for shift in shifts:
                out += grid[first + a + shift : stop + shift : s]
        sums = sums[self._keys]
        sums[self._csr_rows] = self._csr_sums(rows)
        return _mean(sums, self.degrees)

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
        minus embedding after the base Laplacian.  It is zero over the
        unperturbed set, that is at every stencil row; at a CSR row it is
        the average over its CSR entries minus, at a box row, the base
        stencil's average over the grid, taken as zero outside the box.  The
        stencil is read at those rows only: ``base_laplacian`` over the whole
        grid would cost a 3-D n=64 ``residual_row`` about a fifth more."""
        out = np.zeros(self.size, dtype=complex)
        at = self._csr_rows
        if at.size:
            s, pad, side = self.shape[-1], self._pad, self.shape[0]
            wide = np.zeros(self._grid_shape + (s,), dtype=complex)
            wide[(slice(2 * pad, 2 * pad + side),) * len(self._grid_shape)] = grid
            keys = self._keys[at[at < self.kept]]
            labels = keys % s
            sums = np.zeros(len(keys), dtype=complex)
            for a, shifts in enumerate(self._shifts):
                for shift in shifts:
                    sums[labels == a] += wide.reshape(-1)[keys[labels == a] + shift]
            out[at] = _mean(self._csr_sums(self.embed(grid)), self.degrees[at])
            out[at[: len(keys)]] -= _mean(sums, self._base_degrees[labels])
        return out

    def embedding_norm_bounds(self) -> tuple[float, float]:
        """Two-sided bounds ``(lower, upper)`` on the embedding's norm ratio
        over every box vertex: the square roots of the worst-case ratios of
        perturbed to base degree.  A box vertex outside the common subgraph
        raises ``VertexNotInCommonSubgraphError`` naming the first one."""
        if self.kept != math.prod(self.shape):
            # ``_kept_at`` is sorted, so the first box position it misses is
            # the first i with ``_kept_at[i] != i``, or ``kept`` if none is
            missing = np.flatnonzero(self._kept_at != np.arange(self.kept))
            first = int(missing[0]) if missing.size else self.kept
            s = self.shape[-1]
            (cell,) = box_cell_array(self._box, np.array([first // s])).tolist()
            x = Vertex(tuple(cell), first % s)
            raise VertexNotInCommonSubgraphError(
                f"{x} is not a vertex of the common subgraph"
            )
        dprime = self.degrees[: self.kept]
        dbase = self.graph.base.degrees
        lower = float(np.sqrt(int(dprime.min()) / max(dbase)))
        upper = float(np.sqrt(int(dprime.max()) / min(dbase)))
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


def _entry_slots(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[i], ..., starts[i] + counts[i] - 1`` of every row
    ``i`` in turn, as one array."""
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(int(counts.sum()))
