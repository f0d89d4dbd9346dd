"""Array form of the padded box that carries one test state.

A ``Region`` covers the box ``[c - h, c + h]^d`` around a centre cell ``c``
and is compiled once per test state.  It has two sides:

* the *base side* is the dense grid ``(2h+1, ..., 2h+1, cell_size)`` of base
  vertices in lexicographic cell order, labels last.  The base Laplacian acts
  on it by one shift-and-add per oriented edge template and asks no oracle;
* the *perturbed side* lists, as rows, the kept box vertices (in grid
  order) followed by every neighbour outside them, with CSR neighbour arrays
  that keep only targets that are rows themselves.

The rule that gives a row its neighbours is read from the box mask:

* the kept box rows come from one ``keep_array`` call over the box;
* an *interior* row is a kept box row in the unperturbed set
  (``UnperturbedSet.mask`` of the box) at least ``propagation_length`` cells
  inside every face.  Its neighbours are exactly its base neighbours, all of
  them kept box rows, so its entries come from one array shift per oriented
  edge template and no oracle is asked;
* every other kept box row is a *ring* row, and takes one ``out_edges`` call
  in grid order, which discovers the rows outside the box in order;
* each *outside* row takes one ``out_edges`` call too.

So a clear box asks the oracle O(h^{d-1}) times, not O(h^d).  Two checks run
on every compile: the template-built rows at the corners of the interior
block and at every 4096th interior row are compared with ``out_edges``, and
``graphs.audit_symmetry`` checks that the CSR lists every edge from both
ends.  The unperturbed mask of the rows zeroes the defect: the box rows read
it from ``UnperturbedSet.mask``, the outside rows from the scalar
``UnperturbedSet._contains_known`` given the degree their ``out_edges`` call
already returned.  The dict operators
``graphs.apply_laplacian``, ``weighted_norm``, ``perturbation.embed_state``,
``apply_defect`` and ``embedding_norm_bounds`` compute the same quantities
vertex by vertex and are the reference for this route.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import InternalInvariantError, VertexNotInCommonSubgraphError
from .graphs import Cell, PeriodicGraph, Vertex, audit_symmetry, box_cells, propagation_length
from .perturbation import _SAMPLE_STRIDE, PerturbedGraph, _checked_hook


class Region:
    """Padded box of half-width ``half`` around ``center`` with both operators
    in array form.

    Grid arrays have shape ``self.shape``; row arrays have length
    ``len(self.names)``.  ``laplacian`` is exact only for row vectors
    supported on the kept box rows (the first ``self.kept`` rows), which is
    what ``embed`` produces.
    """

    def __init__(self, graph: PerturbedGraph, center: Cell, half: int):
        base = graph.base
        self.graph = graph
        self.half = half
        s = base.cell_size
        side = 2 * half + 1
        self.shape = (side,) * base.dim + (s,)
        self._box = [(c - half, c + half) for c in center]
        pad = propagation_length(base)

        kept = _checked_hook(graph._keep_array, graph._keep, self._box, s, "keep_array")
        self._kept_at = np.flatnonzero(kept)
        self.kept = len(self._kept_at)
        self._row_at = np.full(kept.size, -1, dtype=np.intp)
        self._row_at[self._kept_at] = np.arange(self.kept)
        self._lo = np.array([lo for lo, _ in self._box], dtype=np.int64)
        self._strides = s * side ** np.arange(base.dim - 1, -1, -1, dtype=np.int64)
        cells = list(box_cells(self._box))
        cell_at, labels = np.divmod(self._kept_at, s)
        self.names = list(map(Vertex, map(cells.__getitem__, cell_at.tolist()), labels.tolist()))
        self._outside: dict[Vertex, int] = {}  # row of every name past the box rows

        members = graph.unperturbed.mask(self._box)
        inner = np.zeros(self.shape, dtype=bool)
        inner[(slice(pad, side - pad),) * base.dim] = True
        interior = (members & inner).reshape(-1)[self._kept_at]
        ring = np.flatnonzero(~interior)

        ring_targets, ring_degrees = _ask(graph, [self.names[r] for r in ring.tolist()])
        ring_cols = self._rows_of(ring_targets, discover=True)
        outside_targets, outside_degrees = _ask(graph, self.names[self.kept:])
        outside_cols = self._rows_of(outside_targets, discover=False)
        listed = outside_cols >= 0

        n, first = len(self.names), self.kept
        self.degrees = np.empty(n, dtype=np.int64)
        self.degrees[:first][interior] = np.asarray(base.degrees)[labels[interior]]
        self.degrees[ring] = ring_degrees
        self.degrees[first:] = outside_degrees
        counts = self.degrees.copy()  # CSR entries per row
        owner = np.repeat(np.arange(n - first), outside_degrees)
        counts[first:] = np.bincount(owner[listed], minlength=n - first)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        self.indices = np.empty(int(indptr[-1]), dtype=np.intp)
        inside = np.flatnonzero(interior)
        for a, shifts in enumerate(_label_shifts(base, self._strides.tolist())):
            rows = inside[labels[inside] == a]
            for j, shift in enumerate(shifts):
                cols = self._row_at[self._kept_at[rows] + shift]
                if cols.size and cols.min() < 0:
                    v = self.names[rows[np.argmin(cols)]]
                    raise InternalInvariantError(
                        f"{v} is in the unperturbed-set mask, but the target of its "
                        f"edge template {j} is not a kept box vertex"
                    )
                self.indices[indptr[rows] + j] = cols
        self.indices[_entry_slots(indptr[ring], counts[ring])] = ring_cols
        self.indices[indptr[first]:] = outside_cols[listed]
        self._entry_rows = np.repeat(np.arange(n, dtype=np.intp), counts)
        self._check_templates(inside, indptr)
        audit_symmetry(self.names, self._entry_rows, self.indices)

        mask = members.reshape(-1)[self._kept_at].tolist()
        known = graph.unperturbed._contains_known
        for v, d in zip(self.names[first:], outside_degrees.tolist()):
            mask.append(graph.in_common(v) and known(v, d))
        self.unperturbed = np.array(mask, dtype=bool)

        self._base_degrees = np.asarray(base.degrees, dtype=float)
        self._templates = [
            (e.origin, e.target, *_shift_slices(e.index, side))
            for e in base.oriented_edges()
            if all(abs(i) < side for i in e.index)
        ]

    def _rows_of(self, targets: Sequence[Vertex], discover: bool) -> np.ndarray:
        """Row of every target, or -1 for a target that is not a row.

        Kept box vertices are found by array arithmetic on their cells; every
        other target is looked up by name, and with ``discover`` a target met
        for the first time becomes the next row."""
        m, s = len(targets), self.shape[-1]
        labels = np.fromiter(map(attrgetter("label"), targets), dtype=np.int64, count=m)
        offsets = np.array(list(map(attrgetter("cell"), targets)), dtype=np.int64)
        offsets = offsets.reshape(m, len(self._lo)) - self._lo
        in_box = (labels < s) & ((offsets >= 0) & (offsets < self.shape[0])).all(axis=1)
        at = np.where(in_box, offsets @ self._strides + labels, 0)
        rows = np.where(in_box, self._row_at[at], -1)
        for k in np.flatnonzero(rows < 0).tolist():
            t = targets[k]
            row = self._outside.get(t)
            if row is None and discover:
                row = self._outside[t] = len(self.names)
                self.names.append(t)
            rows[k] = -1 if row is None else row
        return rows

    def _check_templates(self, inside: np.ndarray, indptr: np.ndarray) -> None:
        """Compare the template-built rows at the corners of the interior
        block and at every ``_SAMPLE_STRIDE``-th interior row with
        ``out_edges``; raise ``InternalInvariantError`` naming the first
        vertex where they differ."""
        at = np.unravel_index(self._kept_at[inside] // self.shape[-1], self.shape[:-1])
        corner = np.ones(inside.size, dtype=bool)
        for axis in at:
            if axis.size:
                corner &= (axis == axis.min()) | (axis == axis.max())
        sample = inside[
            np.union1d(np.flatnonzero(corner), np.arange(0, inside.size, _SAMPLE_STRIDE))
        ]
        targets, degrees = _ask(self.graph, [self.names[r] for r in sample.tolist()])
        cols = np.split(self._rows_of(targets, discover=False), np.cumsum(degrees)[:-1])
        for r, got in zip(sample.tolist(), cols):
            built = self.indices[indptr[r]:indptr[r + 1]]
            if not np.array_equal(got, built):
                v = self.names[r]
                listed = list(self.graph.oracle.out_edges(v))
                raise InternalInvariantError(
                    f"edge templates give {v} the neighbours "
                    f"{[self.names[j] for j in built]}, out_edges {listed}"
                )

    @cached_property
    def vertices(self) -> list[Vertex]:
        """Every box vertex, kept or not, in grid order."""
        if self.kept == math.prod(self.shape):
            return self.names[: self.kept]
        s = self.shape[-1]
        return [Vertex(cell, label) for cell in box_cells(self._box) for label in range(s)]

    @property
    def clear(self) -> bool:
        """Is every box vertex kept and inside the unperturbed set?"""
        return self.kept == math.prod(self.shape) and bool(
            self.unperturbed[: self.kept].all()
        )

    def base_laplacian(self, grid: np.ndarray) -> np.ndarray:
        """Base Laplacian of a grid state, taken as zero outside the box;
        exact on the box for states supported ``propagation_length`` cells
        inside its faces."""
        out = np.zeros_like(grid)
        for a, b, dst, src in self._templates:
            out[dst + (a,)] += grid[src + (b,)]
        return out / self._base_degrees

    def embed(self, grid: np.ndarray) -> np.ndarray:
        """Rows of the transplanted state: grid values move to the kept rows,
        removed vertices drop out and every other row carries zero."""
        out = np.zeros(len(self.names), dtype=grid.dtype)
        out[: self.kept] = grid.reshape(-1)[self._kept_at]
        return out

    def laplacian(self, rows: np.ndarray) -> np.ndarray:
        """Perturbed Laplacian: each row averages its neighbours' values."""
        n = len(self.names)
        vals = rows[self.indices]
        acc = np.bincount(self._entry_rows, weights=vals.real, minlength=n) + 1j * (
            np.bincount(self._entry_rows, weights=vals.imag, minlength=n)
        )
        out = np.zeros_like(acc)
        np.divide(acc, self.degrees, out=out, where=self.degrees > 0)
        return out

    def norm(self, rows: np.ndarray) -> float:
        """Degree-weighted l2 norm in the perturbed graph."""
        return float(np.sqrt(np.sum(np.abs(rows) ** 2 * self.degrees)))

    def defect(self, grid: np.ndarray) -> np.ndarray:
        """Defect operator on the rows: perturbed Laplacian after embedding
        minus embedding after the base Laplacian, zero over the unperturbed
        set."""
        lifted = self.laplacian(self.embed(grid))
        pushed = self.embed(self.base_laplacian(grid))
        return np.where(self.unperturbed, 0.0, lifted - pushed)

    def embedding_norm_bounds(self) -> tuple[float, float]:
        """``perturbation.embedding_norm_bounds`` over every box vertex."""
        if self.kept != math.prod(self.shape):
            x = next(v for v in self.vertices if not self.graph.in_common(v))
            raise VertexNotInCommonSubgraphError(
                f"{x} is not a vertex of the common subgraph"
            )
        dprime = self.degrees[: self.kept]
        dbase = self.graph.base.degrees
        lower = float(np.sqrt(int(dprime.min()) / max(dbase)))
        upper = float(np.sqrt(int(dprime.max()) / min(dbase)))
        return lower, upper


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
    the target of each oriented edge template at it, listed in
    ``PeriodicOracle`` order (each stored template, then its reversal)."""
    shifts: list[list[int]] = [[] for _ in range(base.cell_size)]
    for e in base.oriented_edges():
        step = sum(i * k for i, k in zip(e.index, strides))
        shifts[e.origin].append(step + e.target - e.origin)
    return shifts


def _entry_slots(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[i], ..., starts[i] + counts[i] - 1`` of every row
    ``i`` in turn, as one array."""
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(int(counts.sum()))


def _shift_slices(index: Cell, side: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Slices with ``out[dst] += grid[src]`` reading the value ``index`` cells
    ahead along every axis."""
    dst, src = [], []
    for i in index:
        if i >= 0:
            dst.append(slice(0, side - i))
            src.append(slice(i, side))
        else:
            dst.append(slice(-i, side))
            src.append(slice(0, side + i))
    return tuple(dst), tuple(src)
