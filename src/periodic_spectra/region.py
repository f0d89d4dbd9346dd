"""Array form of the padded box that carries one test state.

A ``Region`` covers the box ``[c - h, c + h]^d`` around a centre cell ``c``
and is compiled once per test state.  It has two sides:

* the *base side* is the dense grid ``(2h+1, ..., 2h+1, cell_size)`` of base
  vertices in lexicographic cell order, labels last.  The base Laplacian acts
  on it by one shift-and-add per oriented edge template and asks no oracle;
* the *perturbed side* lists, as rows, the kept box vertices (in grid
  order) followed by every neighbour outside them, with CSR neighbour arrays
  that keep only targets that are rows themselves.

One call of ``UnperturbedSet.mask`` over the box grown by the propagation
length gives the unperturbed bit of every grid row, and with it the kept
bits over the box grown twice, which decide the kept box rows.  One rule
then fills every row, in the box or outside it:

* a row whose unperturbed bit is set has exactly its base edges, so its
  entries come from one array shift per oriented edge template (in the
  oracle's template order) and its degree is the base degree of its label;
* every other row (a perturbed or added vertex, or a base name outside the
  common subgraph) takes one ``out_edges`` call, and only its targets are
  looked up by name.

A row is known by its *key*: its position on the twice-grown grid when it is
a kept base vertex there, otherwise a number given to its name.  The outside
rows are the keys that the box rows list and that are not box rows, in the
order of their first occurrence, which is the order in which ``out_edges``
calls at the box rows in grid order would discover them.  ``Vertex`` names
are built only on demand: for the rows that call ``out_edges``, for
messages, and for ``names`` when something reads it.

So a clear box with a clear ring asks the oracle only for its self-check,
and any other box once more per row whose bit is clear.  Two checks run on
every compile: the template-built rows at the corners of their block and at
every 4096th of them are compared with ``out_edges``, and
``graphs.audit_symmetry`` checks that the CSR lists every edge from both
ends.  The unperturbed bits also zero the defect.  A row off the
once-grown grid has no mask bit: it takes one ``out_edges`` call and is not
in the unperturbed set, because only an added edge joins it to a box row
and the audit makes it list that edge back.  The dict
operators ``graphs.apply_laplacian``, ``weighted_norm``,
``perturbation.embed_state``, ``apply_defect`` and ``embedding_norm_bounds``
compute the same quantities vertex by vertex and are the reference for this
route.
"""

from __future__ import annotations

import math
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
    box_cells,
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
        pad = propagation_length(base)
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

        inner = (slice(2 * pad, 2 * pad + side),) * dim
        box_keys = np.arange(kept.size).reshape(kept.shape)[inner].reshape(-1)
        self._kept_at = np.flatnonzero(self._kept_bits[box_keys])
        self.kept = len(self._kept_at)
        counts = self._compile(box_keys[self._kept_at])
        self._entry_rows = np.repeat(np.arange(self.size, dtype=np.intp), counts)
        audit_symmetry(self.size, self._name, self._entry_rows, self.indices)

        self.unperturbed = np.zeros(self.size, dtype=bool)
        on = self._keys < self._grid_keys
        self.unperturbed[on] = self._member[self._keys[on]]

        self._templates = [
            (e.origin, e.target, *_shift_slices(e.index, side))
            for e in base.oriented_edges()
            if all(abs(i) < side for i in e.index)
        ]

    def _compile(self, box_keys: np.ndarray) -> np.ndarray:
        """Set the row keys, ``size``, ``degrees`` and ``indices`` from the
        keys of the kept box rows, and return the CSR entries per row.  The
        outside rows are the targets of the box rows that are not box rows,
        in the order of their first occurrence."""
        box_ptr, box_targets = self._entries(box_keys)
        row_at = np.full(self._grid_keys + len(self._off_grid), -1, dtype=np.intp)
        row_at[box_keys] = np.arange(self.kept)
        outside = box_targets[row_at[box_targets] < 0]
        outside = outside[np.sort(np.unique(outside, return_index=True)[1])]
        self.size = self.kept + len(outside)
        row_at[outside] = np.arange(self.kept, self.size)
        self._keys = np.concatenate([box_keys, outside])

        out_ptr, out_targets = self._entries(outside)
        cols = np.full(out_targets.size, -1, dtype=np.intp)
        known = out_targets < row_at.size  # a name first met here is no row
        cols[known] = row_at[out_targets[known]]
        listed = cols >= 0
        self.degrees = np.concatenate([np.diff(box_ptr), np.diff(out_ptr)])
        owner = np.repeat(np.arange(len(outside)), self.degrees[self.kept:])
        counts = self.degrees.copy()
        counts[self.kept:] = np.bincount(owner[listed], minlength=len(outside))
        self.indices = np.empty(int(counts.sum()), dtype=np.intp)
        np.take(row_at, box_targets, out=self.indices[: box_targets.size])
        self.indices[box_targets.size:] = cols[listed]
        return counts

    def _entries(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, target keys)`` of the rows with ``keys``, each row's
        targets in ``out_edges`` order.  A row with its unperturbed bit set
        takes them from the edge templates, every other row from one
        ``out_edges`` call; the template-built rows are then checked."""
        on = keys < self._grid_keys
        at = np.where(on, keys, 0)
        built = on & self._member[at]
        labels = at % self.shape[-1]
        degrees = np.where(built, self._base_degrees[labels], 0)
        asked = np.flatnonzero(~built)
        listed, asked_degrees = _ask(self.graph, self._names_of(keys[asked]))
        degrees[asked] = asked_degrees
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        targets = np.empty(int(indptr[-1]), dtype=np.int64)
        for a, shifts in enumerate(self._shifts):
            rows = np.flatnonzero(built & (labels == a))
            for j, shift in enumerate(shifts):
                targets[indptr[rows] + j] = keys[rows] + shift
        targets[_entry_slots(indptr[asked], degrees[asked])] = self._keys_of(listed)
        self._check_templates(keys, np.flatnonzero(built), indptr, targets)
        return indptr, targets

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

    def _check_templates(
        self, keys: np.ndarray, built: np.ndarray, indptr: np.ndarray, targets: np.ndarray
    ) -> None:
        """Compare the template-built rows ``built`` at the corners of their
        block and at every ``_SAMPLE_STRIDE``-th of them with ``out_edges``;
        raise ``InternalInvariantError`` naming the first vertex where they
        differ."""
        at = np.unravel_index(keys[built] // self.shape[-1], self._grid_shape)
        corner = np.ones(built.size, dtype=bool)
        for axis in at:
            if axis.size:
                corner &= (axis == axis.min()) | (axis == axis.max())
        sample = np.union1d(built[corner], built[::_SAMPLE_STRIDE])
        names = self._names_of(keys[sample])
        listed, degrees = _ask(self.graph, names)
        wanted = np.split(self._keys_of(listed), np.cumsum(degrees)[:-1])
        for v, r, want in zip(names, sample.tolist(), wanted):
            have = targets[indptr[r]:indptr[r + 1]]
            if not np.array_equal(want, have):
                raise InternalInvariantError(
                    f"edge templates give {v} the neighbours "
                    f"{self._names_of(have)}, out_edges {self._names_of(want)}"
                )

    @cached_property
    def names(self) -> list[Vertex]:
        """The vertex of every row, built when first read."""
        return self._names_of(self._keys)

    @cached_property
    def vertices(self) -> list[Vertex]:
        """Every box vertex, kept or not, in grid order."""
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
        out = np.zeros(self.size, dtype=grid.dtype)
        out[: self.kept] = grid.reshape(-1)[self._kept_at]
        return out

    def laplacian(self, rows: np.ndarray) -> np.ndarray:
        """Perturbed Laplacian: each row averages its neighbours' values."""
        n = self.size
        real = np.bincount(self._entry_rows, weights=rows.real[self.indices], minlength=n)
        imag = np.bincount(self._entry_rows, weights=rows.imag[self.indices], minlength=n)
        acc = real + 1j * imag
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
