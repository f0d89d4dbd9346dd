"""Array form of the padded clear box that carries one test state.

A ``Region`` covers the box ``[c - h, c + h]^d`` around a centre cell ``c``
and is compiled once per test state.  The box must lie inside the
unperturbed set: a box vertex outside it raises ``InputError`` naming the
first one.  Every array of a ``Region`` is indexed by *key*, a position on
the box grown twice by the propagation length, in lexicographic cell order
with labels last.  A key that is not a kept base vertex of that grid names
no vertex.  ``Vertex`` names are built only on demand.

A state is a flat array over the keys, zero off the box.  ``embed`` is the
one method that takes a grid state (shape ``(2h+1, ..., 2h+1, cell_size)``):
it sets it on the box slice.  The operators read the box keys and the
*ring*: the neighbours of the box outside it, which ``_stencil`` run over
the box's bits finds, in key order.  Every box vertex is kept and has
exactly its base edges, so every ring key is a kept base vertex of the box
grown once.  One call of ``UnperturbedSet.mask`` over the once-grown box
gives the unperturbed bit of every box and ring key, and with it the kept
bits of the twice-grown grid.  The bit splits the keys in two kinds:

* a *stencil key* (bit set: every box key and most ring keys) stores no
  neighbours.  ``_averages`` applies the one base stencil ``_stencil`` (a
  shifted slice per oriented template at each label, in
  ``PeriodicGraph.templates`` order, which the oracle lists too) to the
  state and divides by each label's base degree;
* a *CSR key* (a ring key whose bit is clear) takes one ``out_edges`` call
  and keeps the targets that are box or ring keys as CSR entries, which a
  small ``bincount`` sums; ``laplacian`` overwrites the averages there, and
  ``defect`` returns them alone.  ``base_laplacian`` keeps the averages on
  the box and sets the ring to 0.

Both add a key's neighbour values in ``out_edges`` order from 0, so the sums
have the bits one ``bincount`` over a full CSR gives.  ``norm`` sums the box
keys in grid order, then the ring, so every norm has the bits of one sum
over that list.

Four checks run on every compile: the box is clear; every oriented template
has its reversal; the stencil keys at the corners of their block and at
every 4096th of them equal ``out_edges``; and ``graphs.audit_symmetry``
finds every CSR entry, and every stencil entry that lands on a CSR key,
listed from both ends.  Two stencil keys list each other through a template
and its reversal, so they need no audit.  ``tests/reference.py`` holds the
dict operators that compute the same quantities vertex by vertex,
``state_vector`` and ``region_entries``, which lays out the full CSR of
every box and ring key.
"""

from __future__ import annotations

import itertools
from collections import Counter
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

    Grid arrays have shape ``self.shape``; perturbed-side states are flat
    arrays over the keys.  ``laplacian`` is exact only for states supported
    on the box, which is what ``embed`` produces.
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
        inside = members[(slice(pad, pad + side),) * dim]
        if not inside.all():
            *offset, label = np.unravel_index(int(np.argmin(inside)), self.shape)
            cell = tuple(lo + int(i) for (lo, _), i in zip(self._box, offset))
            raise InputError(
                f"{Vertex(cell, int(label))} is not in the unperturbed set: a Region "
                f"needs a clear box"
            )
        # keys are positions on ``kept``'s grid, the box grown twice
        self._wide = [(lo - 2 * pad, hi + 2 * pad) for lo, hi in self._box]
        self._grid_shape = kept.shape
        self._grid_keys = kept.size
        self._lo = np.array([lo for lo, _ in self._wide], dtype=np.int64)
        self._strides = s * kept.shape[0] ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        self._kept_bits = kept.reshape(-1)
        self._base_degrees = np.asarray(base.degrees, dtype=np.int64)
        self._shifts = _label_shifts(base, self._strides.tolist())
        _check_reversals(self._shifts)

        self._inner = (slice(2 * pad, 2 * pad + side),) * dim  # the box on that grid
        # the box and ring keys; ``member[-1]`` answers the key -1 of ``_keys_of``
        member = np.zeros(self._grid_keys + 1, dtype=bool)
        member[:-1].reshape(kept.shape)[self._inner] = True
        self._ring = np.flatnonzero(self._stencil(member[:-1]) & ~member[:-1])  # bool sums are ORs
        member[self._ring] = True
        *cell, label = np.unravel_index(self._ring, kept.shape)
        ring_bits = members[tuple(c - pad for c in cell) + (label,)]

        asked = np.flatnonzero(~ring_bits)
        self._csr_keys = self._ring[asked]
        listed, self._csr_degrees = _ask(graph, self._names_of(self._csr_keys))
        keys = self._keys_of(listed)
        found = member[keys]
        self._csr_owner = np.repeat(np.arange(len(asked)), self._csr_degrees)[found]
        self._csr_cols = keys[found]
        self._ring_degrees = self._base_degrees[self._ring % s]
        self._ring_degrees[asked] = self._csr_degrees
        member[self._csr_keys] = False
        self._member = member  # the member bits: set at the stencil keys

        self._audit()
        self._check_templates()

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

    def _names_of(self, keys: np.ndarray) -> list[Vertex]:
        """The vertex of every key in ``keys``."""
        s = self.shape[-1]
        cells = map(tuple, box_cell_array(self._wide, keys // s).tolist())
        return list(map(Vertex, cells, (keys % s).tolist()))

    def _audit(self) -> None:
        """``audit_symmetry`` over the CSR entries and every stencil entry
        that lands on a CSR key.  Such an entry ``p -> t`` is found from
        ``t``: ``p`` is ``t`` moved by a template at ``t``'s label, whose
        reversal ``_check_reversals`` has confirmed.  Every CSR key is a ring
        key, on the once-grown grid, so the move stays on the twice-grown
        grid."""
        csr = self._csr_keys
        keys, cols = [csr[self._csr_owner]], [self._csr_cols]
        labels = csr % self.shape[-1]
        for a, shifts in enumerate(self._shifts):
            ends = csr[labels == a]
            for shift in shifts:
                at = ends + shift
                found = self._member[at]
                keys.append(at[found])
                cols.append(ends[found])
        audit_symmetry(
            self._grid_keys,
            lambda key: self._names_of(np.array([key]))[0],
            np.concatenate(keys),
            np.concatenate(cols),
        )

    def _check_templates(self) -> None:
        """Compare the stencil keys at the corners of their block (the box,
        or the once-grown box for ring keys) and at every
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
        sample = set(np.flatnonzero(self._member)[::_SAMPLE_STRIDE].tolist())
        sample.update(key for key in corners if self._member[key])
        keys = np.array(sorted(sample), dtype=np.int64)
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

    def embed(self, grid: np.ndarray) -> np.ndarray:
        """The transplanted state by key: the grid on the box slice, zero at
        every other key."""
        wide = np.zeros(self._grid_shape, dtype=grid.dtype)
        wide[self._inner] = grid
        return wide.reshape(-1)

    def base_laplacian(self, state: np.ndarray) -> np.ndarray:
        """Base Laplacian of a state by key, kept on the box and 0 at every
        other key; a state supported ``propagation_length`` cells inside the
        box's faces has its whole base Laplacian there."""
        out = self._averages(state)
        out[self._ring] = 0
        return out

    def laplacian(self, state: np.ndarray) -> np.ndarray:
        """Perturbed Laplacian of a state by key: each box and ring key
        averages its neighbours' values.  The base averages, then every CSR
        key takes its own."""
        out = self._averages(state)
        out[self._csr_keys] = _mean(self._csr_sums(state), self._csr_degrees)
        return out

    def _averages(self, state: np.ndarray) -> np.ndarray:
        """One ``_stencil`` pass, divided in place by each label's base degree."""
        sums = self._stencil(state)
        by_label = sums.reshape(-1, self.shape[-1])
        by_label /= self._base_degrees
        return sums

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

    def _csr_sums(self, state: np.ndarray) -> np.ndarray:
        """Sum of the listed neighbours' values at every CSR key."""
        n = len(self._csr_keys)
        real = np.bincount(self._csr_owner, weights=state.real[self._csr_cols], minlength=n)
        imag = np.bincount(self._csr_owner, weights=state.imag[self._csr_cols], minlength=n)
        return real + 1j * imag

    def norm(self, state: np.ndarray) -> float:
        """Degree-weighted l2 norm in the perturbed graph: one sum over the
        box keys in grid order, then the ring keys."""
        box = np.abs(state.reshape(self._grid_shape)[self._inner]) ** 2 * self._base_degrees
        ring = np.abs(state[self._ring]) ** 2 * self._ring_degrees
        return float(np.sqrt(np.sum(np.concatenate([box.reshape(-1), ring]))))

    def defect(self, state: np.ndarray) -> np.ndarray:
        """Defect operator by key, perturbed minus base Laplacian, of a state
        supported ``propagation_length`` cells inside the box's faces: 0 at
        every stencil key, the average over its CSR entries at a CSR key."""
        out = np.zeros(self._grid_keys, dtype=complex)
        out[self._csr_keys] = _mean(self._csr_sums(state), self._csr_degrees)
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
    """``sums / degrees`` in place; a key of degree 0 lists nothing, so its
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
    as often: then two stencil keys list each other equally often."""
    s = len(shifts)
    moves = [(a, d) for a, at in enumerate(shifts) for d in at]
    unmatched = Counter(moves) - Counter(((a + d) % s, -d) for a, d in moves)
    if unmatched:
        a, d = next(iter(unmatched))
        raise InternalInvariantError(
            f"the edge template shift {d} at label {a + 1} has no reversal at "
            f"label {(a + d) % s + 1}"
        )
