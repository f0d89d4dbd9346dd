"""Mirror-symmetry sectors of an induced box.

The axis reflections and axis swaps of a box that map its vertices and edges
onto themselves (``mirror_symmetries``) generate a group of commuting
involutions.  Each character ``chi`` of the group spans a sector
(``sectors``), which the box's symmetric form leaves invariant (Fassler &
Stiefel, *Group Theoretical Methods and Their Applications*, 1992), so
``truncation.spectrum_of_box`` solves an induced box one sector at a time:
``Sector.block`` builds a sector's block from the box's edges, and
``SectorVectors`` keeps the solves and lifts their vectors where asked.
On a bipartite box a mirror that swaps the two sides pairs the sector of
``chi`` with that of ``chi psi``, and only the first of each pair is
solved: the other's values and vectors come from that solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .truncation import BoxGraph


def mirror_symmetries(box_graph: BoxGraph, sides: np.ndarray | None) -> list[np.ndarray]:
    """Commuting mirror symmetries of an induced box, as vertex permutations.

    The candidates, in this order, are the reflection of each axis about the
    bounding box of the vertex cells (``x_j -> lo_j + hi_j - x_j``, labels
    kept), then the swap of each two axes of equal extent.  One is accepted
    when it maps the vertex keys onto themselves (one ``searchsorted`` in the
    ``(cell, label)`` order ``truncate`` lists the vertices in), maps the
    sorted edge keys ``rows * n + cols`` onto themselves (so loops and
    multiplicities too), is not in the group the accepted ones generate (the
    identity included), commutes with each of them and, when ``sides`` is
    given, keeps the side of every vertex or swaps the side of every vertex
    (one that keeps them on one component and swaps them on another is
    refused).  A box listed in another order may have a symmetry refused,
    never a wrong one accepted."""
    n = len(box_graph)
    rows, cols, labels = box_graph.rows, box_graph.cols, box_graph.labels
    cells = box_graph.offsets - box_graph.offsets.min(axis=0)
    extents = cells.max(axis=0)
    radix = (*(extents + 1).tolist(), int(labels.max()) + 1)
    keys = np.ravel_multi_index((*cells.T, labels), radix)
    edges = np.sort(rows * n + cols)
    candidates = []
    for j in range(len(extents)):
        image = cells.copy()
        image[:, j] = extents[j] - cells[:, j]
        candidates.append(image)
    for i in range(len(extents)):
        for j in range(i + 1, len(extents)):
            if extents[i] == extents[j]:
                image = cells.copy()
                image[:, [i, j]] = cells[:, [j, i]]
                candidates.append(image)
    accepted, group = [], [np.arange(n)]
    for image in candidates:
        mapped = np.ravel_multi_index((*image.T, labels), radix)
        perm = np.minimum(np.searchsorted(keys, mapped), n - 1)
        if (
            np.array_equal(keys[perm], mapped)
            and not any(np.array_equal(perm, g) for g in group)
            and all(np.array_equal(perm[g], g[perm]) for g in accepted)
            and (
                sides is None
                or np.array_equal(sides[perm], sides)
                or np.array_equal(sides[perm], ~sides)
            )
            and np.array_equal(np.sort(perm[rows] * n + perm[cols]), edges)
        ):
            accepted.append(perm)
            group += [perm[g] for g in group]
    return accepted


class Sector:
    """The orbits of one character ``chi`` of an induced box's symmetry group
    whose basis vector is not zero, from ``images[e, a]``, orbit ``a``'s least
    vertex under group element ``e``, and ``odd[e]``, whether ``chi(e)`` is
    -1.  The basis vector of orbit ``a`` is ``chi(e) / sqrt(sizes[a])`` at
    ``images[e, a]``.  Per vertex ``i``, ``local[i]`` is the position of its
    orbit, or ``len(reps)`` off the sector, and ``sign[i]`` is that
    ``chi(e)``.  When ``sectors`` pairs this sector with that of ``chi psi``
    (its twin, on the same orbits), ``twin_odd`` is the twin's ``odd``, else
    None."""

    def __init__(
        self, images: np.ndarray, odd: np.ndarray, n: int, twin_odd: np.ndarray | None = None
    ):
        self.images, self.odd, self.twin_odd = images, odd, twin_odd
        self.reps = images[0]
        self.sizes = len(images) // (images == self.reps).sum(axis=0)
        self.local = np.full(n, len(self.reps))
        self.sign = np.zeros(n)
        for rows, negated in zip(images, odd):
            self.local[rows] = np.arange(len(self.reps))
            self.sign[rows] = -1.0 if negated else 1.0

    def block(self, box_graph: BoxGraph, at_rows: np.ndarray, at_cols: np.ndarray):
        """The block of the sector's matrix between its orbits ``at_rows`` and
        ``at_cols`` (ascending positions): one ``np.add.at`` of the sign
        products over the box's edges between them, then the rows and columns
        scaled by ``1 / sqrt(degree * size)`` of their orbits."""
        rows, cols = box_graph.rows, box_graph.cols
        k = len(self.reps)
        row_of, col_of = np.full(k + 1, -1), np.full(k + 1, -1)
        row_of[at_rows] = np.arange(len(at_rows))
        col_of[at_cols] = np.arange(len(at_cols))
        i, j = row_of[self.local[rows]], col_of[self.local[cols]]
        keep = (i >= 0) & (j >= 0)
        block = np.zeros((len(at_rows), len(at_cols)))
        np.add.at(block, (i[keep], j[keep]), self.sign[rows[keep]] * self.sign[cols[keep]])
        scale = 1.0 / np.sqrt(box_graph.degrees[self.reps] * self.sizes)
        block *= scale[at_rows, None]
        block *= scale[None, at_cols]
        return block

    def moments(self, box_graph: BoxGraph) -> tuple[float, float]:
        """``(trace, squared Frobenius norm)`` of the sector's whole block,
        from its entries summed over the box's edges by one ``np.unique`` of
        the orbit pair keys, with no ``m x m`` array."""
        k = len(self.reps)
        i, j = self.local[box_graph.rows], self.local[box_graph.cols]
        keep = (i < k) & (j < k)
        signs = self.sign[box_graph.rows[keep]] * self.sign[box_graph.cols[keep]]
        keys, inverse = np.unique(i[keep] * k + j[keep], return_inverse=True)
        a, b = np.divmod(keys, k)
        scale = 1.0 / np.sqrt(box_graph.degrees[self.reps] * self.sizes)
        entries = np.bincount(inverse, signs) * scale[a] * scale[b]
        return float(entries[a == b].sum()), float(np.dot(entries, entries))


@dataclass(frozen=True)
class SectorVectors:
    """Orthonormal eigenvectors of a split box's form, one per value of
    ``truncation.spectrum_of_box`` in order: the solve ``y`` (one row per
    orbit) of each ``sectors[s]`` in ``solves[s]``, then its twin's ``Z(reps)
    y[:, ::-1]`` if any (``Z`` -1 where ``sides`` is True), position ``p``
    being merged column ``column[p]``.  ``rows`` and ``columns`` lift these."""

    sectors: list[Sector]
    solves: list[np.ndarray]
    sides: np.ndarray | None
    column: np.ndarray

    def rows(self, vertices: np.ndarray) -> np.ndarray:
        """The rows ``vertices`` of every column, shape ``(len(vertices), n)``."""
        return self._lift(vertices, np.arange(len(self.column)))

    def columns(self, columns: np.ndarray) -> np.ndarray:
        """The merged columns ``columns`` at every vertex, shape ``(n, len(columns))``."""
        return self._lift(np.arange(len(self.column)), columns)

    def _lift(self, vertices: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Entries at ``vertices`` and merged ``columns``: ``y[a, j]`` times
        ``sign / sqrt(sizes[a])`` at the vertex, and for a twin times ``Z``
        there, which is ``Z(reps)`` times ``psi`` of the element that maps there."""
        slot = np.full(len(self.column), -1)
        slot[columns] = np.arange(len(columns))
        out = np.zeros((len(vertices), len(columns)))
        start = 0
        for sector, y in zip(self.sectors, self.solves):
            on = np.flatnonzero(sector.local[vertices] < len(y))
            a = sector.local[vertices[on]]
            scale = sector.sign[vertices[on], None] / np.sqrt(sector.sizes[a, None])
            blocks = [(y, scale)]
            if sector.twin_odd is not None:
                blocks.append((y[:, ::-1], np.where(self.sides[vertices[on], None], -scale, scale)))
            for block, scale in blocks:
                at = slot[self.column[start : start + len(y)]]
                j = np.flatnonzero(at >= 0)
                lifted = block[np.ix_(a, j)]
                lifted *= scale
                out[np.ix_(on, at[j])] = lifted
                del lifted  # before the next block's is gathered
                start += len(y)
        return out


def sectors(
    generators: list[np.ndarray], n: int, sides: np.ndarray | None
) -> list[Sector]:
    """The sectors of the group the commuting involutions ``generators`` on
    ``n`` vertices generate, one per character ``chi`` in ``{+-1}^k`` that is
    1 on the stabilizer of some orbit; with no generator, the whole box.

    Element ``e`` of the group is the product of the generators whose bits
    are set in ``e``, and ``chi_c(e)`` is ``-1`` to the number of bits
    ``c`` and ``e`` share.  When ``sides`` is given, ``swaps`` has the bits
    of the generators that swap them (an accepted mirror keeps or swaps every
    side, so vertex 0 tells), ``psi = chi_swaps`` is -1 exactly on the
    elements that swap the sides, and ``chi_c psi = chi_{c ^ swaps}``.  An
    element that fixes a vertex keeps its side, so the two characters have
    the same orbits; with ``swaps`` not 0 only the sector of the smaller of
    ``c`` and ``c ^ swaps`` is listed, with the other's ``odd`` as its
    ``twin_odd``."""
    group = [np.arange(n)]
    for g in generators:
        group += [g[h] for h in group]
    images = np.array(group)  # images[e, i]: vertex i under element e
    least = np.flatnonzero(images.min(axis=0) == np.arange(n))  # one vertex per orbit
    fixes = images[:, least] == least
    m = len(group)
    odd = np.array([[bin(c & e).count("1") % 2 for e in range(m)] for c in range(m)])
    swaps = 0
    if sides is not None:
        swaps = sum(1 << b for b, g in enumerate(generators) if sides[g[0]] != sides[0])
    found = []
    for c in range(m):
        inside = (odd[c] @ fixes) == 0
        if inside.any() and c <= c ^ swaps:
            twin_odd = odd[c ^ swaps] == 1 if swaps else None
            found.append(Sector(images[:, least[inside]], odd[c] == 1, n, twin_odd))
    return found
