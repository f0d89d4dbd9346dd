"""Array form of the padded box that carries one test state.

A ``Region`` covers the box ``[c - h, c + h]^d`` around a centre cell ``c``
and is compiled once per test state.  It has two sides:

* the *base side* is the dense grid ``(2h+1, ..., 2h+1, cell_size)`` of base
  vertices in lexicographic cell order, labels last.  The base Laplacian acts
  on it by one shift-and-add per oriented edge template and asks no oracle;
* the *perturbed side* lists, as rows, the kept box vertices (in grid
  order) followed by every neighbour outside them.  Each row's neighbours
  and degree come from exactly one ``out_edges`` call; the neighbour arrays
  keep only targets that are rows themselves, and ``graphs.audit_symmetry``
  checks that they list every edge from both ends.

The embedding index carries grid values onto the rows, and the unperturbed
mask of the rows zeroes the defect: the box rows read it from
``UnperturbedSet.mask`` of the box, the rows outside the box from the scalar
``UnperturbedSet._contains_known``.  The dict operators
``graphs.apply_laplacian``, ``weighted_norm``, ``perturbation.embed_state``,
``apply_defect`` and ``embedding_norm_bounds`` compute the same quantities
vertex by vertex and are the reference for this route.
"""

from __future__ import annotations

import numpy as np

from .errors import VertexNotInCommonSubgraphError
from .graphs import Cell, Vertex, audit_symmetry, box_cells
from .perturbation import PerturbedGraph


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
        box = [(c - half, c + half) for c in center]
        self.vertices = [Vertex(cell, label) for cell in box_cells(box) for label in range(s)]

        names: list[Vertex] = []
        row_of: dict[Vertex, int] = {}
        kept_at: list[int] = []  # grid position of each kept row
        for i, x in enumerate(self.vertices):
            if graph.in_common(x):
                row_of[x] = len(names)
                names.append(x)
                kept_at.append(i)
        self.kept = len(names)
        self._kept_at = np.array(kept_at, dtype=np.intp)

        oracle = graph.oracle
        indptr = [0]
        indices: list[int] = []
        degrees: list[int] = []
        for r in range(self.kept):
            targets = oracle.out_edges(names[r])
            for t in targets:
                j = row_of.get(t)
                if j is None:
                    j = row_of[t] = len(names)
                    names.append(t)
                indices.append(j)
            degrees.append(len(targets))
            indptr.append(len(indices))
        for r in range(self.kept, len(names)):
            targets = oracle.out_edges(names[r])
            indices.extend(row_of[t] for t in targets if t in row_of)
            degrees.append(len(targets))
            indptr.append(len(indices))
        self.names = names
        self.degrees = np.array(degrees, dtype=np.int64)
        self.indices = np.array(indices, dtype=np.intp)
        self._entry_rows = np.repeat(
            np.arange(len(names), dtype=np.intp), np.diff(np.array(indptr))
        )
        audit_symmetry(names, self._entry_rows, self.indices)

        members = graph.unperturbed
        mask = members.mask(box).reshape(-1)[self._kept_at].tolist()
        for v in names[self.kept:]:
            mask.append(graph.in_common(v) and members._contains_known(v))
        self.unperturbed = np.array(mask, dtype=bool)

        self._base_degrees = np.asarray(base.degrees, dtype=float)
        self._templates = [
            (e.origin, e.target, *_shift_slices(e.index, side))
            for e in base.oriented_edges()
            if all(abs(i) < side for i in e.index)
        ]

    @property
    def clear(self) -> bool:
        """Is every box vertex kept and inside the unperturbed set?"""
        return self.kept == len(self.vertices) and bool(
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
        if self.kept != len(self.vertices):
            x = next(v for v in self.vertices if not self.graph.in_common(v))
            raise VertexNotInCommonSubgraphError(
                f"{x} is not a vertex of the common subgraph"
            )
        dprime = self.degrees[: self.kept]
        dbase = self.graph.base.degrees
        lower = float(np.sqrt(int(dprime.min()) / max(dbase)))
        upper = float(np.sqrt(int(dprime.max()) / min(dbase)))
        return lower, upper


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
