"""Box truncation, checked against an independent pair-count construction.

``truncate`` builds induced and wrapped boxes from one oriented edge list.
The reference below folds oriented counts into an ``(i, j)`` pair dict
(loops halved), builds wrapped boxes separately from the edge templates, and
finds the near-boundary ring by a set-based search.  ``spectrum_of_box``
solves a wrap from its fiber matrices and a bipartite induced box by one SVD
of its off-diagonal block, or, when a mirror swaps its sides, by one
``eigh`` per pair of sectors; the dense ``eigh``/``eigvalsh`` of
``normalized_symmetric()`` and a two-colouring over the dense adjacency are
the reference for both routes, and for the boundary count.  The vectors of a
split box, kept as its sector solves, are compared bit for bit with the
whole-array lift of ``reference.sector_basis``.
"""

import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    BlochVectors,
    Patch,
    PerturbedGraph,
    PredicatePatch,
    SectorVectors,
    SpectrumApprox,
    build_periodic,
    compare_spectra,
    essential_spectrum,
    make_cone,
    make_g11,
    make_g21,
    make_counterexample,
    make_half_plane,
    make_lattice,
    make_random_pendant,
    periodic_oracle,
    spectrum_of_box,
    truncate,
    zero_mode_count,
)
from periodic_spectra.errors import EmptyBoxError, InputError, InternalInvariantError
from periodic_spectra.graphs import FundEdge, Vertex, vert
from periodic_spectra import catalog, graphs, symmetry, truncation
from periodic_spectra.cli import main
from periodic_spectra.truncation import _near_boundary_mask

from reference import (
    band_grid, box_cells, box_index, identity_vectors, sector_basis, truncate_vertex_by_vertex,
)
from test_graphs import small_graphs
from test_region import explicit_patches


def lap_apply(box, values):
    """Apply the box's degree-normalized adjacency operator to a vector."""
    return (box.adjacency() @ values) / box.degrees.astype(float)


def dense_eigs(box):
    """The reference spectrum of any box: dense ``eigvalsh`` of its form."""
    return np.linalg.eigvalsh(box.normalized_symmetric())


def dense_basis(box, vecs):
    """The eigenvectors ``spectrum_of_box`` gave as an ``(n, n)`` array: a
    wrap's ``BlochVectors`` evaluated at every vertex, and a split box's
    ``SectorVectors`` lifted at every vertex."""
    if isinstance(vecs, BlochVectors):
        return vecs.rows(box.offsets, box.labels, np.arange(len(box)))
    return vecs.rows(np.arange(len(box)))


def reference_boundary_count(h, near):
    """Boundary count of the form ``h`` from its dense ``eigh``: clusters at
    gaps above 1e-9, and per cluster the eigenvalues >= 1/2 of ``W^T W`` for
    its near rows ``W``, a value within 1e-9 below 1/2 included."""
    lam, vecs = np.linalg.eigh(h)
    count, start = 0, 0
    for end in [*(np.flatnonzero(np.diff(lam) > 1e-9) + 1).tolist(), len(lam)]:
        w = vecs[near, start:end]
        count += int(np.sum(np.linalg.eigvalsh(w.T @ w) >= 0.5 - 1e-9))
        start = end
    return count


def column_rule_count(vecs, near):
    """The count before clusters: columns with at least half their mass on
    the near rows, up to 1e-9."""
    mass = np.abs(vecs) ** 2
    return int(np.sum(mass[near].sum(axis=0) >= (0.5 - 1e-9) * mass.sum(axis=0)))


class TestTruncate:
    def test_wrapped_ring(self, lattice1):
        ring = truncate(periodic_oracle(lattice1), ((0, 255),), periodic_wrap=True)
        assert len(ring) == 256
        assert np.all(ring.degrees == 2)
        assert ring.wrapped

    def test_pendant_chain_path(self, g11):
        path = truncate(periodic_oracle(g11.base), ((0, 199),))
        assert len(path) == 400
        # interior chain vertices keep degree 3; the two ends lose a neighbor
        index = box_index(path)
        end = index[vert(0)]
        interior = index[vert(100)]
        assert path.degrees[end] == 2
        assert path.degrees[interior] == 3
        assert path.dropped == 0

    def test_cone_patch(self, cone):
        patch = truncate(cone.perturbation.oracle, ((0, 60), (0, 60)))
        assert len(patch) == 61 * 61
        index = box_index(patch)
        origin = index[vert(0, 0)]
        assert patch.degrees[origin] == 2
        inner = index[vert(30, 30)]
        assert patch.degrees[inner] == 4
        # arc edge present inside the box
        arc_a = index[vert(10, 0)]
        assert patch.degrees[arc_a] == 4  # 3 grid neighbors + 1 arc

    def test_empty_box_rejected(self, lattice1):
        with pytest.raises(EmptyBoxError):
            truncate(periodic_oracle(lattice1), ((5, 4),))

    def test_wrap_past_the_cap_is_refused_before_any_cell_is_listed(self, g11, monkeypatch):
        """The cap counts cells times labels: 2 labels per cell of g11."""
        oracle = periodic_oracle(g11.base)

        def unlisted(box, at=None):
            raise AssertionError("a cell was listed")

        with monkeypatch.context() as m:
            m.setattr(truncation, "box_cell_array", unlisted)
            with pytest.raises(InputError, match="a wrap is capped at 1048576"):
                truncate(oracle, ((0, 2**19),), periodic_wrap=True)
        monkeypatch.setattr(truncation, "_WRAP_LIMIT", 8)
        assert len(truncate(oracle, ((0, 3),), periodic_wrap=True)) == 8
        with pytest.raises(InputError, match="a wrap is capped at 8"):
            truncate(oracle, ((0, 4),), periodic_wrap=True)

    def test_wrap_needs_periodic_oracle(self, half_plane):
        with pytest.raises(InputError):
            truncate(
                half_plane.perturbation.oracle, ((0, 3), (0, 3)), periodic_wrap=True
            )

    def test_isolated_vertices_dropped(self):
        # long-range edges only: a width-1 box cannot keep any edge
        g = build_periodic(1, 2, [FundEdge(0, 0, (2,)), FundEdge(0, 1, (0,))])
        box = truncate(periodic_oracle(g), ((0, 1),))
        # chain-chain edges span 2 cells and survive nowhere inside [0, 1];
        # each cell keeps only its pendant pair
        assert len(box) == 4
        assert box.dropped == 0

    def test_partially_isolated_vertices_dropped(self):
        # pendants attached two cells away lose their only edge in a short box
        g = build_periodic(1, 2, [FundEdge(0, 0, (1,)), FundEdge(0, 1, (2,))])
        box = truncate(periodic_oracle(g), ((0, 1),))
        assert box.dropped == 2
        assert set(box.vertices) == {vert(0), vert(1)}


class TestSpectrumOfBox:
    def test_ring_is_cosine_bank(self, lattice1):
        ring = truncate(periodic_oracle(lattice1), ((0, 255),), periodic_wrap=True)
        eigs = spectrum_of_box(ring)
        expected = np.sort(np.cos(2.0 * np.pi * np.arange(256) / 256.0))
        assert np.allclose(np.sort(eigs), expected, atol=1e-9)
        assert np.all(eigs >= -1.0 - 1e-9)
        assert np.all(eigs <= 1.0 + 1e-9)

    def test_wrapped_pendant_ring_inside_bands(self, g11):
        ring = truncate(periodic_oracle(g11.base), ((0, 255),), periodic_wrap=True)
        eigs = dense_eigs(ring)
        spec = essential_spectrum(g11.base, 256)
        assert all(spec.distance(x) <= 1e-9 for x in eigs)

    def test_single_edge(self):
        g = make_lattice(1)
        box = truncate(periodic_oracle(g), ((0, 1),))
        eigs = spectrum_of_box(box)
        assert np.allclose(np.sort(eigs), [-1.0, 1.0], atol=1e-12)

    def test_circulant_exactness_with_loops_and_multi_edges(self):
        g = build_periodic(
            1,
            2,
            [
                FundEdge(0, 0, (0,)),
                FundEdge(0, 1, (0,)),
                FundEdge(0, 1, (0,)),
                FundEdge(1, 0, (1,)),
            ],
        )
        ring = truncate(periodic_oracle(g), ((0, 63),), periodic_wrap=True)
        eigs = dense_eigs(ring)
        _, lambdas = band_grid(g, 64)
        assert np.max(np.abs(eigs - np.sort(lambdas.reshape(-1)))) <= 1e-9
        assert np.max(np.abs(spectrum_of_box(ring) - eigs)) <= 1e-12

    def test_dense_solve_cap(self, lattice2):
        with pytest.raises(InputError, match="box lists more than 4000 vertices"):
            truncate(periodic_oracle(lattice2), ((0, 63), (0, 63)))

    @pytest.mark.parametrize(
        "graph_name,axis_len",
        [("lattice1", 256), ("g11", 256), ("lattice2", 16)],
    )
    def test_circulant_exactness(self, graph_name, axis_len, request):
        entry = request.getfixturevalue(graph_name)
        graph = getattr(entry, "base", entry)
        box = tuple((0, axis_len - 1) for _ in range(graph.dim))
        ring = truncate(periodic_oracle(graph), box, periodic_wrap=True)
        eigs = dense_eigs(ring)
        _, lambdas = band_grid(graph, axis_len)
        samples = np.sort(lambdas.reshape(-1))
        assert eigs.shape == samples.shape
        assert np.max(np.abs(eigs - samples)) <= 1e-9
        assert np.max(np.abs(spectrum_of_box(ring) - eigs)) <= 1e-12


class TestCompare:
    def test_wrapped_inside_fraction_one(self, g11):
        ring = truncate(periodic_oracle(g11.base), ((0, 255),), periodic_wrap=True)
        eigs = dense_eigs(ring)
        spec = essential_spectrum(g11.base, 256)
        report = compare_spectra(eigs, spec, 1e-9)
        assert report.inside_fraction == 1.0

    def test_unwrapped_path_mostly_inside(self, g11):
        path = truncate(periodic_oracle(g11.base), ((0, 199),))
        eigs, vecs = spectrum_of_box(path, with_vectors=True)
        spec = essential_spectrum(g11.base, 256)
        report = compare_spectra(eigs, spec, 0.02, box_graph=path, vectors=vecs)
        assert report.inside_fraction >= 0.95
        assert report.boundary_count is not None

    def test_empty_list_vacuous(self, g11):
        spec = essential_spectrum(g11.base, 64)
        report = compare_spectra([], spec, 0.02)
        assert report.inside_fraction == 1.0

    def test_outliers_are_boundary_localized(self, half_plane):
        box = truncate(half_plane.perturbation.oracle, ((0, 14), (0, 14)))
        eigs, vecs = spectrum_of_box(box, with_vectors=True)
        spec = essential_spectrum(make_lattice(2), 64)
        report = compare_spectra(eigs, spec, 0.02, box_graph=box, vectors=vecs)
        assert report.inside_fraction == 1.0  # spectrum is all of [-1, 1]

    def test_bad_eps_rejected(self, g11):
        spec = essential_spectrum(g11.base, 64)
        for eps in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InputError, match="eps must be positive and finite"):
                compare_spectra([0.0], spec, eps)

    @pytest.mark.parametrize("eps", [1e-9, 0.02, 0.3])
    def test_inside_fraction_follows_the_scalar_rule_at_the_edges(self, eps):
        spec = SpectrumApprox(((-1.0, -1.0 / 3.0), (1.0 / 3.0, 1.0), (1.5, 1.5)), (1.5,), 8, 1e-8)
        values = []
        for lo, hi in spec.intervals:
            for x in (lo - eps, hi + eps):
                values += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
        values += [0.0, 0.5, 1.25, 2.0]
        report = compare_spectra(values, spec, eps)
        rule = [spec.distance(float(x)) <= eps for x in values]
        for x, expected in zip(values, rule):
            assert compare_spectra([x], spec, eps).inside_fraction == float(expected)
        inside = sum(rule)
        assert 0 < inside < len(values)
        assert report.inside_fraction == inside / len(values)

    def test_no_intervals_holds_no_eigenvalue(self):
        spec = SpectrumApprox((), (), 8, 1e-8)
        assert compare_spectra([0.0, 1.0], spec, 0.5).inside_fraction == 0.0
        assert compare_spectra([], spec, 0.5).inside_fraction == 1.0


class TestZeroModes:
    def test_counterexample_box(self, counterexample):
        box = truncate(counterexample.perturbation.oracle, ((-20, 20),))
        assert zero_mode_count(box) >= 21

    def test_two_cycle_has_none(self):
        g = make_lattice(1)
        box = truncate(periodic_oracle(g), ((0, 1),))
        assert zero_mode_count(box) == 0

    def test_double_pendant_vertex(self):
        g = build_periodic(
            1, 3, [FundEdge(0, 0, (1,)), FundEdge(0, 1, (0,)), FundEdge(0, 2, (0,))]
        )
        box = truncate(periodic_oracle(g), ((0, 4),))
        assert zero_mode_count(box) >= 1

    def test_pendant_pair_annihilated_exactly(self, counterexample):
        box = truncate(counterexample.perturbation.oracle, ((-20, 20),))
        index = box_index(box)
        for x in (0, 7, 20):
            vec = np.zeros(len(box))
            vec[index[Vertex((x,), 1)]] = 1.0 / np.sqrt(2.0)
            vec[index[Vertex((x,), 2)]] = -1.0 / np.sqrt(2.0)
            out = lap_apply(box, vec)
            assert np.max(np.abs(out)) <= 1e-15

    def test_zero_modes_monotone_in_box(self, counterexample):
        oracle = counterexample.perturbation.oracle
        counts = [
            zero_mode_count(truncate(oracle, ((-r, r),)))
            for r in (5, 10, 20)
        ]
        assert counts == sorted(counts)
        assert counts[0] >= 6


class TestSymmetryAudit:
    @pytest.mark.parametrize(
        "at_origin, at_five, message",
        [
            ((vert(5),), (), "(0|v0) -> (5|v0) is listed 1 times, (5|v0) -> (0|v0) 0 times"),
            (
                (vert(5), vert(5)), (vert(0),),
                "(0|v0) -> (5|v0) is listed 2 times, (5|v0) -> (0|v0) 1 times",
            ),
        ],
    )
    def test_one_sided_added_edge_rejected(self, lattice1, at_origin, at_five, message):
        added = {vert(0): at_origin, vert(5): at_five}
        patch = PredicatePatch(
            keep=lambda v: True, added_neighbors=lambda v: added.get(v, ())
        )
        oracle = PerturbedGraph(lattice1, patch, name="one-sided").oracle
        with pytest.raises(InternalInvariantError, match=re.escape(message)):
            truncate(oracle, ((-3, 10),))

    def test_edge_to_an_unlisted_box_vertex_rejected(self, lattice2):
        # the pendant is a vertex with an edge, but added_in_cell omits it, so
        # an induced box would drop the edge and give (0,0) degree 4, not 5
        pendant = vert(0, 0, label=1)
        patch = PredicatePatch(
            keep=lambda v: True,
            added_contains=lambda v: v == pendant,
            added_neighbors=lambda v: {vert(0, 0): (pendant,), pendant: (vert(0, 0),)}.get(
                v, ()
            ),
        )
        oracle = PerturbedGraph(lattice2, patch, name="unlisted").oracle
        assert oracle.degree(vert(0, 0)) == 5
        message = re.escape("(0,0|v0) has an edge to (0,0|v1)")
        with pytest.raises(InternalInvariantError, match=message):
            truncate(oracle, ((-2, 2), (-2, 2)))


    @pytest.mark.parametrize("cell", [(5,), (0,), (1, 1, 1), (0, 0, 7)])
    def test_neighbour_of_another_dimension_rejected(self, lattice2, cell):
        """An added edge from (0,0) to a vertex with another number of
        coordinates is an input fault, refused as ``Region`` refuses it, not
        dropped as outside the box nor reported as an unlisted box vertex."""
        stray = Vertex(cell, 0)
        patch = PredicatePatch(
            keep=lambda v: True,
            added_neighbors=lambda v: (stray,) if v == vert(0, 0) else (),
        )
        oracle = PerturbedGraph(lattice2, patch, name="stray").oracle
        message = f"the graph lists {stray}, whose cell has {len(cell)} coordinates, "
        message += "as a neighbour in a 2-dimensional graph"
        with pytest.raises(InputError, match=re.escape(message)):
            truncate(oracle, ((-2, 2), (-2, 2)))


@pytest.mark.parametrize(
    "listed, message",
    [
        ((vert(1, label=1),), "added_in_cell lists (1|v1) for the cell (0,)"),
        ((vert(0),), "added_in_cell lists (0|v0), a kept base vertex"),
        ((vert(0, label=1), vert(0, label=1)), "added_in_cell lists a vertex twice"),
    ],
    ids=["another_cell", "kept_base_vertex", "twice"],
)
def test_added_in_cell_that_breaks_its_contract_is_refused(lattice1, listed, message):
    """``added_in_cell(cell)`` lists the added vertices of ``cell``, each
    once; a patch whose listing breaks that raises, not builds a box with a
    row twice or out of order."""
    patch = PredicatePatch(
        keep=lambda v: True,
        added_contains=lambda v: True,
        added_in_cell=lambda cell: listed if cell == (0,) else (),
    )
    oracle = PerturbedGraph(lattice1, patch, name="listing").oracle
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        truncate(oracle, ((-2, 2),))


def test_a_keep_grid_that_disagrees_with_keep_exits_4(tmp_path, monkeypatch, capsys):
    """A half_plane whose ``keep_grid`` also keeps the row x2 = -1, which
    ``keep`` drops: the hook's sample at the box corner (-3,-1) sees it
    before any row is built."""
    argv = ["truncate", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
            "--box=-3,3,-1,3", "--out", str(tmp_path / "t")]
    assert main(argv) == 0
    entry = make_half_plane()
    patch = dataclasses.replace(entry.perturbation.patch, keep_grid=lambda x, labels: x[1] >= -1)
    graph = PerturbedGraph(entry.base, patch, name="half_plane")
    monkeypatch.setitem(
        catalog._PLAIN_BUILDERS, "half_plane", lambda: dataclasses.replace(entry, perturbation=graph)
    )
    assert main(argv) == 4
    assert "keep_grid gives True at (-3,-1|v0), its scalar predicate False" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--graph", "builtin:lattice2", "--box=0,9,0,9", "--wrap"],
        ["--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane", "--box=0,9,0,9"],
    ],
    ids=["wrap", "induced"],
)
def test_a_template_row_that_out_edges_disagrees_with_exits_4(argv, tmp_path, monkeypatch,
                                                              capsys):
    """An oracle that lists (0,0) of lattice2 without its neighbour (1,0),
    which no ``out_edges`` call of the build asks: (0,0) is the box's first
    template row, which the sample compares with ``out_edges``."""
    argv = ["truncate", *argv, "--out", str(tmp_path / "t")]
    assert main(argv) == 0
    out_edges = graphs.PeriodicOracle.out_edges
    monkeypatch.setattr(
        graphs.PeriodicOracle, "out_edges",
        lambda self, v: tuple(t for t in out_edges(self, v) if (v, t) != (vert(0, 0), vert(1, 0))),
    )
    assert main(argv) == 4
    err = capsys.readouterr().err
    templates, listed = err.split("edge templates give (0,0|v0) the neighbours ")[1].split(", out")
    assert "(1,0|v0)" in templates and "(1,0|v0)" not in listed


def reference_truncate(oracle, box, periodic_wrap):
    """Vertices, pair counts ``{(i, j): c}`` with ``i <= j`` (a loop counted
    once) and the number of dropped vertices."""
    if periodic_wrap:
        graph = oracle.graph
        vertices = [Vertex(c, a) for c in box_cells(box) for a in range(graph.cell_size)]
        index = {v: i for i, v in enumerate(vertices)}
        pairs = {}
        for cell in box_cells(box):
            for e in graph.edges:
                target = tuple(
                    lo + ((c + x - lo) % (hi - lo + 1))
                    for c, x, (lo, hi) in zip(cell, e.index, box)
                )
                i = index[Vertex(cell, e.origin)]
                j = index[Vertex(target, e.target)]
                key = (min(i, j), max(i, j))
                pairs[key] = pairs.get(key, 0) + 1
        return vertices, pairs, 0
    vertices = sorted(
        (v for c in box_cells(box) for v in oracle.vertices_in_cell(c) if oracle.contains(v)),
        key=lambda v: (v.cell, v.label),
    )
    if not vertices:
        raise EmptyBoxError("no vertices")
    index = {v: i for i, v in enumerate(vertices)}
    oriented = {}
    for v in vertices:
        for t in oracle.out_edges(v):
            j = index.get(t)
            if j is not None:
                key = (index[v], j)
                oriented[key] = oriented.get(key, 0) + 1
    pairs = {(i, j): c if i < j else c // 2 for (i, j), c in oriented.items() if i <= j}
    keep = sorted({i for pair in pairs for i in pair})
    if not keep:
        raise EmptyBoxError("all isolated")
    remap = {old: new for new, old in enumerate(keep)}
    pairs = {(remap[i], remap[j]): c for (i, j), c in pairs.items()}
    return [vertices[i] for i in keep], pairs, len(vertices) - len(keep)


def reference_adjacency(n, pairs):
    a = np.zeros((n, n))
    for (i, j), c in pairs.items():
        if i == j:
            a[i, i] += 2.0 * c
        else:
            a[i, j] += c
            a[j, i] += c
    return a


def reference_near_mask(vertices, pairs, box, radius):
    neighbors = [[] for _ in vertices]
    for i, j in pairs:
        neighbors[i].append(j)
        neighbors[j].append(i)
    seen = {
        i for i, v in enumerate(vertices)
        if any(c in (lo, hi) for (lo, hi), c in zip(box, v.cell))
    }
    frontier = set(seen)
    for _ in range(radius):
        frontier = {j for i in frontier for j in neighbors[i] if j not in seen}
        seen |= frontier
    return np.isin(np.arange(len(vertices)), list(seen))


# the catalog's graphs: periodic, perturbed by predicates with grid hooks,
# with added vertices (random_pendant, counterexample) and added edges (cone)
CATALOG = [
    make_lattice(1), make_lattice(2), make_g11().base, make_g21().base,
    *(entry.perturbation for entry in (
        make_half_plane(), make_cone(), make_random_pendant(0.3, 4), make_counterexample(),
    )),
]


@st.composite
def boxes_to_truncate(draw):
    """Induced boxes over random periodic graphs, explicit patches and the
    catalog graphs, and wrapped boxes over their base graphs with a first
    axis of length 1 or 2."""
    graph = draw(st.one_of(small_graphs(), explicit_patches(), st.sampled_from(CATALOG)))
    base = getattr(graph, "base", graph)
    wrap = draw(st.booleans())
    if wrap or base is graph:
        oracle = periodic_oracle(base)
    else:
        oracle = graph.oracle
    box = []
    for axis in range(base.dim):
        lo = draw(st.integers(-4, 2))
        length = draw(st.sampled_from([1, 2]) if wrap and axis == 0 else st.integers(1, 6))
        box.append((lo, lo + length - 1))
    return oracle, tuple(box), wrap


@given(boxes_to_truncate())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_edge_list_equals_pair_counts(case):
    """The array builder gives the vertices, the ordered ``rows`` and
    ``cols`` and the dropped count of the vertex-by-vertex builder, and the
    adjacency and boundary count of the pair counts."""
    oracle, box, wrap = case
    try:
        vertices, pairs, dropped = reference_truncate(oracle, box, wrap)
    except EmptyBoxError:
        with pytest.raises(EmptyBoxError):
            truncate_vertex_by_vertex(oracle, box, wrap)
        with pytest.raises(EmptyBoxError):
            truncate(oracle, box, periodic_wrap=wrap)
        return
    got = truncate(oracle, box, periodic_wrap=wrap)
    listed, rows, cols, listed_dropped = truncate_vertex_by_vertex(oracle, box, wrap)
    assert got.vertices == tuple(listed)
    assert np.array_equal(got.rows, rows) and np.array_equal(got.cols, cols)
    assert got.rows.dtype == got.cols.dtype == np.intp
    assert got.dropped == listed_dropped
    assert np.array_equal(got.offsets, [np.subtract(v.cell, [lo for lo, _ in box]) for v in listed])
    assert np.array_equal(got.labels, [v.label for v in listed])
    adjacency = reference_adjacency(len(vertices), pairs)
    near = reference_near_mask(vertices, pairs, box, radius=2)
    assert got.vertices == tuple(vertices)
    assert got.dropped == dropped
    assert np.array_equal(got.degrees, adjacency.sum(axis=1).astype(np.int64))
    assert np.array_equal(got.adjacency(), adjacency)
    assert np.array_equal(_near_boundary_mask(got), near)
    eigs, vecs = spectrum_of_box(got, with_vectors=True)
    inv_sqrt = 1.0 / np.sqrt(adjacency.sum(axis=1))
    expected = reference_boundary_count(adjacency * np.outer(inv_sqrt, inv_sqrt), near)
    band = SpectrumApprox(((-1.0, 1.0),), (), 2, 1e-8)
    assert compare_spectra(eigs, band, 1e-9, got, vecs).boundary_count == expected


def reference_sides(box):
    """Colour every component from its first vertex, level by level over the
    dense adjacency, then look for an edge inside one side (a loop is one)."""
    a = box.adjacency()
    side = np.full(len(box), -1)
    for start in range(len(box)):
        if side[start] >= 0:
            continue
        side[start] = 0
        frontier = [start]
        while frontier:
            following = []
            for v in frontier:
                for t in np.flatnonzero(a[v]):
                    if side[t] < 0:
                        side[t] = 1 - side[v]
                        following.append(t)
            frontier = following
    if a[side[:, None] == side[None, :]].any():
        return None
    return side.astype(bool)


@st.composite
def boxes_to_solve(draw):
    """Induced boxes over random periodic graphs and explicit patches, and
    wrapped boxes over their base graphs with sides of length 1 to 5, so that
    wraps of odd length occur."""
    graph = draw(st.one_of(small_graphs(), explicit_patches()))
    base = getattr(graph, "base", graph)
    wrap = draw(st.booleans())
    oracle = periodic_oracle(base) if wrap or base is graph else graph.oracle
    box = []
    for _ in range(base.dim):
        lo = draw(st.integers(-4, 2))
        box.append((lo, lo + draw(st.integers(1, 5)) - 1))
    return oracle, tuple(box), wrap


@given(boxes_to_solve())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bipartite_split_equals_dense_solve(case):
    oracle, box, wrap = case
    try:
        got = truncate(oracle, box, periodic_wrap=wrap)
    except EmptyBoxError:
        return
    sides, expected = got.sides, reference_sides(got)
    assert (sides is None) == (expected is None)
    if sides is not None:
        assert np.array_equal(sides, expected)
    h = got.normalized_symmetric()
    reference = np.linalg.eigvalsh(h)
    lam, vecs = spectrum_of_box(got, with_vectors=True)
    assert isinstance(vecs, BlochVectors if wrap else SectorVectors)
    basis = dense_basis(got, vecs)
    assert np.max(np.abs(spectrum_of_box(got) - reference)) <= 1e-12
    assert np.max(np.abs(lam - reference)) <= 1e-12
    assert np.max(np.abs(np.conj(basis.T) @ basis - np.eye(len(got)))) <= 1e-12
    assert np.max(np.abs(h @ basis - basis * lam)) <= 1e-12
    assert zero_mode_count(got) == int(np.sum(np.abs(reference) <= 1e-12))
    if sides is None and not wrap and not symmetry.mirror_symmetries(got, None):
        dense_lam, dense_vecs = np.linalg.eigh(h)
        assert np.array_equal(lam, dense_lam) and np.array_equal(basis, dense_vecs)


def svd_of_the_form(h, sides):
    """The SVD route on the dense form ``h``: the singular values ``s`` of its
    ``P x Q`` block give ``-s``, the zeros, then ``s`` reversed, with vectors
    ``[u; -+v] / sqrt(2)`` and the remaining columns of ``U`` or ``V``."""
    at_p, at_q = np.flatnonzero(~sides), np.flatnonzero(sides)
    n = len(sides)
    b = h[np.ix_(at_p, at_q)]
    values = np.linalg.svd(b, compute_uv=False)
    u, s, vt = np.linalg.svd(b)
    r = len(s)
    lam = np.concatenate([-s, np.zeros(n - 2 * r), s[::-1]])
    vec = np.zeros((n, n))
    vec[at_p, :r] = u[:, :r] * np.sqrt(0.5)
    vec[at_q, :r] = -(vt[:r] * np.sqrt(0.5)).T
    vec[at_p, n - r :] = (u[:, :r] * np.sqrt(0.5))[:, ::-1]
    vec[at_q, n - r :] = (vt[:r] * np.sqrt(0.5)).T[:, ::-1]
    if len(at_p) > r:
        vec[at_p, r : n - r] = u[:, r:]
    else:
        vec[at_q, r : n - r] = vt[r:].T
    return np.concatenate([-values, np.zeros(n - 2 * r), values[::-1]]), lam, vec


@pytest.mark.parametrize(
    "make_box, vector_solvers, value_solvers",
    [
        # x -> 50 - x keeps the sides; y -> 25 - y swaps them: two pairs of sectors
        (lambda: truncate(make_half_plane().perturbation.oracle, ((0, 50), (-25, 25))),
         ["eigh", "eigh"], ["eigvalsh", "eigvalsh"]),
        # both reflections swap the sides, their product keeps them: two pairs
        (lambda: truncate(make_half_plane().perturbation.oracle, ((0, 49), (-25, 25))),
         ["eigh", "eigh"], ["eigvalsh", "eigvalsh"]),
        # both reflections keep the sides: four sectors
        (lambda: truncate(make_half_plane().perturbation.oracle, ((0, 50), (-25, 24))),
         ["svd"] * 4, ["svd"] * 4),
        (lambda: truncate(periodic_oracle(make_lattice(1)), ((0, 5),), True),
         ["eigh of fibers"], ["eigvalsh of fibers"]),
        # p = 100, q = 200: a 100-dimensional zero space
        (lambda: truncate(periodic_oracle(make_g21().base), ((0, 99),)), ["svd"], ["svd"]),
        # cos(a) + cos(b) = 0 on the 6 x 6 torus: a degenerate zero space
        (lambda: truncate(periodic_oracle(make_lattice(2)), ((0, 5), (0, 5)), True),
         ["eigh of fibers"], ["eigvalsh of fibers"]),
        # the swap x <-> y
        (lambda: truncate(make_cone().perturbation.oracle, ((-5, 12), (-5, 12))),
         ["eigh", "eigh"], ["eigvalsh", "eigvalsh"]),
        (lambda: truncate(make_cone().perturbation.oracle, ((-5, 12), (-5, 9))),
         ["eigh"], ["eigvalsh"]),
        (lambda: truncate(periodic_oracle(make_lattice(2)), ((0, 4), (0, 5)), True),
         ["eigh of fibers"], ["eigvalsh of fibers"]),
        (lambda: truncate(periodic_oracle(make_lattice(1)), ((0, 0),), True),
         ["eigh of fibers"], ["eigvalsh of fibers"]),
    ],
    ids=["half_plane", "half_plane_both_swap", "half_plane_both_keep", "even_ring", "g21",
         "even_torus", "cone", "cone_asymmetric", "odd_wrap", "loop"],
)
def test_route_of_catalog_boxes(make_box, vector_solvers, value_solvers, monkeypatch):
    """Wraps, even or odd, take one batched solve of their fiber matrices;
    bipartite induced boxes whose mirrors keep the sides take one SVD per
    sector, whatever their zero space, and those with a mirror that swaps
    them one dense ``eigh`` per pair of sectors; induced cone boxes take one
    dense ``eigh`` per sector.  A box with one sector returns exactly the
    output of the whole form's ``eigh``, or of the SVD of its ``P x Q``
    block."""
    box = make_box()
    h = box.normalized_symmetric()
    dense_lam, dense_vecs = np.linalg.eigh(h)
    dense_values = np.linalg.eigvalsh(h)
    if vector_solvers == ["svd"]:
        svd_values, svd_lam, svd_vecs = svd_of_the_form(h, box.sides)
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append(name + (" of fibers" if np.ndim(a) == 3 else ""))
            return solver(a, *args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    assert calls == vector_solvers
    calls.clear()
    values = spectrum_of_box(box)
    assert calls == value_solvers
    basis = dense_basis(box, vecs)
    if vector_solvers == ["eigh"]:
        assert np.array_equal(lam, dense_lam) and np.array_equal(basis, dense_vecs)
    if value_solvers == ["eigvalsh"]:
        assert np.array_equal(values, dense_values)
    if vector_solvers == ["svd"]:
        assert np.array_equal(lam, svd_lam) and np.array_equal(basis, svd_vecs)
        assert np.array_equal(values, svd_values)
    assert np.max(np.abs(values - dense_values)) <= 1e-12
    assert np.max(np.abs(lam - dense_values)) <= 1e-12
    assert np.max(np.abs(h @ basis - basis * lam)) <= 1e-12
    assert np.all(np.diff(lam) >= 0) and np.all(np.diff(values) >= 0)


@pytest.mark.parametrize(
    "graph, box",
    [
        (make_g11().base, ((0, 599),)),
        (make_g11().base, ((3, 3),)),  # one cell: the chain edges become loops
        (make_lattice(2), ((0, 4), (0, 6))),
        (make_lattice(2), ((0, 0), (0, 9))),
        (make_g21().base, ((0, 99),)),
        (make_lattice(3), ((0, 7), (0, 7), (0, 6))),
    ],
    ids=["g11_600", "g11_1", "lattice2_5x7", "lattice2_1x10", "g21_100", "lattice3_8x8x7"],
)
def test_bloch_wrap_equals_dense_solve(graph, box):
    """Values, zero modes and boundary count of the Bloch route equal the
    dense solve's.  On g21 the flat band's cluster has more columns than
    there are near rows, so its Gram is built from the rows."""
    wrap = truncate(periodic_oracle(graph), box, periodic_wrap=True)
    reference = dense_eigs(wrap)
    lam, vecs = spectrum_of_box(wrap, with_vectors=True)
    assert isinstance(vecs, BlochVectors)
    assert np.max(np.abs(lam - reference)) <= 1e-12
    assert np.max(np.abs(spectrum_of_box(wrap) - reference)) <= 1e-12
    assert zero_mode_count(wrap) == int(np.sum(np.abs(reference) <= 1e-12))
    near = _near_boundary_mask(wrap)
    expected = reference_boundary_count(wrap.normalized_symmetric(), near)
    assert boundary_count(wrap) == expected


def test_large_lattice_wrap_runs(tmp_path):
    """A 200 x 200 wrap (40,000 vertices) is past the dense cap but not the
    Bloch route's."""
    out = tmp_path / "wrap"
    argv = ["truncate", "--graph", "builtin:lattice2", "--box=0,199,0,199", "--wrap",
            "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["vertices"] == 40000
    # cos(a) + cos(b) = 0 on the 200 x 200 grid: b = 100 +- a, twice at a = 0, 100
    assert payload["zero_modes"] == 398


def _dropping(solve):
    def dropped(*args):
        solved = solve(*args)
        return (solved[0][1:], solved[1]) if isinstance(solved, tuple) else solved[1:]

    return dropped


def _negating(solve):
    def negated(*args):
        solved = solve(*args)
        lam = (solved[0] if isinstance(solved, tuple) else solved).copy()
        lam[-1] = -lam[-1]
        return (lam, solved[1]) if isinstance(solved, tuple) else lam

    return negated


@pytest.mark.parametrize("tamper", [_dropping, _negating], ids=["drop", "negate"])
@pytest.mark.parametrize(
    "route, make_box",
    [
        # both reflections keep the sides
        ("_bipartite_solve", lambda: truncate(make_half_plane().perturbation.oracle,
                                              ((0, 10), (-5, 4)))),
        ("_dense_solve", lambda: truncate(make_cone().perturbation.oracle, ((-5, 8), (-5, 8)))),
        ("_bloch_solve", lambda: truncate(periodic_oracle(make_g11().base), ((0, 40),), True)),
        # the x reflection keeps the sides, the y reflection swaps them
        ("_dense_solve", lambda: truncate(make_half_plane().perturbation.oracle,
                                          ((0, 10), (-5, 5)))),
        # both reflections swap the sides
        ("_dense_solve", lambda: truncate(make_half_plane().perturbation.oracle,
                                          ((0, 9), (-5, 5)))),
    ],
    ids=["svd", "eigh", "bloch", "paired", "paired_both_swap"],
)
@pytest.mark.parametrize("with_vectors", [False, True])
def test_moment_certificate_rejects_a_tampered_solve(route, make_box, tamper, with_vectors,
                                                     monkeypatch):
    """On a paired box the twin of a solved sector copies its fault: a
    negated value of the sector is a negated value of the twin too, which
    leaves the whole box's moments as they were, so only the check of the
    solved block's own moments sees it."""
    box = make_box()
    spectrum_of_box(box, with_vectors=with_vectors)  # the honest solve passes
    monkeypatch.setattr(truncation, route, tamper(getattr(truncation, route)))
    with pytest.raises(InternalInvariantError, match="eigenvalues"):
        spectrum_of_box(box, with_vectors=with_vectors)


def test_moment_certificate_exits_4(tmp_path, monkeypatch):
    monkeypatch.setattr(truncation, "_bloch_solve", _negating(truncation._bloch_solve))
    argv = ["truncate", "--graph", "builtin:g11", "--box=0,40", "--wrap",
            "--out", str(tmp_path / "t")]
    assert main(argv) == 4


def test_moments_are_the_trace_and_frobenius_norm():
    for box in (
        truncate(make_cone().perturbation.oracle, ((-5, 8), (-5, 8))),
        truncate(periodic_oracle(make_lattice(1)), ((0, 0),), True),  # loops
        truncate(periodic_oracle(make_g21().base), ((0, 2),), True),
    ):
        h = box.normalized_symmetric()
        trace, square = box.moments
        assert trace == pytest.approx(np.trace(h), abs=1e-13)
        assert square == pytest.approx(np.sum(h * h), abs=1e-13)


def permuted(box, order):
    """The same box with its vertices listed in ``order``."""
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    return truncation.BoxGraph(
        box.offsets[order], box.labels[order], position[box.rows], position[box.cols],
        box.box, box.periodic, box.dropped,
    )


def boundary_count(box):
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    return compare_spectra(lam, SpectrumApprox(((-1.0, 1.0),), (), 2, 1e-8), 1.0, box,
                           vecs).boundary_count


@given(boxes_to_solve(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_boundary_count_is_invariant(case, random):
    """The count does not change when the vertices are listed in another
    order, or when each cluster's basis is rotated.  The rotated basis is
    passed as the vectors of the identity sector; for a wrap it is the real
    basis of the dense ``eigh`` of its form, as a rotation of the complex
    Bloch basis would not be real."""
    oracle, box, wrap = case
    try:
        got = truncate(oracle, box, periodic_wrap=wrap)
    except EmptyBoxError:
        return
    count = boundary_count(got)
    order = list(range(len(got)))
    random.shuffle(order)
    assert boundary_count(permuted(got, np.array(order))) == count
    if wrap:
        lam, basis = np.linalg.eigh(got.normalized_symmetric())
    else:
        lam, vecs = spectrum_of_box(got, with_vectors=True)
        basis = dense_basis(got, vecs)
    rng = np.random.default_rng(random.getrandbits(32))
    cuts = [0, *(np.flatnonzero(np.diff(lam) > 1e-9) + 1).tolist(), len(lam)]
    for start, end in zip(cuts, cuts[1:]):
        q, _ = np.linalg.qr(rng.standard_normal((end - start, end - start)))
        basis[:, start:end] = basis[:, start:end] @ q
    band = SpectrumApprox(((-1.0, 1.0),), (), 2, 1e-8)
    assert compare_spectra(lam, band, 1.0, got, identity_vectors(basis)).boundary_count == count


def test_modes_with_half_their_mass_near_the_boundary_count():
    """A five-vertex path whose last vertex lies on a face of the box: the
    modes at +-1/sqrt(2) have exactly half their mass within two steps of
    it, which the solvers put a few ulps above or below 1/2 depending on the
    order of the vertices.  Both count, in every order."""
    patch = Patch(
        removed_vertices=frozenset({vert(-1)}),
        added_vertices=frozenset({vert(-1), vert(-1, label=1)}),
        added_edges=((vert(-1), vert(-1, label=1)), (vert(-1, label=1), vert(0))),
    )
    box = truncate(PerturbedGraph(make_lattice(1), patch).oracle, ((-2, 2),))
    assert box.vertices == (vert(-1), vert(-1, label=1), vert(0), vert(1), vert(2))
    near = _near_boundary_mask(box)
    assert near.tolist() == [False, False, True, True, True]
    assert reference_boundary_count(box.normalized_symmetric(), near) == 5
    orders = itertools.permutations(range(len(box)))
    assert {boundary_count(permuted(box, np.array(order))) for order in orders} == {5}


@pytest.mark.parametrize(
    "make_box",
    [
        lambda: truncate(make_half_plane().perturbation.oracle, ((0, 12), (-3, 9))),
        lambda: truncate(make_cone().perturbation.oracle, ((-5, 9), (-4, 9))),
        lambda: truncate(periodic_oracle(make_g11().base), ((0, 30),)),
        lambda: truncate(make_random_pendant(0.1, seed=4).perturbation.oracle,
                         ((-5, 2), (1, 9))),
    ],
    ids=["half_plane", "cone", "g11_path", "random_pendant"],
)
def test_count_on_a_simple_spectrum_is_the_column_rule(make_box):
    box = make_box()
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    assert np.min(np.diff(lam)) > 1e-9  # simple: every cluster is one column
    near = _near_boundary_mask(box)
    assert boundary_count(box) == column_rule_count(dense_basis(box, vecs), near)


@pytest.mark.parametrize(
    "make_box",
    [
        lambda: truncate(periodic_oracle(make_lattice(2)), ((0, 9), (0, 9)), True),
        lambda: truncate(periodic_oracle(make_g11().base), ((0, 7),), True),
        lambda: truncate(periodic_oracle(make_g21().base), ((0, 39),), True),
        lambda: truncate(make_half_plane().perturbation.oracle, ((-6, 6), (-2, 8))),
        lambda: truncate(make_cone().perturbation.oracle, ((-3, 9), (-3, 9))),
    ],
    ids=["lattice2_wrap", "g11_wrap", "g21_wrap_with_rows", "half_plane", "cone"],
)
def test_boundary_count_is_the_same_at_any_batch_size(make_box, monkeypatch):
    """Each Gram's ``eigvalsh`` is solved apart from the rest of its batch,
    so one cluster per batch, the default batches and one batch per cluster
    size count alike.  The flat band of the ``g21`` wrap is a cluster of 40
    columns over 11 near rows, so it builds its rows."""
    box = make_box()
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    counts = []
    for batch in (1, truncation._GRAM_BATCH, 1 << 40):
        monkeypatch.setattr(truncation, "_GRAM_BATCH", batch)
        counts.append(truncation._count_boundary_modes(box, lam, vecs))
    assert counts[0] == counts[1] == counts[2] > 0


def test_bloch_batches_are_sized_by_their_factor_entries(monkeypatch):
    """A Bloch batch with no rows built reads ``m * m * cell_size`` factor
    entries per cluster of ``m`` columns, not ``m`` times the 684 near rows
    of this 60 x 60 wrap: each of its 8 cluster sizes fits in one batch
    (45 batches when sized by the near rows)."""
    box = truncate(periodic_oracle(make_lattice(2)), ((0, 59), (0, 59)), True)
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    shapes, solve = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
    truncation._count_boundary_modes(box, lam, vecs)
    sizes = np.diff(np.flatnonzero(np.diff(lam, prepend=-2.0, append=2.0) > 1e-9))
    assert sorted(m for _, m, _ in shapes) == sorted(set(sizes.tolist()))
    assert all(c * m * m <= truncation._GRAM_BATCH for c, m, _ in shapes)


@pytest.mark.parametrize("m", [2, 300])
def test_a_real_gram_batch_is_not_copied(m):
    """The Grams of a real batch multiply it by its own transposed view:
    the traced peak is the batch gathered from the near rows (512 KiB, or
    600 KiB) and the Grams, with no conjugated copy of the batch.  With more columns than
    near rows (``m`` = 300) the Grams are ``W W^H``."""
    rng = np.random.default_rng(1)
    near_rows = rng.standard_normal((256, 1024))
    columns = np.arange(max(256 // m, 1) * m).reshape(-1, m)
    grams = truncation._dense_grams(near_rows)
    tracemalloc.start()
    try:
        got = grams(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w = np.moveaxis(near_rows[:, columns], 0, 1)
    batch = w.nbytes
    assert peak <= batch + got.nbytes + 64 * 1024
    wt = np.swapaxes(w, 1, 2)
    assert np.allclose(got, wt @ w if m <= 256 else w @ wt)


@pytest.mark.parametrize(
    "argv, count",
    [
        (["--graph", "builtin:lattice2", "--perturbation", "builtin:random_pendant,p=0.3,seed=4",
          "--box=-15,15,-15,15"], 69),
        (["--graph", "builtin:g21", "--box=0,99"], 4),
    ],
    ids=["random_pendant", "g21"],
)
def test_truncate_json_is_the_same_for_any_blas_thread_count(tmp_path, argv, count):
    src = Path(__file__).resolve().parent.parent / "src"
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        out = tmp_path / f"t{threads}"
        code = "import sys; from periodic_spectra.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, "truncate", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        texts.append(out.with_suffix(".json").read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["boundary_count"] == count


def loops_and_parallel_edges():
    """``Z^2`` with every x-edge doubled and a loop at every vertex: mirror
    symmetric in each axis, but not under the swap, which would map the
    doubled x-edges onto the single y-edges."""
    return build_periodic(
        2, 1, [FundEdge(0, 0, (1, 0)), FundEdge(0, 0, (1, 0)), FundEdge(0, 0, (0, 1)),
               FundEdge(0, 0, (0, 0))],
    )


@st.composite
def mirror_symmetric_boxes(draw):
    """Induced boxes that a reflection or the swap maps onto themselves: any
    box of ``lattice1/2/3``, ``g11`` and the looped lattice, a box of
    ``half_plane`` that starts at or below its cut, and a square box of
    ``cone`` (the swap).  ``g21`` boxes are drawn too: the reflection that
    keeps labels is not a symmetry of its chain, so they stay one sector.
    The first side has 2 or more cells, so that the box keeps an edge and
    the x reflection is not the identity: on a bipartite box it keeps the
    sides when that side is odd and swaps them when it is even, and is
    accepted either way.  Returns the oracle, the box and ``split``,
    whether the solve must take more than one sector."""
    name = draw(st.sampled_from(
        ["lattice1", "lattice2", "lattice3", "half_plane", "cone", "g11", "g21", "loops"]
    ))
    split = name != "g21"
    if name == "half_plane":
        lo, length = draw(st.integers(-3, 3)), draw(st.integers(2, 9))
        box = ((lo, lo + length - 1), (draw(st.integers(-3, 0)), draw(st.integers(0, 6))))
        return make_half_plane().perturbation.oracle, box, split
    if name == "cone":
        lo = draw(st.integers(-3, 1))
        hi = draw(st.integers(max(lo + 1, 1), 9))
        return make_cone().perturbation.oracle, ((lo, hi), (lo, hi)), split
    graph = {
        "lattice1": make_lattice(1), "lattice2": make_lattice(2), "lattice3": make_lattice(3),
        "g11": make_g11().base, "g21": make_g21().base, "loops": loops_and_parallel_edges(),
    }[name]
    longest = {1: 30, 2: 8, 3: 4}[graph.dim]
    lo = draw(st.integers(-3, 3))
    box = [(lo, lo + draw(st.integers(2, longest)) - 1)]
    for _ in range(1, graph.dim):
        lo = draw(st.integers(-3, 3))
        box.append((lo, lo + draw(st.integers(1, longest)) - 1))
    return periodic_oracle(graph), tuple(box), split


@given(mirror_symmetric_boxes())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sectors_equal_the_dense_solve(case):
    """Split by its mirror symmetries, a box has the values, zero modes and
    boundary count of the dense ``eigh`` of its form, and its vectors are
    orthonormal eigenvectors.  The split is read with the box's ``sides``,
    as the solve reads it: more than one solved sector, or one with a
    twin."""
    oracle, box, split = case
    got = truncate(oracle, box)
    if split:
        found = symmetry.mirror_symmetries(got, got.sides)
        sectors = symmetry.sectors(found, len(got), got.sides)
        assert len(sectors) > 1 or sectors[0].twin_odd is not None
    h = got.normalized_symmetric()
    reference = np.linalg.eigvalsh(h)
    lam, vecs = spectrum_of_box(got, with_vectors=True)
    basis = dense_basis(got, vecs)
    assert np.max(np.abs(spectrum_of_box(got) - reference)) <= 1e-12
    assert np.max(np.abs(lam - reference)) <= 1e-12
    assert np.max(np.abs(h @ basis - basis * lam)) <= 1e-12
    assert np.max(np.abs(basis.T @ basis - np.eye(len(got)))) <= 1e-12
    assert_lifts_bit_for_bit(got, vecs)
    assert zero_mode_count(got) == int(np.sum(np.abs(reference) <= 1e-12))
    near = _near_boundary_mask(got)
    assert boundary_count(got) == reference_boundary_count(h, near)


def assert_lifts_bit_for_bit(box, vecs):
    """``SectorVectors.rows`` at the rows near the boundary and ``columns``
    at the sampled columns equal those rows and columns of the ``(n, n)``
    array the reference lift builds, bit for bit."""
    basis = sector_basis(vecs)
    near = np.flatnonzero(_near_boundary_mask(box))
    sample = truncation._eigenpair_sample(len(box))
    rows, columns = vecs.rows(near), vecs.columns(sample)
    assert rows.shape == (len(near), len(box)) and rows.tobytes() == basis[near].tobytes()
    assert columns.shape == (len(box), len(sample))
    assert columns.tobytes() == basis[:, sample].tobytes()


@pytest.mark.parametrize(
    "make_box",
    [
        # x keeps the sides, y swaps them: two pairs of sectors
        lambda: truncate(make_half_plane().perturbation.oracle, ((-25, 25), (0, 25))),
        # both reflections keep the sides: four sectors
        lambda: truncate(make_half_plane().perturbation.oracle, ((-40, 40), (-40, 40))),
        # both reflections swap the sides: two pairs
        lambda: truncate(make_half_plane().perturbation.oracle, ((-40, 39), (-40, 39))),
        # the swap x <-> y: two sectors
        lambda: truncate(make_cone().perturbation.oracle, ((0, 30), (0, 30))),
        lambda: truncate(make_cone().perturbation.oracle, ((0, 56), (0, 56))),
        lambda: truncate(make_cone().perturbation.oracle, ((-5, 30), (-5, 30))),
        # three reflections and the axis swaps of a cube
        lambda: truncate(periodic_oracle(make_lattice(3)), ((0, 4), (0, 4), (0, 4))),
    ],
    ids=["half_plane_paired", "half_plane_four", "half_plane_both_swap", "cone_30", "cone_56",
         "cone_shifted", "lattice3_cube"],
)
def test_sector_vectors_equal_the_reference_lift(make_box):
    box = make_box()
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    assert isinstance(vecs, SectorVectors)
    assert_lifts_bit_for_bit(box, vecs)


def test_a_split_box_builds_no_n_by_n_array():
    """The vector solve and the boundary count of the benchmark's 1,326-vertex
    half-plane box peak below ``4 n^2`` bytes, half of one ``(n, n)`` float64
    array: the sector solves, the near rows and one batch of Gram inputs."""
    box = truncate(make_half_plane().perturbation.oracle, ((-25, 25), (-25, 25)))
    band = SpectrumApprox(((-1.0, 1.0),), (), 2, 1e-8)
    n = len(box)
    tracemalloc.start()
    try:
        lam, vecs = spectrum_of_box(box, with_vectors=True)
        compare_spectra(lam, band, 1.0, box, vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(vecs, SectorVectors)
    assert peak < 4 * n * n


def first_block(vectors, twin):
    """The merged columns of the first solved sector, or of its twin."""
    m = len(vectors.solves[0])
    return vectors.column[m : 2 * m] if twin else vectors.column[:m]


@pytest.mark.parametrize(
    "box, twin",
    [
        # the x reflection keeps the sides, the y reflection swaps them: two pairs
        (((0, 10), (-5, 5)), False),
        (((0, 10), (-5, 5)), True),
        # both reflections keep the sides: four sectors, no twin
        (((0, 10), (-5, 4)), False),
    ],
    ids=["sector_of_a_pair", "twin", "sector"],
)
def test_a_fault_in_a_lifted_column_exits_4(box, twin, tmp_path, monkeypatch):
    """Flipping the sign of the largest entry of a sampled column as
    ``SectorVectors`` lifts it, a column of the first solved sector or of its
    twin, exits 4."""
    got = truncate(make_half_plane().perturbation.oracle, box)
    _, vecs = spectrum_of_box(got, with_vectors=True)
    paired = vecs.sectors[0].twin_odd is not None
    assert (len(vecs.sectors), paired) == ((2, True) if box[1] == (-5, 5) else (4, False))
    sample = truncation._eigenpair_sample(len(got))
    assert np.intersect1d(first_block(vecs, twin), sample).size
    argv = ["truncate", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
            "--box=" + ",".join(str(x) for side in box for x in side),
            "--out", str(tmp_path / "t")]
    assert main(argv) == 0
    lift = SectorVectors._lift

    def planted(vectors, vertices, columns):
        out = lift(vectors, vertices, columns)
        hit = np.isin(columns, np.intersect1d(first_block(vectors, twin), sample))
        for k in np.flatnonzero(hit)[:1]:
            i = np.argmax(np.abs(out[:, k]))
            out[i, k] = -out[i, k]
        return out

    monkeypatch.setattr(SectorVectors, "_lift", planted)
    assert main(argv) == 4
    with pytest.raises(InternalInvariantError, match="eigenvectors miss"):
        spectrum_of_box(got, with_vectors=True)


@st.composite
def side_swapping_boxes(draw):
    """Bipartite induced boxes with a mirror that swaps their two sides: a
    box of ``lattice1/2/3`` or ``g11`` whose first side has an even number
    of cells, and a ``half_plane`` box whose x range has an even number."""
    name = draw(st.sampled_from(["lattice1", "lattice2", "lattice3", "g11", "half_plane"]))
    if name == "half_plane":
        lo = draw(st.integers(-3, 3))
        box = ((lo, lo + 2 * draw(st.integers(1, 5)) - 1),
               (draw(st.integers(-3, 0)), draw(st.integers(0, 7))))
        return make_half_plane().perturbation.oracle, box
    graph = {"lattice1": make_lattice(1), "lattice2": make_lattice(2),
             "lattice3": make_lattice(3), "g11": make_g11().base}[name]
    longest = {1: 30, 2: 8, 3: 4}[graph.dim]
    lo = draw(st.integers(-3, 3))
    box = [(lo, lo + 2 * draw(st.integers(1, longest // 2)) - 1)]
    for _ in range(1, graph.dim):
        lo = draw(st.integers(-3, 3))
        box.append((lo, lo + draw(st.integers(1, longest)) - 1))
    return periodic_oracle(graph), tuple(box)


@given(side_swapping_boxes())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_paired_sectors_equal_the_one_sector_svd(case):
    """A box solved by pairs of sectors, one ``eigh`` per pair, has the
    values of the dense ``eigvalsh`` of its form to ``n * 1e-12``, and the
    zero count and boundary count of the SVD of the dense form's ``P x Q``
    block."""
    oracle, box = case
    got = truncate(oracle, box)
    sectors = symmetry.sectors(symmetry.mirror_symmetries(got, got.sides), len(got),
                               got.sides)
    assert got.sides is not None and all(s.twin_odd is not None for s in sectors)
    n = len(got)
    h = got.normalized_symmetric()
    svd_values, svd_lam, svd_vecs = svd_of_the_form(h, got.sides)
    values = spectrum_of_box(got)
    lam, vecs = spectrum_of_box(got, with_vectors=True)
    assert np.max(np.abs(values - np.linalg.eigvalsh(h))) <= n * 1e-12
    assert np.max(np.abs(lam - np.linalg.eigvalsh(h))) <= n * 1e-12
    assert zero_mode_count(got) == int(np.sum(np.abs(svd_values) <= 1e-12))
    band = SpectrumApprox(((-1.0, 1.0),), (), 2, 1e-8)
    assert (compare_spectra(lam, band, 1.0, got, vecs).boundary_count
            == compare_spectra(svd_lam, band, 1.0, got, identity_vectors(svd_vecs)).boundary_count)


def test_a_mirror_that_keeps_one_component_and_swaps_another_is_refused():
    """``0..6`` of ``Z`` without the edges 1-2 and 4-5: the reflection maps
    the components ``{0, 1}`` and ``{5, 6}`` onto each other with their
    sides swapped, and ``{2, 3, 4}`` onto itself with its sides kept, so no
    ``psi`` pairs its sectors and it is refused on the bipartite route."""
    patch = Patch(removed_edges=((vert(1), vert(2)), (vert(4), vert(5))))
    box = truncate(PerturbedGraph(make_lattice(1), patch).oracle, ((0, 6),))
    assert box.sides is not None
    assert symmetry.mirror_symmetries(box, box.sides) == []
    assert len(symmetry.mirror_symmetries(box, None)) == 1
    lam, _ = spectrum_of_box(box, with_vectors=True)
    assert np.max(np.abs(lam - dense_eigs(box))) <= 1e-12


def mirror_images(box, *maps):
    """The vertex permutation of each cell map in ``maps``, labels kept."""
    index = box_index(box)
    return [np.array([index[Vertex(f(v.cell), v.label)] for v in box.vertices]) for f in maps]


@pytest.mark.parametrize(
    "make_box, maps",
    [
        # odd sides: both reflections keep the sides, the swap then fails to commute
        (lambda: truncate(periodic_oracle(make_lattice(2)), ((-3, 3), (-3, 3))),
         [lambda c: (-c[0], c[1]), lambda c: (c[0], -c[1])]),
        # even sides: both reflections swap the sides, the swap then fails to commute
        (lambda: truncate(periodic_oracle(make_lattice(2)), ((0, 5), (0, 5))),
         [lambda c: (5 - c[0], c[1]), lambda c: (c[0], 5 - c[1])]),
        (lambda: truncate(make_cone().perturbation.oracle, ((-4, 6), (-4, 6))),
         [lambda c: (c[1], c[0])]),
        (lambda: truncate(periodic_oracle(loops_and_parallel_edges()), ((0, 4), (0, 4))),
         [lambda c: (4 - c[0], c[1]), lambda c: (c[0], 4 - c[1])]),
        # the listed cells of half_plane start at its cut, y = 0
        (lambda: truncate(make_half_plane().perturbation.oracle, ((-2, 2), (-3, 4))),
         [lambda c: (-c[0], c[1]), lambda c: (c[0], 4 - c[1])]),
    ],
    ids=["lattice2_odd", "lattice2_even", "cone", "loops", "half_plane"],
)
def test_accepted_symmetries(make_box, maps):
    box = make_box()
    accepted = symmetry.mirror_symmetries(box, box.sides)
    assert len(accepted) == len(maps)
    for perm, expected in zip(accepted, mirror_images(box, *maps)):
        assert np.array_equal(perm, expected)


def symmetry_breakers():
    """Perturbations of ``Z^2`` on the box ``-3..3``^2, each of which breaks
    both reflections and the swap."""
    lattice = make_lattice(2)
    return [
        PerturbedGraph(lattice, Patch(removed_edges=((vert(-3, -3), vert(-2, -3)),))),
        # an edge across two steps closes triangles: the dense route
        PerturbedGraph(lattice, Patch(added_edges=((vert(-3, -2), vert(-1, -2)),))),
        PerturbedGraph(lattice, PredicatePatch(keep=lambda v: v.cell != (-3, -2))),
    ]


@pytest.mark.parametrize("graph", symmetry_breakers(), ids=["removed", "added", "predicate"])
def test_a_broken_symmetry_keeps_the_single_block_bits(graph):
    box = truncate(graph.oracle, ((-3, 3), (-3, 3)))
    sides = box.sides
    assert symmetry.mirror_symmetries(box, None) == []
    h = box.normalized_symmetric()
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    basis = dense_basis(box, vecs)
    values = spectrum_of_box(box)
    if sides is None:
        dense_lam, dense_vecs = np.linalg.eigh(h)
        assert np.array_equal(lam, dense_lam) and np.array_equal(basis, dense_vecs)
        assert np.array_equal(values, np.linalg.eigvalsh(h))
    else:
        svd_values, svd_lam, svd_vecs = svd_of_the_form(h, sides)
        assert np.array_equal(lam, svd_lam) and np.array_equal(basis, svd_vecs)
        assert np.array_equal(values, svd_values)


@pytest.mark.parametrize(
    "make_box, bipartite",
    [
        (lambda: truncate(make_cone().perturbation.oracle, ((-5, 12), (-5, 9))), False),
        (lambda: truncate(make_random_pendant(0.3, seed=4).perturbation.oracle,
                          ((-4, 4), (-4, 4))), True),
    ],
    ids=["cone_eigh", "random_pendant_svd"],
)
def test_a_box_without_symmetry_is_the_identity_sector(make_box, bipartite):
    """A box with no accepted mirror is solved as the one identity sector:
    its values, and its ``SectorVectors`` lifted at every column or at every
    row, have the bits of the whole form's ``eigh`` (a box with odd cycles)
    or of the ``(n, n)`` array of its one ``_bipartite_solve``."""
    box = make_box()
    n = len(box)
    every = np.arange(n)
    assert (box.sides is not None) == bipartite
    [sector] = symmetry.sectors(symmetry.mirror_symmetries(box, box.sides), n, box.sides)
    assert np.array_equal(sector.reps, every) and sector.twin_odd is None
    assert np.all(sector.sizes == 1) and np.all(sector.sign == 1.0)
    if bipartite:
        want_lam, want = truncation._bipartite_solve(box, sector, box.sides, True)
    else:
        want_lam, want = np.linalg.eigh(box.normalized_symmetric())
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    assert isinstance(vecs, SectorVectors)
    assert lam.tobytes() == want_lam.tobytes()
    assert vecs.columns(every).tobytes() == want.tobytes()
    assert vecs.rows(every).tobytes() == want.tobytes()


def _swap_first_columns(y):
    y[:, [0, 1]] = y[:, [1, 0]]


def _flip_one_entry(y):
    i = np.argmax(np.abs(y[:, 0]))
    y[i, 0] = -y[i, 0]


def _scale_first_column(y):
    y[:, 0] *= 1.0 + 1e-6


@pytest.mark.parametrize(
    "fault", [_swap_first_columns, _flip_one_entry, _scale_first_column],
    ids=["swap", "flip", "scale"],
)
@pytest.mark.parametrize(
    "route, name, box, sectors, twins",
    [
        ("_bipartite_solve", "half_plane", ((0, 10), (-5, 4)), 4, 0),
        ("_bipartite_solve", "random_pendant,p=0.3,seed=4", ((-4, 4), (-4, 4)), 1, 0),
        ("_dense_solve", "cone", ((-5, 8), (-5, 8)), 2, 0),
        ("_dense_solve", "cone", ((-5, 8), (-5, 7)), 1, 0),
        # the x reflection keeps the sides, the y reflection swaps them
        ("_dense_solve", "half_plane", ((0, 10), (-5, 5)), 2, 2),
        # both reflections swap the sides
        ("_dense_solve", "half_plane", ((0, 9), (-5, 5)), 2, 2),
    ],
    ids=["svd_sectors", "svd_one_sector", "eigh_sectors", "eigh_one_sector", "paired",
         "paired_both_swap"],
)
def test_eigenpair_check_exits_4(route, name, box, sectors, twins, fault, tmp_path,
                                 monkeypatch):
    """A fault planted in every solved sector's first column reaches the
    merged first column, which the eigenpair check samples.  A box of one
    sector has no accepted mirror: that sector is the identity sector.  On a paired box
    the fault goes into the last column instead: the sector of the trivial
    character holds the top value 1 there, and its twin's first column,
    ``Z`` times that column, holds the box's lowest value -1."""
    graph = {
        "half_plane": make_half_plane, "cone": make_cone,
        "random_pendant,p=0.3,seed=4": lambda: make_random_pendant(0.3, seed=4),
    }[name]().perturbation
    got = truncate(graph.oracle, box)
    split = symmetry.sectors(symmetry.mirror_symmetries(got, got.sides), len(got),
                             got.sides)
    assert (len(split), sum(s.twin_odd is not None for s in split)) == (sectors, twins)
    argv = ["truncate", "--graph", "builtin:lattice2", "--perturbation", f"builtin:{name}",
            "--box=" + ",".join(str(x) for side in box for x in side),
            "--out", str(tmp_path / "t")]
    assert main(argv) == 0
    solve = getattr(truncation, route)

    def tampered(*args):
        solved = solve(*args)
        if not isinstance(solved, tuple):
            return solved
        lam, y = solved
        y = y.copy()
        fault(y[:, ::-1] if twins else y)
        return lam, y

    monkeypatch.setattr(truncation, route, tampered)
    assert main(argv) == 4
    with pytest.raises(InternalInvariantError, match="eigenvectors miss"):
        spectrum_of_box(got, with_vectors=True)


@pytest.mark.parametrize(
    "fault", [_swap_first_columns, _flip_one_entry, _scale_first_column],
    ids=["swap", "flip", "scale"],
)
def test_fiber_eigenpair_check_exits_4(fault, tmp_path, monkeypatch):
    """A wrap's first Bloch column, checked as its fiber pair, is the lowest
    value -1 of ``g11`` at ``k = pi`` (simple, as the wrap has even length):
    swapping it with the next fiber, flipping the sign of one entry of it or
    scaling it by ``1 + 1e-6`` exits 4."""
    argv = ["truncate", "--graph", "builtin:g11", "--box=0,39", "--wrap",
            "--out", str(tmp_path / "t")]
    assert main(argv) == 0
    solve = truncation._bloch_solve

    def tampered(*args):
        solved = solve(*args)
        if not isinstance(solved, tuple):
            return solved
        lam, vectors = solved
        fibers = vectors.fibers.copy()
        fault(fibers.T)  # column j of the box is fiber j
        return lam, BlochVectors(vectors.lengths, vectors.modes, fibers)

    monkeypatch.setattr(truncation, "_bloch_solve", tampered)
    assert main(argv) == 4
    wrap = truncate(periodic_oracle(make_g11().base), ((0, 39),), True)
    with pytest.raises(InternalInvariantError, match="eigenvectors miss"):
        spectrum_of_box(wrap, with_vectors=True)
