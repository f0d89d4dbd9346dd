"""Box truncation, checked against an independent pair-count construction.

``truncate`` builds induced and wrapped boxes from one oriented edge list.
The reference below folds oriented counts into an ``(i, j)`` pair dict
(loops halved), builds wrapped boxes separately from the edge templates, and
finds the near-boundary ring by a set-based search.  ``spectrum_of_box``
solves a bipartite box by one SVD of its off-diagonal block; the dense
``eigvalsh`` of ``normalized_symmetric()`` and a two-colouring over the dense
adjacency are the reference for that route.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    PerturbedGraph,
    PredicatePatch,
    SpectrumApprox,
    band_grid,
    build_periodic,
    compare_spectra,
    essential_spectrum,
    make_cone,
    make_g21,
    make_half_plane,
    make_lattice,
    periodic_oracle,
    spectrum_of_box,
    truncate,
    zero_mode_count,
)
from periodic_spectra.errors import EmptyBoxError, InputError, InternalInvariantError
from periodic_spectra.graphs import FundEdge, Vertex, box_cells, vert
from periodic_spectra.truncation import _near_boundary_mask

from test_graphs import small_graphs
from test_region import explicit_patches


def lap_apply(box, values):
    """Apply the box's degree-normalized adjacency operator to a vector."""
    return (box.adjacency() @ values) / box.degrees.astype(float)


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
        end = path.index[vert(0)]
        interior = path.index[vert(100)]
        assert path.degrees[end] == 2
        assert path.degrees[interior] == 3
        assert path.dropped == 0

    def test_cone_patch(self, cone):
        patch = truncate(cone.perturbation.oracle, ((0, 60), (0, 60)))
        assert len(patch) == 61 * 61
        origin = patch.index[vert(0, 0)]
        assert patch.degrees[origin] == 2
        inner = patch.index[vert(30, 30)]
        assert patch.degrees[inner] == 4
        # arc edge present inside the box
        arc_a = patch.index[vert(10, 0)]
        assert patch.degrees[arc_a] == 4  # 3 grid neighbors + 1 arc

    def test_empty_box_rejected(self, lattice1):
        with pytest.raises(EmptyBoxError):
            truncate(periodic_oracle(lattice1), ((5, 4),))

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
        eigs = spectrum_of_box(ring)
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
        eigs = np.sort(spectrum_of_box(ring))
        _, lambdas = band_grid(g, 64)
        assert np.max(np.abs(eigs - np.sort(lambdas.reshape(-1)))) <= 1e-9

    def test_dense_solve_cap(self, lattice2):
        big = truncate(periodic_oracle(lattice2), ((0, 63), (0, 63)))
        with pytest.raises(InputError):
            spectrum_of_box(big)

    @pytest.mark.parametrize(
        "graph_name,axis_len",
        [("lattice1", 256), ("g11", 256), ("lattice2", 16)],
    )
    def test_circulant_exactness(self, graph_name, axis_len, request):
        entry = request.getfixturevalue(graph_name)
        graph = getattr(entry, "base", entry)
        box = tuple((0, axis_len - 1) for _ in range(graph.dim))
        ring = truncate(periodic_oracle(graph), box, periodic_wrap=True)
        eigs = np.sort(spectrum_of_box(ring))
        _, lambdas = band_grid(graph, axis_len)
        samples = np.sort(lambdas.reshape(-1))
        assert eigs.shape == samples.shape
        assert np.max(np.abs(eigs - samples)) <= 1e-9


class TestCompare:
    def test_wrapped_inside_fraction_one(self, g11):
        ring = truncate(periodic_oracle(g11.base), ((0, 255),), periodic_wrap=True)
        eigs = spectrum_of_box(ring)
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
        with pytest.raises(InputError):
            compare_spectra([0.0], spec, 0.0)


class TestZeroModes:
    def test_counterexample_box(self, counterexample):
        box = truncate(counterexample.perturbation.oracle, ((-20, 20),))
        assert zero_mode_count(box, 1e-12) >= 21

    def test_two_cycle_has_none(self):
        g = make_lattice(1)
        box = truncate(periodic_oracle(g), ((0, 1),))
        assert zero_mode_count(box, 1e-12) == 0

    def test_double_pendant_vertex(self):
        g = build_periodic(
            1, 3, [FundEdge(0, 0, (1,)), FundEdge(0, 1, (0,)), FundEdge(0, 2, (0,))]
        )
        box = truncate(periodic_oracle(g), ((0, 4),))
        assert zero_mode_count(box, 1e-12) >= 1

    def test_pendant_pair_annihilated_exactly(self, counterexample):
        box = truncate(counterexample.perturbation.oracle, ((-20, 20),))
        for x in (0, 7, 20):
            vec = np.zeros(len(box))
            vec[box.index[Vertex((x,), 1)]] = 1.0 / np.sqrt(2.0)
            vec[box.index[Vertex((x,), 2)]] = -1.0 / np.sqrt(2.0)
            out = lap_apply(box, vec)
            assert np.max(np.abs(out)) <= 1e-15

    def test_zero_modes_monotone_in_box(self, counterexample):
        oracle = counterexample.perturbation.oracle
        counts = [
            zero_mode_count(truncate(oracle, ((-r, r),)), 1e-12)
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


@st.composite
def boxes_to_truncate(draw):
    """Induced boxes over random periodic graphs and explicit patches, and
    wrapped boxes over their base graphs with a first axis of length 1 or 2."""
    graph = draw(st.one_of(small_graphs(), explicit_patches()))
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
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_edge_list_equals_pair_counts(case):
    oracle, box, wrap = case
    try:
        vertices, pairs, dropped = reference_truncate(oracle, box, wrap)
    except EmptyBoxError:
        with pytest.raises(EmptyBoxError):
            truncate(oracle, box, periodic_wrap=wrap)
        return
    got = truncate(oracle, box, periodic_wrap=wrap)
    adjacency = reference_adjacency(len(vertices), pairs)
    near = reference_near_mask(vertices, pairs, box, radius=2)
    assert got.vertices == tuple(vertices)
    assert got.dropped == dropped
    assert np.array_equal(got.degrees, adjacency.sum(axis=1).astype(np.int64))
    assert np.array_equal(got.adjacency(), adjacency)
    assert np.array_equal(_near_boundary_mask(got, 2), near)
    eigs, vecs = spectrum_of_box(got, with_vectors=True)
    mass = np.abs(vecs) ** 2
    expected = int(np.sum(mass[near].sum(axis=0) >= 0.5 * mass.sum(axis=0)))
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
    sides, expected = got.sides(), reference_sides(got)
    assert (sides is None) == (expected is None)
    if sides is not None:
        assert np.array_equal(sides, expected)
    h = got.normalized_symmetric()
    reference = np.linalg.eigvalsh(h)
    lam, vecs = spectrum_of_box(got, with_vectors=True)
    assert np.max(np.abs(spectrum_of_box(got) - reference)) <= 1e-12
    assert np.max(np.abs(lam - reference)) <= 1e-12
    assert np.max(np.abs(vecs.T @ vecs - np.eye(len(got)))) <= 1e-12
    assert np.max(np.abs(h @ vecs - vecs * lam)) <= 1e-12
    assert zero_mode_count(got, 1e-12) == int(np.sum(np.abs(reference) <= 1e-12))
    if sides is None or np.sum(np.abs(reference) <= 1e-9) > 1:
        dense_lam, dense_vecs = np.linalg.eigh(h)
        assert np.array_equal(lam, dense_lam) and np.array_equal(vecs, dense_vecs)


@pytest.mark.parametrize(
    "make_box, vector_solvers, value_solver",
    [
        (lambda: truncate(make_half_plane().perturbation.oracle, ((0, 50), (-25, 25))),
         ["svd"], "svd"),
        (lambda: truncate(periodic_oracle(make_lattice(1)), ((0, 5),), True), ["svd"], "svd"),
        # p = 100, q = 200: a 100-dimensional zero space
        (lambda: truncate(periodic_oracle(make_g21().base), ((0, 99),)), ["eigh"], "svd"),
        # p = q = 18 and zero singular values: cos(a) + cos(b) = 0 on the 6 x 6 torus
        (lambda: truncate(periodic_oracle(make_lattice(2)), ((0, 5), (0, 5)), True),
         ["svd", "eigh"], "svd"),
        (lambda: truncate(make_cone().perturbation.oracle, ((-5, 12), (-5, 12))),
         ["eigh"], "eigvalsh"),
        (lambda: truncate(periodic_oracle(make_lattice(2)), ((0, 4), (0, 5)), True),
         ["eigh"], "eigvalsh"),
        (lambda: truncate(periodic_oracle(make_lattice(1)), ((0, 0),), True),
         ["eigh"], "eigvalsh"),
    ],
    ids=["half_plane", "even_ring", "g21", "even_torus", "cone", "odd_wrap", "loop"],
)
def test_route_of_catalog_boxes(make_box, vector_solvers, value_solver, monkeypatch):
    """Half-plane boxes and even wraps take the SVD; a bipartite box with a
    degenerate zero space takes its vectors from ``eigh``, as do induced cone
    boxes, odd wraps and loops, and returns ``eigh``'s exact output."""
    box = make_box()
    h = box.normalized_symmetric()
    dense_lam, dense_vecs = np.linalg.eigh(h)
    dense_values = np.linalg.eigvalsh(h)
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    lam, vecs = spectrum_of_box(box, with_vectors=True)
    assert calls == vector_solvers
    calls.clear()
    values = spectrum_of_box(box)
    assert calls == [value_solver]
    if vector_solvers[-1] == "eigh":
        assert np.array_equal(lam, dense_lam) and np.array_equal(vecs, dense_vecs)
    if value_solver == "eigvalsh":
        assert np.array_equal(values, dense_values)
    assert np.max(np.abs(values - dense_values)) <= 1e-12
    assert np.max(np.abs(lam - dense_values)) <= 1e-12
    assert np.max(np.abs(h @ vecs - vecs * lam)) <= 1e-12
    assert np.all(np.diff(lam) >= 0) and np.all(np.diff(values) >= 0)
