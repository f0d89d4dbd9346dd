import numpy as np
import pytest

from periodic_spectra import (
    Patch,
    PerturbedGraph,
    PredicatePatch,
    apply_defect,
    box_is_clear,
    build_weyl_state,
    embed_state,
    embedding_norm_bounds,
    find_unperturbed_box,
    in_unperturbed_set,
    make_lattice,
    truncate,
    vert,
    weighted_norm,
)
from periodic_spectra.errors import (
    EmptySupportError,
    InputError,
    VertexNotInCommonSubgraphError,
)
from periodic_spectra.graphs import Vertex, apply_laplacian
from periodic_spectra.region import Region


def degree_ratio_bounds(graph, support):
    """Raw worst-case degree ratios (the squares of ``embedding_norm_bounds``)."""
    dprime = [graph.oracle.degree(x) for x in support]
    dbase = [graph.base_oracle.degree(x) for x in support]
    return min(dprime) / max(dbase), max(dprime) / min(dbase)


def pendant_everywhere():
    """The pendant chain viewed as a perturbation of Z."""
    z = make_lattice(1)
    patch = PredicatePatch(
        keep=lambda v: True,
        added_contains=lambda v: v.label == 1,
        added_neighbors=lambda v: (
            (Vertex(v.cell, 1),)
            if v.label == 0
            else ((Vertex(v.cell, 0),) if v.label == 1 else ())
        ),
        added_in_cell=lambda c: (Vertex(c, 1),),
    )
    return PerturbedGraph(z, patch, name="pendant_everywhere")


class TestUnperturbedSet:
    def test_cone_closed_form(self, cone):
        graph = cone.perturbation
        assert in_unperturbed_set(graph, vert(1, 1))
        assert not in_unperturbed_set(graph, vert(3, 0))
        assert not in_unperturbed_set(graph, vert(0, 5))

    def test_half_plane_closed_form(self, half_plane):
        graph = half_plane.perturbation
        assert in_unperturbed_set(graph, vert(0, 1))
        assert not in_unperturbed_set(graph, vert(5, 0))

    def test_random_pendant_reduces_to_field(self, random_pendant_half):
        graph = random_pendant_half.perturbation
        reference = random_pendant_half.reference_lambda
        for x in range(-20, 21):
            for y in range(-20, 21):
                v = vert(x, y)
                assert in_unperturbed_set(graph, v) == reference(v)

    @pytest.mark.parametrize("name", ["cone", "half_plane"])
    def test_closed_forms_on_large_window(self, name, request):
        entry = request.getfixturevalue(name)
        graph = entry.perturbation
        mismatches = 0
        for x in range(-50, 50):
            for y in range(-50, 50):
                v = vert(x, y)
                if not graph.in_common(v):
                    continue
                if in_unperturbed_set(graph, v) != entry.reference_lambda(v):
                    mismatches += 1
        assert mismatches == 0

    def test_outside_common_subgraph_rejected(self, half_plane):
        with pytest.raises(VertexNotInCommonSubgraphError):
            in_unperturbed_set(half_plane.perturbation, vert(0, -3))

    def test_counterexample_untouched_pendants(self, counterexample):
        graph = counterexample.perturbation
        # the decorated chain loses membership for x >= 0, its pendant does not
        assert in_unperturbed_set(graph, vert(-3))
        assert in_unperturbed_set(graph, vert(-3, label=1))
        assert not in_unperturbed_set(graph, vert(2))
        assert in_unperturbed_set(graph, vert(2, label=1))


class TestConditionSearch:
    def test_cone_first_center(self, cone):
        report = find_unperturbed_box(cone.perturbation, 3, ((0, 20), (0, 20)))
        assert report.center == vert(4, 4)
        assert report.box_bounds == (-3, 3)

    def test_half_plane_center_height(self, half_plane):
        report = find_unperturbed_box(
            half_plane.perturbation, 5, ((-10, 10), (0, 20))
        )
        assert report.center is not None
        assert report.center.cell[1] == 6

    def test_pendant_everywhere_has_no_box(self):
        graph = pendant_everywhere()
        for n in (1, 2, 3):
            report = find_unperturbed_box(graph, n, ((-10, 10),))
            assert report.center is None
            assert report.searched == 21

    def test_monotone_in_radius(self, cone):
        graph = cone.perturbation
        report = find_unperturbed_box(graph, 4, ((0, 30), (0, 30)))
        assert report.center is not None
        for smaller in (1, 2, 3):
            assert box_is_clear(graph, report.center.cell, smaller)

    def test_bad_radius_rejected(self, cone):
        with pytest.raises(InputError):
            find_unperturbed_box(cone.perturbation, 0, ((0, 5), (0, 5)))


class TestEmbedding:
    def test_delta_transplant(self, half_plane):
        graph = half_plane.perturbation
        out = embed_state(graph, {vert(2, 3): 1.0})
        assert out == {vert(2, 3): 1.0}

    def test_outside_common_subgraph_dropped(self, half_plane):
        graph = half_plane.perturbation
        out = embed_state(graph, {vert(0, -2): 1.0, vert(0, -5): 2.0})
        assert out == {}

    def test_norm_inflation_three_halves(self, rng):
        graph = pendant_everywhere()
        for _ in range(10):
            cells = rng.integers(-30, 31, size=6)
            vals = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi = {vert(int(c)): complex(v) for c, v in zip(cells, vals)}
            base = weighted_norm(psi, graph.base_oracle)
            lifted = weighted_norm(embed_state(graph, psi), graph.oracle)
            assert lifted**2 == pytest.approx(1.5 * base**2, rel=1e-12)

    def test_bounds_unchanged_degrees(self, half_plane):
        graph = half_plane.perturbation
        support = [vert(x, 3) for x in range(5)]
        assert embedding_norm_bounds(graph, support) == (1.0, 1.0)

    def test_bounds_uniform_ratio(self):
        graph = pendant_everywhere()
        support = [vert(m) for m in range(4)]
        lo, hi = embedding_norm_bounds(graph, support)
        assert lo == pytest.approx(np.sqrt(1.5))
        assert hi == pytest.approx(np.sqrt(1.5))
        assert degree_ratio_bounds(graph, support) == (1.5, 1.5)

    def test_bounds_mixed_ratios(self, half_plane):
        graph = half_plane.perturbation
        support = [vert(0, 0), vert(0, 5)]  # degrees 3 and 4 against base 4
        lo, hi = embedding_norm_bounds(graph, support)
        assert lo == pytest.approx(np.sqrt(3.0 / 4.0))
        assert hi == pytest.approx(1.0)

    def test_bounds_mix_of_inflated_and_unchanged(self):
        # pendants on x >= 0 only: ratios 3/2 there, 1 elsewhere
        z = make_lattice(1)
        patch = PredicatePatch(
            keep=lambda v: True,
            added_contains=lambda v: v.label == 1 and v.cell[0] >= 0,
            added_neighbors=lambda v: (
                (Vertex(v.cell, 1),)
                if v.label == 0 and v.cell[0] >= 0
                else ((Vertex(v.cell, 0),) if v.label == 1 and v.cell[0] >= 0 else ())
            ),
        )
        graph = PerturbedGraph(z, patch)
        support = [vert(-2), vert(3)]
        lo, hi = embedding_norm_bounds(graph, support)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(np.sqrt(1.5))

    def test_empty_support_rejected(self, half_plane):
        with pytest.raises(EmptySupportError):
            embedding_norm_bounds(half_plane.perturbation, [])

    def test_injectivity_lower_bound(self, cone, rng):
        graph = cone.perturbation
        for _ in range(200):
            cells = rng.integers(0, 40, size=(5, 2))
            vals = rng.normal(size=5)
            psi = {
                vert(int(x), int(y)): float(v)
                for (x, y), v in zip(cells, vals)
            }
            base = weighted_norm(psi, graph.base_oracle)
            if base == 0.0:
                continue
            lo, _ = embedding_norm_bounds(graph, list(psi))
            lifted = weighted_norm(embed_state(graph, psi), graph.oracle)
            assert lifted >= lo * base - 1e-12
            assert lifted > 0.0


class TestDefect:
    def test_zero_over_unperturbed_image(self, cone, rng):
        graph = cone.perturbation
        for _ in range(20):
            cells = rng.integers(0, 12, size=(4, 2))
            psi = {
                vert(int(x), int(y)): complex(rng.normal())
                for (x, y) in cells
            }
            out = apply_defect(graph, psi)
            for v, val in out.items():
                if graph.in_common(v) and in_unperturbed_set(graph, v):
                    assert val == 0.0

    def test_interior_delta_annihilated(self, half_plane):
        graph = half_plane.perturbation
        # all neighbors of (0, 3) lie in the unperturbed set
        out = apply_defect(graph, {vert(0, 3): 1.0})
        assert all(v == 0.0 for v in out.values())

    def test_boundary_delta_not_annihilated(self, half_plane):
        graph = half_plane.perturbation
        out = apply_defect(graph, {vert(0, 1): 1.0})
        assert any(v != 0.0 for v in out.values())

    @pytest.mark.parametrize("name", ["half_plane", "cone"])
    def test_weyl_state_annihilated_exactly(self, name, request):
        entry = request.getfixturevalue(name)
        graph = entry.perturbation
        window = ((0, 40), (0, 40))
        state = build_weyl_state(graph, 0.0, 4, window)
        out = apply_defect(graph, state.base_vector)
        assert max(abs(v) for v in out.values()) == 0.0

    @pytest.mark.parametrize(
        "name", ["half_plane", "cone", "counterexample", "random_pendant_half"]
    )
    def test_intertwining_on_interior(self, name, rng, request):
        entry = request.getfixturevalue(name)
        graph = entry.perturbation
        base_oracle = graph.base_oracle
        dim = graph.base.dim
        checked = 0
        attempts = 0
        while checked < 1000 and attempts < 20000:
            attempts += 1
            cell = tuple(int(c) for c in rng.integers(-25, 26, size=dim))
            label = int(rng.integers(0, graph.base.cell_size))
            x = Vertex(cell, label)
            if not graph.in_common(x) or not in_unperturbed_set(graph, x):
                continue
            psi = _state_near(x, base_oracle, rng)
            lhs = embed_state(graph, apply_laplacian(psi, base_oracle))
            rhs = apply_laplacian(embed_state(graph, psi), graph.oracle)
            assert abs(lhs.get(x, 0.0) - rhs.get(x, 0.0)) < 1e-14
            checked += 1
        assert checked == 1000


def _state_near(x, oracle, rng):
    layer = {x}
    for v in oracle.out_edges(x):
        layer.add(v)
        layer.update(oracle.out_edges(v))
    vals = rng.normal(size=len(layer)) + 1j * rng.normal(size=len(layer))
    state = {
        v: complex(val)
        for v, val in zip(sorted(layer, key=lambda u: (u.cell, u.label)), vals)
    }
    norm = weighted_norm(state, oracle)
    return {v: val / norm for v, val in state.items()}


class TestExplicitPatch:
    def test_remove_vertex_and_add_pendant(self, lattice1):
        patch = Patch(
            removed_vertices=frozenset({vert(0)}),
            added_vertices=frozenset({vert(5, label=1)}),
            added_edges=((vert(5), vert(5, label=1)),),
        )
        graph = PerturbedGraph(lattice1, patch)
        assert not graph.oracle.contains(vert(0))
        assert graph.oracle.degree(vert(1)) == 1
        assert graph.oracle.degree(vert(5)) == 3
        assert graph.oracle.degree(vert(5, label=1)) == 1
        assert not in_unperturbed_set(graph, vert(1))
        assert not in_unperturbed_set(graph, vert(5))
        assert in_unperturbed_set(graph, vert(3))

    def test_remove_edge(self, lattice1):
        patch = Patch(removed_edges=((vert(0), vert(1)),))
        graph = PerturbedGraph(lattice1, patch)
        assert graph.oracle.degree(vert(0)) == 1
        assert graph.oracle.degree(vert(1)) == 1
        assert graph.oracle.degree(vert(2)) == 2
        assert not in_unperturbed_set(graph, vert(0))
        assert not in_unperturbed_set(graph, vert(1))
        assert in_unperturbed_set(graph, vert(2))

    def test_added_edge_to_absent_vertex_rejected(self, lattice1):
        with pytest.raises(InputError):
            PerturbedGraph(
                lattice1,
                Patch(added_edges=((vert(0), vert(0, label=3)),)),
            )

    def test_removed_vertex_added_back(self, lattice2):
        # (0, 0) loses its base edges and returns as an added vertex with one
        # added edge to (1, 0)
        x = vert(0, 0)
        patch = Patch(
            removed_vertices=frozenset({x}),
            added_vertices=frozenset({x}),
            added_edges=((x, vert(1, 0)),),
        )
        graph = PerturbedGraph(lattice2, patch)
        assert graph.oracle.contains(x)
        assert not graph.in_common(x)
        assert graph.oracle.out_edges(x) == (vert(1, 0),)
        assert graph.oracle.out_edges(vert(1, 0)).count(x) == 1
        assert graph.oracle.degree(vert(0, 1)) == 3
        assert embed_state(graph, {x: 2.0, vert(1, 0): 1.0}) == {vert(1, 0): 1.0}
        box = truncate(graph.oracle, ((-2, 2), (-2, 2)))
        assert len(box) == 25
        assert box.degrees[box.index[vert(1, 0)]] == 4
        assert box.degrees[box.index[x]] == 1
        region = Region(graph, (0, 0), 2)
        assert x in region.names[region.kept:]
        assert not region.unperturbed[region.names.index(x)]

    def test_removed_vertex_prunes_incident_removed_edges(self, lattice1):
        patch = Patch(
            removed_vertices=frozenset({vert(0)}),
            removed_edges=((vert(0), vert(1)),),
        )
        graph = PerturbedGraph(lattice1, patch)
        assert graph.oracle.degree(vert(1)) == 1


class TestLambdaCache:
    def test_cached_answers_stable(self, cone):
        graph = cone.perturbation
        first = [in_unperturbed_set(graph, vert(x, 1)) for x in range(20)]
        second = [in_unperturbed_set(graph, vert(x, 1)) for x in range(20)]
        assert first == second


class TestPerturbedOracleSymmetry:
    @pytest.mark.parametrize(
        "name", ["cone", "half_plane", "counterexample", "random_pendant_half"]
    )
    def test_adjacency_symmetric_with_multiplicity(self, name, rng, request):
        entry = request.getfixturevalue(name)
        graph = entry.perturbation
        oracle = graph.oracle
        dim = graph.base.dim
        audited = 0
        while audited < 2000:
            cell = tuple(int(c) for c in rng.integers(-30, 31, size=dim))
            for v in oracle.vertices_in_cell(cell):
                targets = oracle.out_edges(v)
                assert oracle.degree(v) == len(targets) >= 1
                for u in set(targets):
                    assert targets.count(u) == oracle.out_edges(u).count(v)
                    audited += 1
