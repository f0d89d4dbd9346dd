import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    FundEdge,
    Vertex,
    build_periodic,
    periodic_oracle,
    propagation_length,
    vert,
)
from periodic_spectra.errors import (
    DimensionMismatchError,
    IsolatedVertexError,
    VertexNotInGraphError,
)

from reference import apply_laplacian, weighted_inner, weighted_norm


def as_multiset(targets):
    out = {}
    for t in targets:
        out[t] = out.get(t, 0) + 1
    return out


class TestBuildPeriodic:
    def test_z_lattice(self):
        g = build_periodic(1, 1, [FundEdge(0, 0, (1,))])
        assert g.degrees == (2,)

    def test_z2_lattice(self):
        g = build_periodic(2, 1, [FundEdge(0, 0, (1, 0)), FundEdge(0, 0, (0, 1))])
        assert g.degrees == (4,)

    def test_pendant_chain(self):
        g = build_periodic(1, 2, [FundEdge(0, 0, (1,)), FundEdge(0, 1, (0,))])
        assert g.degrees == (3, 1)

    def test_isolated_label_rejected(self):
        with pytest.raises(IsolatedVertexError):
            build_periodic(1, 2, [FundEdge(0, 0, (1,))])

    def test_huge_cell_size_rejected_before_allocating(self):
        # a list of 10**12 degrees would need 8 TB; one edge covers label 0 only
        with pytest.raises(IsolatedVertexError, match="^label 1 has no incident edges$"):
            build_periodic(1, 10**12, [FundEdge(0, 0, (1,))])

    def test_wrong_index_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_periodic(2, 1, [FundEdge(0, 0, (1,))])

    def test_loop_counts_twice(self):
        g = build_periodic(1, 1, [FundEdge(0, 0, (0,)), FundEdge(0, 0, (1,))])
        assert g.degrees == (4,)

    def test_parallel_edges_kept(self):
        with pytest.warns(UserWarning):
            g = build_periodic(1, 2, [FundEdge(0, 1, (0,)), FundEdge(0, 1, (0,))])
        assert g.degrees == (2, 2)

    def test_zero_index_graph_warns(self):
        with pytest.warns(UserWarning):
            g = build_periodic(1, 2, [FundEdge(0, 1, (0,))])
        assert propagation_length(g) == 0


class TestOracle:
    def test_z_neighbors(self, lattice1):
        o = periodic_oracle(lattice1)
        targets = o.out_edges(vert(5))
        assert as_multiset(targets) == {vert(4): 1, vert(6): 1}

    def test_pendant_chain_neighbors(self, g11):
        o = periodic_oracle(g11.base)
        targets = o.out_edges(vert(0))
        assert as_multiset(targets) == {vert(1): 1, vert(-1): 1, vert(0, label=1): 1}
        assert o.degree(vert(0)) == 3
        assert o.degree(vert(0, label=1)) == 1

    def test_z2_neighbors(self, lattice2):
        o = periodic_oracle(lattice2)
        targets = o.out_edges(vert(0, 0))
        assert as_multiset(targets) == {
            vert(1, 0): 1,
            vert(-1, 0): 1,
            vert(0, 1): 1,
            vert(0, -1): 1,
        }

    def test_loop_listed_twice(self):
        g = build_periodic(1, 1, [FundEdge(0, 0, (0,)), FundEdge(0, 0, (1,))])
        o = periodic_oracle(g)
        assert as_multiset(o.out_edges(vert(3))) == {vert(3): 2, vert(2): 1, vert(4): 1}

    def test_unknown_vertex_rejected(self, lattice1):
        o = periodic_oracle(lattice1)
        with pytest.raises(VertexNotInGraphError):
            o.out_edges(vert(0, label=5))

    @pytest.mark.parametrize(
        "maker", ["lattice1", "lattice2", "g11", "g21"]
    )
    def test_symmetry_audit(self, maker, rng, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        o = periodic_oracle(graph)
        cells = rng.integers(-50, 51, size=(10_000, graph.dim))
        labels = rng.integers(0, graph.cell_size, size=10_000)
        for cell, label in zip(cells, labels):
            v = Vertex(tuple(int(c) for c in cell), int(label))
            for u in set(o.out_edges(v)):
                forward = o.out_edges(v).count(u)
                backward = o.out_edges(u).count(v)
                assert forward == backward, (v, u)


class TestPropagationLength:
    def test_z(self, lattice1):
        assert propagation_length(lattice1) == 1

    def test_z2(self, lattice2):
        assert propagation_length(lattice2) == 1

    def test_long_edge(self):
        g = build_periodic(1, 1, [FundEdge(0, 0, (3,))])
        assert propagation_length(g) == 3


class TestWeightedNorm:
    def test_single_vertex_degree_three(self, g11):
        o = periodic_oracle(g11.base)
        assert weighted_norm({vert(0): 1.0}, o) == pytest.approx(np.sqrt(3.0))

    def test_two_pendants_unit(self, g11):
        o = periodic_oracle(g11.base)
        psi = {vert(0, label=1): 1 / np.sqrt(2), vert(1, label=1): -1 / np.sqrt(2)}
        assert weighted_norm(psi, o) == pytest.approx(1.0)

    def test_zero_state(self, lattice1):
        assert weighted_norm({}, periodic_oracle(lattice1)) == 0.0

    def test_unknown_support_rejected(self, lattice1):
        o = periodic_oracle(lattice1)
        with pytest.raises(VertexNotInGraphError):
            weighted_norm({vert(0, label=2): 1.0}, o)


class TestLaplacian:
    def test_delta_on_z(self, lattice1):
        o = periodic_oracle(lattice1)
        out = apply_laplacian({vert(0): 1.0}, o)
        assert out[vert(1)] == pytest.approx(0.5)
        assert out[vert(-1)] == pytest.approx(0.5)
        assert out[vert(0)] == 0.0

    def test_row_stochastic_on_constants(self, lattice2):
        o = periodic_oracle(lattice2)
        window = {
            vert(x, y): 1.0 for x in range(-2, 3) for y in range(-2, 3)
        }
        out = apply_laplacian(window, o)
        assert out[vert(0, 0)] == pytest.approx(1.0, abs=1e-15)

    def test_pendant_delta(self, g11):
        o = periodic_oracle(g11.base)
        out = apply_laplacian({vert(0, label=1): 1.0}, o)
        assert out[vert(0)] == pytest.approx(1.0 / 3.0)
        assert out[vert(0, label=1)] == 0.0

    @pytest.mark.parametrize("maker", ["lattice1", "lattice2", "g11", "g21"])
    def test_self_adjoint_in_weighted_product(self, maker, rng, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        o = periodic_oracle(graph)
        for _ in range(25):
            psi = _random_state(graph, rng)
            phi = _random_state(graph, rng)
            lhs = weighted_inner(psi, apply_laplacian(phi, o), o)
            rhs = weighted_inner(apply_laplacian(psi, o), phi, o)
            assert abs(lhs - rhs) < 1e-12


def _random_state(graph, rng):
    cells = rng.integers(-6, 7, size=(8, graph.dim))
    labels = rng.integers(0, graph.cell_size, size=8)
    values = rng.normal(size=8) + 1j * rng.normal(size=8)
    return {
        Vertex(tuple(int(c) for c in cell), int(label)): complex(val)
        for cell, label, val in zip(cells, labels, values)
    }


edge_strategy = st.builds(
    FundEdge,
    st.integers(0, 2),
    st.integers(0, 2),
    st.tuples(st.integers(-2, 2)),
)


@st.composite
def small_graphs(draw):
    s = draw(st.integers(1, 3))
    edges = draw(
        st.lists(
            st.builds(
                FundEdge,
                st.integers(0, s - 1),
                st.integers(0, s - 1),
                st.tuples(st.integers(-2, 2)),
            ),
            min_size=s,
            max_size=6,
        )
    )
    touched = set()
    for e in edges:
        touched.add(e.origin)
        touched.add(e.target)
    if touched != set(range(s)):
        # repair: tie any untouched label into the chain
        for label in range(s):
            if label not in touched:
                edges.append(FundEdge(label, 0, (1,)))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_periodic(1, s, edges)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_oracle_symmetry_property(graph):
    o = periodic_oracle(graph)
    for label in range(graph.cell_size):
        v = Vertex((0,), label)
        for u in set(o.out_edges(v)):
            assert o.out_edges(v).count(u) == o.out_edges(u).count(v)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_degree_equals_out_edge_count(graph):
    o = periodic_oracle(graph)
    for label in range(graph.cell_size):
        v = Vertex((5,), label)
        assert o.degree(v) == len(o.out_edges(v)) == graph.degrees[label]
