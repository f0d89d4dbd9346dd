import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    band_eigensystem,
    band_values,
    essential_spectrum,
    fiber_matrices,
    get_entry,
    locate_band_value,
    propagation_length,
)
from periodic_spectra.errors import DimensionMismatchError, InputError, NotInSpectrumError
from periodic_spectra import floquet
from periodic_spectra.catalog import entry_names
from periodic_spectra.floquet import _band_union, _fiber_assembler

from reference import band_grid, grid_points, locate_on_whole_grid
from test_graphs import small_graphs


def row_normalized(graph, k) -> np.ndarray:
    """Reference fiber matrix, assembled per k: entry (i, j) sums
    exp(i k.index)/deg_i over the oriented templates from label i to label j."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    m = np.zeros((graph.cell_size, graph.cell_size), dtype=complex)
    for e in graph.oriented_edges():
        m[e.origin, e.target] += np.exp(1j * float(np.dot(k, e.index))) / graph.degrees[e.origin]
    return m


def reference_bands(graph, k) -> np.ndarray:
    """Ascending eigenvalues of ``row_normalized`` through the degree
    similarity ``D^{1/2} M D^{-1/2}``, symmetrized."""
    sq = np.sqrt(np.asarray(graph.degrees, dtype=float))
    h = sq[:, None] * row_normalized(graph, k) / sq[None, :]
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


def pulled_back(graph, k) -> np.ndarray:
    """``D^{-1/2} fiber_matrices D^{1/2}`` at one k: the assembler's symmetric
    form carried back to the row-normalized operator."""
    sq = np.sqrt(np.asarray(graph.degrees, dtype=float))
    h = fiber_matrices(graph, np.reshape(np.asarray(k, dtype=float), (1, -1)))[0]
    return h / sq[:, None] * sq[None, :]


CATALOG = ["lattice1", "lattice2", "lattice3", "g11", "g21"]


class TestAssembly:
    def test_z_is_cosine(self, lattice1):
        for k in (0.0, 0.3, np.pi / 2, np.pi):
            m = pulled_back(lattice1, [k])
            assert m.shape == (1, 1)
            assert m[0, 0] == pytest.approx(np.cos(k), abs=1e-15)

    def test_pendant_chain_matrix(self, g11):
        k = 0.7
        m = pulled_back(g11.base, [k])
        expected = np.array(
            [[2.0 * np.cos(k) / 3.0, 1.0 / 3.0], [1.0, 0.0]], dtype=complex
        )
        assert np.allclose(m, expected, atol=1e-15)

    @pytest.mark.parametrize("maker", ["lattice1", "lattice2", "g11", "g21"])
    def test_row_sums_one_at_zero(self, maker, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        m = pulled_back(graph, [0.0] * graph.dim)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("maker", ["lattice2", "g11", "g21"])
    def test_degree_similarity_hermitian(self, maker, rng, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        ks = rng.uniform(0.0, 2.0 * np.pi, size=(20, graph.dim))
        h = fiber_matrices(graph, ks)
        assert h.shape == (20, graph.cell_size, graph.cell_size)
        assert np.array_equal(h, np.conj(np.swapaxes(h, 1, 2)))

    @pytest.mark.parametrize("name", CATALOG)
    def test_pullback_matches_row_normalized(self, name, rng):
        graph = get_entry(name).base
        for k in rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(20, graph.dim)):
            assert np.allclose(pulled_back(graph, k), row_normalized(graph, k), rtol=0, atol=1e-15)

    def test_wrong_shape_rejected(self, lattice2):
        for ks in (np.zeros((3, 3)), np.zeros(2), np.zeros((1, 2, 1))):
            with pytest.raises(DimensionMismatchError):
                fiber_matrices(lattice2, ks)


@given(small_graphs(), st.floats(-2 * np.pi, 2 * np.pi))
@settings(max_examples=80, deadline=None)
def test_pullback_matches_row_normalized_on_small_graphs(graph, k):
    # small graphs carry loops, parallel edges and two-cell hops
    assert np.allclose(pulled_back(graph, [k]), row_normalized(graph, [k]), rtol=0, atol=1e-15)


def exp_per_template(graph, ks) -> np.ndarray:
    """Reference assembly with one complex ``exp`` per oriented template, in
    ``oriented_edges`` order; a template whose index repeats the previous
    one's reuses its phase.  The assembler pairs each template with its
    reversal instead and must give the same bits."""
    d = np.asarray(graph.degrees, dtype=float)
    h = np.zeros((ks.shape[0], graph.cell_size, graph.cell_size), dtype=complex)
    previous = None
    for e in graph.oriented_edges():
        if e.index != previous:
            phase = np.exp(1j * (ks @ np.asarray(e.index, dtype=float)))
        h[:, e.origin, e.target] += phase / np.sqrt(d[e.origin] * d[e.target])
        previous = e.index
    return 0.5 * (h + np.conj(np.swapaxes(h, 1, 2)))


def assert_same_bits(graph, ks):
    ks = np.asarray(ks, dtype=float)
    got = _fiber_assembler(graph)(ks)
    want = exp_per_template(graph, ks)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def catalog_graphs():
    for name in entry_names():
        params = {"p": 0.5, "seed": 7} if name == "random_pendant" else {}
        yield get_entry(name, **params).base


@pytest.mark.parametrize("graph", list(catalog_graphs()), ids=entry_names())
def test_paired_phases_match_exp_per_template(graph, rng):
    # a whole grid and random points, then one row at a time as the
    # probes of locate_band_value
    ks = np.concatenate([
        grid_points(graph.dim, 8),
        rng.uniform(-50.0, 50.0, size=(200, graph.dim)),
        -grid_points(graph.dim, 4),
    ])
    assert_same_bits(graph, ks)
    for row in ks[::17]:
        assert_same_bits(graph, row[None, :])


@given(
    small_graphs(),
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40),
)
@settings(max_examples=80, deadline=None)
def test_paired_phases_match_exp_per_template_on_small_graphs(graph, ks):
    # small graphs carry loops, parallel edges and zero-index templates
    ks = np.asarray(ks)[:, None]
    assert_same_bits(graph, ks)
    assert_same_bits(graph, ks[:1])


def test_grid_points_match_meshgrid():
    for dim, grid in ((1, 2), (1, 64), (2, 16), (3, 8)):
        axis = 2.0 * np.pi * np.arange(grid, dtype=float) / grid
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        expected = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        got = grid_points(dim, grid)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


class TestEigensystem:
    def test_z_at_pi(self, lattice1):
        lambdas, _ = band_eigensystem(lattice1, [np.pi])
        assert lambdas == pytest.approx([-1.0])

    def test_pendant_chain_at_zero(self, g11):
        lambdas, _ = band_eigensystem(g11.base, [0.0])
        assert lambdas == pytest.approx([-1.0 / 3.0, 1.0])

    def test_pendant_chain_at_pi(self, g11):
        lambdas, _ = band_eigensystem(g11.base, [np.pi])
        assert lambdas == pytest.approx([-1.0, 1.0 / 3.0])

    def test_eigenvector_residual_weighted(self, g21):
        graph = g21.base
        d = np.asarray(graph.degrees, dtype=float)
        for k in (0.0, 0.4, 2.0):
            m = row_normalized(graph, [k])
            lambdas, vectors = band_eigensystem(graph, [k])
            for i in range(graph.cell_size):
                xi = vectors[:, i]
                r = m @ xi - lambdas[i] * xi
                weighted = np.sqrt(np.sum(np.abs(r) ** 2 * d))
                assert weighted <= 1e-9
                cell_norm = np.sum(np.abs(xi) ** 2 * d)
                assert cell_norm == pytest.approx(1.0, abs=1e-12)

    def test_wrong_shape_rejected(self, lattice2, g11):
        for graph, k in ((lattice2, [0.1]), (lattice2, [0.1, 0.2, 0.3]), (g11.base, [[0.1], [0.2]])):
            with pytest.raises(DimensionMismatchError):
                band_eigensystem(graph, k)

    @pytest.mark.parametrize("maker", ["lattice1", "lattice2", "g11", "g21"])
    def test_top_eigenvalue_at_zero_is_one(self, maker, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        lambdas, vectors = band_eigensystem(graph, [0.0] * graph.dim)
        assert lambdas[-1] == pytest.approx(1.0, abs=1e-12)
        top = vectors[:, -1]
        assert np.allclose(top / top[0], np.ones(graph.cell_size), atol=1e-9)


class TestEssentialSpectrum:
    def test_z2_full_interval(self, lattice2):
        spec = essential_spectrum(lattice2, 64)
        assert len(spec.intervals) == 1
        lo, hi = spec.intervals[0]
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_pendant_chain_bands(self, g11):
        spec = essential_spectrum(g11.base, 64)
        assert len(spec.intervals) == 2
        flat = [x for pair in spec.intervals for x in pair]
        assert flat == pytest.approx([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0], abs=1e-12)
        assert spec.flat_points == ()

    def test_alternating_chain_flat_band(self, g21):
        spec = essential_spectrum(g21.base, 64)
        assert len(spec.intervals) == 3
        root3 = np.sqrt(3.0)
        flat = [x for pair in spec.intervals for x in pair]
        assert flat == pytest.approx(
            [-1.0, -1.0 / root3, 0.0, 0.0, 1.0 / root3, 1.0], abs=1e-12
        )
        assert spec.flat_points == pytest.approx([0.0])

    def test_odd_grid_rejected(self, lattice1):
        with pytest.raises(InputError, match="got 63"):
            essential_spectrum(lattice1, 63)

    def test_flat_band_inside_wide_band_still_recorded(self):
        # two disconnected components in one cell: a chain (band [-1, 1]) and
        # an isolated edge pair (flat bands at -1 and +1); after merging, the
        # flat points must survive even though their intervals are swallowed
        from periodic_spectra import build_periodic
        from periodic_spectra.graphs import FundEdge

        g = build_periodic(
            1, 3, [FundEdge(0, 0, (1,)), FundEdge(1, 2, (0,))]
        )
        spec = essential_spectrum(g, 64)
        assert spec.intervals == ((-1.0, 1.0),)
        assert spec.flat_points == pytest.approx([-1.0, 1.0])

    def test_multi_edge_and_loop_bands(self):
        # loops shift weight to the diagonal; parallel edges double a hop
        from periodic_spectra import build_periodic
        from periodic_spectra.graphs import FundEdge

        g = build_periodic(
            1,
            1,
            [FundEdge(0, 0, (0,)), FundEdge(0, 0, (1,)), FundEdge(0, 0, (1,))],
        )
        assert g.degrees == (6,)
        m = pulled_back(g, [0.3])
        expected = (2.0 + 4.0 * np.cos(0.3)) / 6.0
        assert m[0, 0] == pytest.approx(expected, abs=1e-15)
        spec = essential_spectrum(g, 64)
        assert spec.intervals[0][0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert spec.intervals[0][1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("maker", ["lattice1", "g11", "g21"])
    def test_grid_refinement_stability(self, maker, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        for grid in (16, 32, 64):
            coarse = essential_spectrum(graph, grid)
            fine = essential_spectrum(graph, 2 * grid)
            budget = propagation_length(graph) * graph.cell_size * 2 * np.pi / grid
            assert len(coarse.intervals) == len(fine.intervals)
            for (a, b), (c, d) in zip(coarse.intervals, fine.intervals):
                assert abs(a - c) < budget
                assert abs(b - d) < budget


class TestBandSymmetry:
    @pytest.mark.parametrize("maker", ["lattice2", "g11", "g21"])
    def test_lambda_even_in_k(self, maker, rng, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        for _ in range(20):
            k = rng.uniform(0, 2 * np.pi, size=graph.dim)
            plus = band_eigensystem(graph, k)
            minus = band_eigensystem(graph, -k)
            assert np.allclose(plus[0], minus[0], atol=1e-10)


class TestLocate:
    def test_z_bottom(self, lattice1):
        band, k, xi = locate_band_value(lattice1, -1.0, 64)
        assert band == 0
        assert abs(k[0] - np.pi) < 1e-3
        assert abs(np.cos(k[0]) + 1.0) <= 1e-8

    def test_pendant_chain_inner_edge(self, g11):
        band, k, xi = locate_band_value(g11.base, 1.0 / 3.0, 64)
        assert band == 1
        assert abs(k[0] - np.pi) < 1e-3

    def test_z2_midband(self, lattice2):
        band, k, xi = locate_band_value(lattice2, 0.0, 64)
        value = 0.5 * (np.cos(k[0]) + np.cos(k[1]))
        assert abs(value) <= 1e-8

    def test_off_band_rejected(self, g11):
        with pytest.raises(NotInSpectrumError):
            locate_band_value(g11.base, 0.0, 64)

    def test_refinement_miss_rejected(self, lattice2):
        # within _MATCH_TOL of the band top 1, so only the refinement sees the miss
        message = "band 0 misses 1.0000005 by 5.000e-07 at k = ("
        with pytest.raises(NotInSpectrumError, match=re.escape(message)):
            locate_band_value(lattice2, 1.0000005, 64)

    def test_generic_targets_hit(self, g21):
        spec = essential_spectrum(g21.base, 64)
        for target in (-0.95, -0.7, 0.0, 0.6, 0.99):
            if spec.distance(target) > 1e-6:
                continue
            band, k, xi = locate_band_value(g21.base, target, 64)
            lambdas, _ = band_eigensystem(g21.base, k)
            assert abs(lambdas[band] - target) <= 1e-8

    @pytest.mark.parametrize("grid", [8, 64])
    @pytest.mark.parametrize("name", ["lattice2", "g21", "lattice3"])
    def test_equals_the_whole_grid_route_bit_for_bit(self, name, grid):
        """Started from ``band_values`` and the k of its best row alone, the
        located band, k and eigenvector have the bits of the route that
        starts from the whole grid's ``band_grid``, and a miss is a miss on
        both."""
        graph = get_entry(name).base
        located = 0
        for target in (-0.9, -1.0 / 3.0, 0.0, 0.45, 0.8, 1.2):
            try:
                band, k, xi = locate_on_whole_grid(graph, target, grid)
            except NotInSpectrumError:
                with pytest.raises(NotInSpectrumError):
                    locate_band_value(graph, target, grid)
                continue
            got = locate_band_value(graph, target, grid)
            assert got[0] == band
            assert got[1].tobytes() == k.tobytes() and got[2].tobytes() == xi.tobytes()
            located += 1
        assert located >= 3


@given(small_graphs(), st.floats(0.0, 2 * np.pi))
@settings(max_examples=80, deadline=None)
def test_spectrum_inside_unit_interval(graph, k):
    lambdas, _ = band_eigensystem(graph, [k])
    assert np.all(lambdas >= -1.0 - 1e-9)
    assert np.all(lambdas <= 1.0 + 1e-9)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_batched_grid_matches_single_point(graph):
    ks, lambdas = band_grid(graph, 8)
    for row in range(0, ks.shape[0], 3):
        assert np.allclose(reference_bands(graph, ks[row]), lambdas[row], atol=1e-12)


def test_brute_force_ring_cross_check(lattice1, g11):
    # periodic ring of 256 cells: eigenvalues must fall inside the sampled
    # bands; the dense solve, not spectrum_of_box, which solves wraps by fibers
    from periodic_spectra import periodic_oracle, truncate

    for graph in (lattice1, g11.base):
        ring = truncate(periodic_oracle(graph), ((0, 255),), periodic_wrap=True)
        eigs = np.linalg.eigvalsh(ring.normalized_symmetric())
        spec = essential_spectrum(graph, 256)
        assert all(spec.distance(x) <= 1e-9 for x in eigs)


@pytest.mark.parametrize("name", entry_names())
def test_half_torus_equals_full_grid_union(name):
    """``essential_spectrum`` diagonalizes only the grid rows with
    ``m_1 <= grid/2``; the union over the full grid is the same."""
    params = {"p": 0.5, "seed": 7} if name == "random_pendant" else {}
    graph = get_entry(name, **params).base
    for grid in (2, 6, 16 if graph.dim == 3 else 64):
        half = essential_spectrum(graph, grid)
        full = _band_union(band_grid(graph, grid)[1], grid)
        assert len(half.intervals) == len(full.intervals)
        assert np.max(np.abs(np.subtract(half.intervals, full.intervals))) <= 1e-15
        assert np.allclose(half.flat_points, full.flat_points, rtol=0, atol=1e-15)


def catalog_base(name):
    params = {"p": 0.5, "seed": 7} if name == "random_pendant" else {}
    return get_entry(name, **params).base


@given(
    name=st.sampled_from(entry_names()),
    grid=st.sampled_from([2, 4, 6, 10, 16]),
    slab=st.sampled_from([1, 3, 7, 1 << 20]),
)
@settings(max_examples=120, deadline=None)
def test_slabs_give_the_bits_of_one_batch(name, grid, slab):
    """Band values taken ``_SLAB_ROWS`` grid rows at a time, and the
    intervals and flat points of ``essential_spectrum``, have the bits of
    one ``eigvalsh`` over the fiber matrices of the whole grid."""
    graph = catalog_base(name)
    grid = min(grid, 6) if graph.dim == 3 else grid
    whole = band_grid(graph, grid)[1]
    half = (grid // 2 + 1) * grid ** (graph.dim - 1)
    expected = _band_union(whole[:half], grid)
    with mock.patch.object(floquet, "_SLAB_ROWS", slab):
        values = band_values(graph, grid)
        spec = essential_spectrum(graph, grid)
    assert values.shape == whole.shape
    assert np.array_equal(values.view(np.uint64), whole.view(np.uint64))
    for got, want in [(spec.intervals, expected.intervals),
                      (spec.flat_points, expected.flat_points)]:
        assert np.array_equal(
            np.array(got, dtype=float).view(np.uint64), np.array(want, dtype=float).view(np.uint64)
        )


def test_essential_spectrum_memory_grows_with_a_slab(g21):
    """The 65,537 half-torus rows of grid 131,072 are diagonalized a slab at
    a time.  One batch over all of them traces a 20.8 MiB peak, its fiber
    matrices and their Hermitian average; in slabs the peak is about 3 MiB."""
    tracemalloc.start()
    try:
        essential_spectrum(g21.base, 131072)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20
