import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    FloquetMatrix,
    band_eigensystem,
    band_grid,
    essential_spectrum,
    floquet_matrix,
    locate_band_value,
    propagation_length,
)
from periodic_spectra.errors import NonHermitianError, NotInSpectrumError

from test_graphs import small_graphs


class TestAssembly:
    def test_z_is_cosine(self, lattice1):
        for k in (0.0, 0.3, np.pi / 2, np.pi):
            m = floquet_matrix(lattice1, [k])
            assert m.entries.shape == (1, 1)
            assert m.entries[0, 0] == pytest.approx(np.cos(k), abs=1e-15)

    def test_pendant_chain_matrix(self, g11):
        k = 0.7
        m = floquet_matrix(g11.base, [k]).entries
        expected = np.array(
            [[2.0 * np.cos(k) / 3.0, 1.0 / 3.0], [1.0, 0.0]], dtype=complex
        )
        assert np.allclose(m, expected, atol=1e-15)

    @pytest.mark.parametrize("maker", ["lattice1", "lattice2", "g11", "g21"])
    def test_row_sums_one_at_zero(self, maker, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        m = floquet_matrix(graph, [0.0] * graph.dim).entries
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("maker", ["lattice2", "g11", "g21"])
    def test_degree_similarity_hermitian(self, maker, rng, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        d = np.asarray(graph.degrees, dtype=float)
        for _ in range(20):
            k = rng.uniform(0.0, 2.0 * np.pi, size=graph.dim)
            m = floquet_matrix(graph, k).entries
            h = np.sqrt(d)[:, None] * m / np.sqrt(d)[None, :]
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12


class TestEigensystem:
    def test_z_at_pi(self, lattice1):
        sample = band_eigensystem(floquet_matrix(lattice1, [np.pi]), lattice1.degrees)
        assert sample.lambdas == pytest.approx([-1.0])

    def test_pendant_chain_at_zero(self, g11):
        sample = band_eigensystem(
            floquet_matrix(g11.base, [0.0]), g11.base.degrees
        )
        assert sample.lambdas == pytest.approx([-1.0 / 3.0, 1.0])

    def test_pendant_chain_at_pi(self, g11):
        sample = band_eigensystem(
            floquet_matrix(g11.base, [np.pi]), g11.base.degrees
        )
        assert sample.lambdas == pytest.approx([-1.0, 1.0 / 3.0])

    def test_eigenvector_residual_weighted(self, g21):
        graph = g21.base
        d = np.asarray(graph.degrees, dtype=float)
        for k in (0.0, 0.4, 2.0):
            m = floquet_matrix(graph, [k])
            sample = band_eigensystem(m, graph.degrees)
            for i in range(graph.cell_size):
                xi = sample.eigenvectors[:, i]
                r = m.entries @ xi - sample.lambdas[i] * xi
                weighted = np.sqrt(np.sum(np.abs(r) ** 2 * d))
                assert weighted <= 1e-9
                cell_norm = np.sum(np.abs(xi) ** 2 * d)
                assert cell_norm == pytest.approx(1.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        corrupt = FloquetMatrix((0.0,), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianError):
            band_eigensystem(corrupt, (1, 1))

    @pytest.mark.parametrize("maker", ["lattice1", "lattice2", "g11", "g21"])
    def test_top_eigenvalue_at_zero_is_one(self, maker, request):
        entry = request.getfixturevalue(maker)
        graph = getattr(entry, "base", entry)
        sample = band_eigensystem(
            floquet_matrix(graph, [0.0] * graph.dim), graph.degrees
        )
        assert sample.lambdas[-1] == pytest.approx(1.0, abs=1e-12)
        top = sample.eigenvectors[:, -1]
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
        with pytest.raises(ValueError):
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
        m = floquet_matrix(g, [0.3]).entries
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
            plus = band_eigensystem(floquet_matrix(graph, k), graph.degrees)
            minus = band_eigensystem(floquet_matrix(graph, -k), graph.degrees)
            assert np.allclose(plus.lambdas, minus.lambdas, atol=1e-10)


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
        # within match_tol of the band top 1, so only the refinement sees the miss
        message = "band 0 misses 1.0000005 by 5.000e-07 at k = ("
        with pytest.raises(NotInSpectrumError, match=re.escape(message)):
            locate_band_value(lattice2, 1.0000005, 64)

    def test_generic_targets_hit(self, g21):
        spec = essential_spectrum(g21.base, 64)
        for target in (-0.95, -0.7, 0.0, 0.6, 0.99):
            if not spec.contains(target, tol=1e-6):
                continue
            band, k, xi = locate_band_value(g21.base, target, 64)
            sample = band_eigensystem(
                floquet_matrix(g21.base, k), g21.base.degrees
            )
            assert abs(sample.lambdas[band] - target) <= 1e-8


@given(small_graphs(), st.floats(0.0, 2 * np.pi))
@settings(max_examples=80, deadline=None)
def test_spectrum_inside_unit_interval(graph, k):
    sample = band_eigensystem(floquet_matrix(graph, [k]), graph.degrees)
    assert np.all(sample.lambdas >= -1.0 - 1e-9)
    assert np.all(sample.lambdas <= 1.0 + 1e-9)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_batched_grid_matches_single_point(graph):
    ks, lambdas = band_grid(graph, 8)
    for row in range(0, ks.shape[0], 3):
        sample = band_eigensystem(floquet_matrix(graph, ks[row]), graph.degrees)
        assert np.allclose(sample.lambdas, lambdas[row], atol=1e-12)


def test_brute_force_ring_cross_check(lattice1, g11):
    # periodic ring of 256 cells: eigenvalues must fall inside the sampled bands
    from periodic_spectra import periodic_oracle, spectrum_of_box, truncate

    for graph in (lattice1, g11.base):
        ring = truncate(periodic_oracle(graph), ((0, 255),), periodic_wrap=True)
        eigs = spectrum_of_box(ring)
        spec = essential_spectrum(graph, 256)
        assert all(spec.distance(x) <= 1e-9 for x in eigs)
