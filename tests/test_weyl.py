import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    PerturbedGraph,
    PredicatePatch,
    build_weyl_state,
    fit_loglog_slope,
    locate_band_value,
    make_random_pendant,
    residual,
    residual_row,
    residual_sweep,
    shifted_tent_diff_parts,
    shifted_tent_diff_sum,
    tent_norm_sq,
)
from periodic_spectra import weyl
from periodic_spectra.cli import main
from periodic_spectra.errors import BadEigenpairError, NoClearBoxError
from periodic_spectra.graphs import vert
from periodic_spectra.region import Region
from periodic_spectra.weyl import _symmetric_pair, embedded_route_residual, sup_norm_bound

from reference import (
    TentCutoff,
    apply_defect,
    box_keys,
    region_vertices,
    state_vector,
    tent_value,
    weighted_norm,
    windowed_bloch_state,
)


def base_vector(state) -> dict:
    """The translated base-graph state of ``state``, normalized as ``rows``
    is: the box slice of ``rows`` keyed by the region's vertices, zeros
    dropped."""
    values = state.rows[box_keys(state.region)].tolist()
    return {v: val for v, val in zip(region_vertices(state.region), values) if val != 0}


def identity_perturbation(graph):
    return PerturbedGraph(
        graph, PredicatePatch(keep=lambda v: True), name="identity"
    )


class TestTent:
    def test_peak(self):
        assert tent_value(4, (0,)) == 1.0

    def test_boundary_zero(self):
        assert tent_value(4, (4,)) == 0.0
        assert tent_value(4, (4, 0)) == 0.0

    def test_half_way(self):
        assert tent_value(4, (2,)) == pytest.approx(0.5)

    def test_norm_small_cases(self):
        assert tent_norm_sq(1, 1) == pytest.approx(1.0)
        assert tent_norm_sq(2, 1) == pytest.approx(1.5)
        assert tent_norm_sq(3, 2) == pytest.approx((19.0 / 9.0) ** 2)

    def test_norm_matches_brute_force_exact_rationals(self):
        for n in range(1, 65):
            brute = sum(
                (Fraction(1) - Fraction(abs(m), n)) ** 2 for m in range(-n + 1, n)
            )
            assert brute == Fraction(2 * n * n + 1, 3 * n)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_norm_matches_brute_force_floats(self, dim):
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            tent = TentCutoff(n, dim)
            axis = np.array([1.0 - abs(m) / n for m in range(-n + 1, n)])
            grids = np.meshgrid(*([axis] * dim), indexing="ij")
            brute = float(np.sum(np.prod(np.stack(grids), axis=0) ** 2))
            assert brute == pytest.approx(tent.norm_sq(), rel=1e-12)

    def test_support_cells(self):
        tent = TentCutoff(2, 2)
        cells = set(tent.support_cells())
        assert cells == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}


class TestShiftedTent:
    def test_zero_shift(self):
        for n in (1, 2, 10):
            assert shifted_tent_diff_sum(n, 0) == 0.0

    def test_even_in_shift(self):
        for n, l in ((4, 1), (10, 3), (7, 6), (5, 9)):
            assert shifted_tent_diff_sum(n, l) == pytest.approx(
                shifted_tent_diff_sum(n, -l), abs=1e-15
            )

    def test_parts_example(self):
        middle, lo, hi = shifted_tent_diff_parts(10, 2)
        assert lo == pytest.approx(0.05, abs=1e-15)
        assert hi == pytest.approx(0.05, abs=1e-15)
        total = shifted_tent_diff_sum(10, 2)
        assert middle + lo + hi == pytest.approx(total, abs=1e-14)

    @given(st.integers(1, 200), st.integers(-5, 5))
    @settings(max_examples=120, deadline=None)
    def test_parts_identity(self, n, l):
        if abs(l) >= n:
            return
        middle, lo, hi = shifted_tent_diff_parts(n, l)
        assert lo == hi
        expected_tail = sum(k * k for k in range(1, abs(l) + 1)) / (n * n)
        assert lo == pytest.approx(expected_tail, abs=1e-15)
        assert middle + lo + hi == pytest.approx(
            shifted_tent_diff_sum(n, l), abs=1e-14
        )

    def test_rate_bound(self):
        for l in range(1, 6):
            for n in (1, 2, 3, 5, 10, 100, 512, 1024):
                assert n * shifted_tent_diff_sum(n, l) <= 2 * l * l + l + 1e-12


class TestWindowedBlochState:
    def test_norm_identity(self, g11):
        graph = g11.base
        band, k0, xi0 = locate_band_value(graph, 1.0, 64)
        for n in (1, 2, 3, 5):
            psi = windowed_bloch_state(graph, band, k0, xi0, n)
            from periodic_spectra.graphs import periodic_oracle

            norm_sq = weighted_norm(psi, periodic_oracle(graph)) ** 2
            d = np.asarray(graph.degrees, dtype=float)
            cell = float(np.sum(np.abs(xi0) ** 2 * d))
            assert norm_sq == pytest.approx(tent_norm_sq(n, 1) * cell, rel=1e-12)

    def test_single_cell_for_n_one(self, lattice2):
        band, k0, xi0 = locate_band_value(lattice2, 0.0, 64)
        psi = windowed_bloch_state(lattice2, band, k0, xi0, 1)
        assert set(v.cell for v in psi) == {(0, 0)}

    def test_support_confined(self, g11):
        band, k0, xi0 = locate_band_value(g11.base, 1.0, 64)
        psi = windowed_bloch_state(g11.base, band, k0, xi0, 3)
        assert all(-2 <= v.cell[0] <= 2 for v in psi)

    def test_bad_eigenpair_rejected(self, g11, lattice1):
        with pytest.raises(BadEigenpairError):
            windowed_bloch_state(
                g11.base, 0, np.array([0.0]), np.array([1.0 + 0j, 0.0 + 0j]), 2
            )
        # weighted-normalized constant IS the eigenvector at k=0
        xi = np.array([1.0 / np.sqrt(2.0) + 0j])
        psi = windowed_bloch_state(lattice1, 0, np.array([0.0]), xi, 2)
        assert psi


class TestWeylState:
    def test_unit_norm_and_support(self, cone):
        graph = cone.perturbation
        state = build_weyl_state(graph, 0.0, 4, ((0, 40), (0, 40)))
        assert state.center == vert(5, 5)
        vector = state_vector(state)
        norm = weighted_norm(vector, graph.oracle)
        assert norm == pytest.approx(1.0, abs=1e-12)
        for v in vector:
            assert all(abs(c - ctr) <= 3 for c, ctr in zip(v.cell, state.center.cell))

    def test_half_plane_centered_on_axis(self, half_plane):
        graph = half_plane.perturbation
        state = build_weyl_state(graph, 1.0, 2, ((0, 0), (0, 20)))
        assert state.center == vert(0, 3)

    def test_peak_sits_at_center(self, half_plane):
        graph = half_plane.perturbation
        state = build_weyl_state(graph, 0.0, 4, ((-30, 30), (-30, 30)))
        vector = state_vector(state)
        peak = max(vector, key=lambda v: abs(vector[v]))
        assert peak.cell == state.center.cell

    def test_sup_norm_bound_holds(self, half_plane):
        graph = half_plane.perturbation
        for n in (1, 2, 4, 8):
            state = build_weyl_state(graph, 0.0, n, ((-30, 30), (-30, 30)))
            observed = max(abs(v) for v in state_vector(state).values())
            assert observed <= sup_norm_bound(state) + 1e-12

    def test_no_clear_box_raises(self, half_plane):
        with pytest.raises(NoClearBoxError):
            build_weyl_state(half_plane.perturbation, 0.0, 4, ((0, 4), (0, 4)))


class TestResidualSweep:
    def test_band_value_located_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return locate_band_value(*args)

        monkeypatch.setattr(weyl, "locate_band_value", counted)
        code = main([
            "weyl-check", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
            "--lambda", "0.3", "--n-list", "4,8,16", "--out", str(tmp_path / "wc"),
        ])
        assert code == 0
        assert len(calls) == 1

    def test_boxless_off_band_input_reports_the_box(self, half_plane):
        # 2.0 is off-band, but the missing box is found first
        message = "no box of radius 4 inside the unperturbed set over window (searched 25 centers)"
        with pytest.raises(NoClearBoxError, match=re.escape(message)):
            residual_sweep(half_plane.perturbation, 2.0, [4, 8], ((0, 4), (0, 4)))


class TestResidual:
    def test_trivial_perturbation_identity(self, g11):
        graph = identity_perturbation(g11.base)
        lam = 0.5
        state = build_weyl_state(graph, lam, 4, ((0, 0),))
        assert state.center == vert(0)
        direct = residual(state, lam)
        via_base = embedded_route_residual(state, lam)
        assert direct == pytest.approx(via_base, abs=1e-13)

    def test_route_identity_on_half_plane(self, half_plane):
        graph = half_plane.perturbation
        for n in (2, 4, 8):
            state = build_weyl_state(graph, 0.0, n, ((-20, 20), (0, 30)))
            a = residual(state, 0.0)
            b = embedded_route_residual(state, 0.0)
            assert abs(a - b) <= 1e-10

    def test_small_state_residual_below_operator_bound(self, cone):
        graph = cone.perturbation
        state = build_weyl_state(graph, 0.0, 1, ((0, 20), (0, 20)))
        assert residual(state, 0.0) <= 2.0

    def test_rows_against_bound(self, half_plane):
        graph = half_plane.perturbation
        window = ((-40, 40), (-40, 40))
        for n in (2, 4, 8):
            state = build_weyl_state(graph, 0.7, n, window)
            row = residual_row(state, 0.7)
            assert row.residual <= row.bound
            assert row.defect_sup == 0.0

    def test_decay_slope(self, half_plane):
        graph = half_plane.perturbation
        window = ((-70, 70), (-70, 70))
        rows = []
        for n in (4, 8, 16, 32):
            state = build_weyl_state(graph, 0.0, n, window)
            rows.append(residual(state, 0.0))
        slope = fit_loglog_slope([4, 8, 16, 32], rows)
        assert slope <= -0.8

    def test_lambda_matches_rayleigh(self, g21):
        band, k0, xi0 = locate_band_value(g21.base, 0.0, 64)
        assert abs(_symmetric_pair(g21.base, k0, xi0)[2]) <= 1e-8


def test_one_row_embeds_once_and_applies_the_base_laplacian_once(half_plane, monkeypatch):
    """Only the state embeds: the route residual and the defect read its
    keys.  The box is flush against the half plane, so the defect has CSR
    keys, but none in the box."""
    calls = Counter()
    for name in ("embed", "base_laplacian"):

        def counted(self, values, method=getattr(Region, name), name=name):
            calls[name] += 1
            return method(self, values)

        monkeypatch.setattr(Region, name, counted)
    (row,) = residual_sweep(half_plane.perturbation, 0.3, [8], ((-40, 40), (-40, 40)))
    assert row.defect_sup == 0.0
    assert calls == {"embed": 1, "base_laplacian": 1}


def test_a_state_is_held_once():
    """A 3-D state at n=32 (its key array is 5.0 MiB), in key-array sizes
    under tracemalloc: the state keeps its normalized keys and its
    ``Region``, not the Bloch grid as well, and a row's operators read the
    keys without a grid-shaped copy of the state."""
    graph = make_random_pendant(1e-6, 3, dim=3).perturbation
    report = weyl._clear_box(graph, 32, ((-66, -66),) * 3)
    location = weyl._band_location(graph.base, 0.3, 64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = weyl._state_on_box(graph, report, location)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        residual_row(state, 0.3)
        peak = tracemalloc.get_traced_memory()[1] - before - held
    finally:
        tracemalloc.stop()
    size = state.rows.nbytes
    assert held <= 1.5 * size
    assert peak <= 2.5 * size


@pytest.mark.parametrize(
    "values", [[0.0, 1.0], [1.0, -1.0], [float("nan"), 1.0], [1.0, float("inf")]]
)
def test_no_slope_through_a_value_without_logarithm(values):
    assert fit_loglog_slope([2, 4], values) is None
    assert fit_loglog_slope([2, 4], [1.0, 0.5]) == pytest.approx(-1.0)


class TestDefectVanishing:
    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_random_pendant_annihilation(self, seed):
        from periodic_spectra import make_random_pendant

        graph = make_random_pendant(0.02, seed).perturbation
        for n in (2, 4):
            state = build_weyl_state(graph, 0.0, n, ((0, 120), (0, 120)))
            out = apply_defect(graph, base_vector(state))
            assert max(abs(v) for v in out.values()) == 0.0

    def test_counterexample_annihilation(self, counterexample):
        graph = counterexample.perturbation
        for n in (2, 4, 8):
            state = build_weyl_state(graph, 0.5, n, ((-40, 40),))
            out = apply_defect(graph, base_vector(state))
            assert max(abs(v) for v in out.values()) == 0.0
