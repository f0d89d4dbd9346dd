"""Cross-module consistency checks tying the adjacency-operator route to the
fiber-matrix route on the same graphs."""

import numpy as np
import pytest
from hypothesis import given, settings

from periodic_spectra import (
    PerturbedGraph,
    PredicatePatch,
    band_eigensystem,
    build_periodic,
    build_weyl_state,
    essential_spectrum,
    fit_loglog_slope,
    periodic_oracle,
    residual_row,
    spectrum_of_box,
    truncate,
)
from periodic_spectra.graphs import FundEdge, Vertex

from reference import apply_laplacian, band_grid
from test_floquet import pulled_back
from test_graphs import small_graphs


@given(small_graphs())
@settings(max_examples=50, deadline=None)
def test_bloch_wave_action_matches_fiber_matrix(graph):
    """Applying the operator to a truncated Bloch wave reproduces, at interior
    cells, the action of the fiber matrix on the cell vector."""
    rng = np.random.default_rng(7)
    k = rng.uniform(0.0, 2.0 * np.pi, size=1)
    xi = rng.normal(size=graph.cell_size) + 1j * rng.normal(size=graph.cell_size)
    window = 6
    psi = {
        Vertex((m,), i): complex(np.exp(1j * k[0] * m) * xi[i])
        for m in range(-window, window + 1)
        for i in range(graph.cell_size)
    }
    out = apply_laplacian(psi, periodic_oracle(graph))
    fiber = pulled_back(graph, k) @ xi
    # interior cells: one propagation layer inside the window
    from periodic_spectra import propagation_length

    reach = propagation_length(graph)
    for m in range(-window + reach, window - reach + 1):
        for i in range(graph.cell_size):
            expected = np.exp(1j * k[0] * m) * fiber[i]
            assert out[Vertex((m,), i)] == pytest.approx(expected, abs=1e-12)


@pytest.fixture(scope="module")
def decorated_square():
    return build_periodic(
        2,
        2,
        [
            FundEdge(0, 0, (1, 0)),
            FundEdge(0, 0, (0, 1)),
            FundEdge(0, 1, (0, 0)),
        ],
    )


class TestDecoratedSquareLattice:
    """Square lattice with one pendant per cell: a 2-D, two-label graph that
    none of the named catalog entries covers."""

    @pytest.fixture
    def graph(self, decorated_square):
        return decorated_square

    def test_band_structure(self, graph):
        assert graph.degrees == (5, 1)
        spec = essential_spectrum(graph, 64)
        assert len(spec.intervals) == 2
        flat = [x for pair in spec.intervals for x in pair]
        assert flat == pytest.approx([-1.0, -0.2, 0.2, 1.0], abs=1e-9)

    def test_wrapped_truncation_matches_bands(self, graph):
        box = truncate(periodic_oracle(graph), ((0, 11), (0, 11)), periodic_wrap=True)
        eigs = np.linalg.eigvalsh(box.normalized_symmetric())
        _, lambdas = band_grid(graph, 12)
        assert np.max(np.abs(eigs - np.sort(lambdas.reshape(-1)))) <= 1e-9
        assert np.max(np.abs(spectrum_of_box(box) - eigs)) <= 1e-12

    def test_half_plane_cut_weyl_decay(self, graph):
        patch = PredicatePatch(keep=lambda v: v.cell[1] >= 0)
        cut = PerturbedGraph(graph, patch, name="decorated_half_plane")
        window = ((-40, 40), (0, 60))
        residuals = []
        for n in (4, 8, 16):
            state = build_weyl_state(cut, 0.5, n, window)
            row = residual_row(state, 0.5)
            assert row.defect_sup == 0.0
            assert row.residual <= row.bound
            residuals.append(row.residual)
        assert fit_loglog_slope([4, 8, 16], residuals) <= -0.8

    def test_eigenvector_pullback_normalization(self, graph):
        _, vectors = band_eigensystem(graph, [0.4, 1.1])
        d = np.asarray(graph.degrees, dtype=float)
        for j in range(2):
            xi = vectors[:, j]
            assert np.sum(np.abs(xi) ** 2 * d) == pytest.approx(1.0, abs=1e-12)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_residual_chain_on_arbitrary_graphs(graph):
    """Full pipeline stress test: on any small graph with an extra pendant
    glued at the origin, every transplanted box state has its residual below
    the closed-form bound, equal residuals along both routes, and an exactly
    vanishing defect."""
    from periodic_spectra import Patch, find_unperturbed_box, residual_row
    from periodic_spectra.graphs import Vertex

    rng = np.random.default_rng(graph.cell_size * 1000 + len(graph.edges))
    patch = Patch(
        added_vertices=frozenset({Vertex((0,), graph.cell_size)}),
        added_edges=((Vertex((0,), 0), Vertex((0,), graph.cell_size)),),
    )
    perturbed = PerturbedGraph(graph, patch)
    _, lambdas = band_grid(graph, 16)
    target = float(lambdas[int(rng.integers(0, 16)), int(rng.integers(0, graph.cell_size))])
    n = int(rng.integers(2, 5))
    if find_unperturbed_box(perturbed, n, ((-30, 30),)).center is None:
        return
    state = build_weyl_state(perturbed, target, n, ((-30, 30),), grid_per_axis=16)
    row = residual_row(state, target)
    assert row.residual <= row.bound + 1e-12
    assert abs(row.residual - row.route_residual) <= 1e-10
    assert row.defect_sup == 0.0
