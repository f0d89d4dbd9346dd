import numpy as np
import pytest

from periodic_spectra import (
    band_grid,
    build_periodic,
    compare_spectra,
    essential_spectrum,
    make_lattice,
    periodic_oracle,
    spectrum_of_box,
    truncate,
    zero_mode_count,
)
from periodic_spectra.errors import EmptyBoxError, InputError
from periodic_spectra.graphs import FundEdge, Vertex, vert


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
