import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    clear_box_monte_carlo,
    clear_box_probability,
    essential_spectrum,
    get_entry,
    make_random_pendant,
    vert,
)
from periodic_spectra import catalog, randomfield
from periodic_spectra.catalog import entry_names
from periodic_spectra.errors import InputError
from periodic_spectra.graphs import box_cell_array
from periodic_spectra.randomfield import bernoulli, bernoulli_array, cell_hash, cell_hash_array


class TestReferenceSpectra:
    @pytest.mark.parametrize(
        "name,grid",
        [("lattice1", 256), ("lattice2", 256), ("g11", 256), ("g21", 256)],
    )
    def test_periodic_entries_match_reference(self, name, grid):
        entry = get_entry(name)
        computed = essential_spectrum(entry.base, grid)
        reference = entry.reference_spectrum
        assert len(computed.intervals) == len(reference.intervals)
        for (a, b), (c, d) in zip(computed.intervals, reference.intervals):
            assert abs(a - c) <= 1e-9
            assert abs(b - d) <= 1e-9
        assert len(computed.flat_points) == len(reference.flat_points)

    def test_lattice3_reference(self):
        entry = get_entry("lattice3")
        computed = essential_spectrum(entry.base, 16)
        assert len(computed.intervals) == 1
        lo, hi = computed.intervals[0]
        assert abs(lo + 1.0) <= 1e-9
        assert abs(hi - 1.0) <= 1e-9

    def test_perturbed_entries_claim_full_interval(self):
        for name in ("cone", "half_plane"):
            entry = get_entry(name)
            assert entry.reference_spectrum.intervals == ((-1.0, 1.0),)


class TestReferenceLambda:
    @pytest.mark.parametrize("name", ["cone", "half_plane", "counterexample"])
    def test_closed_form_matches_computed(self, name):
        entry = get_entry(name)
        graph = entry.perturbation
        dim = entry.base.dim
        span = range(-100, 100)
        cells = (
            [(x, y) for x in span for y in span][:20000]
            if dim == 2
            else [(x,) for x in range(-100, 100)]
        )
        for cell in cells:
            for label in range(entry.base.cell_size):
                v = vert(*cell, label=label)
                if not graph.in_common(v):
                    continue
                assert graph.unperturbed.contains(v) == entry.reference_lambda(v)

    def test_random_pendant_window(self):
        entry = make_random_pendant(0.5, seed=123)
        graph = entry.perturbation
        for x in range(-40, 40):
            for y in range(-40, 40):
                v = vert(x, y)
                assert graph.unperturbed.contains(v) == entry.reference_lambda(v)


class TestCatalogPlumbing:
    def test_names(self):
        names = entry_names()
        assert "g11" in names and "random_pendant" in names

    def test_unknown_entry_rejected(self):
        with pytest.raises(InputError):
            get_entry("moebius")

    def test_random_pendant_needs_params(self):
        with pytest.raises(InputError):
            get_entry("random_pendant")

    def test_plain_entry_rejects_params(self):
        with pytest.raises(InputError):
            get_entry("g11", p=0.5)

    def test_g21_degrees(self, g21):
        assert g21.base.degrees == (3, 2, 1)

    def test_counterexample_entry_shape(self, counterexample):
        assert counterexample.base.degrees == (3, 1)
        assert counterexample.reference_spectrum is None

    def test_extreme_probabilities(self):
        everything = make_random_pendant(0.0, seed=5).perturbation
        for x in range(-10, 10):
            assert everything.unperturbed.contains(vert(x, 0))
        nothing = make_random_pendant(1.0, seed=5).perturbation
        for x in range(-10, 10):
            assert not nothing.unperturbed.contains(vert(x, 0))


class TestRandomField:
    def test_reproducible_across_instances(self):
        a = make_random_pendant(0.5, seed=99).perturbation
        b = make_random_pendant(0.5, seed=99).perturbation
        for x in range(-30, 30):
            v = vert(x, 3)
            assert a.oracle.degree(v) == b.oracle.degree(v)

    def test_seeds_differ(self):
        a = make_random_pendant(0.5, seed=1).perturbation
        b = make_random_pendant(0.5, seed=2).perturbation
        degrees_a = [a.oracle.degree(vert(x, 0)) for x in range(200)]
        degrees_b = [b.oracle.degree(vert(x, 0)) for x in range(200)]
        assert degrees_a != degrees_b

    def test_scalar_vector_agree(self, rng):
        cells = rng.integers(-10**6, 10**6, size=(500, 3)).astype(np.int64)
        for p in (0.1, 0.5, 0.9):
            vector = bernoulli_array(777, cells.T, p)
            scalar = np.array(
                [bernoulli(777, tuple(int(c) for c in row), p) for row in cells]
            )
            assert np.array_equal(vector, scalar)

    def test_hash_spread(self):
        values = [cell_hash(0, (x, 0)) / 2.0**64 for x in range(4096)]
        assert abs(np.mean(values) - 0.5) < 0.02

    def test_array_hash_at_the_int64_edges(self):
        edge = [-(2**63), 2**63 - 1, -1, -7, 0, 5]
        cells = np.array(list(itertools.product(edge, repeat=2)), dtype=np.int64)
        kept = cells.copy()
        for seed in (0, -3, 2**63 - 1, -(2**63)):
            got = cell_hash_array(seed, cells.T)
            assert got.dtype == np.uint64
            assert got.tolist() == [cell_hash(seed, tuple(map(int, c))) for c in kept]
            assert np.array_equal(cells, kept)
            column = kept[:, 0].copy()
            assert cell_hash_array(seed, [column]).tolist() == [
                cell_hash(seed, (int(c),)) for c in kept[:, 0]
            ]
            assert np.array_equal(column, kept[:, 0])


    @given(case=st.data(), seed=st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=150, deadline=None)
    def test_array_hash_equals_the_scalar_hash_cell_by_cell(self, case, seed):
        """No axis, or coordinate arrays of mixed shapes that broadcast to one
        block: 0-d values, ranges along one block axis and arrays of drawn
        values, negative, near +-2**62 and at the int64 edges."""
        block = case.draw(st.lists(st.integers(1, 3), max_size=3))
        axes = case.draw(st.integers(0, 4))
        coords = [case.draw(broadcast_coordinates(block)) for _ in range(axes)]
        kept = [c.copy() for c in coords]
        got = cell_hash_array(seed, coords)
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        assert got.dtype == np.uint64 and got.shape == shape
        grids = np.broadcast_arrays(*coords)
        expected = [cell_hash(seed, tuple(int(g[i]) for g in grids)) for i in np.ndindex(shape)]
        assert got.reshape(-1).tolist() == expected
        assert all(np.array_equal(c, k) for c, k in zip(coords, kept))

    def test_array_draws_compare_the_top_53_bits_as_integers(self, monkeypatch):
        """``bernoulli_array`` against the float rule of ``bernoulli`` at the
        thresholds ``p = k * 2**-53``, each with both float neighbours, and at
        0, 1, NaN and outside [0, 1]: hashes are planted so that the top 53
        bits sit at ``k - 1``, ``k`` and ``k + 1``."""
        ks = [1, 2, 3, 2**52, 2**53 - 1]
        tops = sorted({t for k in ks for t in (k - 1, k, k + 1) if t < 2**53})
        hashes = np.array([(t << 11) | low for t in tops for low in (0, 2047)], dtype=np.uint64)
        monkeypatch.setattr(randomfield, "cell_hash", lambda seed, cell: int(hashes[cell[0]]))
        monkeypatch.setattr(randomfield, "cell_hash_array", lambda seed, coords: hashes[coords[0]])
        ps = [0.0, -0.0, 1.0, 5e-324, float("nan"), -0.5, 1.5, float("inf"), float("-inf")]
        for k in ks:
            p = k * 2.0**-53
            ps += [p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, 2.0))]
        index = np.arange(len(hashes))
        for p in ps:
            got = bernoulli_array(0, (index,), p)
            assert got.tolist() == [bernoulli(0, (i,), p) for i in range(len(hashes))], p


@st.composite
def broadcast_coordinates(draw, block):
    """An int64 array that broadcasts to ``block``: a 0-d value, a range
    along one block axis, or drawn values on a trailing part of the block
    with some axes of length 1."""
    values = st.one_of(
        st.integers(-20, 20),
        st.integers(-(2**62) - 3, -(2**62) + 3),
        st.integers(2**62 - 3, 2**62 + 3),
        st.integers(-(2**63), -(2**63) + 3),
        st.integers(2**63 - 4, 2**63 - 1),
    )
    kind = draw(st.sampled_from(["0-d", "range", "values"]))
    if kind == "0-d" or not block:
        return np.array(draw(values), dtype=np.int64)
    if kind == "range":
        axis = draw(st.integers(0, len(block) - 1))
        start = min(draw(values), 2**63 - block[axis])
        return (start + np.arange(block[axis])).reshape((-1,) + (1,) * (len(block) - axis - 1))
    shape = [n if draw(st.booleans()) else 1 for n in block[draw(st.integers(0, len(block))) :]]
    drawn = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(drawn, dtype=np.int64).reshape(shape)


class TestClearBoxProbability:
    def test_half_at_radius_one(self):
        assert clear_box_probability(1, 0.5, 2) == pytest.approx(2.0**-9)

    def test_p_zero(self):
        assert clear_box_probability(3, 0.0, 2) == 1.0

    def test_general_formula(self):
        assert clear_box_probability(2, 0.25, 1) == pytest.approx(0.75**5)

    def test_monte_carlo_agrees(self):
        expected = clear_box_probability(1, 0.5, 2)
        estimate = clear_box_monte_carlo(1, 0.5, 2, 200_000, seed=20240808)
        se = np.sqrt(expected * (1 - expected) / 200_000)
        assert abs(estimate - expected) <= 3.0 * se

    def test_monte_carlo_chunking_invariant(self, monkeypatch):
        b = clear_box_monte_carlo(1, 0.5, 2, 50_000, seed=11)
        monkeypatch.setattr(catalog, "_TRIAL_CHUNK", 1024)
        a = clear_box_monte_carlo(1, 0.5, 2, 50_000, seed=11)
        assert a == b

    @pytest.mark.parametrize("side,dim", [(1, 1), (3, 1), (3, 2), (5, 3)])
    def test_monte_carlo_offsets_match_unravel(self, side, dim):
        # clear_box_monte_carlo takes its box offsets from box_cell_array
        expected = np.array(
            [np.unravel_index(i, (side,) * dim) for i in range(side**dim)],
            dtype=np.int64,
        )
        got = box_cell_array([(0, side - 1)] * dim)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_monte_carlo_pool_invariant(self):
        from concurrent.futures import ThreadPoolExecutor

        serial = clear_box_monte_carlo(1, 0.5, 2, 50_000, seed=11)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = clear_box_monte_carlo(1, 0.5, 2, 50_000, seed=11, pool=pool)
        assert serial == parallel

    @pytest.mark.parametrize("n, dim", [(1, 0), (1, -1), (0, 2), (-2, 1)])
    def test_monte_carlo_rejects_bad_boxes(self, n, dim):
        message = "dimension must be >= 1" if dim < 1 else "box radius must be >= 1"
        with pytest.raises(InputError, match=message):
            clear_box_monte_carlo(n, 0.5, dim, 10, seed=1)
        with pytest.raises(InputError, match=message):
            clear_box_probability(n, 0.5, dim)

    @given(
        n=st.integers(1, 2),
        dim=st.integers(1, 3),
        p=st.sampled_from([0.0, 0.03, 0.5, 1.0]),
        trials=st.integers(1, 40),
        seed=st.integers(-(2**63), 2**63 - 1),
        chunk=st.sampled_from([1, 7, 65536]),
    )
    @example(n=1, dim=2, p=0.5, trials=40, seed=-5, chunk=7)
    @example(n=2, dim=3, p=0.03, trials=9, seed=-(2**63), chunk=7)
    @settings(max_examples=40, deadline=None)
    def test_monte_carlo_matches_every_cell_reference(self, n, dim, p, trials, seed, chunk):
        assume(chunk == 1 or trials % chunk)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(catalog, "_TRIAL_CHUNK", chunk)
            estimate = clear_box_monte_carlo(n, p, dim, trials, seed)
        assert estimate == every_cell_estimate(n, p, dim, trials, seed)

    @pytest.mark.parametrize("n, dim", [(1, 1), (1, 2), (2, 2), (1, 3)])
    def test_monte_carlo_hashes_until_the_first_pendant(self, monkeypatch, n, dim):
        hashed = []

        def counted(seed, coords, p):
            hashed.append(np.broadcast(*coords).size)
            return bernoulli_array(seed, coords, p)

        monkeypatch.setattr(catalog, "bernoulli_array", counted)
        monkeypatch.setattr(catalog, "_TRIAL_CHUNK", 300)
        trials = 1000
        assert clear_box_monte_carlo(n, 1.0, dim, trials, seed=4) == 0.0
        # one call per chunk: a chunk stops once no box is left
        assert hashed == [300, 300, 300, 100]
        hashed.clear()
        assert clear_box_monte_carlo(n, 0.0, dim, trials, seed=4) == 1.0
        assert sum(hashed) == trials * (2 * n + 1) ** dim


    def test_monte_carlo_past_the_cell_cap_is_refused_before_any_hash(self, monkeypatch):
        """2^32 cells are 477,218,588 trials of a 3 x 3 box and 4 cells more."""

        def no_hash(*args):
            raise AssertionError("a cell was hashed")

        monkeypatch.setattr(catalog, "bernoulli_array", no_hash)
        with pytest.raises(AssertionError, match="a cell was hashed"):
            clear_box_monte_carlo(1, 0.5, 2, 477_218_588, seed=1)
        with pytest.raises(InputError, match="the Monte Carlo is capped at 4294967296"):
            clear_box_monte_carlo(1, 0.5, 2, 477_218_589, seed=1)


def every_cell_estimate(n, p, dim, trials, seed):
    """The Monte Carlo estimate with every cell of every box drawn by the
    scalar ``bernoulli``: box ``t`` starts at cell ``(t * (2n + 1), 0, ...)``."""
    side = 2 * n + 1
    clear = 0
    for t in range(trials):
        cells = itertools.product(range(t * side, (t + 1) * side), *[range(side)] * (dim - 1))
        clear += not any([bernoulli(seed, cell, p) for cell in cells])
    return clear / trials
