"""The window-wide membership mask and the box search against scalar routes.

``UnperturbedSet.mask`` answers membership for a whole box at once and
``find_unperturbed_box`` streams its cell rows once, eroding each piece
across the lateral axes and counting clear rows in a row per lateral
centre.  The references here are the per-vertex test ``in_common(x) and
_contains_known(x)`` and the lexicographic centre-by-centre scan built on it;
both routes must agree exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    Patch,
    PerturbedGraph,
    Vertex,
    WindowReport,
    find_unperturbed_box,
    make_cone,
    make_counterexample,
    make_g11,
    make_half_plane,
    make_lattice,
    make_random_pendant,
)
from periodic_spectra import perturbation
from periodic_spectra.cli import main
from periodic_spectra.errors import InputError, VertexNotInGraphError
from periodic_spectra.graphs import propagation_length
from periodic_spectra.perturbation import UnperturbedSet, _pair_key
from periodic_spectra.randomfield import cell_hash

from reference import box_cells


def scalar_mask(graph, box):
    """Membership of every box vertex, one scalar test at a time."""
    s = graph.base.cell_size
    sizes = tuple(max(hi - lo + 1, 0) for lo, hi in box)
    members = graph.unperturbed
    values = [
        graph.in_common(x) and members._contains_known(x)
        for x in (Vertex(cell, a) for cell in box_cells(box) for a in range(s))
    ]
    return np.array(values, dtype=bool).reshape(sizes + (s,))


def scan_reference(graph, n, window):
    """Centre-by-centre lexicographic scan: the first centre whose padded box
    passes the scalar test, with ``searched`` counting every centre tried."""
    half = n + propagation_length(graph.base) - 1
    members = graph.unperturbed
    searched = 0
    for cell in box_cells(window):
        searched += 1
        box = [(c - half, c + half) for c in cell]
        if all(
            graph.in_common(x) and members._contains_known(x)
            for x in (Vertex(c, a) for c in box_cells(box) for a in range(graph.base.cell_size))
        ):
            return WindowReport(n, Vertex(cell, 0), searched, (-half, half))
    return WindowReport(n, None, searched, (-half, half))


CATALOG = {
    "half_plane": lambda: make_half_plane().perturbation,
    "cone": lambda: make_cone().perturbation,
    "counterexample": lambda: make_counterexample().perturbation,
    "random_pendant_1d": lambda: make_random_pendant(0.3, 11, dim=1).perturbation,
    "random_pendant_2d": lambda: make_random_pendant(0.1, 5).perturbation,
    "random_pendant_3d": lambda: make_random_pendant(0.05, 5, dim=3).perturbation,
}
GRAPHS = {name: make() for name, make in CATALOG.items()}


def boxes(dim, reach=8, width=7):
    """Boxes near the origin (where the catalog perturbations have their
    boundaries), empty ones included."""
    axis = st.tuples(st.integers(-reach, reach), st.integers(-1, width)).map(
        lambda t: (t[0], t[0] + t[1])
    )
    return st.tuples(*[axis] * dim)


@pytest.mark.parametrize("name", sorted(CATALOG))
@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_catalog_mask_matches_scalar_test(name, data):
    graph = GRAPHS[name]
    box = data.draw(boxes(graph.base.dim, width=4 if graph.base.dim == 3 else 7))
    got = graph.unperturbed.mask(box)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, scalar_mask(graph, box))


R = 3  # explicit patches change only cells in [-R, R]^d


@st.composite
def explicit_patches(draw):
    """Lattice or pendant chain with removed vertices, removed pairs (base
    edges or not), added vertices and edges, and removed base vertices that
    are added back under the same name."""
    base = draw(st.sampled_from([make_lattice(2), make_lattice(1), make_g11().base]))
    s = base.cell_size
    cells = list(box_cells([(-R, R)] * base.dim))
    vertices = st.builds(Vertex, st.sampled_from(cells), st.integers(0, s - 1))
    removed = draw(st.frozensets(vertices, max_size=3))
    readded = frozenset(x for x in sorted(removed, key=repr) if draw(st.booleans()))
    added = readded | frozenset(
        Vertex(c, s) for c in draw(st.frozensets(st.sampled_from(cells), max_size=3))
    )
    templates = base.oriented_edges()
    removed_edges = tuple(
        (x, Vertex(tuple(a + b for a, b in zip(x.cell, e.index)), e.target))
        for x, e in draw(
            st.lists(st.tuples(vertices, st.sampled_from(templates)), max_size=3)
        )
        if x.label == e.origin
    ) + tuple(draw(st.lists(st.tuples(vertices, vertices), max_size=2)))
    names = sorted(
        {x for c in cells for x in (Vertex(c, a) for a in range(s)) if x not in removed}
        | added,
        key=lambda v: (v.cell, v.label),
    )
    # every vertex added back takes an edge, so its neighbours list it
    added_edges = tuple((x, draw(st.sampled_from(names))) for x in sorted(readded, key=repr))
    added_edges += tuple(
        draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=4))
    )
    patch = Patch(
        removed_vertices=removed,
        removed_edges=removed_edges,
        added_vertices=added,
        added_edges=added_edges,
    )
    return PerturbedGraph(base, patch, name="explicit")


@given(graph=explicit_patches(), data=st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_explicit_patch_mask_matches_scalar_test(graph, data):
    box = data.draw(boxes(graph.base.dim, reach=R + 2, width=2 * R + 2))
    np.testing.assert_array_equal(graph.unperturbed.mask(box), scalar_mask(graph, box))


def reference_out_edges(graph, v):
    """``out_edges`` as ``contains`` followed by the surviving base edges of a
    common-subgraph vertex, then the added edges."""
    if not graph.oracle.contains(v):
        raise VertexNotInGraphError(str(v))
    targets = []
    if graph.in_common(v):
        removed = graph._removed_count
        for t in graph.base_oracle.out_edges(v):
            if graph._keep(t) and not (removed and removed.get(_pair_key(v, t), 0)):
                targets.append(t)
    return tuple(targets) + tuple(graph._added_neighbors(v))


def _names_near_patch(graph):
    """Every name an explicit patch can use, and some it cannot."""
    s = graph.base.cell_size
    cells = box_cells([(-R - 1, R + 1)] * graph.base.dim)
    return [Vertex(c, a) for c in cells for a in range(s + 2 + s)]


@given(graph=explicit_patches())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_out_edges_matches_contains_then_phi(graph):
    for v in _names_near_patch(graph):
        if graph.oracle.contains(v):
            assert graph.oracle.out_edges(v) == reference_out_edges(graph, v)
        else:
            with pytest.raises(VertexNotInGraphError):
                graph.oracle.out_edges(v)


@given(graph=explicit_patches())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_out_edges_list_every_edge_from_both_ends(graph):
    oracle = graph.oracle
    for v in filter(oracle.contains, _names_near_patch(graph)):
        targets = oracle.out_edges(v)
        for t in set(targets):
            assert oracle.out_edges(t).count(v) == targets.count(t), (v, t)


def test_out_edges_rejects_absent_vertices():
    half_plane = make_half_plane().perturbation
    pendant = make_random_pendant(0.5, 3).perturbation
    bare = next(c for c in box_cells([(0, 20), (0, 0)]) if not pendant._added_neighbors(Vertex(c, 0)))
    for graph, v in [
        (half_plane, Vertex((0, -1), 0)),  # removed base vertex
        (half_plane, Vertex((0, 0, 0), 0)),  # wrong dimension
        (pendant, Vertex(bare, 1)),  # added label where no pendant was drawn
    ]:
        with pytest.raises(VertexNotInGraphError):
            graph.oracle.out_edges(v)


def test_mask_rejects_wrong_dimension():
    with pytest.raises(InputError):
        GRAPHS["half_plane"].unperturbed.mask(((0, 3),))


def test_no_per_vertex_cache():
    graph = make_cone().perturbation
    graph.unperturbed.mask(((-5, 5), (-5, 5)))
    graph.unperturbed.contains(Vertex((3, 3), 0))
    assert vars(graph.unperturbed).keys() == {"_g"}


SEARCHES = [
    # hit at the first centre
    ("half_plane", 2, ((-3, 3), (3, 9))),
    ("counterexample", 4, ((-30, 30),)),
    # hit at the last centre
    ("half_plane", 3, ((-4, 4), (-6, 4))),
    ("cone", 2, ((-6, 3), (-6, 3))),
    ("counterexample", 3, ((-20, -4),)),
    # no hit
    ("half_plane", 2, ((-10, 10), (-8, 2))),
    ("cone", 3, ((-5, 30), (-5, 3))),
    ("counterexample", 2, ((0, 40),)),
    ("random_pendant_2d", 6, ((-10, 10), (-10, 10))),
    # empty windows (lo > hi on some axis)
    ("half_plane", 2, ((3, 2), (0, 5))),
    ("half_plane", 2, ((0, 5), (3, 2))),
    ("counterexample", 1, ((1, 0),)),
    # windows narrower than the box
    ("half_plane", 5, ((0, 0), (6, 7))),
    ("half_plane", 5, ((-1, 1), (4, 7))),
    ("cone", 4, ((5, 6), (0, 10))),
    ("random_pendant_3d", 1, ((0, 1), (0, 2), (0, 1))),
]


@pytest.mark.parametrize("name, n, window", SEARCHES)
def test_search_matches_reference_scan(name, n, window):
    graph = GRAPHS[name]
    assert find_unperturbed_box(graph, n, window) == scan_reference(graph, n, window)


def test_search_cases_cover_first_last_and_no_hit():
    kinds = set()
    for name, n, window in SEARCHES:
        report = scan_reference(GRAPHS[name], n, window)
        total = int(np.prod([max(hi - lo + 1, 0) for lo, hi in window]))
        if report.center is None:
            kinds.add("empty" if total == 0 else "none")
        else:
            kinds.add({1: "first", total: "last"}.get(report.searched, "middle"))
    assert {"first", "last", "none", "empty"} <= kinds


@pytest.mark.parametrize("name", sorted(CATALOG))
@given(data=st.data())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_search_matches_reference_scan_on_random_windows(name, data):
    graph = GRAPHS[name]
    dim = graph.base.dim
    window = data.draw(boxes(dim, reach=10, width=3 if dim == 3 else 12))
    n = data.draw(st.integers(1, 2 if dim == 3 else 4))
    assert find_unperturbed_box(graph, n, window) == scan_reference(graph, n, window)


@given(graph=explicit_patches(), data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_search_matches_reference_scan_on_explicit_patches(graph, data):
    window = data.draw(boxes(graph.base.dim, reach=R + 3, width=2 * R + 4))
    n = data.draw(st.integers(1, 3))
    assert find_unperturbed_box(graph, n, window) == scan_reference(graph, n, window)


def record_mask_calls(monkeypatch):
    """Every box ``UnperturbedSet.mask`` is asked for from now on."""
    calls = []
    mask = UnperturbedSet.mask

    def recording(self, box):
        calls.append([tuple(axis) for axis in box])
        return mask(self, box)

    monkeypatch.setattr(UnperturbedSet, "mask", recording)
    return calls


def padded_size(graph, box):
    """Vertices of ``box`` padded by the propagation length: what the mask
    cap is checked against."""
    pad = propagation_length(graph.base)
    return math.prod(hi - lo + 1 + 2 * pad for lo, hi in box) * graph.base.cell_size


def across(graph, n, window):
    half = n + propagation_length(graph.base) - 1
    return half, [(lo - half, hi + half) for lo, hi in window[1:]]


def slab_calls(graph, n, window, stop):
    """The boxes a search asks ``mask`` for when every slab fits under the
    cap: the ``2 half + 1`` cell rows of the first centre row, then the new
    rows of slabs of 2, 4, ... centre rows, each cell row once and in order,
    up to the slab that holds centre row ``stop`` (every slab when ``stop``
    is None)."""
    half, rest = across(graph, n, window)
    lo, hi = window[0]
    calls, top, first, slab = [], lo - half, lo, 1
    while first <= hi:
        last = min(first + slab - 1, hi)
        calls.append([(top, last + half)] + rest)
        if stop is not None and first <= stop <= last:
            break
        top, first, slab = last + half + 1, last + 1, 2 * slab
    return calls


@pytest.mark.parametrize("name, n, window", SEARCHES)
def test_search_under_the_cap_asks_one_mask_per_slab(monkeypatch, name, n, window):
    graph = GRAPHS[name]
    calls = record_mask_calls(monkeypatch)
    report = find_unperturbed_box(graph, n, window)
    stop = None if report.center is None else report.center.cell[0]
    nonempty = all(lo <= hi for lo, hi in window)
    assert calls == (slab_calls(graph, n, window, stop) if nonempty else [])


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("name, n, window", SEARCHES)
def test_search_in_pieces_under_a_small_cap(monkeypatch, name, n, window, rows):
    graph = GRAPHS[name]
    whole = find_unperturbed_box(graph, n, window)
    limit = padded_size(graph, [(0, rows - 1)] + across(graph, n, window)[1])
    monkeypatch.setattr(perturbation, "_MASK_LIMIT", limit)
    calls = record_mask_calls(monkeypatch)
    assert find_unperturbed_box(graph, n, window) == whole
    assert all(padded_size(graph, box) <= limit for box in calls)
    assert all(hi - lo + 1 <= rows for (lo, hi), *_ in calls)


@pytest.mark.parametrize("name", sorted(CATALOG) + ["explicit"])
@given(data=st.data())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_search_in_pieces_of_one_to_three_rows_matches_reference_scan(name, data):
    """The run counter carries across pieces: with the cap shrunk to 1-3
    rows per ``mask`` call the search still finds the scan's centre."""
    if name == "explicit":
        graph = data.draw(explicit_patches())
        window = data.draw(boxes(graph.base.dim, reach=R + 3, width=2 * R + 4))
    else:
        graph = GRAPHS[name]
        window = data.draw(boxes(graph.base.dim, reach=10, width=3 if graph.base.dim == 3 else 12))
    n = data.draw(st.integers(1, 2 if graph.base.dim == 3 else 4))
    rows = data.draw(st.integers(1, 3))
    limit = padded_size(graph, [(0, rows - 1)] + across(graph, n, window)[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perturbation, "_MASK_LIMIT", limit)
        assert find_unperturbed_box(graph, n, window) == scan_reference(graph, n, window)


def test_search_keeps_no_rows_of_the_box(monkeypatch):
    """One centre at n=1000 needs 2001 cell rows of 2003 padded cells; under
    a cap of 2**16 vertices each piece is dropped before the next is read,
    so the traced peak stays near one piece, not the 4M cells of the box."""
    monkeypatch.setattr(perturbation, "_MASK_LIMIT", 2**16)
    tracemalloc.start()
    try:
        report = find_unperturbed_box(GRAPHS["half_plane"], 1000, ((0, 0), (0, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == WindowReport(1000, None, 1, (-1000, 1000))
    assert peak < 8 * 10**6


def test_search_refuses_a_box_side_past_the_run_counter():
    graph = PerturbedGraph(make_lattice(1), Patch())
    n = 2**30 - 1  # half n, side 2**31 - 1: the greatest int32
    assert find_unperturbed_box(graph, n, ((0, -1),)).searched == 0
    with pytest.raises(InputError, match="int32 run counter"):
        find_unperturbed_box(graph, n + 1, ((0, 0),))


def test_search_refuses_a_window_past_64_bits_before_any_mask(monkeypatch):
    """Rows of the window are read one slab at a time, so a window row past
    2**63 would be reached only after about 10**20 rows."""

    def no_mask(*args):
        raise AssertionError("the search asked for a mask")

    monkeypatch.setattr(UnperturbedSet, "mask", no_mask)
    for window in [((0, 10**20), (0, 0)), ((0, 0), (-(10**20), 0))]:
        with pytest.raises(InputError, match="outside the 64-bit range"):
            find_unperturbed_box(GRAPHS["half_plane"], 1, window)


def test_search_cap_is_checked_before_any_mask(monkeypatch):
    """A window of more than ``_SEARCH_LIMIT`` cells, padded by the box
    half-width on every side, is refused before any ``mask`` call; a window
    at the cap, and the 3-D n=96 default window of 581^3 padded cells, reach
    the first one."""

    def no_mask(*args):
        raise AssertionError("the search asked for a mask")

    monkeypatch.setattr(UnperturbedSet, "mask", no_mask)
    graph = GRAPHS["random_pendant_3d"]
    with pytest.raises(AssertionError, match="asked for a mask"):
        find_unperturbed_box(graph, 96, ((-194, 194),) * 3)
    with pytest.raises(InputError, match="the box search is capped at 268435456"):
        find_unperturbed_box(GRAPHS["half_plane"], 1, ((0, 2**28), (0, 0)))
    # half-width 1: (8 + 2) * (1 + 2) padded cells, then (9 + 2) * (1 + 2)
    monkeypatch.setattr(perturbation, "_SEARCH_LIMIT", 30)
    with pytest.raises(AssertionError, match="asked for a mask"):
        find_unperturbed_box(GRAPHS["half_plane"], 1, ((0, 7), (0, 0)))
    with pytest.raises(InputError, match="the box search is capped at 30"):
        find_unperturbed_box(GRAPHS["half_plane"], 1, ((0, 8), (0, 0)))


def test_mask_cap_stops_at_the_first_axis_past_it():
    """The cap's product stops at the first axis past it and its message
    prints no size, so a window of 10**2200 cells per axis is refused with
    ``InputError`` rather than Python's 4300-digit conversion limit."""
    huge = 10**2200
    message = (
        "a box of 2 axes padded by 1, 1 labels per cell, has too many vertices: "
        f"the unperturbed-set mask is capped at {perturbation._MASK_LIMIT}"
    )
    with pytest.raises(InputError) as refused:
        GRAPHS["half_plane"].unperturbed.mask(((0, huge), (0, huge)))
    assert str(refused.value) == message


def test_search_refuses_a_single_row_past_the_cap(tmp_path, monkeypatch):
    graph = GRAPHS["half_plane"]
    window = ((-3, 3), (3, 9))
    limit = padded_size(graph, [(0, 0)] + across(graph, 2, window)[1]) - 1
    monkeypatch.setattr(perturbation, "_MASK_LIMIT", limit)
    with pytest.raises(InputError, match=f"capped at {limit}"):
        find_unperturbed_box(graph, 2, window)
    argv = ["condition-p", "--graph", "builtin:lattice2", "--perturbation",
            "builtin:half_plane", "--n", "2", "--window=-3,3,3,9",
            "--out", str(tmp_path / "cond")]
    assert main(argv) == 2


def _lambda_set(tmp_path, out, graph, pert, window):
    argv = ["lambda-set", "--graph", graph, f"--window={window}", "--out", str(tmp_path / out)]
    if pert is not None:
        argv[3:3] = ["--perturbation", pert]
    assert main(argv) == 0
    return (tmp_path / f"{out}.csv").read_bytes()


@pytest.mark.parametrize(
    "graph, pert, window",
    [
        ("builtin:lattice2", "builtin:half_plane", "-6,6,-4,5"),
        ("builtin:lattice2", "builtin:cone", "-3,8,-3,8"),
        ("builtin:g11", "builtin:counterexample", "-9,9"),
        ("builtin:random_pendant,p=0.3,seed=4", None, "-7,7,-7,7"),
        ("builtin:random_pendant,p=0.3,seed=4,dim=3", None, "-3,3,-3,3,-3,3"),
        ("builtin:lattice2", "builtin:half_plane", "2,1,0,3"),
    ],
)
def test_lambda_set_csv_matches_scalar_route(tmp_path, monkeypatch, graph, pert, window):
    fast = _lambda_set(tmp_path, "fast", graph, pert, window)
    monkeypatch.setattr(UnperturbedSet, "mask", lambda self, box: scalar_mask(self._g, box))
    assert _lambda_set(tmp_path, "scalar", graph, pert, window) == fast


def _membership_rows():
    """Every vertex with labels 0..2 over cells -4..4 squared, plus a few
    cells far outside it."""
    cells = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    cells += [(100, -100), (-(2**40), 3)]
    return [Vertex(c, a) for c in cells for a in range(3)]


def _hash_of(v):
    return cell_hash(0, v.cell + (v.label,))


def _check_membership(members, rows):
    contains = perturbation._finite_membership(members, 2)
    cells = np.array([v.cell for v in rows], dtype=np.int64).reshape(-1, 2)
    labels = np.array([v.label for v in rows], dtype=np.int64)
    got = contains(tuple(cells.T), labels)
    assert got.dtype == bool
    assert np.broadcast_to(got, labels.shape).tolist() == [v in members for v in rows]


def _fail_isin(*args, **kwargs):
    raise AssertionError("the lookup must not sort both arrays with np.isin on every call")


def test_finite_membership_answers_exactly(monkeypatch):
    """The sorted-hash lookup of ``_finite_membership``: no member, one
    member, the members of least and greatest hash (the two ends of the
    sorted array ``searchsorted`` clips to), a spread of 80 members and a
    member past 64 bits, which no row can be."""
    monkeypatch.setattr(np, "isin", _fail_isin)
    rows = _membership_rows()
    by_hash = sorted(rows, key=_hash_of)
    least, greatest = by_hash[0], by_hash[-1]
    for members in [
        frozenset(),
        frozenset([rows[7]]),
        frozenset([least]),
        frozenset([greatest]),
        frozenset([least, greatest]),
        frozenset(rows[::3][:80]),
        # a member no row can be: a coordinate past 64 bits
        frozenset([rows[7], Vertex((2**70, 0), 1)]),
    ]:
        _check_membership(members, rows)
    _check_membership(frozenset([least]), [])


def test_finite_membership_confirms_every_colliding_candidate(monkeypatch):
    """With every hash forced to one value each row is a candidate, and the
    answer still comes from the exact member test."""
    monkeypatch.setattr(np, "isin", _fail_isin)
    monkeypatch.setattr(
        perturbation, "cell_hash_array",
        lambda seed, coords: np.full(np.broadcast(*coords).shape, 7, dtype=np.uint64),
    )
    rows = _membership_rows()
    for members in [frozenset([rows[0]]), frozenset([rows[-1], rows[40]]), frozenset(rows[::5])]:
        _check_membership(members, rows)
