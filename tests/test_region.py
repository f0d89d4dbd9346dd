"""The array route of a residual row against the dict route.

``build_weyl_state`` and ``residual_row`` evaluate a row on a compiled
``Region``; the dict operators of ``reference.py`` compute the same
quantities vertex by vertex.  Both must agree to 1e-12 relative, with
the defect exactly zero.  ``Region`` itself must compile exactly what
``reference_region``, one ``out_edges`` call per vertex, compiles, on
clear boxes that often lie flush against the perturbation, so that ring
keys ask the oracle; a box that is not clear is refused.  A ``Region``
indexes everything by key, so these tests read its arrays through the keys
that ``reference.box_keys`` and ``reference.region_keys`` list.
"""

import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    Patch,
    PerturbedGraph,
    PredicatePatch,
    Vertex,
    build_weyl_state,
    find_unperturbed_box,
    locate_band_value,
    make_cone,
    make_counterexample,
    make_g11,
    make_half_plane,
    make_lattice,
    make_random_pendant,
    residual,
    residual_bound,
    residual_row,
    residual_sweep,
    shifted_tent_diff_sum,
    tent_norm_sq,
)
from periodic_spectra import region as region_module
from periodic_spectra import weyl as weyl_module
from periodic_spectra.errors import InputError, InternalInvariantError
from periodic_spectra.perturbation import PerturbedOracle
from periodic_spectra.cli import main
from periodic_spectra.region import Region
from periodic_spectra.weyl import embedded_route_residual, sup_norm_bound

from reference import (
    apply_defect,
    apply_laplacian,
    box_cells,
    box_keys,
    clear_box_corners,
    embed_state,
    embedding_norm_bounds,
    region_entries,
    region_keys,
    region_vertices,
    state_vector,
    sup_norm,
    translate_state,
    weighted_norm,
    windowed_bloch_state,
)
from test_weyl import base_vector

REL = 1e-12
GRID = 16  # band-location grid per axis; small keeps 3-D cases quick
QUANTITIES = ("norm", "residual", "route_residual", "bound", "sup_norm_bound", "sup_norm")


def dict_route(graph, lam, n, window):
    """Every number of a residual row through the dict operators."""
    report = find_unperturbed_box(graph, n, window)
    band, k0, xi0 = locate_band_value(graph.base, lam, GRID)
    psi = windowed_bloch_state(graph.base, band, k0, xi0, n)
    moved = translate_state(psi, report.center.cell)
    embedded = embed_state(graph, moved)
    norm = weighted_norm(embedded, graph.oracle)
    vector = {v: x / norm for v, x in embedded.items()}
    lap = apply_laplacian(vector, graph.oracle)
    diff = {v: lap.get(v, 0.0) - lam * vector.get(v, 0.0) for v in set(lap) | set(vector)}
    base_lap = apply_laplacian(moved, graph.base_oracle)
    base_diff = {
        v: base_lap.get(v, 0.0) - lam * moved.get(v, 0.0)
        for v in set(base_lap) | set(moved)
    }
    half = report.box_bounds[1]
    box = [
        Vertex(cell, label)
        for cell in box_cells([(c - half, c + half) for c in report.center.cell])
        for label in range(graph.base.cell_size)
    ]
    lower, upper = embedding_norm_bounds(graph, box)
    bridges = [e for e in graph.base.oriented_edges() if e.is_bridge]
    bridge_sum = sum(
        shifted_tent_diff_sum(n, comp) for e in bridges for comp in e.index if comp
    )
    bound = np.sqrt((upper / lower) ** 2 * len(bridges) * bridge_sum / tent_norm_sq(n, 1))
    return {
        "center": report.center,
        "vector": vector,
        "base_vector": {v: x / norm for v, x in moved.items()},
        "norm": weighted_norm(vector, graph.oracle),
        "residual": weighted_norm(diff, graph.oracle),
        "route_residual": weighted_norm(embed_state(graph, base_diff), graph.oracle) / norm,
        "bound": float(bound),
        "sup_norm_bound": (1.0 / lower) * tent_norm_sq(n, graph.base.dim) ** -0.5,
        "sup_norm": sup_norm(vector),
        "defect_sup": sup_norm(apply_defect(graph, moved)),
    }


def region_route(graph, lam, n, window):
    state = build_weyl_state(graph, lam, n, window, GRID)
    row = residual_row(state, lam)
    return {
        "center": state.center,
        "vector": state_vector(state),
        "base_vector": base_vector(state),
        "norm": state.region.norm(state.rows),
        "residual": residual(state, lam),
        "route_residual": embedded_route_residual(state, lam),
        "bound": residual_bound(state),
        "sup_norm_bound": sup_norm_bound(state),
        "sup_norm": row.sup_norm,
        "defect_sup": row.defect_sup,
        "row": row,
    }


def close(a, b) -> bool:
    return abs(a - b) <= REL * abs(b)


def assert_routes_agree(graph, lam, n, window):
    ref = dict_route(graph, lam, n, window)
    got = region_route(graph, lam, n, window)
    assert got["center"] == ref["center"]
    for key in QUANTITIES:
        assert close(got[key], ref[key]), (key, got[key], ref[key])
    row = got["row"]
    assert (row.residual, row.route_residual, row.bound) == (
        got["residual"], got["route_residual"], got["bound"]
    )
    assert got["defect_sup"] == 0.0 and ref["defect_sup"] == 0.0
    for key in ("vector", "base_vector"):
        assert list(got[key]) == list(ref[key])
        for v, val in ref[key].items():
            assert abs(got[key][v] - val) <= REL * abs(val)


CATALOG_CASES = {
    "half_plane": (lambda: make_half_plane().perturbation, ((-12, 12), (-12, 12)), 4),
    "cone": (lambda: make_cone().perturbation, ((0, 20), (0, 20)), 4),
    "counterexample": (lambda: make_counterexample().perturbation, ((-30, 30),), 8),
    "random_pendant": (lambda: make_random_pendant(0.1, 5).perturbation, ((0, 40), (0, 40)), 2),
    "random_pendant_3d": (
        lambda: make_random_pendant(0.02, 5, dim=3).perturbation, ((0, 12),) * 3, 2
    ),
}
def _band_value(graph, u: float) -> float:
    """A value inside the bands of the base: lattices fill [-1, 1], the
    pendant chain has [-1, -1/3] u [1/3, 1]."""
    if graph.base.cell_size == 1:
        return -0.95 + 1.9 * u
    return (-0.95 + 1.1 * u) if u < 0.5 else (0.4 + 1.1 * (u - 0.5))


@pytest.mark.parametrize("name", sorted(CATALOG_CASES))
@given(u=st.floats(0.0, 1.0), m=st.integers(1, 8))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_catalog_routes_agree(name, u, m):
    make, window, n_max = CATALOG_CASES[name]
    graph = make()
    n = 1 + (m - 1) % n_max
    assert_routes_agree(graph, _band_value(graph, u), n, window)


R = 3  # explicit patches change only cells in [-R, R]^d


@st.composite
def explicit_patches(draw):
    """Lattice or pendant chain with removed vertices and edges, added
    vertices and edges, and removed base vertices added back under the same
    name, near the origin."""
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
    )
    names = sorted(
        [x for c in cells for x in (Vertex(c, a) for a in range(s)) if x not in removed]
        + list(added),
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


@given(graph=explicit_patches(), u=st.floats(0.0, 1.0), n=st.integers(1, 3))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_explicit_patch_routes_agree(graph, u, n):
    # every cell with first coordinate >= R + 2 lies in the unperturbed set,
    # so the window always holds a clear box
    window = ((-R, R + 2 + n),) + ((-R, R),) * (graph.base.dim - 1)
    assert_routes_agree(graph, _band_value(graph, u), n, window)


def nearest_clear_center(graph, center, half, reach=16):
    """The centre nearest ``center`` (by squared distance, then in
    lexicographic order) whose box of half-width ``half`` lies inside the
    unperturbed set, looked for within ``reach`` cells per axis.  Unless the
    box at ``center`` is clear, the box found lies flush against the
    perturbation: the next centre towards ``center`` is blocked by a ring
    vertex of it, which is kept (a box next to a removed vertex is not clear)
    and so a CSR key."""
    window = [(c - reach - half, c + reach + half) for c in center]
    clear = graph.unperturbed.mask(window).all(axis=-1)
    offsets = clear_box_corners(clear, 2 * half + 1) - reach
    best = min(map(tuple, offsets.tolist()), key=lambda o: (sum(x * x for x in o), o))
    return tuple(c + o for c, o in zip(center, best))


@given(
    graph=explicit_patches(),
    n=st.integers(1, 3),
    offset=st.integers(-R - 1, R + 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_region_operators_match_dict_operators_on_flush_boxes(graph, n, offset, seed):
    """Clear boxes next to the patch, whose ring vertices ask the oracle: the
    operators still match the dict ones."""
    base = graph.base
    region = Region(graph, nearest_clear_center(graph, (offset,) * base.dim, n), n)
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=region.shape) + 1j * rng.normal(size=region.shape)
    inner = tuple(slice(1, -1) for _ in range(base.dim))
    support = np.zeros(region.shape, dtype=bool)
    support[inner] = True  # one cell inside the faces, where base_laplacian is exact
    grid[~support] = 0.0
    vertices = region_vertices(region)
    assert region._names_of(box_keys(region)) == vertices
    psi = {v: complex(x) for v, x in zip(vertices, grid.reshape(-1)) if x != 0}
    state = region.embed(grid)

    def as_dict(values):
        keys = np.flatnonzero(values)
        return dict(zip(region._names_of(keys), values[keys].tolist()))

    def assert_same(values, reference):
        got = as_dict(values)
        for v in set(got) | set(reference):
            ref = reference.get(v, 0.0)
            assert abs(got.get(v, 0.0) - ref) <= REL * max(1.0, abs(ref)), v

    embedded = embed_state(graph, psi)
    assert_same(state, embedded)
    assert close(region.norm(state), weighted_norm(embedded, graph.oracle))
    assert_same(region.laplacian(state), apply_laplacian(embedded, graph.oracle))
    assert_same(region.defect(state), apply_defect(graph, psi))
    base_lap = apply_laplacian(psi, graph.base_oracle)
    lap = region.base_laplacian(state)
    on_box = box_keys(region)
    for x, value in zip(vertices, lap[on_box].tolist()):
        assert abs(value - base_lap.get(x, 0.0)) <= REL * max(1.0, abs(value))
    lap[on_box] = 0.0
    assert not lap.any()  # 0 at every key off the box
    keys = region_keys(region)
    for name, member in zip(region._names_of(keys), region._member[keys]):
        assert member == (graph.in_common(name) and graph.unperturbed.contains(name))
    assert region.embedding_norm_bounds() == embedding_norm_bounds(graph, vertices)


@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_box_outside_the_unperturbed_set_is_refused(data):
    """A box with a vertex outside the unperturbed set raises ``InputError``
    naming the first such vertex in grid order; a clear box compiles."""
    catalog = st.sampled_from(sorted(COMPILE_CASES)).map(lambda name: COMPILE_CASES[name][0])
    graph = data.draw(catalog | explicit_patches())
    dim, s = graph.base.dim, graph.base.cell_size
    center = data.draw(st.tuples(*[st.integers(-R - 2, R + 2)] * dim))
    half = data.draw(st.integers(0, 3))
    vertices = [
        Vertex(cell, label)
        for cell in box_cells([(c - half, c + half) for c in center])
        for label in range(s)
    ]
    outside = [
        x for x in vertices if not (graph.in_common(x) and graph.unperturbed.contains(x))
    ]
    if outside:
        message = f"{outside[0]} is not in the unperturbed set"
        with pytest.raises(InputError, match=re.escape(message)):
            Region(graph, center, half)
    else:
        region = Region(graph, center, half)
        assert region._names_of(box_keys(region)) == vertices


def test_one_sided_added_edge_at_a_ring_row_fails_the_audit():
    # the ring vertex (3, 0) of the clear box -2..2 x -2..2 lists an added edge
    # to the ring vertex (3, 2), which does not list it back
    one_sided = {Vertex((3, 0), 0): (Vertex((3, 2), 0),)}
    patch = PredicatePatch(keep=lambda v: True, added_neighbors=lambda v: one_sided.get(v, ()))
    graph = PerturbedGraph(make_lattice(2), patch, name="one-sided")
    message = "(3,0|v0) -> (3,2|v0) is listed 1 times, (3,2|v0) -> (3,0|v0) 0 times"
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        Region(graph, (0, 0), 2)


def test_added_neighbour_of_another_dimension_is_refused():
    """An added edge from the ring vertex (3, 0) of the clear box -2..2 x -2..2
    to a vertex with three coordinates is an input fault, not a numpy
    error."""
    stray = Vertex((0, 0, 0), 0)
    patch = PredicatePatch(
        keep=lambda v: True,
        added_neighbors=lambda v: (stray,) if v == Vertex((3, 0), 0) else (),
    )
    graph = PerturbedGraph(make_lattice(2), patch, name="stray")
    message = "the graph lists (0,0,0|v0), whose cell has 3 coordinates"
    with pytest.raises(InputError, match=re.escape(message)):
        Region(graph, (0, 0), 2)


def test_one_sided_added_edge_at_a_ring_row_fails_the_audit_in_3d():
    # the ring vertex (3,0,0) of the clear box -2..2 per axis lists an added
    # edge to the stencil ring vertex (3,1,1), which does not list it back
    one_sided = {Vertex((3, 0, 0), 0): (Vertex((3, 1, 1), 0),)}
    patch = PredicatePatch(keep=lambda v: True, added_neighbors=lambda v: one_sided.get(v, ()))
    graph = PerturbedGraph(make_lattice(3), patch, name="one-sided")
    message = "(3,0,0|v0) -> (3,1,1|v0) is listed 1 times, (3,1,1|v0) -> (3,0,0|v0) 0 times"
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        Region(graph, (0, 0, 0), 2)


def test_csr_row_dropping_a_stencil_neighbour_fails_the_audit(monkeypatch):
    """A stencil entry that lands on a CSR key is audited: the ring vertex
    (0,0,0) of the clear box -5..-1 x -2..2 x -2..2, a CSR key as it has an
    added edge, stops listing its base neighbour, the box vertex (-1,0,0),
    whose stencil still lists it."""
    x, y = Vertex((0, 0, 0), 0), Vertex((-1, 0, 0), 0)
    pendant = Vertex((0, 0, 0), 1)
    patch = PredicatePatch(
        keep=lambda v: True,
        added_contains=lambda v: v == pendant,
        added_neighbors=lambda v: {x: (pendant,), pendant: (x,)}.get(v, ()),
    )
    graph = PerturbedGraph(make_lattice(3), patch, name="dropped")
    out_edges = PerturbedOracle.out_edges
    monkeypatch.setattr(
        PerturbedOracle, "out_edges",
        lambda self, v: tuple(t for t in out_edges(self, v) if v != x or t != y),
    )
    message = f"{y} -> {x} is listed 1 times, {x} -> {y} 0 times"
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        Region(graph, (-3, 0, 0), 2)


def test_one_sided_edge_stops_weyl_check_with_exit_4(tmp_path, monkeypatch, capsys):
    """The ring vertex (-6,0) below the clear box -8..-4 x 1..5 of half_plane
    lists an edge into the box that the box vertex does not list back."""
    out_edges = PerturbedOracle.out_edges
    extra = {Vertex((-6, 0), 0): (Vertex((-6, 3), 0),)}
    monkeypatch.setattr(
        PerturbedOracle, "out_edges", lambda self, v: out_edges(self, v) + extra.get(v, ())
    )
    code = main([
        "weyl-check", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
        "--lambda", "0.0", "--n-list", "2", "--out", str(tmp_path / "wc"),
    ])
    assert code == 4
    message = "(-6,0|v0) -> (-6,3|v0) is listed 1 times, (-6,3|v0) -> (-6,0|v0) 0 times"
    assert message in capsys.readouterr().err


def test_clear_3d_box_stores_no_entries_for_its_stencil_rows():
    graph = make_random_pendant(0.02, 5, dim=3).perturbation
    report = find_unperturbed_box(graph, 3, ((0, 12),) * 3)
    region = Region(graph, report.center.cell, report.box_bounds[1])
    assert region._member[box_keys(region)].all()
    # the CSR keys are exactly the box and ring keys whose bit is clear, all
    # of them ring keys
    keys = region_keys(region)
    assert np.array_equal(region._csr_keys, keys[~region._member[keys]])
    assert np.intersect1d(region._csr_keys, box_keys(region)).size == 0


def test_template_without_reversal_fails_the_compile(monkeypatch):
    shifts = region_module._label_shifts
    monkeypatch.setattr(
        region_module, "_label_shifts", lambda *args: [s[:-1] for s in shifts(*args)]
    )
    with pytest.raises(InternalInvariantError, match="has no reversal"):
        Region(make_half_plane().perturbation, (0, 5), 2)


def reference_region(graph, center, half):
    """The box and ring of ``Region`` from one ``out_edges`` call per
    vertex: the box vertices and their neighbours outside the box, sorted
    by ``(cell, label)``, each with its degree, its unperturbed bit and its
    neighbours' places in that list."""
    s = graph.base.cell_size
    box = [(c - half, c + half) for c in center]
    inside = {Vertex(cell, label) for cell in box_cells(box) for label in range(s)}
    ring = {t for x in inside for t in graph.oracle.out_edges(x) if t not in inside}
    names = sorted(inside | ring, key=lambda v: (v.cell, v.label))
    row_of = {x: r for r, x in enumerate(names)}
    indptr, indices, degrees = [0], [], []
    for x in names:
        targets = graph.oracle.out_edges(x)
        indices.extend(row_of[t] for t in targets if t in row_of)
        degrees.append(len(targets))
        indptr.append(len(indices))
    mask = [graph.in_common(v) and graph.unperturbed._contains_known(v) for v in names]
    return SimpleNamespace(
        names=names,
        degrees=np.array(degrees, dtype=np.int64),
        indices=np.array(indices, dtype=np.intp),
        entry_rows=np.repeat(np.arange(len(names)), np.diff(indptr)),
        unperturbed=np.array(mask, dtype=bool),
    )


def assert_compiles_like_reference(graph, center, half):
    """``Region`` and ``reference_region`` agree on the clear box nearest
    ``center``."""
    center = nearest_clear_center(graph, center, half)
    got, ref = Region(graph, center, half), reference_region(graph, center, half)
    keys = region_keys(got)
    assert got._names_of(keys) == ref.names
    # a box key has its label's base degree, a ring key its own
    degrees = np.empty(len(keys), dtype=np.int64)
    degrees[np.searchsorted(keys, box_keys(got))] = np.tile(
        got._base_degrees, math.prod(got.shape[:-1])
    )
    degrees[np.searchsorted(keys, got._ring)] = got._ring_degrees
    np.testing.assert_array_equal(degrees, ref.degrees)
    assert got._ring_degrees.dtype == ref.degrees.dtype
    np.testing.assert_array_equal(got._member[keys], ref.unperturbed)
    entry_keys, indices = region_entries(got)
    np.testing.assert_array_equal(np.searchsorted(keys, entry_keys), ref.entry_rows)
    np.testing.assert_array_equal(np.searchsorted(keys, indices), ref.indices)
    assert indices.dtype == ref.indices.dtype


COMPILE_CASES = {name: (make(), n_max) for name, (make, _, n_max) in CATALOG_CASES.items()}


@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_catalog_region_compiles_like_reference(data):
    """Clear boxes nearest a centre near the origin, where the catalog
    perturbations have their boundaries, so most lie flush against them."""
    graph, n_max = COMPILE_CASES[data.draw(st.sampled_from(sorted(COMPILE_CASES)))]
    center = data.draw(st.tuples(*[st.integers(-6, 6)] * graph.base.dim))
    assert_compiles_like_reference(graph, center, data.draw(st.integers(0, n_max)))


@given(graph=explicit_patches(), offset=st.integers(-R - 3, R + 3), half=st.integers(0, 4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_explicit_patch_region_compiles_like_reference(graph, offset, half):
    """Clear boxes next to the patch, with removed base vertices added back
    under their base name."""
    assert_compiles_like_reference(graph, (offset,) * graph.base.dim, half)


def test_clear_box_asks_the_oracle_only_on_the_ring(monkeypatch):
    graph = make_half_plane().perturbation
    h = 40
    calls = []
    out_edges = PerturbedOracle.out_edges
    monkeypatch.setattr(
        PerturbedOracle, "out_edges", lambda self, v: calls.append(v) or out_edges(self, v)
    )
    region = Region(graph, (0, h + 1), h)
    side, pad = 2 * h + 1, 1
    interior = (side - 2 * pad) ** 2
    ring = side**2 - interior
    outside = len(region._ring)
    samples = 2**2 + interior // 4096 + 1  # corners of the interior block, every 4096th row
    assert outside == 4 * side
    # one call per ring and outside vertex (whose unperturbed bit reuses the
    # degree of that call) and the self-check's samples
    assert len(calls) <= ring + outside + samples
    assert 4 * len(calls) < side**2  # O(h^(d-1)) calls for side^2 box vertices


def count_oracle_calls(monkeypatch, graph, center, half):
    """A ``Region`` and how often its compile asked ``out_edges`` at each vertex."""
    calls = Counter()
    out_edges = PerturbedOracle.out_edges
    with monkeypatch.context() as m:
        m.setattr(
            PerturbedOracle, "out_edges", lambda self, v: calls.update([v]) or out_edges(self, v)
        )
        region = Region(graph, center, half)
    return region, calls


def self_check_samples(region) -> int:
    """Most vertices the template self-check asks: the corners of the block
    of the box keys and of the ring keys, and every 4096th key of each."""
    corners = 2 ** region.graph.base.dim * region.shape[-1]
    inside, outside = math.prod(region.shape), len(region._ring)
    return 2 * corners + -(-inside // 4096) + -(-outside // 4096)


def test_clear_box_asks_the_oracle_only_for_the_self_check(monkeypatch):
    graph = make_half_plane().perturbation
    # y >= 1 is the unperturbed set: the outside rows are in it too
    region, calls = count_oracle_calls(monkeypatch, graph, (0, 72), 70)
    assert region._member[region_keys(region)].all()
    assert math.prod(region.shape) == 141**2 and len(region._ring) == 4 * 141
    assert sum(calls.values()) <= self_check_samples(region)


def test_flush_box_asks_the_oracle_once_per_clear_bit_row(monkeypatch):
    graph = make_half_plane().perturbation
    # the box -10..10 x 1..21 lies flush against the edge y = 0
    region, calls = count_oracle_calls(monkeypatch, graph, (0, 11), 10)
    keys = region_keys(region)
    bits = dict(zip(region._names_of(keys), region._member[keys].tolist()))
    clear_bit = [v for v, bit in bits.items() if not bit]
    # the ring vertices on the edge y = 0
    assert sorted(clear_bit, key=repr) == sorted(
        [Vertex((x, 0), 0) for x in range(-10, 11)], key=repr
    )
    assert set(calls) <= set(bits) and set(calls.values()) == {1}
    sampled = [v for v in calls if bits[v]]
    assert len(calls) == len(clear_bit) + len(sampled)
    assert 0 < len(sampled) <= self_check_samples(region)


def test_residual_sweep_builds_no_names(monkeypatch):
    graph = make_half_plane().perturbation
    lam, n, window = 0.3, 6, ((-3, 3), (-3, 12))
    states, named = [], []
    row, names_of = weyl_module.residual_row, Region._names_of

    def keep_state(state, lam):
        states.append(state)
        return row(state, lam)

    monkeypatch.setattr(weyl_module, "residual_row", keep_state)
    monkeypatch.setattr(
        Region, "_names_of", lambda self, keys: named.append(len(keys)) or names_of(self, keys)
    )
    residual_sweep(graph, lam, [n], window, GRID)
    (state,) = states
    region, center = state.region, state.center.cell
    # the compile names its CSR keys and its self-check samples, not the box
    assert sum(named) <= len(region._ring) + self_check_samples(region)
    assert sum(named) < math.prod(region.shape)
    keys = region_keys(region)
    assert region._names_of(keys) == reference_region(graph, center, region.half).names
    band, k0, xi0 = locate_band_value(graph.base, lam, GRID)
    psi = windowed_bloch_state(graph.base, band, k0, xi0, n)
    embedded = embed_state(graph, translate_state(psi, center))
    norm = weighted_norm(embedded, graph.oracle)
    vector = state_vector(state)
    assert list(vector) == list(embedded)
    for v, x in embedded.items():
        assert abs(vector[v] - x / norm) <= REL * abs(x / norm)


def test_tampered_template_fails_the_self_check(tmp_path, monkeypatch, capsys):
    """Templates listed in another order than the oracle's give rows that
    differ from ``out_edges``: weyl-check stops with exit 4."""
    shifts = region_module._label_shifts
    monkeypatch.setattr(
        region_module, "_label_shifts", lambda *args: [s[::-1] for s in shifts(*args)]
    )
    code = main([
        "weyl-check", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
        "--lambda", "0.0", "--n-list", "2", "--out", str(tmp_path / "wc"),
    ])
    assert code == 4
    err = capsys.readouterr().err
    # the first sample in key order is the ring vertex left of the box -8..-4 x 1..5
    assert "edge templates give (-9,1|v0) the neighbours" in err
