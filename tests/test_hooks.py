"""Grid hooks of the unperturbed-set mask against their scalar predicates.

``UnperturbedSet.mask`` asks a perturbed graph's grid forms ``_keep_grid``
and ``_has_added_grid``: the catalog's ``PredicatePatch`` hooks, the grids
an explicit ``Patch`` derives from its finite sets, or the vertex-by-vertex
adapter of a hookless ``PredicatePatch``.  Each must equal its scalar
predicate vertex by vertex, also at coordinates near -2**62 and 2**62, where
the pendant field's hash wraps around 64 bits.  A hook that disagrees with
its scalar predicate on a sampled vertex makes ``mask`` raise
``InternalInvariantError``.
"""

import dataclasses
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from periodic_spectra import (
    Patch,
    PerturbedGraph,
    PredicatePatch,
    Vertex,
    make_cone,
    make_counterexample,
    make_g11,
    make_half_plane,
    make_lattice,
    make_random_pendant,
    perturbation,
)
from periodic_spectra.errors import InputError, InternalInvariantError
from periodic_spectra.graphs import box_cell_array, box_cell_count

from reference import box_cells

EDGE = 2**62
COORDS = st.one_of(
    st.integers(-20, 20),
    st.integers(-EDGE - 40, -EDGE + 40),
    st.integers(EDGE - 40, EDGE + 40),
    st.integers(-(2**63), 2**63 - 1),
)

CATALOG = {
    "half_plane": lambda: make_half_plane().perturbation,
    "cone": lambda: make_cone().perturbation,
    "counterexample": lambda: make_counterexample().perturbation,
    "random_pendant_1d": lambda: make_random_pendant(0.3, 11, dim=1).perturbation,
    "random_pendant_2d": lambda: make_random_pendant(0.5, 7).perturbation,
    "random_pendant_3d": lambda: make_random_pendant(0.4, 5, dim=3).perturbation,
}
GRAPHS = {name: make() for name, make in CATALOG.items()}


def vertex_rows(dim, labels):
    return st.lists(st.builds(Vertex, st.tuples(*[COORDS] * dim), labels), max_size=40)


def assert_hooks_match_scalar(graph, vertices):
    """Both hooks asked about ``vertices`` as columns, one array per axis."""
    cells = np.array([v.cell for v in vertices], dtype=np.int64).reshape(-1, graph.base.dim)
    labels = np.array([v.label for v in vertices], dtype=np.int64)
    keep = graph._keep_grid(tuple(cells.T), labels)
    has_added = graph._has_added_grid(tuple(cells.T), labels)
    assert keep.dtype == bool and has_added.dtype == bool
    keep, has_added = np.broadcast_arrays(keep, has_added, labels)[:2]
    assert keep.tolist() == [bool(graph._keep(v)) for v in vertices]
    assert has_added.tolist() == [bool(graph._added_neighbors(v)) for v in vertices]


@pytest.mark.parametrize("name", sorted(CATALOG))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_catalog_hooks_match_scalar_predicates(name, data):
    graph = GRAPHS[name]
    s = graph.base.cell_size
    vertices = data.draw(vertex_rows(graph.base.dim, st.integers(0, s + 1)))
    assert_hooks_match_scalar(graph, vertices)


@st.composite
def explicit_patches(draw):
    """A lattice or pendant chain with removed base vertices and added vertices
    and edges anywhere in the 64-bit range, and vertices to ask about: the
    patch's own plus random ones."""
    base = draw(st.sampled_from([make_lattice(2), make_g11().base]))
    s = base.cell_size
    cells = st.tuples(*[COORDS] * base.dim)
    removed = draw(st.frozensets(st.builds(Vertex, cells, st.integers(0, s - 1)), max_size=4))
    added = draw(st.frozensets(st.builds(Vertex, cells, st.integers(s, s + 1)), max_size=4))
    kept = st.builds(Vertex, cells, st.integers(0, s - 1)).filter(lambda v: v not in removed)
    ends = st.one_of(kept, st.sampled_from(sorted(added, key=repr))) if added else kept
    edges = tuple(draw(st.lists(st.tuples(ends, ends), max_size=4)))
    graph = PerturbedGraph(base, Patch(removed, (), added, edges), name="explicit")
    named = sorted(removed | added | {v for e in edges for v in e}, key=repr)
    asked = named + draw(vertex_rows(base.dim, st.integers(0, s + 1)))
    return graph, draw(st.permutations(asked))


@given(case=explicit_patches())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_patch_arrays_match_scalar_predicates(case):
    assert_hooks_match_scalar(*case)


def without_hooks(graph):
    return PerturbedGraph(
        graph.base,
        dataclasses.replace(graph.patch, keep_grid=None, has_added_grid=None),
        name="vertex by vertex",
    )


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("origin", [-9, -EDGE - 3, EDGE - 3, -(2**63) + 1, 2**63 - 14])
def test_mask_equals_row_by_row_adapter_and_scalar_test(name, origin):
    """The mask from the catalog hooks, from the adapter that asks the scalar
    callables vertex by vertex, and from the scalar membership test."""
    graph = GRAPHS[name]
    box = [(origin, origin + (4 if graph.base.dim == 3 else 12))] * graph.base.dim
    if origin == -9:  # the catalog boundaries sit at the origin
        box[0] = (-9, 5)
    got = graph.unperturbed.mask(box)
    assert np.array_equal(got, without_hooks(graph).unperturbed.mask(box))
    s = graph.base.cell_size
    members = graph.unperturbed
    scalar = [
        graph.in_common(x) and members._contains_known(x)
        for x in (Vertex(c, a) for c in box_cells(box) for a in range(s))
    ]
    assert got.reshape(-1).tolist() == scalar


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("rows", [1, 3, 40, 500])
def test_mask_in_small_hook_blocks(monkeypatch, name, rows):
    """Blocks of a few vertices (a piece of one line, whole lines, whole
    planes) give the same mask, and no hook call gets a block of more
    vertices than ``_HOOK_ROWS`` allows."""
    graph = GRAPHS[name]
    box = [(-9, 5)] + [(-3, 4)] * (graph.base.dim - 1)
    whole = graph.unperturbed.mask(box)
    asked = []

    def counted(hook):
        def apply(x, labels):
            asked.append(np.broadcast(*x, labels).size)
            return hook(x, labels)

        return apply

    monkeypatch.setattr(perturbation, "_HOOK_ROWS", rows)
    monkeypatch.setattr(graph, "_keep_grid", counted(graph._keep_grid))
    monkeypatch.setattr(graph, "_has_added_grid", counted(graph._has_added_grid))
    assert np.array_equal(graph.unperturbed.mask(box), whole)
    assert 0 < max(asked) <= max(rows, graph.base.cell_size)


def wrong_at(hook, cell):
    """``hook`` with its answer flipped at every vertex of ``cell``."""

    def flipped(x, labels):
        at = np.ones((), dtype=bool)
        for coords, c in zip(x, cell):
            at = at & (coords == c)
        return hook(x, labels) ^ at

    return flipped


def test_keep_hook_wrong_at_a_box_corner_raises():
    patch = make_half_plane().perturbation.patch
    wrong = dataclasses.replace(patch, keep_grid=wrong_at(patch.keep_grid, (5, 5)))
    graph = PerturbedGraph(make_lattice(2), wrong)
    # (5, 5) is a corner of the box (0..4)^2 padded by one cell
    message = re.escape("keep_grid gives False at (5,5|v0)")
    with pytest.raises(InternalInvariantError, match=message):
        graph.unperturbed.mask(((0, 4), (0, 4)))


def test_has_added_hook_wrong_at_a_sampled_row_raises():
    patch = make_random_pendant(0.5, 7).perturbation.patch
    # random_pendant removes nothing, so every vertex of the box (0..69)^2
    # survives, and box vertex 4096 is cell (58, 36)
    assert divmod(4096, 70) == (58, 36)
    wrong = dataclasses.replace(patch, has_added_grid=wrong_at(patch.has_added_grid, (58, 36)))
    graph = PerturbedGraph(make_lattice(2), wrong)
    with pytest.raises(InternalInvariantError, match=re.escape("has_added_grid gives")):
        graph.unperturbed.mask(((0, 69), (0, 69)))


def test_has_added_hook_is_checked_only_at_survivors():
    """On the half plane the corner (0, 0) of the box (0..4)^2 is kept but
    has lost its edge to (0, -1): a ``has_added_grid`` wrong there is not
    read, while one wrong at the surviving corner (4, 4) raises."""
    graph = make_half_plane().perturbation
    patch = graph.patch
    box = ((0, 4), (0, 4))
    off = dataclasses.replace(patch, has_added_grid=wrong_at(patch.has_added_grid, (0, 0)))
    assert np.array_equal(PerturbedGraph(make_lattice(2), off).unperturbed.mask(box),
                          graph.unperturbed.mask(box))
    on = dataclasses.replace(patch, has_added_grid=wrong_at(patch.has_added_grid, (4, 4)))
    message = re.escape("has_added_grid gives True at (4,4|v0)")
    with pytest.raises(InternalInvariantError, match=message):
        PerturbedGraph(make_lattice(2), on).unperturbed.mask(box)


@pytest.mark.parametrize(
    "answer",
    [
        lambda x, labels: np.ones((), dtype=np.int64),
        lambda x, labels: np.ones(len(labels) + 1, dtype=bool),
        lambda x, labels: True,
        # as many vertices as the block (6, 6, 1) of the box (0..3)^2 padded
        # by one cell, in shapes that do not broadcast to it
        lambda x, labels: np.ones(36, dtype=bool),
        lambda x, labels: np.ones((1, 6, 6, 1), dtype=bool),
    ],
)
def test_hook_of_wrong_type_or_shape_raises(answer):
    patch = PredicatePatch(keep=lambda v: True, keep_grid=answer)
    graph = PerturbedGraph(make_lattice(2), patch)
    with pytest.raises(InternalInvariantError, match="keep_grid returned"):
        graph.unperturbed.mask(((0, 3), (0, 3)))


def test_hookless_patch_is_not_asked_off_the_common_subgraph():
    """``has_added`` is asked over the whole box, but a hookless patch's
    ``added_neighbors`` is only called about kept base vertices, its
    contract."""

    def added_neighbors(v):
        assert v.cell[1] >= 0, f"asked about {v}"
        return ()

    patch = PredicatePatch(keep=lambda v: v.cell[1] >= 0, added_neighbors=added_neighbors)
    mask = PerturbedGraph(make_lattice(2), patch).unperturbed.mask(((-3, 3), (-3, 3)))
    assert mask[..., 0].tolist() == [[y >= 1 for y in range(-3, 4)]] * 7


def test_row_by_row_adapter_answers_every_vertex_of_the_block():
    """The adapter of a hookless patch calls its scalar predicate once per
    vertex of the broadcast block, 0-d coordinates included."""
    asked = []

    def keep(v):
        asked.append(v)
        return v.cell[1] > v.cell[0]

    adapter = perturbation._row_by_row(keep)
    x = (np.array(7, dtype=np.int64), np.arange(5, 9).reshape(-1, 1))
    got = adapter(x, np.arange(2))
    assert got.dtype == bool and got.shape == (4, 2)
    assert got.tolist() == [[y > 7] * 2 for y in range(5, 9)]
    assert asked == [Vertex((7, y), a) for y in range(5, 9) for a in range(2)]


@pytest.mark.parametrize(
    "name, fits, over",
    [
        # lattice2, one label: the box padded by one cell on every side
        ("half_plane", ((0, 7), (0, 7)), ((0, 8), (0, 7))),
        # pendant chain, two labels per cell
        ("counterexample", ((0, 47),), ((0, 48),)),
    ],
)
def test_mask_size_cap(monkeypatch, name, fits, over):
    monkeypatch.setattr(perturbation, "_MASK_LIMIT", 100)
    graph = GRAPHS[name]
    assert graph.unperturbed.mask(fits).size <= 100
    with pytest.raises(InputError, match="capped at 100"):
        graph.unperturbed.mask(over)


@pytest.mark.parametrize(
    "box", [((0, 3),), ((-2, 1), (5, 7)), ((1, 2), (-1, 0), (0, 2)), ((2, 1), (0, 3))]
)
def test_box_cell_array_follows_box_cells(box):
    cells = box_cell_array(box)
    assert cells.dtype == np.int64 and cells.shape == (len(list(box_cells(box))), len(box))
    assert [tuple(c) for c in cells.tolist()] == list(box_cells(box))
    at = np.arange(len(cells))[::-2]
    assert np.array_equal(box_cell_array(box, at), cells[at])


def test_box_cell_count_refuses_at_the_first_axis_past_the_cap():
    """The running product stops at the first axis past the cap, so a box
    of a million axes is refused at once, by a message that names the axis
    count and the cap and neither the box nor a count of thousands of
    digits."""
    start = time.perf_counter()
    message = "^a box of 1000000 axes has too many cells: a whole box is capped at 16777216$"
    with pytest.raises(InputError, match=message):
        box_cell_count([(0, 2)] * 10**6)
    assert time.perf_counter() - start < 0.5
    assert box_cell_count([(0, 255)] * 3) == 2**24
    assert box_cell_count([(0, 9), (3, 2), (0, 9)]) == 0


def test_box_cell_array_rejects_coordinates_beyond_64_bits():
    assert box_cell_array([(2**63 - 2, 2**63 - 1)]).tolist() == [[2**63 - 2], [2**63 - 1]]
    for box in ([(2**63 - 1, 2**63)], [(-(2**63) - 1, 0)]):
        with pytest.raises(InputError, match="64-bit"):
            box_cell_array(box)
    # the refusal names the axis, not the whole box
    message = r"^box axis 1 \[0, 9223372036854775808\] has coordinates outside the 64-bit range$"
    with pytest.raises(InputError, match=message):
        box_cell_array([(0, 1), (0, 2**63)] + [(0, 1)] * 1000)
