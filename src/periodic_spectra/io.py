"""Reading and writing graph and perturbation description files.

Both formats are JSON.  A graph file holds ``dimension``, ``cell_size`` and
``edges`` as ``[origin_label, target_label, [index...]]`` triples; a
perturbation file holds either ``{"builtin": name, ...params}`` or an
explicit ``{"patch": {...}}`` with vertex/edge lists.  Labels are 1-based in
files (and everywhere else user-facing); internally they are 0-based.  Every
coordinate, label, edge index, ``dimension`` and ``cell_size`` is an integer
or its decimal text: a bool or any other number raises ``ParseError``, and so
does a cell or an index that is not a list.
"""

from __future__ import annotations

import json
from pathlib import Path

from .catalog import get_entry
from .errors import InputError, ParseError
from .graphs import FundEdge, PeriodicGraph, Vertex, build_periodic
from .perturbation import Patch, PerturbedGraph


def load_graph_file(path: str | Path) -> PeriodicGraph:
    data = _load_json(path)
    return graph_from_spec(data, source=str(path))


def graph_from_spec(data, source: str = "<graph>") -> PeriodicGraph:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: expected a JSON object")
    try:
        dim = _integer(data["dimension"])
        cell_size = _integer(data["cell_size"])
        raw_edges = data["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{source}: missing or malformed field ({exc})") from None
    edges = []
    for k, item in enumerate(raw_edges):
        try:
            origin, target, index = item
            edges.append(
                FundEdge(_integer(origin) - 1, _integer(target) - 1, _integers(index))
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{source}: edge {k} is malformed ({exc})") from None
    try:
        return build_periodic(dim, cell_size, edges)
    except InputError as exc:
        raise ParseError(f"{source}: {exc}") from None


def graph_to_spec(graph: PeriodicGraph) -> dict:
    return {
        "dimension": graph.dim,
        "cell_size": graph.cell_size,
        "edges": [
            [e.origin + 1, e.target + 1, list(e.index)] for e in graph.edges
        ],
    }


def write_graph_file(path: str | Path, graph: PeriodicGraph) -> None:
    Path(path).write_text(json.dumps(graph_to_spec(graph), indent=2) + "\n")


def _integer(value) -> int:
    """``value`` as an int: an integer that is not a bool, or its decimal
    text; anything else raises ``ValueError`` naming the value."""
    if isinstance(value, str):
        return int(value)
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _integers(values) -> tuple[int, ...]:
    """A cell or an edge index: a list of integers (``_integer``), not a
    text, whose characters would be read one by one."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{values!r} is not a list")
    return tuple(values) if set(map(type, values)) <= {int} else tuple(map(_integer, values))


def _vertex_from_spec(obj, source: str) -> Vertex:
    try:
        cell, label = obj
        return Vertex(_integers(cell), _integer(label) - 1)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{source}: malformed vertex {obj!r} ({exc})") from None


def _edge_list(items, source: str) -> tuple:
    out = []
    for item in items:
        try:
            u, v = item
        except (TypeError, ValueError):
            raise ParseError(f"{source}: malformed edge {item!r}") from None
        out.append((_vertex_from_spec(u, source), _vertex_from_spec(v, source)))
    return tuple(out)


def perturbation_from_spec(
    data, base: PeriodicGraph, source: str = "<perturbation>"
) -> PerturbedGraph:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: expected a JSON object")
    if "builtin" in data:
        params = {k: v for k, v in data.items() if k != "builtin"}
        entry = get_entry(str(data["builtin"]), **params)
        if entry.perturbation is None:
            raise ParseError(
                f"{source}: builtin '{data['builtin']}' is not a perturbation"
            )
        if entry.perturbation.base != base:
            raise ParseError(
                f"{source}: builtin '{data['builtin']}' is a perturbation of a "
                f"different base graph"
            )
        return entry.perturbation
    if "patch" in data:
        spec = data["patch"]
        if not isinstance(spec, dict):
            raise ParseError(f"{source}: 'patch' must be an object")
        patch = Patch(
            removed_vertices=frozenset(
                _vertex_from_spec(v, source)
                for v in spec.get("removed_vertices", [])
            ),
            removed_edges=_edge_list(spec.get("removed_edges", []), source),
            added_vertices=frozenset(
                _vertex_from_spec(v, source) for v in spec.get("added_vertices", [])
            ),
            added_edges=_edge_list(spec.get("added_edges", []), source),
        )
        try:
            return PerturbedGraph(base, patch, name=source)
        except InputError as exc:
            raise ParseError(f"{source}: {exc}") from None
    raise ParseError(f"{source}: need either 'builtin' or 'patch'")


def load_perturbation_file(path: str | Path, base: PeriodicGraph) -> PerturbedGraph:
    return perturbation_from_spec(_load_json(path), base, source=str(path))


def _load_json(path: str | Path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
