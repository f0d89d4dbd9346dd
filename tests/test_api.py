"""Smoke tests of the public surface: the package's exported names and the
experiment scripts, so a renamed or deleted function fails here rather than
when a script is next run by hand."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import periodic_spectra
from periodic_spectra import floquet, graphs, perturbation, symmetry, truncation, weyl
from periodic_spectra.cli import RunContext
from periodic_spectra.graphs import Vertex
from periodic_spectra.region import Region
from periodic_spectra.truncation import TruncationReport

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# The vertex-by-vertex operators, the cell iterator and the whole-grid band
# sampler of ``reference.py``.
REFERENCE_ONLY = (
    "apply_laplacian", "weighted_norm", "weighted_inner", "translate_state", "sup_norm",
    "_sorted_items", "embed_state", "apply_defect", "embedding_norm_bounds",
    "_support_degrees", "in_unperturbed_set", "windowed_bloch_state", "TentCutoff",
    "tent_value", "box_cells", "sector_basis", "identity_vectors", "grid_points", "band_grid",
)

# The certificate of a test state: each reads the graph from the state.
CERTIFICATE = (
    "residual", "embedded_route_residual", "sup_norm_bound", "residual_bound", "residual_row",
)

# Public functions that nothing in the package or in ``scripts/`` calls, each
# kept on purpose.
UNCALLED = {
    # the file-format writer that pairs with ``load_graph_file``
    "io.write_graph_file",
    # the split of the bound that the acceptance suite checks
    "weyl.shifted_tent_diff_parts",
    # the tests' short vertex constructor
    "graphs.vert",
    # the entry point of the README quickstart
    "weyl.build_weyl_state",
}

# Attributes a package class assigns on ``self`` that nothing in the package
# or in ``scripts/`` reads, each kept on purpose.
UNREAD_FIELDS = {
    # the orbit images and characters of a sector, which
    # ``tests/reference.py::sector_basis`` lifts into the full eigenvector array
    "Sector.images",
    "Sector.odd",
    # public: the patch a perturbed graph was built from, which tests read
    "PerturbedGraph.patch",
}

# Parameter names that only ever took their default and are constants now.
CONSTANT_PARAMETERS = ("match_tol", "refine_tol", "tol", "chunk", "radius")


def test_all_names_resolve():
    missing = [name for name in periodic_spectra.__all__ if not hasattr(periodic_spectra, name)]
    assert missing == []
    assert len(set(periodic_spectra.__all__)) == len(periodic_spectra.__all__)
    # the eigenvectors ``spectrum_of_box`` returns for a wrap and for a split box
    assert {"BlochVectors", "SectorVectors"} <= set(periodic_spectra.__all__)


def test_every_public_import_is_exported():
    tree = ast.parse(Path(periodic_spectra.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert public - set(periodic_spectra.__all__) == set()


def test_reference_route_is_not_in_the_package():
    """The dict reference route lives with the tests, so the package keeps
    one route per operator and one cell iterator (``box_cell_array``)."""
    modules = [periodic_spectra] + [
        importlib.import_module(f"periodic_spectra.{info.name}")
        for info in pkgutil.iter_modules(periodic_spectra.__path__)
    ]
    found = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in REFERENCE_ONLY
        if hasattr(module, name)
    ]
    assert found == []
    assert not hasattr(Region, "vertices") and not hasattr(Vertex, "shifted")


def test_unread_fields_and_arguments_stay_deleted(tmp_path):
    """Fields no command reads, the graph argument a certificate takes from
    its state, and the per-command thread plumbing of ``RunContext``."""
    assert [f.name for f in dataclasses.fields(TruncationReport)] == [
        "inside_fraction", "boundary_count",
    ]
    assert not hasattr(weyl.WeylState, "vector")
    assert "vector" not in {f.name for f in dataclasses.fields(weyl.WeylState)}
    ctx = RunContext("bands", {}, str(tmp_path / "t"))
    assert not hasattr(ctx, "pool") and not hasattr(ctx, "threads")
    assert "threads" not in inspect.signature(RunContext).parameters
    for name in CERTIFICATE:
        assert "graph" not in inspect.signature(getattr(weyl, name)).parameters, name
    assert [f.name for f in dataclasses.fields(weyl.WeylState)] == [
        "n", "center", "embed_norm", "region", "grid", "rows",
    ]
    for module, name in [
        (floquet, "BandSample"), (graphs, "edge_index"), (perturbation, "box_is_clear"),
        (weyl, "rayleigh_value"), (weyl, "_state_rows"), (periodic_spectra, "BandSample"),
        (periodic_spectra, "edge_index"), (periodic_spectra, "box_is_clear"),
    ]:
        assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(truncation.BoxGraph, "index")
    # a split box keeps its sector solves: no lift into an ``(n, n)`` array
    assert not hasattr(symmetry.Sector, "lift") and not hasattr(symmetry.Sector, "twin")
    assert not hasattr(truncation, "_PERMUTE_ENTRIES")
    # a Region is built only on a clear box
    region = Region(periodic_spectra.make_half_plane().perturbation, (0, 5), 2)
    assert not any(hasattr(region, name) for name in ("clear", "_kept_at", "_off_grid"))
    assert not hasattr(perturbation.UnperturbedSet, "__contains__")
    # a Region has one index space, the keys of its twice-grown grid
    assert not any(
        hasattr(region, name)
        for name in (
            "row_at", "_box_keys", "_row_keys", "_name", "kept", "names", "size", "degrees",
            "unperturbed",
        )
    )
    assert "degree" not in graphs.PeriodicOracle.__dict__
    modules = [
        importlib.import_module(f"periodic_spectra.{info.name}")
        for info in pkgutil.iter_modules(periodic_spectra.__path__)
    ]
    for module in modules:
        for owner in [module, *(c for c in vars(module).values() if inspect.isclass(c))]:
            for name, value in vars(owner).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    taken = inspect.signature(value).parameters
                    assert not set(CONSTANT_PARAMETERS) & set(taken), (owner, name)


def _package_and_script_trees() -> dict[Path, ast.Module]:
    """The parsed package modules (``__init__`` re-exports and is left out)
    and ``scripts/``, by path."""
    package = Path(periodic_spectra.__file__).parent
    return {
        path: ast.parse(path.read_text())
        for path in [*sorted(package.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]
        if path.name != "__init__.py"
    }


def uncalled_functions(private: bool) -> set[str]:
    """The top-level functions and methods of the package modules
    (``__init__`` re-exports and is left out), public or private ones by
    ``private`` with dunder methods left out, that are read as a name or an
    attribute nowhere outside their own ``def``: not in a package module,
    nor in ``scripts/``.  Docstrings, comments and strings do not count."""
    package = Path(periodic_spectra.__file__).parent
    trees = _package_and_script_trees()

    def loads(tree) -> Counter:
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        )

    everywhere = sum((loads(tree) for tree in trees.values()), Counter())
    uncalled = set()
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                name = getattr(member, "name", "")
                if not isinstance(member, ast.FunctionDef) or name.startswith("_") != private:
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                if everywhere[name] == loads(member)[name]:
                    uncalled.add(f"{path.stem}.{name}")
    return uncalled


def unread_fields() -> set[str]:
    """``Class.name`` for every attribute that a method of a package class
    assigns on ``self`` and that no package module and no script reads as an
    attribute of any object (the match is by name).  Docstrings, comments
    and strings do not count."""
    package = Path(periodic_spectra.__file__).parent
    trees = _package_and_script_trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = set()
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in read
                ):
                    unread.add(f"{cls.name}.{node.attr}")
    return unread


def test_every_field_is_read():
    """Every attribute a package class assigns on ``self`` is read in the
    package or ``scripts/`` (``unread_fields``): a field left behind when its
    last reader goes shows up here."""
    assert unread_fields() == UNREAD_FIELDS


def test_every_public_function_has_a_caller():
    """Every public function has a caller in the package or ``scripts/``
    (``uncalled_functions``).  A second way to ask what another function
    answers shows up here."""
    assert uncalled_functions(private=False) == UNCALLED


def test_every_private_function_has_a_caller():
    """Every private function and method, dunder methods aside, has a caller
    in the package or ``scripts/``: a helper left behind when its last
    caller goes shows up here."""
    assert uncalled_functions(private=True) == set()


def test_every_module_uses_what_it_imports():
    """A standard-library stand-in for a linter's unused-import check: every
    name a package module imports is read somewhere in it.  ``__init__``
    imports to re-export and is left out."""
    unused = []
    for path in sorted(Path(periodic_spectra.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert unused == []


# numpy's set routines that import ``numpy.ma`` (10-20 ms once per process,
# numpy 2.4): the ``isin`` family always, ``unique`` unless a ``return_*``
# keyword is passed.
NUMPY_MA_CALLS = ("isin", "in1d", "union1d", "intersect1d", "setdiff1d", "setxor1d")


def test_package_calls_no_numpy_set_routine_that_imports_numpy_ma():
    found = []
    for path in sorted(Path(periodic_spectra.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
            ):
                continue
            name = node.func.attr
            plain_unique = name == "unique" and not any(
                (k.arg or "").startswith("return_") for k in node.keywords
            )
            if name in NUMPY_MA_CALLS or plain_unique:
                found.append(f"{path.name}:{node.lineno} np.{name}")
    assert found == []


# Every command once, in one fresh interpreter; ``lambda-set`` reads a patch
# of 64 removed vertices, enough that ``np.isin`` would sort rather than loop.
# Importing the CLI must not import ``concurrent.futures`` (about 4 ms), which
# only ``random-trial`` with more than one thread uses.
EVERY_COMMAND = """
import json, sys
from periodic_spectra.cli import main
pooled = "concurrent.futures" in sys.modules
removed = [[[x, y], 1] for x in range(8) for y in range(8)]
with open("removed.json", "w") as f:
    json.dump({"patch": {"removed_vertices": removed}}, f)
runs = [
    ["bands", "--graph", "builtin:lattice2", "--grid", "4"],
    ["sigma-ess", "--graph", "builtin:lattice2", "--grid", "4"],
    ["lambda-set", "--graph", "builtin:lattice2", "--perturbation", "removed.json",
     "--window=-20,20,-20,20"],
    ["condition-p", "--graph", "builtin:lattice2", "--perturbation", "removed.json",
     "--n", "1", "--window", "0,20,0,20"],
    ["weyl-check", "--graph", "builtin:half_plane", "--lambda", "0.0", "--n-list", "2,4",
     "--emit-plot-data"],
    ["truncate", "--graph", "builtin:half_plane", "--box=-5,5,-5,5"],
    ["truncate", "--graph", "builtin:cone", "--box=-5,5,-5,5"],
    ["truncate", "--graph", "builtin:lattice2", "--box=0,5,0,5", "--wrap"],
    ["random-trial", "--p", "0.5", "--n", "1", "--trials", "100", "--seed", "3"],
    ["catalog"],
]
codes = [main(argv) for argv in runs]
print(codes, "numpy.ma" in sys.modules, pooled)
"""


def test_no_command_imports_numpy_ma(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", EVERY_COMMAND],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * 10} False False"


def test_spectra_report_runs(capsys):
    spec = importlib.util.spec_from_file_location("spectra_report", SCRIPTS / "spectra_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(module.GRIDS) + 1
    assert lines[0].startswith("lattice1")


def test_residual_sweep_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "residual_sweep.py"), "--n-list", "4,8",
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "failed" not in done.stdout
    assert len(list(tmp_path.glob("*.csv"))) == 5
