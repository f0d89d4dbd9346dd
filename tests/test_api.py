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
from periodic_spectra import floquet, graphs, perturbation, truncation, weyl
from periodic_spectra.cli import RunContext
from periodic_spectra.graphs import Vertex
from periodic_spectra.region import Region
from periodic_spectra.truncation import TruncationReport

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# The vertex-by-vertex operators and the cell iterator of ``reference.py``.
REFERENCE_ONLY = (
    "apply_laplacian", "weighted_norm", "weighted_inner", "translate_state", "sup_norm",
    "_sorted_items", "embed_state", "apply_defect", "embedding_norm_bounds",
    "_support_degrees", "in_unperturbed_set", "windowed_bloch_state", "TentCutoff",
    "tent_value", "box_cells",
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

# Parameter names that only ever took their default and are constants now.
CONSTANT_PARAMETERS = ("match_tol", "refine_tol", "tol")


def test_all_names_resolve():
    missing = [name for name in periodic_spectra.__all__ if not hasattr(periodic_spectra, name)]
    assert missing == []
    assert len(set(periodic_spectra.__all__)) == len(periodic_spectra.__all__)


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
        "n", "center", "embed_norm", "region", "grid",
    ]
    for module, name in [
        (floquet, "BandSample"), (graphs, "edge_index"), (perturbation, "box_is_clear"),
        (weyl, "rayleigh_value"), (periodic_spectra, "BandSample"),
        (periodic_spectra, "edge_index"), (periodic_spectra, "box_is_clear"),
    ]:
        assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(truncation.BoxGraph, "index")
    assert not hasattr(perturbation.UnperturbedSet, "__contains__")
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


def test_every_public_function_has_a_caller():
    """Every public top-level function and public method of a package module
    (``__init__`` re-exports and is left out) is read as a name or an
    attribute somewhere outside its own ``def``: in a package module or in
    ``scripts/``.  Docstrings, comments and strings do not count.  A second
    way to ask what another function answers shows up here."""
    package = Path(periodic_spectra.__file__).parent
    trees = {
        path: ast.parse(path.read_text())
        for path in [*sorted(package.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]
        if path.name != "__init__.py"
    }

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
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                if everywhere[member.name] == loads(member)[member.name]:
                    uncalled.add(f"{path.stem}.{member.name}")
    assert uncalled == UNCALLED


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
