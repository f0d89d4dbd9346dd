"""Smoke tests of the public surface: the package's exported names and the
experiment scripts, so a renamed or deleted function fails here rather than
when a script is next run by hand."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import periodic_spectra
from periodic_spectra.graphs import Vertex
from periodic_spectra.region import Region

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# The vertex-by-vertex operators and the cell iterator of ``reference.py``.
REFERENCE_ONLY = (
    "apply_laplacian", "weighted_norm", "weighted_inner", "translate_state", "sup_norm",
    "_sorted_items", "embed_state", "apply_defect", "embedding_norm_bounds",
    "_support_degrees", "in_unperturbed_set", "windowed_bloch_state", "TentCutoff",
    "tent_value", "box_cells",
)


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
