"""Golden outputs: small CLI commands checked against files in tests/data/golden.

Each case runs one command in-process and compares its exit code exactly and
each ``.csv``/``.json`` output with the stored file.  Text is compared
exactly; a number is compared to 1e-12 relative, with an absolute floor of
1e-15 for values that are zero up to roundoff, so counts, centres and labels
must match exactly.  The manifest digest is left out: it changes with the
library version, and the determinism tests in ``test_cli.py`` cover it.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``, and
only in a change that says in ``CHANGES.md`` why its outputs differ.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

from periodic_spectra.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
PATCH = str(DATA / "patch_lattice2.json")

CASES = {
    "bands_g21": ["bands", "--graph", "builtin:g21", "--grid", "16"],
    "sigma_ess_g21": ["sigma-ess", "--graph", "builtin:g21", "--grid", "64"],
    "lambda_set_cone": [
        "lambda-set", "--graph", "builtin:lattice2", "--perturbation", "builtin:cone",
        "--window=-2,8,-2,8",
    ],
    "condition_p_hit": [
        "condition-p", "--graph", "builtin:lattice2",
        "--perturbation", "builtin:random_pendant,p=0.5,seed=7",
        "--n", "1", "--window", "0,20,0,20",
    ],
    "condition_p_miss": [
        "condition-p", "--graph", "builtin:lattice2",
        "--perturbation", "builtin:random_pendant,p=0.5,seed=7",
        "--n", "3", "--window", "0,10,0,10",
    ],
    "weyl_half_plane": [
        "weyl-check", "--graph", "builtin:half_plane",
        "--lambda", "0.25", "--n-list", "2,4,8",
    ],
    "weyl_cone": [
        "weyl-check", "--graph", "builtin:cone", "--lambda", "-0.5", "--n-list", "2,4",
    ],
    "weyl_pendant_2d": [
        "weyl-check", "--graph", "builtin:lattice2",
        "--perturbation", "builtin:random_pendant,p=0.05,seed=3",
        "--lambda", "0.3", "--n-list", "2,3,4",
    ],
    "weyl_pendant_3d": [
        "weyl-check", "--graph", "builtin:lattice3",
        "--perturbation", "builtin:random_pendant,p=0.01,seed=3,dim=3",
        "--lambda", "0.1", "--n-list", "2,3",
    ],
    "truncate_induced": [
        "truncate", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
        "--box=-4,4,-4,4",
    ],
    "truncate_wrap": ["truncate", "--graph", "builtin:g11", "--box=-8,7", "--wrap"],
    "truncate_patch_file": [
        "truncate", "--graph", "builtin:lattice2", "--perturbation", PATCH,
        "--box=-3,3,-3,3",
    ],
    "weyl_patch_file": [
        "weyl-check", "--graph", "builtin:lattice2", "--perturbation", PATCH,
        "--lambda", "0.5", "--n-list", "2,3", "--window=-4,4,-4,4",
    ],
    "exit2_window_arity": [
        "condition-p", "--graph", "builtin:lattice2", "--perturbation", "builtin:cone",
        "--n", "1", "--window", "0,5",
    ],
    "exit3_no_clear_box": [
        "weyl-check", "--graph", "builtin:half_plane",
        "--lambda", "0.0", "--n-list", "8", "--window", "0,2,0,2",
    ],
}


def run_case(name: str, out_dir: Path) -> tuple[int, dict[str, str]]:
    """Exit code of case ``name`` and its ``.csv``/``.json`` outputs by file name."""
    argv = CASES[name] + ["--threads", "1", "--out", str(out_dir / name)]
    code = main(argv)
    files = {
        path.name: path.read_text()
        for path in sorted(out_dir.glob(f"{name}.*"))
        if path.suffix in (".csv", ".json") and not path.name.endswith(".manifest.json")
    }
    return code, files


def _same_number(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _same_cell(a: str, b: str) -> bool:
    try:
        return _same_number(float(a), float(b))
    except ValueError:
        return a == b


def _same_json(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return _same_number(a, b)
    return a == b


def _table(text: str) -> list[list[str]]:
    # the first line holds the manifest digest
    return [line.split(",") for line in text.splitlines()[1:]]


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    code, files = run_case(name, tmp_path)
    assert code == _exit_codes()[name]
    expected = sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    assert sorted(files) == expected
    for file_name, text in files.items():
        golden = (GOLDEN / file_name).read_text()
        if file_name.endswith(".json"):
            got, want = json.loads(text), json.loads(golden)
            got.pop("manifest_sha256")
            want.pop("manifest_sha256")
            assert _same_json(got, want), file_name
        else:
            got, want = _table(text), _table(golden)
            assert len(got) == len(want), file_name
            for row, (g, w) in enumerate(zip(got, want)):
                assert len(g) == len(w) and all(map(_same_cell, g, w)), (file_name, row)


def regenerate() -> None:
    """Rewrite every golden file and the exit codes from the current code."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            codes[name], files = run_case(name, Path(tmp))
            for file_name, text in files.items():
                (GOLDEN / file_name).write_text(text)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
