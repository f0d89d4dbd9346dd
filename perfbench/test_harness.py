"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_harness.py

They run the ``selftest`` workload (one tiny operation of every kind).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from periodic_spectra import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(trace: int, seed: int = 2, root: Path = ROOT) -> tuple[dict, str]:
    """(last line, whole output) of one selftest run from ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest", "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def copy_benchmark(dest: Path) -> None:
    """``BENCHMARK.json`` and the benchmark's directory, as the driver's
    bare directory holds them."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    line, _ = run_benchmark(trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


def test_default_seed_is_compared_with_the_stored_reference(tmp_path):
    line, _ = run_benchmark(0, seed=workloads.DEFAULT_SEED)
    assert line["correct"] and line["failed"] == 0

    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    stored = tmp_path / "perfbench" / "reference" / "selftest.json"
    reference = json.loads(stored.read_text())
    reference["condition"]["searched"] += 1
    reference["weyl"]["rows"][0]["residual"] *= 1 + 1e-9
    del reference["bands"]
    truncate = reference["truncate"]  # eight numbers differ; five are reported
    for key in ("vertices", "dropped", "inside_fraction", "boundary_count", "eps", "zero_modes"):
        truncate[key] += 1
    truncate["eigenvalue_sample"] = [x + 1 for x in truncate["eigenvalue_sample"]]
    stored.write_text(json.dumps(reference))
    line, output = run_benchmark(0, seed=workloads.DEFAULT_SEED, root=tmp_path)
    assert not line["correct"] and line["failed"] == 4
    failed = [text for text in output.splitlines() if text.startswith("FAILED ")]
    assert "FAILED condition: reference: .searched: 49 != 50" in failed
    assert any(text.startswith("FAILED weyl: reference: .rows[0].residual") for text in failed)
    assert "FAILED bands: reference: none stored for the default seed" in failed
    assert sum(text.startswith("FAILED truncate: reference: ") for text in failed) == 5


def test_no_result_without_the_package(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture
def finished(tmp_path, monkeypatch):
    """The selftest workload run once in ``tmp_path``, outputs kept."""
    monkeypatch.chdir(tmp_path)
    work = workloads.build("selftest", 2, 1)
    for name, text in work.files.items():
        Path(name).write_text(text)
    codes = [cli.main(op.argv) for op in work.ops]
    return work, codes, checks.Context(work)


def problems_of(work, codes, ctx, name):
    i = [op.name for op in work.ops].index(name)
    return checks.check_op(work.ops[i], codes[i], Path("out"), ctx)[0]


def test_clean_outputs_pass(finished):
    work, codes, ctx = finished
    assert all(problems_of(work, codes, ctx, op.name) == [] for op in work.ops)


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("name, corrupt", [
    ("weyl", lambda: _edit_json(Path("out/weyl.json"),
                                lambda d: d["rows"][0].update(residual=2 * d["rows"][0]["bound"]))),
    ("weyl", lambda: _edit_json(Path("out/weyl.json"),
                                lambda d: d["rows"][1].update(defect_sup=1e-17))),
    ("condition", lambda: _edit_json(Path("out/condition.json"),
                                     lambda d: d.update(searched=d["searched"] + 1))),
    ("lambda", lambda: Path("out/lambda.csv").write_text(
        Path("out/lambda.csv").read_text().replace(",1\n", ",0\n", 1))),
    ("bands", lambda: Path("out/bands.csv").write_text(
        Path("out/bands.csv").read_text() + "0,0,1.5\n")),
    ("random_trial", lambda: _edit_json(Path("out/random_trial.json"),
                                        lambda d: d.update(z=6.0))),
    ("truncate", lambda: Path("out/truncate.csv").unlink()),
])
def test_corrupted_output_counts_as_failed(finished, name, corrupt):
    work, codes, ctx = finished
    corrupt()
    assert problems_of(work, codes, ctx, name)


def test_unexpected_exit_code_counts_as_failed(finished):
    work, codes, ctx = finished
    assert checks.check_op(work.ops[0], 3, Path("out"), ctx)[0]


def test_reference_comparison():
    ref = {"center": {"cell": [1, 2]}, "searched": 7, "residual": 0.25}
    assert checks.differences(dict(ref, residual=0.25 + 1e-14), ref) == []
    assert checks.differences(dict(ref, residual=0.25 + 1e-9), ref)
    assert checks.differences(dict(ref, searched=8), ref)
    assert checks.differences(dict(ref, center={"cell": [1, 3]}), ref)


def test_tracing_restores_module_attributes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    import worker  # imports the whole package

    modules = worker.package_modules()
    before = tracing.snapshot(modules)
    rec = tracing.Recorder()
    inst = tracing.Instrumentation(rec, modules)
    work = workloads.build("selftest", 2, 1)
    for name, text in work.files.items():
        Path(name).write_text(text)
    inst.install()
    try:
        assert not tracing.same_snapshot(before, tracing.snapshot(modules))
        for op in work.ops:
            assert cli.main(op.argv) == 0
            inst.end_operation()
    finally:
        inst.uninstall()
    assert tracing.same_snapshot(before, tracing.snapshot(modules))
    assert rec.counts["graphs.oracle_queries"] > 0
    assert rec.counts["truncation.dense_solves"] == 2
    selfs = rec.self_times()
    assert selfs["weyl.residual"] > 0 and selfs["truncation.spectrum_of_box"] > 0
