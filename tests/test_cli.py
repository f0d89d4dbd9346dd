import hashlib
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_spectra import band_grid, cli, get_entry, make_g11, weyl
from periodic_spectra.cli import RunContext, _fmt, _format_columns, main
from periodic_spectra.region import Region
from periodic_spectra.io import (
    graph_to_spec,
    load_graph_file,
    write_graph_file,
)


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def read_json(path):
    return json.loads(path.read_text())


def row_by_row(columns, sep):
    """Reference for the column formatter: the row-by-row join it replaced,
    every cell formatted on its own (floats by ``_fmt``, integers by ``str``,
    text as given).  ``columns`` is a list of (kind, values) pairs."""
    cell = {"float": _fmt, "int": str, "text": str}
    nrows = len(columns[0][1])
    return [
        sep.join(cell[kind](values[r]) for kind, values in columns)
        for r in range(nrows)
    ]


def table_text(digest, header_line, lines):
    return "\n".join([f"# manifest-sha256: {digest}", header_line, *lines]) + "\n"


class TestSigmaEss:
    def test_builtin_pendant_chain(self, tmp_path):
        code = run(
            tmp_path,
            "sigma-ess", "--graph", "builtin:g11", "--grid", "256",
            "--out", str(tmp_path / "spec"),
        )
        assert code == 0
        payload = read_json(tmp_path / "spec.json")
        intervals = payload["intervals"]
        assert len(intervals) == 2
        assert intervals[0]["lo"] == pytest.approx(-1.0, abs=1e-9)
        assert intervals[0]["hi"] == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert intervals[1]["lo"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert intervals[1]["hi"] == pytest.approx(1.0, abs=1e-9)
        assert not intervals[0]["flat"]

    def test_flat_band_marked(self, tmp_path):
        run(
            tmp_path,
            "sigma-ess", "--graph", "builtin:g21", "--grid", "64",
            "--out", str(tmp_path / "g21"),
        )
        payload = read_json(tmp_path / "g21.json")
        flats = [iv for iv in payload["intervals"] if iv["flat"]]
        assert len(flats) == 1
        assert flats[0]["lo"] == pytest.approx(0.0, abs=1e-12)

    def test_graph_file_equals_builtin(self, tmp_path):
        path = tmp_path / "g11.json"
        write_graph_file(path, make_g11().base)
        assert load_graph_file(path) == make_g11().base
        run(
            tmp_path,
            "sigma-ess", "--graph", str(path), "--grid", "64",
            "--out", str(tmp_path / "from_file"),
        )
        run(
            tmp_path,
            "sigma-ess", "--graph", "builtin:g11", "--grid", "64",
            "--out", str(tmp_path / "from_builtin"),
        )
        a = read_json(tmp_path / "from_file.json")
        b = read_json(tmp_path / "from_builtin.json")
        assert a["intervals"] == b["intervals"]


class TestBands:
    def test_csv_layout(self, tmp_path):
        run(
            tmp_path,
            "bands", "--graph", "builtin:g11", "--grid", "8",
            "--out", str(tmp_path / "bands"), "--emit-plot-data",
        )
        lines = (tmp_path / "bands.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest-sha256: ")
        assert lines[1] == "k_1,lambda_1,lambda_2"
        assert len(lines) == 2 + 8
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(1.0)
        assert (tmp_path / "bands.dat").exists()
        assert (tmp_path / "bands.manifest.json").exists()

    @pytest.mark.parametrize("name, grid", [("g21", 16), ("lattice3", 8)])
    def test_tables_equal_row_by_row_reference(self, tmp_path, name, grid):
        run(
            tmp_path,
            "bands", "--graph", f"builtin:{name}", "--grid", str(grid),
            "--out", str(tmp_path / "b"), "--emit-plot-data",
        )
        base = get_entry(name).base
        ks, lambdas = band_grid(base, grid)
        header = [f"k_{j + 1}" for j in range(base.dim)] + [
            f"lambda_{i + 1}" for i in range(base.cell_size)
        ]
        columns = [("float", col) for col in [*ks.T, *lambdas.T]]
        digest = hashlib.sha256((tmp_path / "b.manifest.json").read_bytes()).hexdigest()
        csv = table_text(digest, ",".join(header), row_by_row(columns, ","))
        dat = table_text(digest, "# " + " ".join(header), row_by_row(columns, " "))
        assert (tmp_path / "b.csv").read_bytes() == csv.encode()
        assert (tmp_path / "b.dat").read_bytes() == dat.encode()

    def test_manifest_hash_stamped_everywhere(self, tmp_path):
        run(
            tmp_path,
            "bands", "--graph", "builtin:lattice1", "--grid", "4",
            "--out", str(tmp_path / "b"),
        )
        manifest_text = (tmp_path / "b.manifest.json").read_text()
        import hashlib

        digest = hashlib.sha256(manifest_text.encode()).hexdigest()
        assert digest in (tmp_path / "b.csv").read_text()

    def test_manifest_excludes_threads(self, tmp_path):
        run(
            tmp_path,
            "bands", "--graph", "builtin:lattice1", "--grid", "4",
            "--out", str(tmp_path / "t1"), "--threads", "1",
        )
        run(
            tmp_path,
            "bands", "--graph", "builtin:lattice1", "--grid", "4",
            "--out", str(tmp_path / "t2"), "--threads", "3",
        )
        assert (tmp_path / "t1.manifest.json").read_text() == (
            tmp_path / "t2.manifest.json"
        ).read_text()


SPECIAL_FLOATS = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
    2.2250738585072014e-308 / 3, float(np.uint64(0x7FF8000000000001).view(np.float64)),
    1.0, 0.1, 1e308,
]
CELLS = {
    "float": st.sampled_from([0.0, -0.0]) | st.sampled_from(SPECIAL_FLOATS) | st.floats(),
    "int": st.integers(-(2**63), 2**63 - 1),
    "text": st.text(alphabet="-;v0123456789xyz", max_size=6),
}


@st.composite
def tables(draw):
    """(kind, values) pairs of one length; values repeat from a small pool
    and come as a list or an array."""
    nrows = draw(st.sampled_from([0, 1]) | st.integers(2, 30))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(sorted(CELLS)))
        pool = draw(st.lists(CELLS[kind], min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(pool), min_size=nrows, max_size=nrows))
        if draw(st.booleans()):
            values = np.array(values, dtype={"float": float, "int": np.int64, "text": str}[kind])
        out.append((kind, values))
    return out


def write_both(cols, chunk_rows):
    header = [f"c{j}" for j in range(len(cols))]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        ctx = RunContext("table", {}, str(Path(tmp) / "t"), 1)
        cells = _format_columns([values for _, values in cols])
        csv = ctx.write_csv(header, cells).read_text()
        dat = ctx.write_plot_data(header, cells).read_text()
    return ctx.digest, header, csv, dat


def fixed_table(nrows):
    return [
        ("int", list(range(7, 7 + nrows))),
        ("text", ["0;0;v1"] * nrows),
        ("float", np.full(nrows, -0.0)),
    ]


class TestColumnFormatter:
    @given(cols=tables(), chunk_rows=st.integers(1, 8))
    @example(cols=fixed_table(0), chunk_rows=4)
    @example(cols=fixed_table(1), chunk_rows=4)
    @settings(max_examples=150, deadline=None)
    def test_equals_row_by_row_join(self, cols, chunk_rows):
        digest, header, csv, dat = write_both(cols, chunk_rows)
        assert csv == table_text(digest, ",".join(header), row_by_row(cols, ","))
        assert dat == table_text(digest, "# " + " ".join(header), row_by_row(cols, " "))

    def test_distinct_bit_patterns_keep_their_text(self):
        values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324])
        (cells,) = _format_columns([values])
        assert cells == ["0", "-0", "nan", "inf", "-inf", "0", "-0", "4.9406564584124654e-324"]

    def test_other_dtypes_rejected(self):
        with pytest.raises(TypeError):
            _format_columns([np.array([True, False])])


class TestLambdaSet:
    def test_cone_bitmap(self, tmp_path):
        run(
            tmp_path,
            "lambda-set", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:cone",
            "--window", "0,3,0,3", "--out", str(tmp_path / "ls"),
        )
        lines = (tmp_path / "ls.csv").read_text().splitlines()
        assert lines[1] == "cell_1,cell_2,v1"
        grid = {}
        for line in lines[2:]:
            x, y, bit = line.split(",")
            grid[(int(x), int(y))] = int(bit)
        for (x, y), bit in grid.items():
            assert bit == (1 if x >= 1 and y >= 1 else 0)


class TestConditionP:
    def test_cone_center(self, tmp_path):
        run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:cone",
            "--n", "3", "--window", "0,20,0,20",
            "--out", str(tmp_path / "cp"),
        )
        payload = read_json(tmp_path / "cp.json")
        assert payload["center"] == {"cell": [4, 4], "label": 1}
        assert payload["box_lo"] == -3
        assert payload["box_hi"] == 3

    def test_seeded_random_pendant(self, tmp_path):
        run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:random_pendant,p=0.5,seed=7",
            "--n", "1", "--window", "0,60,0,60",
            "--out", str(tmp_path / "rp"),
        )
        payload = read_json(tmp_path / "rp.json")
        assert payload["center"] is not None
        assert payload["searched"] >= 1


class TestWeylCheck:
    def test_rows_and_slope(self, tmp_path):
        run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "0.0", "--n-list", "2,4,8",
            "--out", str(tmp_path / "wc"),
        )
        lines = (tmp_path / "wc.csv").read_text().splitlines()
        assert lines[1] == "n,x_n,residual,sup_norm,bound"
        assert len(lines) == 2 + 3
        payload = read_json(tmp_path / "wc.json")
        assert payload["slope"] < 0
        for row in payload["rows"]:
            assert row["residual"] <= row["bound"]
            assert row["defect_sup"] == 0.0

    @pytest.mark.parametrize("n_list", ["8", "8,8"])
    def test_one_distinct_n_has_no_slope(self, tmp_path, n_list):
        code = run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "0.0", "--n-list", n_list,
            "--out", str(tmp_path / "wc"),
        )
        assert code == 0
        payload = read_json(tmp_path / "wc.json")
        assert payload["slope"] is None
        assert len(payload["rows"]) == len(n_list.split(","))

    def test_thread_count_invariance(self, tmp_path):
        for label, threads in (("one", "1"), ("four", "4")):
            run(
                tmp_path,
                "weyl-check", "--graph", "builtin:lattice2",
                "--perturbation", "builtin:half_plane",
                "--lambda", "0.7", "--n-list", "2,4,8",
                "--out", str(tmp_path / label), "--threads", threads,
            )
        assert (tmp_path / "one.csv").read_bytes() == (
            tmp_path / "four.csv"
        ).read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (
            tmp_path / "four.json"
        ).read_bytes()


    @pytest.mark.parametrize(
        "owner, attr, fake, message",
        [
            (weyl, "residual_bound", lambda graph, state: 1e-9, "exceeds its bound"),
            (
                weyl, "embedded_route_residual", lambda graph, state, lam: 0.0,
                "differs from residual",
            ),
            (
                Region, "defect", lambda self, grid: np.ones(len(self.names)),
                "is not 0 on the clear box",
            ),
        ],
    )
    def test_broken_certificate_is_internal_error(
        self, tmp_path, monkeypatch, capsys, owner, attr, fake, message
    ):
        monkeypatch.setattr(owner, attr, fake)
        code = run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "0.0", "--n-list", "2",
            "--out", str(tmp_path / "wc"),
        )
        assert code == 4
        err = capsys.readouterr().err
        assert message in err
        assert "at n=2, centre (-6,3|v0)" in err


class TestTruncateCommand:
    def test_counterexample_zero_modes(self, tmp_path):
        run(
            tmp_path,
            "truncate", "--graph", "builtin:g11",
            "--perturbation", "builtin:counterexample",
            "--box=-20,20", "--out", str(tmp_path / "ce"),
        )
        payload = read_json(tmp_path / "ce.json")
        assert payload["zero_modes"] >= 21
        assert payload["vertices"] == 103

    def test_wrapped_ring(self, tmp_path):
        run(
            tmp_path,
            "truncate", "--graph", "builtin:lattice1",
            "--box", "0,255", "--wrap", "--out", str(tmp_path / "ring"),
        )
        payload = read_json(tmp_path / "ring.json")
        assert payload["inside_fraction"] == 1.0
        lines = (tmp_path / "ring.csv").read_text().splitlines()
        assert len(lines) == 2 + 256


class TestRandomTrial:
    def test_estimate_close(self, tmp_path):
        run(
            tmp_path,
            "random-trial", "--p", "0.5", "--n", "1",
            "--trials", "200000", "--seed", "20240808",
            "--out", str(tmp_path / "mc"),
        )
        payload = read_json(tmp_path / "mc.json")
        assert abs(payload["z"]) <= 3.0
        assert payload["expected"] == pytest.approx(2.0**-9)

    def test_thread_invariance(self, tmp_path):
        for label, threads in (("s", "1"), ("p", "4")):
            run(
                tmp_path,
                "random-trial", "--p", "0.5", "--n", "1",
                "--trials", "200000", "--seed", "20240808",
                "--out", str(tmp_path / label), "--threads", threads,
            )
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "p.json").read_bytes()


class TestErrorPaths:
    def test_missing_file_is_parse_error(self, tmp_path):
        assert run(
            tmp_path,
            "sigma-ess", "--graph", str(tmp_path / "absent.json"), "--grid", "8",
        ) == 2

    def test_invalid_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(tmp_path, "sigma-ess", "--graph", str(bad), "--grid", "8") == 2

    def test_malformed_builtin_params(self, tmp_path):
        assert run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:random_pendant,p0.5",
            "--n", "1", "--window", "0,5,0,5",
        ) == 2

    def test_off_band_value_is_math_error(self, tmp_path):
        assert run(
            tmp_path,
            "weyl-check", "--graph", "builtin:g11",
            "--perturbation", "builtin:counterexample",
            "--lambda", "0.0", "--n-list", "2", "--window=-10,10",
        ) == 3

    def test_missed_band_value_is_math_error(self, tmp_path):
        # 5e-7 above the spectrum [-1, 1]: the grid matches, the refinement misses
        assert run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "1.0000005", "--n-list", "4,8,16",
        ) == 3

    def test_no_clear_box_is_math_error(self, tmp_path):
        assert run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "0.0", "--n-list", "8", "--window", "0,2,0,2",
        ) == 3

    def test_wrong_window_arity(self, tmp_path):
        assert run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:cone",
            "--n", "1", "--window", "0,5",
        ) == 2

    def test_base_mismatch_rejected(self, tmp_path):
        assert run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice1",
            "--perturbation", "builtin:half_plane",
            "--n", "1", "--window", "0,5",
        ) == 2


class TestPerturbationFiles:
    def test_patch_file(self, tmp_path):
        source = tmp_path / "patch.json"
        source.write_text(
            json.dumps(
                {
                    "patch": {
                        "added_vertices": [[[0], 2]],
                        "added_edges": [[[[0], 1], [[0], 2]]],
                    }
                }
            )
        )
        code = run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice1",
            "--perturbation", str(source),
            "--n", "2", "--window=-20,20",
            "--out", str(tmp_path / "patchy"),
        )
        assert code == 0
        payload = read_json(tmp_path / "patchy.json")
        # a single extra pendant at 0: first clear box sits left of it
        assert payload["center"]["cell"] == [-20]

    def test_builtin_file_form(self, tmp_path):
        source = tmp_path / "pert.json"
        source.write_text(json.dumps({"builtin": "half_plane"}))
        code = run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice2",
            "--perturbation", str(source),
            "--n", "2", "--window", "0,10,0,10",
            "--out", str(tmp_path / "hp"),
        )
        assert code == 0
        assert read_json(tmp_path / "hp.json")["center"]["cell"] == [0, 3]


class TestCatalogCommand:
    def test_listing(self, capsys, tmp_path):
        assert run(tmp_path, "catalog") == 0
        out = capsys.readouterr().out
        assert "g11" in out
        assert "random_pendant" in out


class TestResolution:
    def test_env_var_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERIODIC_SPECTRA_THREADS", "2")
        code = run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "0.0", "--n-list", "2,4",
            "--out", str(tmp_path / "env"),
        )
        assert code == 0
        monkeypatch.setenv("PERIODIC_SPECTRA_THREADS", "nope")
        assert run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "0.0", "--n-list", "2",
            "--out", str(tmp_path / "env2"),
        ) == 2

    def test_perturbed_entry_as_graph(self, tmp_path):
        code = run(
            tmp_path,
            "weyl-check", "--graph", "builtin:half_plane",
            "--lambda", "0.0", "--n-list", "2,4",
            "--out", str(tmp_path / "entry"),
        )
        assert code == 0
        payload = read_json(tmp_path / "entry.json")
        assert len(payload["rows"]) == 2

    def test_random_pendant_entry_as_graph(self, tmp_path):
        code = run(
            tmp_path,
            "condition-p", "--graph", "builtin:random_pendant,p=0.25,seed=3",
            "--n", "1", "--window", "0,40,0,40",
            "--out", str(tmp_path / "rp_entry"),
        )
        assert code == 0
        assert read_json(tmp_path / "rp_entry.json")["center"] is not None


def test_graph_roundtrip(tmp_path):
    graph = make_g11().base
    spec = graph_to_spec(graph)
    assert spec["edges"] == [[1, 1, [-1]], [1, 2, [0]]]
    path = tmp_path / "g.json"
    write_graph_file(path, graph)
    assert load_graph_file(path) == graph
