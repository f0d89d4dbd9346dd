import contextlib
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_spectra import cli, get_entry, make_g11, weyl
from periodic_spectra import graphs as graphs_module
from periodic_spectra import truncation as truncation_module
from periodic_spectra.cli import Lookup, RunContext, _fmt, _format_columns, _json_text, main
from periodic_spectra.errors import InternalInvariantError, ParseError
from periodic_spectra.perturbation import UnperturbedSet
from periodic_spectra.region import Region
from periodic_spectra.graphs import Vertex
from periodic_spectra.io import (
    graph_to_spec,
    load_graph_file,
    load_perturbation_file,
    write_graph_file,
)

from reference import band_grid


# A patch file whose added vertex has the label 0, and a graph file whose
# edge index is past ``graphs._INDEX_LIMIT``.
LABEL_0_PATCH = {
    "patch": {"added_vertices": [[[0, 0], 0]], "added_edges": [[[[0, 0], 0], [[0, 0], 1]]]}
}
HUGE_INDEX_FILE = {"dimension": 1, "cell_size": 1, "edges": [[1, 1, [10**20]]]}


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


def refuse_box(*args, **kwargs):
    raise AssertionError("the box was built before the flags were checked")


def table_text(digest, header_line, lines):
    return "\n".join([f"# manifest-sha256: {digest}", header_line, *lines]) + "\n"


# One small run of every file-writing command, and the output prefix it
# takes without ``--out``.
SMALL_RUNS = [
    (["bands", "--graph", "builtin:lattice1", "--grid", "4"], "bands"),
    (["sigma-ess", "--graph", "builtin:lattice1", "--grid", "4"], "sigma_ess"),
    (["lambda-set", "--graph", "builtin:lattice2", "--perturbation", "builtin:cone",
      "--window", "0,3,0,3"], "lambda_set"),
    (["condition-p", "--graph", "builtin:lattice2", "--perturbation", "builtin:cone",
      "--n", "1", "--window", "0,10,0,10"], "condition_p"),
    (["weyl-check", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
      "--lambda", "0.0", "--n-list", "2"], "weyl_check"),
    (["truncate", "--graph", "builtin:lattice1", "--box=0,5"], "truncate"),
    (["random-trial", "--p", "0.5", "--n", "1", "--trials", "100", "--seed", "3"],
     "random_trial"),
]


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

    def test_memory_grows_with_a_slab(self, tmp_path):
        """The 262,144 rows of a 3-D grid of 64 are solved by slabs and
        written by chunks, with the k columns looked up from one axis: no
        whole-grid quasimomenta, cells or fiber matrices are built.  Whole
        grid arrays and 65,536-row chunks trace a 31.9 MiB peak here."""
        argv = ["bands", "--graph", "builtin:lattice3", "--grid", "64", "--emit-plot-data"]
        tracemalloc.start()
        try:
            assert run(tmp_path, *argv, "--out", str(tmp_path / "b")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20

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


@st.composite
def lookups(draw):
    """(values, index) of a ``Lookup`` column: a few values of one kind, and
    rows that repeat them in any order, in an unsigned or a signed index."""
    kind = draw(st.sampled_from(sorted(CELLS)))
    values = draw(st.lists(CELLS[kind], min_size=1, max_size=6))
    values = np.array(values, dtype={"float": float, "int": np.int64, "text": str}[kind])
    rows = draw(st.lists(st.integers(0, len(values) - 1), max_size=30))
    return values, np.array(rows, dtype=draw(st.sampled_from([np.uint8, np.uint16, np.int64])))


def write_both(cols, chunk_rows):
    header = [f"c{j}" for j in range(len(cols))]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        ctx = RunContext("table", {}, str(Path(tmp) / "t"))
        columns = [values for _, values in cols]
        (csv,) = ctx.write_table(header, columns)
        (dat,) = ctx.write_table(header, columns, (".dat",))
        csv, dat = csv.read_text(), dat.read_text()
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

    @given(cols=tables(), chunk_rows=st.integers(1, 8))
    @example(cols=fixed_table(0), chunk_rows=4)
    @settings(max_examples=100, deadline=None)
    def test_csv_with_plot_data_equals_two_writes(self, cols, chunk_rows):
        """One pass that formats each chunk once for both files writes the
        bytes of a separate ``.csv`` and ``.dat`` write."""
        digest, header, csv, dat = write_both(cols, chunk_rows)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            cli, "_CHUNK_ROWS", chunk_rows
        ):
            ctx = RunContext("table", {}, str(Path(tmp) / "t"))
            paths = ctx.write_table(header, [values for _, values in cols], (".csv", ".dat"))
            both_csv, both_dat = (path.read_text() for path in paths)
        assert (both_csv, both_dat) == (csv, dat)

    @given(lookup=lookups(), chunk_rows=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_lookup_column_writes_the_column_it_stands_for(self, lookup, chunk_rows):
        values, index = lookup
        rows = np.arange(len(index))
        plain = write_both([("int", rows), ("any", values[index])], chunk_rows)
        assert write_both([("int", rows), ("lookup", Lookup(values, index))], chunk_rows) == plain

    def test_lookup_formats_each_value_once(self, monkeypatch):
        """A lookup column's texts are its values' texts, each formatted
        once; no set routine reads its rows."""
        axis = 2.0 * np.pi * np.arange(64) / 64
        index = np.indices((64, 64, 64), dtype=np.uint8)[1].reshape(-1)
        formatted, unique = [], np.unique

        def axis_unique(values, **kwargs):
            assert np.size(values) <= len(axis), "np.unique read the rows"
            return unique(values, **kwargs)

        monkeypatch.setattr(cli, "_fmt", lambda x: formatted.append(x) or _fmt(x))
        monkeypatch.setattr(np, "unique", axis_unique)
        ((texts, inverse),) = _format_columns([Lookup(axis, index)])
        assert sorted(formatted) == axis.tolist()
        assert texts[inverse].tolist() == [_fmt(x) for x in axis[index]]

    @pytest.mark.parametrize("text, plot_data", [("a,b", False), ("a,b", True), ("a b", True)])
    def test_cell_holding_a_separator_rejected(self, tmp_path, text, plot_data):
        ctx = RunContext("table", {}, str(tmp_path / "t"))
        extensions = (".csv", ".dat") if plot_data else (".csv",)
        with pytest.raises(InternalInvariantError, match="separator"):
            ctx.write_table(["n", "label"], [np.array([1, 2]), [text, "c"]], extensions)

    @pytest.mark.parametrize("text, plot_data", [("a,b", False), ("a,b", True), ("a b", True)])
    def test_lookup_text_holding_a_separator_rejected(self, tmp_path, text, plot_data):
        ctx = RunContext("table", {}, str(tmp_path / "t"))
        extensions = (".csv", ".dat") if plot_data else (".csv",)
        labels = Lookup(np.array(["c", text]), np.array([1, 0], dtype=np.uint8))
        with pytest.raises(InternalInvariantError, match="separator"):
            ctx.write_table(["n", "label"], [np.array([1, 2]), labels], extensions)

    def test_space_in_a_csv_only_table_accepted(self, tmp_path):
        ctx = RunContext("table", {}, str(tmp_path / "t"))
        (path,) = ctx.write_table(["n", "label"], [np.array([1, 2]), ["a b", "c"]])
        text = path.read_text()
        assert text.splitlines()[1:] == ["n,label", "1,a b", "2,c"]
        assert not (tmp_path / "t.dat").exists()

    @pytest.mark.parametrize(
        "header, columns",
        [
            (["n"], [np.array([1, 2]), np.array([0.5, 1.5])]),  # header too short
            (["n", "x", "y"], [np.array([1, 2]), np.array([0.5, 1.5])]),  # too long
            (["n", "x"], [np.array([1, 2, 3]), np.array([0.5, 1.5])]),  # ragged
            (["n", "x"], [np.array([], dtype=int), np.array([0.5])]),
        ],
    )
    @pytest.mark.parametrize("plot_data", [False, True])
    def test_table_shape_mismatch_rejected(self, tmp_path, header, columns, plot_data):
        ctx = RunContext("table", {}, str(tmp_path / "t"))
        extensions = (".csv", ".dat") if plot_data else (".csv",)
        with pytest.raises(InternalInvariantError, match="columns of lengths"):
            ctx.write_table(header, columns, extensions)

    def test_distinct_bit_patterns_keep_their_text(self):
        values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324])
        ((texts, inverse),) = _format_columns([values])
        assert texts[inverse].tolist() == [
            "0", "-0", "nan", "inf", "-inf", "0", "-0", "4.9406564584124654e-324"
        ]
        assert len(texts) == 6 and inverse.dtype == np.uint8

    @pytest.mark.parametrize(
        "values",
        [
            np.array([3, 1, 2, 3, 3]),  # narrow: every integer of the range
            np.array([0, 1000, 5, 5]),  # wide: the distinct values
            np.array([-5, -3, -5, -5], dtype=np.int32),
            np.array([-7, 2**40, -7]),
            np.array([2**62, 2**62 - 1, 2**62, 2**62 - 3, 2**62]),
            np.array([-(2**62), -(2**62) + 2, -(2**62), 5]),
            np.array([-(2**62), 2**62]),  # the range overflows int64
            np.array([-(2**63), 2**63 - 1] * 3),
            np.array([-128, 127] + [0] * 300, dtype=np.int8),  # difference wraps in int8
            np.array([2**63 + 1, 2**63, 2**64 - 1], dtype=np.uint64),
            np.array([2**64 - 1, 2**64 - 3, 2**64 - 1, 2**63 + 5], dtype=np.uint64),
            np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
            np.array([], dtype=np.int64),
        ],
    )
    def test_integer_columns(self, values):
        ((texts, inverse),) = _format_columns([values])
        assert texts[inverse].tolist() == [str(v) for v in values.tolist()]
        assert inverse.dtype == np.min_scalar_type(max(len(texts) - 1, 0))
        low, high = (int(values.min()), int(values.max())) if values.size else (0, -1)
        if high - low < len(values):
            assert texts.tolist() == [str(v) for v in range(low, high + 1)]
        else:
            assert texts.tolist() == [str(v) for v in sorted(set(values.tolist()))]

    def test_other_dtypes_rejected(self):
        with pytest.raises(TypeError):
            _format_columns([np.array([True, False])])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64("-inf")])
def test_json_writer_refuses_non_finite_numbers(value):
    with pytest.raises(InternalInvariantError, match="non-finite"):
        _json_text({"rows": [{"slope": value}]})
    assert _json_text({"slope": 1.5, "none": None}) == '{\n  "slope": 1.5,\n  "none": null\n}'


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

    @pytest.mark.parametrize(
        "graph, perturbation, lam, n_list",
        [
            pytest.param("builtin:lattice2", "builtin:half_plane", "0.0", "8", id="8"),
            pytest.param("builtin:lattice2", "builtin:half_plane", "0.0", "8,8", id="8,8"),
            # cells joined by no edge: every residual is 0, which has no logarithm
            pytest.param("cells.json", "pendant.json", "1", "2,4,8", id="zero-residuals"),
        ],
    )
    def test_undetermined_slope_is_null(self, tmp_path, graph, perturbation, lam, n_list):
        (tmp_path / "cells.json").write_text(
            json.dumps({"dimension": 1, "cell_size": 2, "edges": [[1, 2, [0]]]})
        )
        (tmp_path / "pendant.json").write_text(
            json.dumps({"patch": {"removed_vertices": [[[0], 1]]}})
        )
        warns = (
            pytest.warns(UserWarning, match="all edge indices are zero")
            if graph == "cells.json"
            else contextlib.nullcontext()
        )
        with warns:
            code = run(
                tmp_path,
                "weyl-check", "--graph", graph, "--perturbation", perturbation,
                "--lambda", lam, "--n-list", n_list, "--out", str(tmp_path / "wc"),
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
            (weyl, "residual_bound", lambda state: 1e-9, "exceeds its bound"),
            (weyl, "embedded_route_residual", lambda state, lam: 0.0, "differs from residual"),
            (weyl, "sup_norm_bound", lambda state: 0.0, "exceeds its bound"),
            (
                Region, "defect", lambda self, state: np.ones(self._grid_keys),
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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--dim", "0", "dimension must be >= 1, got 0"),
            ("--dim", "-1", "dimension must be >= 1, got -1"),
            ("--n", "0", "box radius must be >= 1, got 0"),
            # (2n + 1)^2 overflows a float in the closed form: refused before it
            pytest.param("--n", str(10**200), "has coordinates outside the 64-bit range",
                         id="n-10**200"),
        ],
    )
    def test_bad_box_exits_2(self, tmp_path, capsys, flag, value, message):
        argv = {"--p": "0.5", "--n": "1", "--dim": "2", "--trials": "100", "--seed": "3"}
        argv[flag] = value
        code = run(
            tmp_path, "random-trial", *[x for kv in argv.items() for x in kv],
            "--out", str(tmp_path / "mc"),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


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

    def test_cell_size_past_twice_the_edges_is_parse_error(self, tmp_path, capsys):
        # refused before a list of 10**12 degrees is made
        source = tmp_path / "graph.json"
        spec = {"dimension": 1, "cell_size": 10**12, "edges": [[1, 1, [1]]]}
        source.write_text(json.dumps(spec))
        out = str(tmp_path / "b")
        assert run(tmp_path, "bands", "--graph", str(source), "--grid", "2", "--out", out) == 2
        assert f"{source}: label 1 has no incident edges" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_malformed_builtin_params(self, tmp_path):
        assert run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:random_pendant,p0.5",
            "--n", "1", "--window", "0,5,0,5",
        ) == 2

    @pytest.mark.parametrize(
        "source, params, message",
        [
            ("perturbation", "p=abc,seed=1", "p must be a number, got 'abc'"),
            ("perturbation", "p=0.5,seed=1.5", "seed must be an integer, got '1.5'"),
            ("perturbation", "p=0.5,seed=1,dim=x", "dim must be an integer, got 'x'"),
            ("graph", "p=abc,seed=1", "p must be a number, got 'abc'"),
            ("graph", "p=0.5,seed=1.5", "seed must be an integer, got '1.5'"),
            ("graph", "p=0.5,seed=1,dim=x", "dim must be an integer, got 'x'"),
            ("file", {"p": "abc", "seed": 1}, "p must be a number, got 'abc'"),
            ("file", {"p": 0.5, "seed": 1.5}, "seed must be an integer, got 1.5"),
            ("file", {"p": 0.5, "seed": True}, "seed must be an integer, got True"),
            ("file", {"p": 0.5, "seed": 1, "dim": "x"}, "dim must be an integer, got 'x'"),
        ],
    )
    def test_malformed_pendant_parameter_exits_2(
        self, tmp_path, capsys, source, params, message
    ):
        """A ``random_pendant`` parameter that does not parse as its type
        exits 2 naming it, whether it comes from ``--graph``, from
        ``--perturbation`` or from a perturbation file."""
        if source == "graph":
            graph = ["--graph", f"builtin:random_pendant,{params}"]
        else:
            graph = ["--graph", "builtin:lattice2", "--perturbation"]
            if source == "file":
                spec = tmp_path / "pert.json"
                spec.write_text(json.dumps({"builtin": "random_pendant", **params}))
                graph.append(str(spec))
            else:
                graph.append(f"builtin:random_pendant,{params}")
        out = tmp_path / "out"
        assert run(
            tmp_path, "condition-p", *graph, "--n", "1", "--window", "0,5,0,5",
            "--out", str(out / "o"),
        ) == 2
        assert f"random_pendant parameter {message}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command, extra", [("lambda-set", []), ("condition-p", ["--n", "3"])])
    def test_window_beyond_the_mask_cap(self, tmp_path, capsys, command, extra):
        # 2e9 cells per axis: refused before any array is allocated
        axis = "-1000000000,1000000000"
        assert run(
            tmp_path,
            command, "--graph", "builtin:lattice2",
            "--perturbation", "builtin:random_pendant,p=0.5,seed=7",
            *extra, f"--window={axis},{axis}", "--out", str(tmp_path / "big"),
        ) == 2
        assert "unperturbed-set mask is capped at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_window_past_the_mask_cap(self, tmp_path, capsys):
        """An empty window is capped like any other: one axis of 2^31 cells
        beside an empty one is refused, where the empty mask of that shape
        raised ``ValueError``.  A small empty window writes an empty table,
        also when the ends of its empty axis pass 64 bits."""
        argv = ["lambda-set", "--graph", "builtin:lattice2", "--perturbation", "builtin:cone"]
        out = str(tmp_path / "empty")
        assert run(tmp_path, *argv, "--window=0,-1,0,2147483647", "--out", out) == 2
        assert "unperturbed-set mask is capped at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        for window in ("0,-1,0,5", f"{2**63 + 1},0,0,0"):
            assert run(tmp_path, *argv, f"--window={window}", "--out", out) == 0
            assert (tmp_path / "empty.csv").read_text().splitlines()[1:] == ["cell_1,cell_2,v1"]

    @pytest.mark.parametrize("dim", ["25", "2147483647"])
    def test_pendant_dimension_past_the_axis_limit(self, tmp_path, capsys, dim):
        """``Z^dim`` is refused before its dim^2 template entries are built."""
        assert run(
            tmp_path, "lambda-set", "--graph", "builtin:lattice2",
            "--perturbation", f"builtin:random_pendant,p=0,seed=0,dim={dim}", "--window=0,0",
            "--out", str(tmp_path / "o"),
        ) == 2
        assert f"random_pendant dimension {dim} is past 24" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("lambda-set", ["--window={0},{1},{0},{1}"]),
            ("weyl-check", ["--lambda", "0.2", "--n-list", "{1}"]),
        ],
    )
    def test_window_of_2200_digits(self, tmp_path, capsys, command, extra):
        # the padded box has about 4,400 digits of vertices, past the
        # 4,300 digits Python converts to text
        huge = str(10**2200)
        assert run(
            tmp_path,
            command, "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
            *[x.format(0, huge) for x in extra], "--out", str(tmp_path / "big"),
        ) == 2
        err = capsys.readouterr().err
        assert "unperturbed-set mask is capped at" in err and len(err) < 200
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, extra",
        [("condition-p", ["--n", "1"]), ("weyl-check", ["--lambda", "0.2", "--n-list", "1"])],
    )
    def test_search_window_beyond_64_bits(self, tmp_path, capsys, monkeypatch, command, extra):
        # refused before the search asks for the first of 10**20 cell rows
        def no_mask(*args):
            raise AssertionError("the search asked for a mask")

        monkeypatch.setattr(UnperturbedSet, "mask", no_mask)
        assert run(
            tmp_path,
            command, "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
            *extra, "--window=0,100000000000000000000,0,0", "--out", str(tmp_path / "big"),
        ) == 2
        assert "outside the 64-bit range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            # no centre of half_plane is clear: the search would walk 2^62 rows
            (["condition-p", "--graph", "builtin:lattice2", "--perturbation",
              "builtin:half_plane", "--n", "1", "--window=0,4611686018427387903,0,0",
              "--threads", "1"], "the box search is capped at 268435456"),
            # no centre of the counterexample at x >= 0 is clear: 2^31 cells
            (["condition-p", "--graph", "builtin:g11", "--perturbation",
              "builtin:counterexample", "--n", "1", "--window=0,2147483647", "--threads", "1"],
             "the box search is capped at 268435456"),
            (["random-trial", "--p", "0.5", "--n", "1", "--trials", "1000000000000",
              "--seed", "1"], "the Monte Carlo is capped at 4294967296"),
            (["truncate", "--graph", "builtin:lattice1", "--box=0,9999999", "--wrap"],
             "a wrap is capped at 1048576"),
        ],
        ids=["condition-p", "condition-p-1d", "random-trial", "truncate-wrap"],
    )
    def test_work_past_its_cap_exits_2_at_once(self, tmp_path, argv, message):
        """Refused before the work starts, in a process whose address space
        is capped, so neither a 10 s run nor a ``MemoryError`` passes."""
        code, seconds, err = _run_capped(tmp_path, [*argv, "--out", str(tmp_path / "o")])
        assert code == 2, err
        assert message in err and seconds < 1.0
        assert list(tmp_path.iterdir()) == []

    def test_window_of_2_to_the_64_centres_per_row(self, tmp_path, capsys):
        # 2**32 centres on each lateral axis: their product, 2**64 centres
        # per row, must not wrap to 0 and report an empty window
        assert run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice3",
            "--perturbation", "builtin:random_pendant,p=0.01,seed=3,dim=3",
            "--n", "2", "--window=0,0,0,4294967295,0,4294967295",
            "--out", str(tmp_path / "big"),
        ) == 2
        assert "unperturbed-set mask is capped at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_state_beyond_the_mask_cap_is_refused_before_the_search(
        self, tmp_path, capsys, monkeypatch
    ):
        # n=5000 is refused from the size of its region, before the search
        # reads the 10,001 cell rows of the default 20005^2 window
        def no_search(*args):
            raise AssertionError("the box search ran")

        monkeypatch.setattr(weyl, "find_unperturbed_box", no_search)
        assert run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "0", "--n-list", "5000", "--out", str(tmp_path / "big"),
        ) == 2
        assert "unperturbed-set mask is capped at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_window_beyond_64_bits(self, tmp_path, capsys):
        # the box padded by one cell reaches 2**63
        assert run(
            tmp_path,
            "lambda-set", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
            "--window=9223372036854775800,9223372036854775807,0,3",
        ) == 2
        assert "outside the 64-bit range" in capsys.readouterr().err

    def test_truncate_box_beyond_64_bits(self, tmp_path, capsys):
        assert run(
            tmp_path,
            "truncate", "--graph", "builtin:lattice1",
            "--box=9223372036854775807,9223372036854775808",
        ) == 2
        assert "outside the 64-bit range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid", ["0", "1", "7", "-2"])
    @pytest.mark.parametrize(
        "command",
        [
            ["bands", "--graph", "builtin:lattice1"],
            ["sigma-ess", "--graph", "builtin:lattice1"],
            ["weyl-check", "--graph", "builtin:lattice2", "--perturbation",
             "builtin:half_plane", "--lambda", "0.0", "--n-list", "2"],
            ["truncate", "--graph", "builtin:lattice1", "--box=0,5"],
        ],
        ids=["bands", "sigma-ess", "weyl-check", "truncate"],
    )
    def test_bad_grid_exits_2(self, tmp_path, capsys, monkeypatch, command, grid):
        monkeypatch.setattr(cli, "truncate", refuse_box)  # flags are checked first
        assert run(tmp_path, *command, f"--grid={grid}", "--out", str(tmp_path / "o")) == 2
        assert "k=0 and k=pi exactly, got " + grid in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag, message",
        [
            (["truncate", "--graph", "builtin:lattice1", "--box=0,5"], "--eps",
             "eps must be positive and finite"),
            (["truncate", "--graph", "builtin:g11", "--box=0,5", "--wrap"], "--eps",
             "eps must be positive and finite"),
            (["sigma-ess", "--graph", "builtin:g21", "--grid", "8"], "--flat-tol",
             "flat_tol must be finite and >= 0"),
        ],
        ids=["truncate", "truncate-wrap", "sigma-ess"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-08"])
    def test_bad_tolerance_exits_2(
        self, tmp_path, capsys, monkeypatch, command, flag, message, value
    ):
        monkeypatch.setattr(cli, "truncate", refuse_box)  # flags are checked first
        assert run(tmp_path, *command, f"{flag}={value}", "--out", str(tmp_path / "o")) == 2
        assert f"{message}, got {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("wrap", [[], ["--wrap"]], ids=["induced", "wrap"])
    def test_bad_eps_exits_2_before_the_reference_spectrum(self, tmp_path, monkeypatch, wrap):
        def refuse_reference(*args, **kwargs):
            raise AssertionError("the reference spectrum was sampled before --eps was checked")

        monkeypatch.setattr(cli, "essential_spectrum", refuse_reference)
        argv = ["truncate", "--graph", "builtin:g11", "--box=0,5", *wrap, "--eps=-1"]
        assert run(tmp_path, *argv, "--out", str(tmp_path / "o")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_2(self, tmp_path, capsys, value):
        assert run(
            tmp_path,
            "weyl-check", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
            f"--lambda={value}", "--n-list", "2", "--out", str(tmp_path / "o"),
        ) == 2
        assert f"the band value must be finite, got {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["bands", "--graph", "builtin:lattice3", "--grid", "100000"],
            ["sigma-ess", "--graph", "builtin:lattice2", "--grid", "8192"],
            ["weyl-check", "--graph", "builtin:lattice2", "--perturbation",
             "builtin:half_plane", "--lambda", "0.0", "--n-list", "2", "--grid", "8192"],
            ["truncate", "--graph", "builtin:lattice1", "--box=0,5", "--grid", "16777218"],
            ["truncate", "--graph", "builtin:lattice2", "--box=0,4096,0,4096", "--wrap"],
            ["random-trial", "--p", "0.5", "--n", "100000", "--dim", "3", "--trials", "1",
             "--seed", "0"],
            # (2n + 1)^20 overflows a float: refused before the closed form
            ["random-trial", "--p", "0.5", "--n", str(10**18), "--dim", "20", "--trials", "1",
             "--seed", "0"],
            # a count of over 4300 digits, past Python's int-to-str limit
            ["random-trial", "--p", "0.5", "--n", "1", "--dim", "10000", "--trials", "10",
             "--seed", "1"],
            # refused before 2^31 axes are listed
            ["random-trial", "--p", "0.5", "--n", "1", "--dim", "2147483647", "--trials", "10",
             "--seed", "1"],
        ],
        ids=["bands", "sigma-ess", "weyl-check", "truncate", "truncate-wrap", "random-trial",
             "random-trial-overflow", "random-trial-axes", "random-trial-axes-2^31"],
    )
    def test_box_beyond_the_cell_cap_exits_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "a whole box is capped at 16777216" in err and len(err) < 100
        assert list(tmp_path.iterdir()) == []

    def test_oversized_induced_box_is_refused_while_listed(
        self, tmp_path, capsys, monkeypatch
    ):
        """An induced box past the dense cap exits 2 once it has listed more
        than 4000 vertices, not after listing all 250,000."""
        calls = []
        listed = graphs_module.PeriodicOracle.vertices_in_cell

        def counted(self, cell):
            calls.append(cell)
            return listed(self, cell)

        monkeypatch.setattr(graphs_module.PeriodicOracle, "vertices_in_cell", counted)
        assert run(
            tmp_path,
            "truncate", "--graph", "builtin:lattice2", "--box=0,499,0,499",
            "--out", str(tmp_path / "o"),
        ) == 2
        assert "box lists more than 4000 vertices" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert len(calls) <= 8000

    def test_box_under_the_cell_cap_is_listed_in_chunks(self, tmp_path, capsys, monkeypatch):
        """An induced box of 4096^2 cells is under the whole-box cap and far
        over the dense one; refusing it lists one chunk of cells, never the
        whole box."""
        sizes = []
        listed = truncation_module.box_cell_array

        def counted(box, at=None):
            cells = listed(box, at)
            sizes.append(len(cells))
            return cells

        monkeypatch.setattr(truncation_module, "box_cell_array", counted)
        assert run(
            tmp_path,
            "truncate", "--graph", "builtin:lattice2", "--box=0,4095,0,4095",
            "--out", str(tmp_path / "o"),
        ) == 2
        assert "box lists more than 4000 vertices" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert sizes and max(sizes) <= 4096

    def test_box_at_the_cell_cap_runs(self, tmp_path, monkeypatch):
        """The cap is inclusive: with it lowered to 4^3 cells, a 3-D
        ``bands`` grid of 4 runs and one of 6 exits 2."""
        monkeypatch.setattr(graphs_module, "_BOX_CELL_LIMIT", 64)
        argv = ["bands", "--graph", "builtin:lattice3", "--out", str(tmp_path / "o")]
        assert run(tmp_path, *argv, "--grid", "4") == 0
        assert len((tmp_path / "o.csv").read_text().splitlines()) == 2 + 64
        assert run(tmp_path, *argv, "--grid", "6") == 2

    def test_base_mismatch_rejected(self, tmp_path):
        assert run(
            tmp_path,
            "condition-p", "--graph", "builtin:lattice1",
            "--perturbation", "builtin:half_plane",
            "--n", "1", "--window", "0,5",
        ) == 2


LATTICE2_FILE = {"dimension": 2, "cell_size": 1, "edges": [[1, 1, [1, 0]], [1, 1, [0, 1]]]}


class TestIntegerFields:
    """Every integer of a graph or patch file is an integer or its decimal
    text: a bool or a non-integer number exits 2 naming the value instead of
    being truncated."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dimension", 2.0),
            ("dimension", True),
            ("cell_size", 1.5),
            ("origin", 1.9),
            ("target", True),
            ("index", 1.5),
            ("index", "10"),
        ],
    )
    def test_graph_file(self, tmp_path, capsys, field, value):
        spec = json.loads(json.dumps(LATTICE2_FILE))
        if field in ("dimension", "cell_size"):
            spec[field] = value
        else:
            edge = spec["edges"][0]
            if field == "index" and isinstance(value, str):
                edge[2] = value  # a text index, not a list
            elif field == "index":
                edge[2][0] = value
            else:
                edge[0 if field == "origin" else 1] = value
        source = tmp_path / "graph.json"
        source.write_text(json.dumps(spec))
        assert run(tmp_path, "sigma-ess", "--graph", str(source), "--grid", "4") == 2
        kind = "a list" if isinstance(value, str) else "an integer"
        assert f"{value!r} is not {kind}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"removed_vertices": [[[0.7, 2], 1]]}, "0.7 is not an integer"),
            ({"removed_vertices": [[[0, 2], True]]}, "True is not an integer"),
            ({"removed_edges": [[[[0, 0], 1], [[1.0, 0], 1]]]}, "1.0 is not an integer"),
            ({"added_vertices": [[[0, 0], 2.5]]}, "2.5 is not an integer"),
            ({"removed_vertices": [["12", 1]]}, "'12' is not a list"),
        ],
    )
    def test_patch_file(self, tmp_path, capsys, entry, message):
        source = tmp_path / "patch.json"
        source.write_text(json.dumps({"patch": entry}))
        assert run(
            tmp_path, "condition-p", "--graph", "builtin:lattice2",
            "--perturbation", str(source), "--n", "1", "--window", "0,5,0,5",
            "--out", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert "malformed vertex" in err and message in err
        assert not (tmp_path / "out.json").exists()

    def test_decimal_text_is_read(self, tmp_path):
        spec = json.loads(json.dumps(LATTICE2_FILE))
        spec["dimension"] = "2"
        spec["edges"][0] = ["1", "1", ["1", "0"]]
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(spec))
        patch = tmp_path / "patch.json"
        patch.write_text(json.dumps({"patch": {"removed_vertices": [[["0", "2"], "1"]]}}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(LATTICE2_FILE))
        base = load_graph_file(graph)
        assert base == load_graph_file(plain)
        perturbed = load_perturbation_file(patch, base)
        assert perturbed.patch.removed_vertices == frozenset({Vertex((0, 2), 0)})


    def test_added_vertex_of_another_dimension_is_a_parse_error(self, tmp_path):
        patch = tmp_path / "patch.json"
        patch.write_text(json.dumps({"patch": {"added_vertices": [[[0, 0, 0], 1]]}}))
        message = "added vertex (0,0,0|v0) has 3 coordinates, the graph has dimension 2"
        with pytest.raises(ParseError, match=re.escape(f"{patch}: {message}")):
            load_perturbation_file(patch, get_entry("lattice2").base)


    def test_index_past_the_phase_limit_is_a_parse_error(self, tmp_path, capsys):
        """A float64 phase ``k.x`` loses about 2^-52 * 2 pi * |x|: with an index
        of 10^20 every band value is 1, yet the phases gave other values."""
        source = tmp_path / "graph.json"
        source.write_text(json.dumps(HUGE_INDEX_FILE))
        for command in ("bands", "sigma-ess"):
            assert run(tmp_path, command, "--graph", str(source), "--grid", "4") == 2
            assert "has an index component past 1048576" in capsys.readouterr().err
        spec = {"dimension": 1, "cell_size": 1, "edges": [[1, 1, [-(1 << 20)]]]}
        source.write_text(json.dumps(spec))
        assert run(tmp_path, "bands", "--graph", str(source), "--grid", "4") == 0


class TestPerturbationFiles:
    def test_added_vertex_of_label_0_exits_2(self, tmp_path, capsys):
        """File labels are 1-based, so label 0 is the internal label -1,
        which ``Vertex`` does not give a vertex."""
        source = tmp_path / "patch.json"
        source.write_text(json.dumps(LABEL_0_PATCH))
        code = run(
            tmp_path, "truncate", "--graph", "builtin:lattice2", "--perturbation", str(source),
            "--box=-1,1,-1,1", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "added vertex (0,0|v-1) has the label -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [source]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["weyl-check", "--lambda", "0.0", "--n-list", "2", "--window=2,2,0,0"],
            ["truncate", "--box=-2,6,-2,2"],
        ],
        ids=["weyl-check", "truncate"],
    )
    def test_added_vertex_of_another_dimension_exits_2(self, tmp_path, capsys, argv):
        # the 3-coordinate vertex sits next to the box of both commands
        # through its added edge to (5, 0)
        source = tmp_path / "patch.json"
        source.write_text(json.dumps({"patch": {
            "added_vertices": [[[0, 0, 0], 1]],
            "added_edges": [[[[0, 0, 0], 1], [[5, 0], 1]]],
        }}))
        code = run(
            tmp_path, argv[0], "--graph", "builtin:lattice2", "--perturbation", str(source),
            *argv[1:], "--out", str(tmp_path / "out"),
        )
        assert code == 2
        message = "added vertex (0,0,0|v0) has 3 coordinates, the graph has dimension 2"
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [source]

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
    @pytest.mark.parametrize("argv, prefix", SMALL_RUNS, ids=[p for _, p in SMALL_RUNS])
    @pytest.mark.parametrize("flag", ["0", "-3"])
    def test_thread_count_below_one_exits_2(self, tmp_path, capsys, argv, prefix, flag):
        assert run(tmp_path, *argv, "--threads", flag) == 2
        assert f"--threads must be at least 1, got {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_default_thread_count_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._resolve_threads(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._resolve_threads(None) == 64

    @pytest.mark.parametrize("value", ["nope", "0", "2"])
    def test_thread_variable_sets_no_default(self, monkeypatch, value):
        # PERIODIC_SPECTRA_THREADS is no longer read: only --threads and the
        # affinity mask set the count
        monkeypatch.setenv("PERIODIC_SPECTRA_THREADS", value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert cli._resolve_threads(None) == 3

    @pytest.mark.parametrize("argv, prefix", SMALL_RUNS, ids=[p for _, p in SMALL_RUNS])
    def test_thread_variable_is_not_read(self, tmp_path, monkeypatch, capsys, argv, prefix):
        monkeypatch.setenv("PERIODIC_SPECTRA_THREADS", "nope")
        assert run(tmp_path, *argv) == 0
        assert "PERIODIC_SPECTRA_THREADS" not in capsys.readouterr().err
        assert (tmp_path / f"{prefix}.manifest.json").exists()

    @pytest.mark.parametrize("argv, prefix", SMALL_RUNS, ids=[p for _, p in SMALL_RUNS])
    def test_default_prefix_is_the_command_name(self, tmp_path, argv, prefix):
        assert run(tmp_path, *argv) == 0
        assert (tmp_path / f"{prefix}.manifest.json").exists()
        assert {path.name.split(".")[0] for path in tmp_path.iterdir()} == {prefix}

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


def _run_alone(directory, argv):
    """``argv`` run by ``main`` in a fresh interpreter inside ``directory``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = "import sys; from periodic_spectra.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=directory, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


# A run of ``main`` that times itself; its last line of output is the time.
_TIMED_MAIN = """
import sys, time
from periodic_spectra.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def _run_capped(directory, argv):
    """``argv`` run by ``main`` in a fresh interpreter inside ``directory``
    with its address space capped at 2 GB (``ulimit -v 2000000``): the exit
    code, the seconds ``main`` took (None if it printed none) and stderr.  A
    run past 10 s raises ``subprocess.TimeoutExpired``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    limit = 2_000_000 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, *argv],
        cwd=directory, env=env, capture_output=True, text=True, timeout=10, preexec_fn=cap,
    )
    lines = done.stdout.split()
    return done.returncode, float(lines[-1]) if lines else None, done.stderr


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_shared_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    """``main`` reuses one parser; a refused call, an optional flag given
    and then left out, and a ``--perturbation`` given and then left out each
    leave the next call's files as the same command writes alone."""

    def help_texts():
        texts = []
        for argv in (["--help"], ["condition-p", "--help"], ["weyl-check", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            texts.append(capsys.readouterr().out)
        return texts

    before = help_texts()
    with pytest.raises(SystemExit) as exit_info:
        main(["condition-p", "--n", "1", "--window", "0,5,0,5"])
    assert exit_info.value.code == 2
    assert "--graph" in capsys.readouterr().err
    patch = {"patch": {"removed_vertices": [[[x, 0], 1] for x in range(4)]}}
    weyl_argv = ["weyl-check", "--graph", "builtin:lattice2", "--perturbation",
                 "builtin:half_plane", "--lambda", "0.0", "--n-list", "2,4"]
    runs = [
        ["condition-p", "--graph", "builtin:lattice2", "--perturbation", "pert.json",
         "--n", "1", "--window", "0,6,0,6"],
        ["condition-p", "--graph", "builtin:half_plane", "--n", "1", "--window", "0,6,0,6"],
        [*weyl_argv, "--emit-plot-data"],
        weyl_argv,
    ]
    for step, argv in enumerate(runs):
        shared, alone = tmp_path / f"shared{step}", tmp_path / f"alone{step}"
        for directory in (shared, alone):
            directory.mkdir()
            (directory / "pert.json").write_text(json.dumps(patch))
        assert run(shared, *argv) == 0
        _run_alone(alone, argv)
        assert _files(shared) == _files(alone)
    assert read_json(tmp_path / "shared1" / "condition_p.manifest.json")["parameters"][
        "perturbation"] is None
    assert {p.suffix for p in (tmp_path / "shared3").iterdir()} == {".json", ".csv"}
    assert help_texts() == before


def test_graph_roundtrip(tmp_path):
    graph = make_g11().base
    spec = graph_to_spec(graph)
    assert spec["edges"] == [[1, 1, [-1]], [1, 2, [0]]]
    path = tmp_path / "g.json"
    write_graph_file(path, graph)
    assert load_graph_file(path) == graph
