"""Every command ends with a documented exit code, within a time and memory
budget, whatever edge numbers it is given.

``fuzz`` draws the numeric arguments of every command from edge values (0,
±1, 2, 2^31 ± 1, 2^63 ± 1, 2^64, 10^20, 10^2200, nan, ±inf, -0.0, 5e-324,
and their negations), windows and boxes of any axis count, the catalog graphs and a few graph and
patch files, and calls ``cli.main`` in-process for each.  Each call must
return 0, 2, 3 or 4 (or stop in the argument parser, which exits 2) before
a per-call timer fires.  The test runs ``fuzz`` in one child interpreter
with its address space capped, so that a run which would blow up memory
fails with ``MemoryError`` in the child instead of taking the host down.

Run it by hand with more examples and fresh draws::

    PYTHONPATH=src python tests/test_fuzz.py 5000 random
"""

import contextlib
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from periodic_spectra.cli import main

HERE = Path(__file__).resolve().parent
EXAMPLES = 3000  # about 12 s on a 2-vCPU host
CALL_SECONDS = 5.0
ADDRESS_SPACE = 1 << 30

EDGE_VALUES = [
    "0", "1", "-1", str(2**31 - 1), str(2**31 + 1), str(2**63 - 1), str(2**63 + 1),
    str(2**64), str(10**20), str(10**2200), "nan", "inf", "-inf", "-0.0", "5e-324",
]

# Files the child finds in its working directory: a patch whose added vertex
# has the label 0 (1-based in files, so an internal -1) and a graph whose edge
# index is 10^20.
FILES = {
    "label_0.json": {
        "patch": {"added_vertices": [[[0, 0], 0]], "added_edges": [[[[0, 0], 0], [[0, 0], 1]]]}
    },
    "huge_index.json": {"dimension": 1, "cell_size": 1, "edges": [[1, 1, [10**20]]]},
}
# half of the draws are small enough to pass the checks, so that the
# commands run on: a grid must be even, and 2 is the one even edge value that
# is not refused
signed = st.one_of(
    st.sampled_from(["0", "1", "-1", "2"]),
    st.sampled_from(EDGE_VALUES + [f"-{v}" for v in EDGE_VALUES if v[0] != "-"]),
)
# every graph a draw names, by its dimension
DIMENSIONS = {
    **{f"builtin:{name}": dim for name, dim in [
        ("lattice1", 1), ("lattice2", 2), ("lattice3", 3), ("g11", 1), ("g21", 1), ("cone", 2),
        ("half_plane", 2), ("counterexample", 1),
    ]},
    "huge_index.json": 1,
}
# a graph and a perturbation of it (or none)
PAIRS = [
    *((graph, None) for graph in DIMENSIONS),
    ("builtin:lattice2", "builtin:half_plane"),
    ("builtin:lattice2", "builtin:cone"),
    ("builtin:g11", "builtin:counterexample"),
    ("builtin:lattice2", "patch_lattice2.json"),
    ("builtin:lattice2", "label_0.json"),
]


@st.composite
def pairs(draw) -> tuple[str, str | None]:
    """A graph and a perturbation: mostly one of ``PAIRS`` or random
    pendants on the lattice of their dimension, at times any two."""
    kind = draw(st.sampled_from(["pair", "pair", "pendant", "any"]))
    if kind == "pair":
        return draw(st.sampled_from(PAIRS))
    perturbations = [None, *(p for _, p in PAIRS if p is not None)]
    if kind == "any":
        return draw(st.sampled_from(sorted(DIMENSIONS))), draw(st.sampled_from(perturbations))
    dim = draw(st.sampled_from(["1", "2", "3"]) | signed)
    pendant = f"builtin:random_pendant,p={draw(signed)},seed={draw(signed)},dim={dim}"
    return f"builtin:lattice{dim if dim in ('1', '2', '3') else 2}", pendant


def _axes(draw, dim: int) -> str:
    """A window or a box: mostly ``lo,hi`` for each of the ``dim`` axes, at
    times the same range on each, and otherwise 0 to 8 numbers."""
    size = draw(st.sampled_from([2 * dim] * 3 + [None]))
    numbers = draw(st.lists(signed, min_size=size or 0, max_size=size or 8))
    if numbers and len(numbers) % 2 == 0 and draw(st.booleans()):
        numbers = numbers[:2] * (len(numbers) // 2)
    return ",".join(numbers)


@st.composite
def commands(draw) -> list[str]:
    """One command line, with ``--threads 1`` wherever the command takes it."""
    command = draw(st.sampled_from([
        "bands", "sigma-ess", "lambda-set", "condition-p", "weyl-check", "truncate",
        "random-trial", "catalog",
    ]))
    if command == "catalog":
        return ["catalog"]
    if command == "random-trial":
        numbers = [f"--{name}={draw(signed)}" for name in ("p", "n", "dim", "trials", "seed")]
        return [command, *numbers, "--threads", "1", "--out", "out"]
    graph, perturbation = draw(pairs())
    dim = DIMENSIONS[graph]
    argv = [command, "--graph", graph, "--threads", "1", "--out", "out"]
    if perturbation is not None and command not in ("bands", "sigma-ess"):
        argv += ["--perturbation", perturbation]
    if command in ("bands", "sigma-ess"):
        argv.append(f"--grid={draw(signed)}")
    if command == "sigma-ess" and draw(st.booleans()):
        argv.append(f"--flat-tol={draw(signed)}")
    if command in ("lambda-set", "condition-p"):
        argv.append(f"--window={_axes(draw, dim)}")
    if command == "condition-p":
        argv.append(f"--n={draw(signed)}")
    if command == "weyl-check":
        n_list = ",".join(draw(st.lists(signed, min_size=1, max_size=3)))
        argv += [f"--lambda={draw(signed)}", f"--n-list={n_list}"]
        if draw(st.booleans()):
            argv.append(f"--window={_axes(draw, dim)}")
        if draw(st.booleans()):
            argv.append(f"--grid={draw(signed)}")
    if command == "truncate":
        argv.append(f"--box={_axes(draw, dim)}")
        if draw(st.booleans()):
            argv.append("--wrap")
        if draw(st.booleans()):
            argv.append(f"--eps={draw(signed)}")
        if draw(st.booleans()):
            argv.append(f"--grid={draw(signed)}")
    return argv


class Overran(Exception):
    """The per-call timer fired."""


def _overran(signum, frame):
    raise Overran(f"past {CALL_SECONDS} s")


def exit_code(argv: list[str]) -> int:
    """``cli.main(argv)`` with its output discarded; the argument parser's
    own exit gives its code."""
    sink = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def fuzz(examples: int, derandomize: bool) -> None:
    """Draw ``examples`` command lines and check each one's exit code, in a
    temporary directory that holds the files the draws name."""
    signal.signal(signal.SIGALRM, _overran)

    @given(argv=commands())
    @settings(
        max_examples=examples, deadline=None, database=None, derandomize=derandomize,
        suppress_health_check=list(HealthCheck),
    )
    def check(argv):
        code = exit_code(argv)
        assert code in (0, 2, 3, 4), (argv, code)

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        for name, spec in FILES.items():
            Path(directory, name).write_text(json.dumps(spec))
        shutil.copy(HERE / "data" / "patch_lattice2.json", directory)
        os.chdir(directory)
        try:
            check()
        finally:
            os.chdir(start)


def test_every_command_exits_within_its_budget():
    """``fuzz`` in a child interpreter whose address space is capped at
    ``ADDRESS_SPACE``; the first input that fails is in its output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE.parent / "src"), env.get("PYTHONPATH")) if p
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    done = subprocess.run(
        [sys.executable, str(Path(__file__)), str(EXAMPLES), "fixed"],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


if __name__ == "__main__":
    fuzz(int(sys.argv[1]), derandomize=sys.argv[2] == "fixed")
