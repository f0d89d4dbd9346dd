"""The benchmark's workloads: fixed operation lists with seeded inputs.

Every input the program receives (band targets, pendant seeds, the explicit
patch file, Monte Carlo seed, box offsets) is drawn from the workload seed,
so the same seed gives the same operations.  Each operation is one
``periodic_spectra.cli.main(argv)`` call; the benchmark makes the next one
only after the previous one returns (a closed loop with a single client).

Why these three (also recorded in ``BENCHMARK.json``):

* ``certify_large`` builds large test states at few centres, so its time sits
  in operator application, residuals, defect and embedding.
* ``scan_window`` asks many unperturbed-set and box-search questions with tiny
  states, so its time sits in membership queries and centre scans.
* ``spectra_io`` runs no perturbation search and no residual; its time goes to
  output formatting, batched fiber eigensolves, dense box solves and the
  vectorized Monte Carlo pool.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

# Explicit patch on Z^2: removals and additions drawn inside this square.
PATCH_HALF = 40
PATCH_FILE = "patch.json"


@dataclass
class Op:
    """One CLI call plus what its checks need to know about it."""

    name: str
    argv: list[str]
    kind: str  # which output check applies
    info: dict


@dataclass
class Workload:
    ops: list[Op]
    entries: list[tuple[str, dict]]  # catalog entries built during set-up
    files: dict[str, str] = field(default_factory=dict)  # generated input files
    patch: dict | None = None


def _window(half: int, dim: int) -> str:
    return ",".join(f"{-half},{half}" for _ in range(dim))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _in_band(rng: random.Random, bands: list[tuple[float, float]], margin: float) -> float:
    lo, hi = bands[int(rng.random() * len(bands))]
    return round(lo + margin + (hi - lo - 2 * margin) * rng.random(), 6)


def _weyl(name, graph, pert, lam, ns, slope, window=None) -> Op:
    argv = [
        "weyl-check", "--graph", graph,
        "--lambda", repr(lam), "--n-list", ",".join(map(str, ns)),
        "--threads", "1", "--out", f"out/{name}",
    ]
    if pert is not None:
        argv[3:3] = ["--perturbation", pert]
    if window is not None:
        argv.append(f"--window={window}")
    return Op(name, argv, "weyl", {"graph": graph, "pert": pert, "ns": ns,
                                   "slope_check": slope, "window": window})


def certify_large(seed: int, nproc: int) -> Workload:
    rng = _rng("certify_large", seed)
    lattice = [(-1.0, 1.0)]
    g11 = [(-1.0, -1.0 / 3.0), (1.0 / 3.0, 1.0)]
    ops = [
        _weyl("weyl_half_plane", "builtin:lattice2", "builtin:half_plane",
              _in_band(rng, lattice, 0.1), [4, 8, 16, 32, 64], True),
        _weyl("weyl_cone", "builtin:lattice2", "builtin:cone",
              _in_band(rng, lattice, 0.1), [4, 8, 16, 32], True),
        _weyl("weyl_counterexample", "builtin:g11", "builtin:counterexample",
              _in_band(rng, g11, 0.05), [8, 16, 32, 64, 128, 256], False),
    ]
    entries = [("lattice2", {}), ("half_plane", {}), ("cone", {}), ("g11", {}),
               ("counterexample", {})]
    return Workload(ops, entries)


def _pendant(p: float, seed: int, dim: int = 2) -> str:
    spec = f"builtin:random_pendant,p={p},seed={seed}"
    return spec + (f",dim={dim}" if dim != 2 else "")


def _lambda_set(name, graph, window, pert=None) -> Op:
    argv = ["lambda-set", "--graph", graph, f"--window={window}",
            "--threads", "1", "--out", f"out/{name}"]
    if pert is not None:
        argv[3:3] = ["--perturbation", pert]
    return Op(name, argv, "lambda", {"graph": graph, "pert": pert, "window": window})


def _condition_p(name, graph, n, window, pert=None) -> Op:
    argv = ["condition-p", "--graph", graph, "--n", str(n), f"--window={window}",
            "--threads", "1", "--out", f"out/{name}"]
    if pert is not None:
        argv[3:3] = ["--perturbation", pert]
    return Op(name, argv, "condition", {"graph": graph, "pert": pert, "n": n,
                                        "window": window})


def make_patch(rng: random.Random) -> dict:
    """Explicit patch inside the square of half-width PATCH_HALF.

    Removed vertices, removed lattice edges and added diagonal edges between
    vertices that stay present, in the file format (1-based labels).
    """
    cells = [(x, y) for x in range(-PATCH_HALF, PATCH_HALF + 1)
             for y in range(-PATCH_HALF, PATCH_HALF + 1)]
    removed = {c for c in cells if rng.random() < 0.01}
    removed_edges = []
    added_edges = []
    for x, y in cells:
        for nxt in ((x + 1, y), (x, y + 1)):
            if rng.random() < 0.02:
                removed_edges.append([[[x, y], 1], [list(nxt), 1]])
        diag = (x + 1, y + 1)
        if rng.random() < 0.02 and (x, y) not in removed and diag not in removed:
            added_edges.append([[[x, y], 1], [list(diag), 1]])
    return {
        "patch": {
            "removed_vertices": [[list(c), 1] for c in sorted(removed)],
            "removed_edges": removed_edges,
            "added_vertices": [],
            "added_edges": added_edges,
        }
    }


def scan_window(seed: int, nproc: int) -> Workload:
    rng = _rng("scan_window", seed)
    draw = lambda: rng.getrandbits(31)
    wide = _window(100, 2)
    ops = [
        _lambda_set("lambda_2d", _pendant(0.5, draw()), wide),
        _lambda_set("lambda_3d", _pendant(0.5, draw(), dim=3), _window(15, 3)),
        # p=0.5 and n=3 leave no clear 7x7 box: every centre is searched
        _condition_p("exhaustive", _pendant(0.5, draw()), 3, wide),
    ]
    # geometric hits: the first clear box turns up after a seed-dependent
    # number of centres, so several seeds keep the total steady
    for i in range(16):
        ops.append(_condition_p(f"geometric_{i:02d}", _pendant(0.03, draw()), 4, wide))
    ops.append(_weyl("weyl_pendant", _pendant(0.05, draw()), None,
                     _in_band(rng, [(-1.0, 1.0)], 0.1), [2, 3, 4], False, window=wide))
    patch = make_patch(rng)
    ops.append(_lambda_set("lambda_patch", "builtin:lattice2", _window(PATCH_HALF + 5, 2),
                           pert=PATCH_FILE))
    ops.append(_condition_p("condition_patch", "builtin:lattice2", 2,
                            _window(PATCH_HALF - 2, 2), pert=PATCH_FILE))
    entries = [("lattice2", {})]
    for op in ops:
        graph = op.info["graph"]
        if graph.startswith("builtin:random_pendant"):
            entries.append(parse_builtin(graph))
    return Workload(ops, entries,
                    files={PATCH_FILE: json.dumps(patch)}, patch=patch)


def spectra_io(seed: int, nproc: int) -> Workload:
    rng = _rng("spectra_io", seed)
    # translating a box leaves its spectrum unchanged, so the offsets vary
    # the inputs without changing the work
    a = int(rng.random() * 101) - 50
    b = int(rng.random() * 101) - 50
    trial_seed = rng.getrandbits(31)
    ops = [
        Op("bands", ["bands", "--graph", "builtin:lattice3", "--grid", "64",
                     "--emit-plot-data", "--threads", "1", "--out", "out/bands"],
           "bands", {"dim": 3, "cells": 1, "grid": 64}),
        Op("sigma_ess", ["sigma-ess", "--graph", "builtin:g21", "--grid", "131072",
                         "--threads", "1", "--out", "out/sigma_ess"],
           "sigma", {"name": "g21"}),
        Op("truncate_half_plane",
           ["truncate", "--graph", "builtin:lattice2", "--perturbation", "builtin:half_plane",
            f"--box={a - 25},{a + 25},-25,25", "--threads", "1", "--out", "out/truncate_hp"],
           "truncate", {"vertices": 51 * 26, "cells": 51 * 51}),
        Op("truncate_wrap",
           ["truncate", "--graph", "builtin:g11", f"--box={b - 300},{b + 299}", "--wrap",
            "--threads", "1", "--out", "out/truncate_wrap"],
           "truncate", {"vertices": 1200, "cells": 600}),
        Op("random_trial",
           ["random-trial", "--p", "0.5", "--n", "1", "--trials", "2000000",
            "--seed", str(trial_seed), "--threads", str(nproc), "--out", "out/random_trial"],
           "trial", {"trials": 2000000}),
    ]
    entries = [("lattice3", {}), ("g21", {}), ("lattice2", {}), ("half_plane", {}), ("g11", {})]
    return Workload(ops, entries)


def selftest(seed: int, nproc: int) -> Workload:
    """One tiny operation of every kind, for the harness's own tests."""
    rng = _rng("selftest", seed)
    pendant = _pendant(0.5, rng.getrandbits(31))
    ops = [
        _weyl("weyl", "builtin:lattice2", "builtin:half_plane", _in_band(rng, [(-1.0, 1.0)], 0.1),
              [2, 3], False),
        _lambda_set("lambda", pendant, _window(3, 2)),
        _condition_p("condition", pendant, 1, _window(3, 2)),
        _condition_p("condition_patch", "builtin:lattice2", 2, _window(PATCH_HALF, 2),
                     pert=PATCH_FILE),
        Op("bands", ["bands", "--graph", "builtin:lattice2", "--grid", "4", "--emit-plot-data",
                     "--threads", "1", "--out", "out/bands"],
           "bands", {"dim": 2, "cells": 1, "grid": 4}),
        Op("sigma_ess", ["sigma-ess", "--graph", "builtin:g21", "--grid", "16",
                         "--threads", "1", "--out", "out/sigma_ess"], "sigma", {"name": "g21"}),
        Op("truncate", ["truncate", "--graph", "builtin:lattice2", "--perturbation",
                        "builtin:half_plane", "--box=-2,2,-2,2", "--threads", "1",
                        "--out", "out/truncate"], "truncate", {"vertices": 15, "cells": 25}),
        Op("random_trial", ["random-trial", "--p", "0.5", "--n", "1", "--trials", "1000",
                            "--seed", "3", "--threads", str(nproc), "--out", "out/random_trial"],
           "trial", {"trials": 1000}),
    ]
    entries = [("lattice2", {}), ("half_plane", {}), ("g21", {}), parse_builtin(pendant)]
    patch = make_patch(rng)
    return Workload(ops, entries,
                    files={PATCH_FILE: json.dumps(patch)}, patch=patch)


def parse_builtin(text: str) -> tuple[str, dict]:
    """``builtin:name,k=v`` -> (name, params) as the CLI parses it."""
    name, *chunks = text[len("builtin:"):].split(",")
    return name, dict(chunk.split("=", 1) for chunk in chunks)


WORKLOADS = {
    "certify_large": certify_large,
    "scan_window": scan_window,
    "spectra_io": spectra_io,
    "selftest": selftest,
}


def build(name: str, seed: int, nproc: int) -> Workload:
    return WORKLOADS[name](seed, nproc)
