#!/usr/bin/env python3
"""Residual decay study: measure, for each perturbed catalog graph, how fast
the Laplacian residual of transplanted box states falls as the box grows.

Writes one CSV per graph/value pair (via the CLI plumbing, so outputs carry
manifests) and prints a summary table of fitted log-log slopes.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from periodic_spectra.cli import main as cli_main

CASES = [
    ("builtin:lattice2", "builtin:half_plane", -0.9),
    ("builtin:lattice2", "builtin:half_plane", 0.0),
    ("builtin:lattice2", "builtin:half_plane", 0.7),
    ("builtin:lattice2", "builtin:cone", 0.0),
    ("builtin:g11", "builtin:counterexample", 0.5),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="residual_sweep_out")
    parser.add_argument("--n-list", default="4,8,16,32")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'perturbation':<28} {'lambda':>8} {'slope':>8}")
    for graph, perturbation, lam in CASES:
        tag = f"{perturbation.split(':')[1]}_{lam:+.1f}".replace(".", "p")
        prefix = out_dir / tag
        code = cli_main(
            [
                "weyl-check",
                "--graph", graph,
                "--perturbation", perturbation,
                "--lambda", str(lam),
                "--n-list", args.n_list,
                "--out", str(prefix),
                "--emit-plot-data",
            ]
        )
        if code != 0:
            print(f"{perturbation:<28} {lam:>8.2f}   failed (exit {code})")
            continue
        import json

        payload = json.loads((prefix.parent / (prefix.name + ".json")).read_text())
        slope = payload["slope"]  # null for fewer than two distinct n
        slope_text = "-" if slope is None else f"{slope:.3f}"
        print(f"{perturbation:<28} {lam:>8.2f} {slope_text:>8}")
    print(f"\nper-run CSV/JSON/plot data in {out_dir}/")


if __name__ == "__main__":
    main()
