#!/usr/bin/env python3
"""Print the band-union spectrum of every periodic catalog graph, together
with the wrapped-ring cross-check (all finite eigenvalues inside the bands).
The ring is solved densely: ``spectrum_of_box`` solves wraps from the same
fiber matrices as the bands, so it would not check them.
"""

from __future__ import annotations

import numpy as np

from periodic_spectra import (
    essential_spectrum,
    get_entry,
    periodic_oracle,
    truncate,
)

GRIDS = {"lattice1": 256, "lattice2": 128, "lattice3": 16, "g11": 256, "g21": 256}


def describe(spec) -> str:
    parts = []
    for lo, hi in spec.intervals:
        if hi - lo < spec.flat_tol:
            parts.append(f"{{{lo:.6f}}}")
        else:
            parts.append(f"[{lo:.6f}, {hi:.6f}]")
    return " u ".join(parts)


def main() -> None:
    for name, grid in GRIDS.items():
        entry = get_entry(name)
        spec = essential_spectrum(entry.base, grid)
        line = f"{name:<10} grid {grid:>4}: {describe(spec)}"
        if entry.base.dim == 1:
            ring = truncate(
                periodic_oracle(entry.base), ((0, 127),), periodic_wrap=True
            )
            eigs = np.linalg.eigvalsh(ring.normalized_symmetric())
            worst = max(spec.distance(x) for x in eigs)
            line += f"   ring check: worst gap {worst:.2e}"
        print(line)
    rp = get_entry("random_pendant", p=0.5, seed=7)
    print(f"random_pendant(p=0.5, seed=7): claimed spectrum {describe(rp.reference_spectrum)}")


if __name__ == "__main__":
    main()
