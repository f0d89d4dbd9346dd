"""Counter-based Bernoulli fields on the lattice.

Randomized graphs must answer oracle queries purely, so randomness is a
deterministic function of ``(seed, cell)``: each cell's bit comes from a
splitmix64-style mix of the seed and the cell coordinates.  The same value is
returned no matter when, where or from which thread the query runs, and the
vectorized form used by the Monte Carlo driver matches the scalar form bit
for bit.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(state: int) -> int:
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def cell_hash(seed: int, cell: tuple[int, ...]) -> int:
    """64-bit hash of a lattice cell under a fixed seed."""
    state = _mix(int(seed) & _MASK)
    for coord in cell:
        state = _mix(state ^ (int(coord) & _MASK))
    return state


def bernoulli(seed: int, cell: tuple[int, ...], p: float) -> bool:
    """Seeded Bernoulli(p) variable attached to one cell."""
    return (cell_hash(seed, cell) >> 11) * 2.0**-53 < p


def cell_hash_array(seed: int, cells: np.ndarray) -> np.ndarray:
    """Vectorized ``cell_hash`` over an ``(m, d)`` integer array of cells."""
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim == 1:
        cells = cells[:, None]
    with np.errstate(over="ignore"):
        state = np.full(cells.shape[0], _mix(int(seed) & _MASK), dtype=np.uint64)
        for j in range(cells.shape[1]):
            state = _mix_u64(state ^ cells[:, j].astype(np.uint64))
    return state


def bernoulli_array(seed: int, cells: np.ndarray, p: float) -> np.ndarray:
    """Vectorized ``bernoulli`` over an ``(m, d)`` integer array of cells."""
    return (cell_hash_array(seed, cells) >> np.uint64(11)).astype(np.float64) * 2.0**-53 < p


def _mix_u64(state: np.ndarray) -> np.ndarray:
    state = state + np.uint64(_GAMMA)
    z = state
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))
