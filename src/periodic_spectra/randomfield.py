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
    """Vectorized ``cell_hash`` over an ``(m, d)`` integer array of cells (a
    1-D array is ``m`` cells of one coordinate).

    The bits equal ``cell_hash`` row by row.  The input is left unchanged: one
    state array and one scratch buffer are allocated per call, each
    coordinate column is XORed in through a ``uint64`` view of its int64
    values (two's complement, the scalar ``coord & _MASK``), and every mix
    step runs in place.
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim == 1:
        cells = cells[:, None]
    state = np.full(cells.shape[0], _mix(int(seed) & _MASK), dtype=np.uint64)
    scratch = np.empty_like(state)
    for j in range(cells.shape[1]):
        state ^= cells[:, j].view(np.uint64)
        _mix_u64(state, scratch)
    return state


def bernoulli_array(seed: int, cells: np.ndarray, p: float) -> np.ndarray:
    """Vectorized ``bernoulli`` over an ``(m, d)`` integer array of cells."""
    state = cell_hash_array(seed, cells)
    state >>= np.uint64(11)
    return state.astype(np.float64) * 2.0**-53 < p


def _mix_u64(state: np.ndarray, scratch: np.ndarray) -> None:
    """``_mix`` of every entry of ``state``, in place and modulo 2^64;
    ``scratch`` is an array of the same shape that takes the shifts."""
    state += np.uint64(_GAMMA)
    state ^= np.right_shift(state, np.uint64(30), out=scratch)
    state *= np.uint64(_MIX1)
    state ^= np.right_shift(state, np.uint64(27), out=scratch)
    state *= np.uint64(_MIX2)
    state ^= np.right_shift(state, np.uint64(31), out=scratch)
