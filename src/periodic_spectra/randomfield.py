"""Counter-based Bernoulli fields on the lattice.

Randomized graphs must answer oracle queries purely, so randomness is a
deterministic function of ``(seed, cell)``: each cell's bit comes from a
splitmix64-style mix of the seed and the cell coordinates.  The same value is
returned no matter when, where or from which thread the query runs, and the
vectorized form used by the Monte Carlo driver matches the scalar form bit
for bit.
"""

from __future__ import annotations

import math
from typing import Iterable

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


def cell_hash_array(seed: int, coords: Iterable[np.ndarray]) -> np.ndarray:
    """Vectorized ``cell_hash`` over a sequence of integer coordinate arrays,
    one per axis, that broadcast together (a caller holding an ``(m, d)``
    array of cells passes ``cells.T``).

    The bits equal ``cell_hash`` cell by cell over the broadcast shape.  The
    hash is a chain, ``state_j = mix(state_{j-1} ^ c_j)``, so the state is
    mixed axis by axis on the shape broadcast so far: an axis that adds no
    dimension costs no more than the cells it has, and only the last axes of
    a grid touch every cell.  Each coordinate is XORed in through a
    ``uint64`` view of its int64 values (two's complement, the scalar
    ``coord & _MASK``), every mix step runs in place, and the inputs are
    left unchanged.
    """
    state = np.full((), _mix(int(seed) & _MASK), dtype=np.uint64)
    scratch = np.empty_like(state)
    for coord in coords:
        coord = np.asarray(coord, dtype=np.int64).view(np.uint64)
        shape = np.broadcast(state, coord).shape
        if shape == state.shape:
            state ^= coord
        else:  # the state spreads over the new axes
            state = np.bitwise_xor(state, coord, out=np.empty(shape, np.uint64))
            scratch = np.empty_like(state)
        _mix_u64(state, scratch)
    return state


def bernoulli_array(seed: int, coords: Iterable[np.ndarray], p: float) -> np.ndarray:
    """Vectorized ``bernoulli`` over coordinate arrays as in
    ``cell_hash_array``.  For an integer ``x < 2**53``, ``x * 2.0**-53 < p``
    exactly when ``x < ceil(p * 2**53)`` (scaling by a power of two is
    exact), so the top 53 bits of each hash are compared with that integer
    and no float array is made; ``p`` at or below 0, or NaN, gives 0."""
    limit = math.ceil(min(p, 1.0) * 2.0**53) if p > 0 else 0
    state = cell_hash_array(seed, coords)
    state >>= np.uint64(11)
    return state < np.uint64(limit)


def _mix_u64(state: np.ndarray, scratch: np.ndarray) -> None:
    """``_mix`` of every entry of ``state``, in place and modulo 2^64;
    ``scratch`` is an array of the same shape that takes the shifts."""
    state += np.uint64(_GAMMA)
    state ^= np.right_shift(state, np.uint64(30), out=scratch)
    state *= np.uint64(_MIX1)
    state ^= np.right_shift(state, np.uint64(27), out=scratch)
    state *= np.uint64(_MIX2)
    state ^= np.right_shift(state, np.uint64(31), out=scratch)
