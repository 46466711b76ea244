"""Counter-based deterministic randomness.

Every random decision in the package is a pure function of (seed, counter):
there is no hidden stream state, so results are independent of evaluation
order and of how work is split across workers.  The mixer is the splitmix64
finalizer, which scrambles well enough for the statistical checks in the
test-suite (binomial means, coverage chi^2).

A vectorized numpy twin of the scalar path is provided for Monte Carlo
batches; scalar/vector agreement is asserted in tests.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["mix64", "coin", "coin_row", "coin_matrix", "derive_seed"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# distinct odd multipliers keep the element-coin stream and the trial-seed
# stream apart even when a seed collides with an element index
_ELEM_STEP = 0xD1342543DE82EF95
_TRIAL_STEP = 0xA24BAED4963EE407


def mix64(x: int) -> int:
    """splitmix64: golden-ratio increment followed by the finalizer."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def coin(seed: int, index: int) -> int:
    """Fair coin for element `index` under `seed`.  Pure in (seed, index)."""
    key = mix64(seed & _MASK64)
    return mix64(key ^ ((index * _ELEM_STEP) & _MASK64)) >> 63


def derive_seed(base: int, index: int) -> int:
    """Per-trial seed for trial `index` of a run keyed by `base`."""
    key = mix64(base & _MASK64)
    return mix64(key ^ ((index * _TRIAL_STEP) & _MASK64))


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))


def coin_row(seed: int, count: int) -> np.ndarray:
    """Coins for indices 0..count-1 under `seed`, as a uint8 0/1 array."""
    return coin_matrix([seed], count)[0]


def coin_matrix(seeds: Sequence[int], count: int) -> np.ndarray:
    """Rows of coins, one per seed: shape (len(seeds), count)."""
    keys = np.array([mix64(s & _MASK64) for s in seeds], dtype=np.uint64)
    idx = np.arange(count, dtype=np.uint64) * np.uint64(_ELEM_STEP)
    return (_mix64_np(keys[:, None] ^ idx[None, :]) >> np.uint64(63)).astype(np.uint8)
