"""Deterministic seed derivation.

All randomness in the library flows from a 64-bit master seed.  Task
streams are derived with a fixed avalanche mixer (the splitmix64
finalizer) applied to ``mix(master) XOR mix(task_id)``, so concurrent
tasks get independent, reproducible streams with no global state.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer; a fixed 64-bit avalanche permutation."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def check_seed(seed: int) -> None:
    """PreconditionError unless ``seed`` lies in [0, 2^64), the range seeds
    are derived over: outside it ``derive_seed`` would alias another seed.
    The library's entry points call it once, where the seed enters."""
    if not 0 <= seed <= _MASK:
        raise PreconditionError(f"seed must lie in [0, 2^64), got {seed}")


def derive_seed(master: int, task_id: int) -> int:
    return mix64(mix64(master & _MASK) ^ mix64(task_id & _MASK))


def derive_rng(master: int, task_id: int = 0) -> np.random.Generator:
    """Generator for subtask ``task_id`` of a run seeded by ``master``."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, task_id)))
