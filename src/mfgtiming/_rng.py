"""Deterministic stream splitting for all Monte Carlo work.

One 64-bit master seed; the stream for any unit of work is
``default_rng(SeedSequence(master, spawn_key=(stream, *indices)))``.
Streams are independent of execution order, so results are identical
under any parallel schedule.

The Monte Carlo deviation planner keys ``STREAM_DEV_PLAN`` by ``(n, k,
prefix)`` for payoffs that read only the crowd mass strictly before the
date (the date and the common-path prefix before it), and by ``(n, b)``,
the whole common path, for any other payoff.  The profile-value and
convergence streams are keyed by ``(n, sample)``.
"""

from __future__ import annotations

import numpy as np

STREAM_EQ_VALUE = 0
STREAM_DEV_PLAN = 1
STREAM_DEV_EVAL = 2
STREAM_CONVERGE = 3
STREAM_CHECK = 4


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    entropy = int(master_seed) & (2 ** 64 - 1)
    return np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=tuple(int(k) for k in key)))
