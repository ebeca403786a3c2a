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

The per-sample streams are still one stream per sample, but
``sample_paths`` draws a block of them at once: it repeats numpy's
chain ``SeedSequence`` -> ``PCG64`` -> ``Generator.integers`` with array
operations across the samples and gives the same draws bit for bit.
``tests/test_rng.py`` compares it with ``derive_rng``, so a numpy
release that changes any link of that chain fails there.
"""

from __future__ import annotations

import numpy as np

STREAM_EQ_VALUE = 0
STREAM_DEV_PLAN = 1
STREAM_DEV_EVAL = 2
STREAM_CONVERGE = 3
STREAM_CHECK = 4

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier as two 64-bit limbs
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    entropy = int(master_seed) & (2 ** 64 - 1)
    return np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=tuple(int(k) for k in key)))


def _hash_constants(init: int, mult: int):
    """The hash constant before and after each multiplication."""
    while True:
        before = init
        init = (init * mult) & _MASK32
        yield before, init


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    before, after = next(consts)
    value = (value ^ np.uint32(before)) * np.uint32(after)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> np.uint32(16))


def _seed_state(words: list) -> list:
    """``SeedSequence(...).generate_state(4, uint64)`` of each sample, from
    its assembled uint32 entropy words (at least the pool size), as four
    uint64 arrays."""
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(w, consts) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    return [state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)]


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of the 128-bit products ``a * b``."""
    low, shift = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a & low, a >> shift, b & low, b >> shift
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> shift) + (cross0 & low) + (cross1 & low)
    return a1 * b1 + (cross0 >> shift) + (cross1 >> shift) + (mid >> shift)


def _add128(hi, lo, add_hi, add_lo):
    out_lo = lo + add_lo
    return hi + add_hi + (out_lo < lo).astype(np.uint64), out_lo


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, ``state * MULT + inc`` modulo 2**128."""
    m_hi, m_lo = _PCG_MULT
    prod_hi = _mul_hi(lo, m_lo) + lo * m_hi + hi * m_lo
    return _add128(prod_hi, lo * m_lo, inc_hi, inc_lo)


def sample_paths(master_seed: int, stream: int, n: int, first: int, count: int,
                 npaths: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``rng = derive_rng(master_seed, stream, n, s)``,
    ``rng.integers(npaths)`` then ``rng.integers(npaths, size=n)``, for
    every sample ``s`` in ``first, ..., first + count - 1``: the common
    paths ``b`` (count,) and the players' paths ``ids`` (count, n), int64.

    Each sample's generator reads one uint32 stream, the low half of each
    PCG64 output first.  For ``npaths = 2**K`` Lemire's bounded draw never
    rejects and is the top K bits of one word, so ``b`` is word 0 and
    ``ids`` words 1..n.  Any other ``npaths``, and a key word that
    ``SeedSequence`` would split in two (one >= 2**32), is refused.
    """
    if npaths < 1 or npaths & (npaths - 1) or npaths > 1 << 32:
        raise ValueError(f"npaths must be a power of two up to 2**32, got {npaths}")
    last = first + count - 1
    if min(stream, n, first, count) < 0 or max(stream, n, last) > _MASK32:
        raise ValueError("stream, n and sample indices must lie in [0, 2**32)")
    entropy = int(master_seed) & (2 ** 64 - 1)
    # the run entropy padded to the pool size, then the spawn key
    words = [np.array([w], dtype=np.uint32)
             for w in (entropy & _MASK32, entropy >> 32, 0, 0, stream, n)]
    words.append(np.arange(first, first + count, dtype=np.uint32))
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_state(words)
    # PCG64 set_seed: inc = 2 * seq + 1, state = step(inc + seed)
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    hi, lo = _step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    shift = np.uint64(64 - (npaths.bit_length() - 1))  # the top K bits of a word
    b = np.empty(count, dtype=np.int64)
    ids = np.empty((count, n), dtype=np.int64)
    for t in range(0, n + 1, 2):  # one PCG64 output: uint32 words t and t + 1
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, rotated right by the top 6 bits of the state
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        halves = ((out << np.uint64(32)) >> shift, out >> shift)
        for word, half in zip((t, t + 1), halves):
            if word == 0:
                b[:] = half
            elif word <= n:
                ids[:, word - 1] = half
    return b, ids
