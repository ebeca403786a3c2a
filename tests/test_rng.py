"""The block draw of per-sample streams against numpy's own generators.

``sample_paths`` repeats numpy's ``SeedSequence`` -> ``PCG64`` ->
``Generator.integers`` chain with array operations; these tests are what
fails if a numpy release changes any link of it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfgtiming._rng import derive_rng, sample_paths


def _one_sample_at_a_time(master_seed, stream, n, first, count, npaths):
    b = np.empty(count, dtype=np.int64)
    ids = np.empty((count, n), dtype=np.int64)
    for i in range(count):
        rng = derive_rng(master_seed, stream, n, first + i)
        b[i] = rng.integers(npaths)
        ids[i] = rng.integers(npaths, size=n)
    return b, ids


@settings(derandomize=True, max_examples=150, deadline=None)
@given(master_seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 4),
       n=st.integers(1, 300), first=st.integers(0, 2 ** 31), count=st.integers(1, 6),
       steps=st.sampled_from([*range(1, 15), 32]))
@example(master_seed=0, stream=3, n=1, first=0, count=3, steps=1)
@example(master_seed=2 ** 32 - 1, stream=0, n=2, first=0, count=2, steps=14)
@example(master_seed=2 ** 32, stream=4, n=256, first=2 ** 31, count=2, steps=32)
@example(master_seed=2 ** 63 + 5, stream=2, n=300, first=10 ** 6, count=4, steps=6)
def test_sample_paths_equals_derive_rng(master_seed, stream, n, first, count, steps):
    got_b, got_ids = sample_paths(master_seed, stream, n, first, count, 2 ** steps)
    want_b, want_ids = _one_sample_at_a_time(master_seed, stream, n, first, count, 2 ** steps)
    assert got_b.dtype == got_ids.dtype == np.int64
    assert np.array_equal(got_b, want_b)
    assert np.array_equal(got_ids, want_ids)


@pytest.mark.parametrize("args", [
    (1, 3, 4, 0, 2, 6),                   # npaths not a power of two
    (1, 3, 4, 0, 2, 2 ** 33),             # npaths above 2**32
    (1, 2 ** 32, 4, 0, 2, 8),             # stream past one key word
    (1, 3, 2 ** 32, 0, 2, 8),             # n past one key word
    (1, 3, 4, 2 ** 32 - 1, 2, 8),         # the last sample index past one key word
], ids=["npaths-6", "npaths-2**33", "stream-2**32", "n-2**32", "sample-2**32"])
def test_sample_paths_refuses_what_it_cannot_reproduce(args):
    with pytest.raises(ValueError):
        sample_paths(*args)
