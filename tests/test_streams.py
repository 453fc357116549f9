import math
import threading

import numpy as np
import pytest

from katoflow import streams

# a sequential sum of ~1e4 float64 terms is exact to ~n * 2.2e-16 relative
RTOL = 1e-10


def _chunked(samples, sizes):
    parts, lo = [], 0
    for size in sizes:
        block = samples[lo:lo + size]
        parts.append((size, block.sum(axis=0), (block * block).sum(axis=0)))
        lo += size
    return parts


@pytest.mark.parametrize("levels", [None, 3])
def test_merge_matches_one_pass_moments(levels):
    rng = np.random.default_rng(4)
    shape = (10_000,) if levels is None else (10_000, levels)
    samples = np.exp(-rng.standard_normal(shape))
    n, means, stderrs = streams.merge_chunks(
        _chunked(samples, streams.chunk_sizes(samples.shape[0], 3000))
    )
    assert n == samples.shape[0]
    np.testing.assert_allclose(means, samples.mean(axis=0), rtol=RTOL)
    np.testing.assert_allclose(
        stderrs, samples.std(axis=0) / math.sqrt(n), rtol=RTOL
    )


def test_map_ordered_keeps_item_order_when_later_items_finish_first():
    second_done = threading.Event()
    finished = []

    def fn(i):
        if i == 0:
            assert second_done.wait(timeout=10)
        finished.append(i)
        if i == 1:
            second_done.set()
        return 10 * i

    assert streams.map_ordered(fn, range(2), workers=2) == [0, 10]
    assert finished == [1, 0]


@pytest.mark.parametrize("workers", [1, 2])
def test_map_ordered_passes_exceptions_to_the_caller(workers):
    def fn(i):
        if i == 2:
            raise ValueError("item 2")
        return i

    with pytest.raises(ValueError, match="item 2"):
        streams.map_ordered(fn, range(4), workers=workers)
