import math
import threading

import numpy as np
import pytest

from katoflow import streams

# a sequential sum of ~1e4 float64 terms is exact to ~n * 2.2e-16 relative
RTOL = 1e-10


def _chunked(rows, size=3000):
    """The columns of ``rows`` (one row per weight or control) in chunks."""
    return [rows[:, lo:lo + size] for lo in range(0, rows.shape[1], size)]


@pytest.mark.parametrize("levels", [None, 3])
def test_merge_matches_one_pass_moments(levels):
    rng = np.random.default_rng(4)
    shape = (10_000,) if levels is None else (10_000, levels)
    samples = np.exp(-rng.standard_normal(shape))
    n, means, stderrs = streams.merge(_chunked(samples.reshape(10_000, -1).T), ())
    assert n == samples.shape[0]
    np.testing.assert_allclose(means, samples.mean(axis=0), rtol=RTOL)
    np.testing.assert_allclose(
        stderrs, samples.std(axis=0) / math.sqrt(n), rtol=RTOL
    )


def test_merge_removes_an_exactly_linear_control():
    """Weights a + b c of a control c with known mean mu estimate a + b mu
    with no residual variance.  The sample of c = +-1 is balanced, so its
    mean (0) differs from mu and the regression has work to do; dyadic a and
    b keep every sum exact, so the residual variance is 0, not a rounding
    remnant."""
    c = np.random.default_rng(5).permutation(np.repeat([-1.0, 1.0], 5_000))
    a, b, mu = np.array([0.5, -3.0]), np.array([2.0, 0.125]), 0.25
    rows = np.vstack((a[:, None] + b[:, None] * c, c))
    n, means, stderrs = streams.merge(_chunked(rows), [mu])
    assert n == 10_000
    np.testing.assert_allclose(means, a + b * mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stderrs, 0.0, rtol=0, atol=1e-12)


def test_merge_gives_a_constant_control_no_weight():
    """A control that never varies leaves the plain mean and stderr, bit for
    bit, even when its value (0.7) does not sum exactly."""
    w = np.exp(-np.random.default_rng(6).standard_normal((2, 10_000)))
    plain = streams.merge(_chunked(w), ())
    controlled = streams.merge(_chunked(np.vstack((w, np.full((1, 10_000), 0.7)))), [0.3])
    assert controlled[0] == plain[0]
    assert np.array_equal(controlled[1], plain[1])
    assert np.array_equal(controlled[2], plain[2])


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
