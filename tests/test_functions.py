"""The ball's exact free heat flow, the mean of the FK control variate."""

import math

import numpy as np
import pytest

from katoflow import bounds, functions, spaces


@pytest.mark.parametrize("center, radius, t", [
    (0.0, 1.0, 0.5), (0.3, 0.25, 0.1), (-1.0, 2.0, 3.0),
])
def test_ball_free_mean_in_one_dimension_is_the_heat_semigroup(center, radius, t):
    """On R^1 the noncentral chi-square with one degree of freedom is P_t 1_B
    by quadrature against the exact kernel."""
    ball = functions.BallIndicator([center], radius)
    xs = np.array([center, center + 0.4 * radius, center - 1.5 * radius, center + 4.0])
    want = bounds.heat_semigroup_1d(t, ball, xs)
    got = [ball.free_mean(spaces.euclidean(1), np.array([x]), t) for x in xs]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("radius, t", [(1.0, 0.5), (0.3, 0.05), (2.0, 4.0)])
def test_ball_free_mean_at_the_centre_in_three_dimensions(radius, t):
    """From the centre of a ball in R^3, P(|W_t| < R) = erf(a) - 2a e^{-a^2}
    / sqrt(pi) with a = R / sqrt(4t): the Maxwell distribution of |W_t|."""
    center = np.array([0.5, -1.0, 2.0])
    ball = functions.BallIndicator(center, radius)
    a = radius / math.sqrt(4.0 * t)
    want = math.erf(a) - 2.0 * a * math.exp(-a * a) / math.sqrt(math.pi)
    got = ball.free_mean(spaces.euclidean(3), center, t)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_ball_free_mean_off_centre_in_six_dimensions_matches_gaussian_endpoints():
    """10^6 exact endpoints x + sqrt(2t) Z in R^6, in blocks: the share that
    lands in the ball is within 4 of its sigmas of the free mean."""
    ball = functions.BallIndicator(np.zeros(6), 1.5)
    x = np.array([0.7, -0.2, 0.0, 0.4, 0.1, -0.5])
    t, n, block = 0.3, 1_000_000, 100_000
    rng = np.random.default_rng(2024)
    hits = sum(ball(x + math.sqrt(2.0 * t) * rng.standard_normal((block, 6))).sum()
               for _ in range(n // block))
    p = ball.free_mean(spaces.euclidean(6), x, t)
    assert 0.05 < p < 0.95
    assert abs(hits / n - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_ball_free_mean_broadcasts_a_length_one_center():
    """A length-1 center stands for (c, ..., c), in the free mean as in the
    indicator itself."""
    short = functions.BallIndicator(0.5, 1.0)
    full = functions.BallIndicator(np.full(3, 0.5), 1.0)
    pts = np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1.2, 0.5, 0.5], [1.5, 1.5, 0.5]])
    np.testing.assert_array_equal(short(pts), full(pts))
    for x in pts:
        assert short.free_mean(spaces.euclidean(3), x, 0.5) == \
            full.free_mean(spaces.euclidean(3), x, 0.5)
    assert short.free_mean(spaces.euclidean(3), np.zeros(3), 0.5) != \
        functions.BallIndicator(np.zeros(3), 1.0).free_mean(
            spaces.euclidean(3), np.zeros(3), 0.5)


def test_ball_has_no_free_mean_off_euclidean_space():
    ball = functions.BallIndicator(np.array([0.0, 0.0, 1.0]), 0.5)
    assert ball.free_mean(spaces.sphere2(1.0), np.array([0.0, 0.0, 1.0]), 0.5) is None
