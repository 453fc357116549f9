import math

import numpy as np
import pytest
from scipy import stats

from katoflow import paths, spaces
from katoflow.errors import TimeDomainError

E1 = spaces.euclidean(1)
E3 = spaces.euclidean(3)


def test_single_step_skeleton():
    times, pts = paths.sample_paths_batch(
        E1, np.zeros(1), 1.0, 1.0, 1, np.random.default_rng(0)
    )
    assert len(times) == 2 and pts.shape == (1, 2, 1)
    assert times[0] == 0.0 and times[-1] == 1.0


@pytest.mark.parametrize("grid_step", [0.0, -0.1, 1.5])
def test_grid_step_must_lie_in_horizon(grid_step):
    rng = np.random.default_rng(0)
    with pytest.raises(TimeDomainError):
        paths.sample_paths_batch(E1, np.zeros(1), 1.0, grid_step, 4, rng)


def test_horizon_not_multiple_of_step_ends_at_horizon():
    times, pts = paths.sample_paths_batch(
        E1, np.zeros(1), 1.0, 0.3, 1, np.random.default_rng(0)
    )
    assert times[-1] == 1.0
    assert np.all(np.diff(times) > 0)
    assert pts.shape == (1, len(times), 1)


def test_increments_uncorrelated():
    rng = np.random.default_rng(42)
    n = 100_000
    _, pts = paths.sample_paths_batch(E1, np.zeros(1), 1.0, 0.25, n, rng)
    inc = np.diff(pts[:, :, 0], axis=1)  # (n, 4)
    corr = np.corrcoef(inc.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 3.0 / math.sqrt(n)


def test_endpoint_law_matches_transition():
    rng = np.random.default_rng(7)
    n = 50_000
    x = np.array([0.1, -0.2, 0.3])
    _, pts = paths.sample_paths_batch(E3, x, 0.8, 0.1, n, rng)
    direct = E3.sample_transition_batch(0.8, x, n, np.random.default_rng(8))
    for axis in range(3):
        res = stats.ks_2samp(pts[:, -1, axis], direct[:, axis])
        assert res.pvalue > 1e-3


def test_sphere_two_step_endpoint_has_one_step_law():
    """Two exact steps of h compose to the transition at 2h."""
    s2 = spaces.sphere2(1.0)
    h, n = 0.05, 50_000
    north = np.array([0.0, 0.0, 1.0])
    _, pts = paths.sample_paths_batch(s2, north, 2 * h, h, n, np.random.default_rng(9))
    assert pts.shape == (n, 3, 3)
    theta = s2.distance_batch(north[None, :], pts[:, -1])
    res = stats.kstest(theta, lambda a: s2.sphere_angle_cdf(2 * h, a))
    assert res.pvalue > 1e-3


def test_determinism_bitwise():
    def refined(seed):
        _, pts = paths.sample_paths_batch(
            E3, np.zeros(3), 1.0, 0.125, 16, np.random.default_rng(seed)
        )
        mids = paths.bridge_midpoints(
            pts[:, :-1, :], pts[:, 1:, :], 0.125, np.random.default_rng(1)
        )
        return pts, mids

    (pa, ma), (pb, mb) = refined(99), refined(99)
    assert np.array_equal(pa, pb)
    assert np.array_equal(ma, mb)


def test_bridge_midpoint_variance():
    n = 40_000
    mids = paths.bridge_midpoints(
        np.zeros((n, 1)), np.zeros((n, 1)), 1.0, np.random.default_rng(11)
    )
    assert mids.shape == (n, 1)
    assert abs(mids.mean()) < 0.02
    assert np.var(mids) == pytest.approx(0.5, rel=0.03)


def test_degenerate_bridge_collapses():
    n = 40_000
    ends = np.full((n, 1), 2.5)
    mids = paths.bridge_midpoints(ends, ends, 1e-16, np.random.default_rng(3))
    assert np.allclose(mids, 2.5, rtol=0.0, atol=1e-7)


def test_refinement_invariance_of_endpoint_law():
    # refining both intervals of a 2-step path must leave a Brownian path:
    # the 4 increments of the refined grid are iid N(0, 2 * 0.25)
    n = 20_000
    rng = np.random.default_rng(17)
    _, pts = paths.sample_paths_batch(E1, np.zeros(1), 1.0, 0.5, n, rng)
    mids = paths.bridge_midpoints(pts[:, :-1, :], pts[:, 1:, :], 0.5, rng)
    fine = np.stack([pts[:, 0], mids[:, 0], pts[:, 1], mids[:, 1], pts[:, 2]], axis=1)
    inc = np.diff(fine[:, :, 0], axis=1)  # (n, 4)
    for k in range(4):
        res = stats.kstest(inc[:, k], "norm", args=(0.0, math.sqrt(2.0 * 0.25)))
        assert res.pvalue > 1e-3
    corr = np.corrcoef(inc.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 3.0 / math.sqrt(n)


def test_markov_consistency_after_conditioning():
    rng = np.random.default_rng(23)
    n = 40_000
    _, pts = paths.sample_paths_batch(E1, np.zeros(1), 1.0, 0.25, n, rng)
    # increment after time s=0.5 vs a fresh transition of the same duration
    later = pts[:, -1, 0] - pts[:, 2, 0]
    fresh = E1.sample_transition_batch(0.5, np.zeros(1), n, np.random.default_rng(24))
    res = stats.ks_2samp(later, fresh[:, 0])
    assert res.pvalue > 1e-3


def test_holder_modulus_constant_path():
    times = np.array([0.0, 0.5, 1.0])
    assert paths.holder_modulus(E1, times, np.zeros((3, 1)), 0.4) == 0.0
    assert np.array_equal(
        paths.holder_modulus(E1, times, np.zeros((5, 3, 1)), 0.4), np.zeros(5)
    )


def test_holder_modulus_requires_two_entries():
    with pytest.raises(TimeDomainError):
        paths.holder_modulus(E1, np.array([0.0]), np.zeros((1, 1)), 0.4)


@pytest.mark.parametrize("grid_step", [0.01, 0.03])
def test_holder_modulus_batch_matches_single_paths(grid_step):
    times, pts = paths.sample_paths_batch(
        E3, np.zeros(3), 1.0, grid_step, 6, np.random.default_rng(13)
    )
    batch = paths.holder_modulus(E3, times, pts, 0.4)
    singles = [paths.holder_modulus(E3, times, p, 0.4) for p in pts]
    assert np.array_equal(batch, singles)
    # brute force over every grid pair
    i, j = np.triu_indices(len(times), k=1)
    for p, m in zip(pts, batch):
        q = np.linalg.norm(p[j] - p[i], axis=-1) / (times[j] - times[i]) ** 0.4
        assert m == pytest.approx(q.max(), rel=1e-12)


def _moduli(alpha, grid_step, n_paths, seed):
    rng = np.random.default_rng(seed)
    times, pts = paths.sample_paths_batch(E1, np.zeros(1), 1.0, grid_step, n_paths, rng)
    return paths.holder_modulus(E1, times, pts, alpha)


def test_holder_modulus_stabilizes_below_half():
    med_coarse = np.median(_moduli(0.4, 1e-2, 24, 31))
    med_mid = np.median(_moduli(0.4, 1e-3, 24, 31))
    med_fine = np.median(_moduli(0.4, 1e-4, 12, 31))
    assert med_mid / med_coarse < 1.6
    assert med_fine / med_mid < 1.35
    assert np.all(np.isfinite(_moduli(0.4, 1e-3, 24, 32)))


def test_holder_modulus_diverges_above_half():
    med_coarse = np.median(_moduli(0.6, 1e-2, 12, 41))
    med_fine = np.median(_moduli(0.6, 1e-4, 12, 41))
    assert med_fine >= 2.0 * med_coarse


@pytest.mark.parametrize("d", [1, 3, 6])
@pytest.mark.parametrize("grid_step", [0.1, 0.3])  # uniform, then a short last step
def test_euclidean_paths_match_the_broadcast_form_bit_for_bit(d, grid_step):
    """The flat-row sampler repeats the (n, steps, d) broadcast's elementwise
    operations in the same order, so every path keeps its bits."""
    space = spaces.euclidean(d)
    x = np.linspace(-0.7, 1.3, d)
    times, pts = paths.sample_paths_batch(space, x, 1.0, grid_step, 50,
                                          np.random.default_rng(4))
    # the broadcast form the sampler replaces
    want_times, steps = paths._grid(1.0, grid_step)
    rng = np.random.default_rng(4)
    incr = rng.standard_normal((50, len(steps), d)) * np.sqrt(2.0 * steps)[None, :, None]
    want = np.empty((50, len(want_times), d))
    want[:, 0, :] = x
    np.cumsum(incr, axis=1, out=want[:, 1:, :])
    want[:, 1:, :] += x
    assert np.array_equal(times, want_times)
    assert np.array_equal(pts, want)


def test_bridge_midpoints_match_the_expression_form_bit_for_bit():
    rng = np.random.default_rng(6)
    xl, xr = rng.standard_normal((2, 400, 3)) * 3.0
    got = paths.bridge_midpoints(xl, xr, 0.037, np.random.default_rng(8))
    noise = np.random.default_rng(8).standard_normal(xl.shape)
    assert np.array_equal(got, 0.5 * (xl + xr) + math.sqrt(0.037 / 2.0) * noise)
