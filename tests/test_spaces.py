import math

import numpy as np
import pytest
from scipy import integrate, stats

from katoflow import spaces
from katoflow.errors import InvalidPointError, TimeDomainError, TooSmallTimeError


E1 = spaces.euclidean(1)
E3 = spaces.euclidean(3)
S2 = spaces.sphere2(1.0)


def test_distance_pythagoras():
    assert spaces.euclidean(3).distance((0, 0, 0), (3, 4, 0)) == 5.0


def test_distance_sphere_antipodal_and_identity():
    north = np.array([0.0, 0.0, 1.0])
    south = -north
    assert S2.distance(north, south) == pytest.approx(math.pi, abs=1e-14)
    assert S2.distance(north, north) == 0.0


def test_invalid_sphere_point_rejected():
    with pytest.raises(InvalidPointError):
        S2.distance(np.array([0.0, 0.0, 1.1]), np.array([0.0, 0.0, 1.0]))


def test_curvature_parameters():
    assert E3.ricci_lower_bound == 0.0
    assert spaces.sphere2(2.0).ricci_lower_bound == pytest.approx(0.25)
    assert spaces.sphere2(2.0).dimension == 2


def test_heat_kernel_normalization_at_origin():
    t = 1.0 / (4.0 * math.pi)
    x = np.zeros(1)
    assert E1.heat_kernel(t, x, x) == pytest.approx(1.0, rel=1e-14)


def test_heat_kernel_rejects_nonpositive_time():
    with pytest.raises(TimeDomainError):
        E1.heat_kernel(0.0, np.zeros(1), np.zeros(1))
    with pytest.raises(TimeDomainError):
        E1.heat_kernel(-1.0, np.zeros(1), np.zeros(1))


def test_heat_kernel_symmetry_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert E3.heat_kernel(0.3, x, y) == E3.heat_kernel(0.3, y, x)
    for _ in range(20):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        assert S2.heat_kernel(0.7, x, y) == S2.heat_kernel(0.7, y, x)


@pytest.mark.parametrize("space,t,x", [
    (E1, 0.5, np.zeros(1)),
    (E3, 0.25, np.array([0.3, -0.1, 1.0])),
    (S2, 0.5, np.array([0.0, 0.0, 1.0])),
    (S2, 1.0, np.array([1.0, 0.0, 0.0])),
])
def test_conservativeness(space, t, x):
    assert spaces.conservativeness_defect(space, t, x) < 1e-8


def test_chapman_kolmogorov_euclidean_1d():
    x = np.array([0.2])
    y = np.array([-0.5])
    assert spaces.chapman_kolmogorov_defect(E1, 0.3, 0.4, x, y) < 1e-8


def test_sphere_too_small_time():
    x = np.array([0.0, 0.0, 1.0])
    with pytest.raises(TooSmallTimeError):
        S2.heat_kernel(5e-4, x, x)


def test_sphere_series_length_is_dynamic():
    assert S2.sphere_series_length(1.0) < S2.sphere_series_length(2e-3)


def test_degenerate_transition_returns_start():
    x = np.array([1.0, 2.0, 3.0])
    out = E3.sample_transition(0.0, x, np.random.default_rng(0))
    assert np.array_equal(out, x)


def test_euclidean_transition_moments():
    rng = np.random.default_rng(123)
    x = np.array([0.5, -1.0, 2.0])
    t = 0.7
    ys = E3.sample_transition_batch(t, x, 200_000, rng)
    assert np.allclose(ys.mean(axis=0), x, atol=0.02)
    assert np.allclose(ys.var(axis=0), 2.0 * t, rtol=0.02)


@pytest.mark.parametrize("d,t,order", [(3, 0.25, 2), (1, 1.0, 4)])
def test_moment_check_matches_closed_form(d, t, order):
    space = spaces.euclidean(d)
    est = spaces.moment_check(space, t, np.zeros(d), order, 100_000, seed=11)
    expected = spaces.exact_euclidean_moment(d, t, order)
    assert abs(est.value - expected) < 4.0 * est.stderr + 1e-12
    assert est.stderr > 0


def test_moment_check_requires_enough_samples():
    with pytest.raises(TimeDomainError):
        spaces.moment_check(E1, 0.1, np.zeros(1), 2, 100, seed=0)


@pytest.mark.parametrize("space,x", [(E3, np.zeros(3)),
                                     (S2, np.array([0.0, 0.0, 1.0]))])
def test_moment_check_worker_count_invariance(space, x):
    one = spaces.moment_check(space, 0.05, x, 4, 10_000, seed=6, workers=1)
    eight = spaces.moment_check(space, 0.05, x, 4, 10_000, seed=6, workers=8)
    assert (one.value, one.stderr, one.n_samples) == (
        eight.value, eight.stderr, eight.n_samples
    )


def test_moments_decrease_to_zero_small_time():
    prev = math.inf
    for t in [0.4, 0.1, 0.025, 0.00625]:
        est = spaces.moment_check(S2, t, np.array([0.0, 0.0, 1.0]), 2, 20_000, seed=3)
        assert est.value < prev
        prev = est.value
    assert prev < 0.05


def test_transition_marginal_ks_euclidean():
    rng = np.random.default_rng(2024)
    t = 0.6
    x = np.array([0.0, 1.0, -2.0])
    ys = E3.sample_transition_batch(t, x, 100_000, rng)
    for axis in range(3):
        res = stats.kstest(ys[:, axis], "norm", args=(x[axis], math.sqrt(2 * t)))
        assert res.pvalue > 1e-3


def test_transition_marginal_ks_sphere():
    rng = np.random.default_rng(55)
    t = 0.5
    north = np.array([0.0, 0.0, 1.0])
    ys = S2.sample_transition_batch(t, north, 100_000, rng)
    cosang = np.clip(ys[:, 2], -1.0, 1.0)
    grid = np.linspace(-1.0, 1.0, 4001)
    dens = 2.0 * math.pi * S2.sphere_kernel_theta(t, np.arccos(np.clip(grid, -1, 1)))
    cdf_vals = np.concatenate(
        [[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))]
    )
    cdf_vals /= cdf_vals[-1]

    res = stats.kstest(cosang, lambda c: np.interp(c, grid, cdf_vals))
    assert res.pvalue > 1e-3


def _kernel_angle_cdf(space, t):
    """P(Theta <= theta) on a fine theta grid, by the trapezoid rule on the
    kernel series: a reference independent of the sampler's Legendre CDF."""
    r = space.radius
    top = min(math.pi, 20.0 * math.sqrt(t) / r)
    grid = np.linspace(0.0, top, 20_001)
    dens = 2.0 * math.pi * r * r * np.sin(grid) * space.sphere_kernel_theta(t, grid)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    assert abs(cdf[-1] - 1.0) < 1e-6
    return lambda theta: np.interp(theta, grid, cdf)


@pytest.mark.parametrize("radius", [1.0, 2.0])
@pytest.mark.parametrize("tau", [1e-3, 0.05, 1.0])
def test_sphere_polar_angle_ks_against_kernel(radius, tau):
    """The polar angle of X_t about its start follows the kernel; tau = t/r^2."""
    space = spaces.sphere2(radius)
    t = tau * radius * radius
    north = np.array([0.0, 0.0, radius])
    ys = space.sample_transition_batch(t, north, 100_000, np.random.default_rng(31))
    theta = space.distance_batch(north[None, :], ys) / radius
    assert stats.kstest(theta, _kernel_angle_cdf(space, t)).pvalue > 1e-3


@pytest.mark.parametrize("radius,t", [(1.0, 0.3), (2.0, 0.5), (1.0, 2e-3)])
def test_sphere_transition_mean_contracts_start(radius, t):
    """E[X_t] = exp(-2t/r^2) x: the l = 1 eigenvalue, which fails for a wrong
    rotation of the angle onto x or a biased azimuth."""
    x = radius * np.array([2.0, -1.0, 2.0]) / 3.0
    n = 200_000
    ys = spaces.sphere2(radius).sample_transition_batch(
        t, x, n, np.random.default_rng(41)
    )
    expected = math.exp(-2.0 * t / radius**2) * x
    stderr = ys.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(ys.mean(axis=0) - expected) <= 4.0 * stderr)


@pytest.mark.parametrize("t", [1e-3, 0.25, 1.0, 3.0])
def test_sphere_angle_quantile_converges_to_residual_tolerance(t):
    v = np.random.default_rng(5).random(20_000)
    theta = S2._sphere_angle_quantile(t, v)
    assert np.max(np.abs(S2.sphere_angle_cdf(t, theta) - v)) <= 1e-13
    assert np.array_equal(S2._sphere_angle_quantile(t, [0.0]), [0.0])


@pytest.mark.parametrize("t", [1e-3, 0.05, 1.0])
def test_sphere_angle_cdf_matches_kernel_quadrature(t):
    def dens(a):
        return 2.0 * math.pi * math.sin(a) * float(S2.sphere_kernel_theta(t, a))

    for theta in (0.5 * math.sqrt(t), 2.0 * math.sqrt(t), math.pi):
        ref, _ = integrate.quad(dens, 0.0, theta, epsabs=1e-15, limit=200)
        assert S2.sphere_angle_cdf(t, theta) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("radius,t", [(1.0, 5e-4), (2.0, 2e-3)])
def test_sphere_step_below_certified_range_is_one_geodesic_step(radius, t):
    """Below t = 1e-3 r^2 one chi(2) step is taken: E[d^2] = 4t."""
    space, n = spaces.sphere2(radius), 100_000
    north = np.array([0.0, 0.0, radius])
    ys = space.sample_transition_batch(t, north, n, np.random.default_rng(12))
    sq = space.distance_batch(north[None, :], ys) ** 2
    assert abs(sq.mean() - 4.0 * t) <= 3.0 * sq.std() / math.sqrt(n)


def test_exact_sphere_moment():
    assert spaces.exact_sphere_moment(S2, 1e-3, 0) == pytest.approx(1.0, abs=1e-12)
    # E[theta^2] = 4t - 4t^2/3 + O(t^3), from E[1 - cos theta] = 1 - exp(-2t)
    assert spaces.exact_sphere_moment(S2, 1e-3, 2) == pytest.approx(
        4e-3 - 4e-6 / 3.0, abs=1e-9
    )
    # uniform limit: int theta^2 sin(theta)/2 = pi^2/2 - 2
    assert spaces.exact_sphere_moment(S2, 20.0, 2) == pytest.approx(
        math.pi**2 / 2.0 - 2.0, rel=1e-12
    )
    assert spaces.exact_sphere_moment(spaces.sphere2(2.0), 4.0, 2) == pytest.approx(
        4.0 * spaces.exact_sphere_moment(S2, 1.0, 2), rel=1e-10
    )


def test_sphere_walk_stays_on_sphere():
    rng = np.random.default_rng(9)
    pts = S2.sample_transition_batch(0.25, np.array([1.0, 0.0, 0.0]), 1000, rng)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_li_yau_scan_finds_constant():
    c = spaces.li_yau_constant_scan(
        E3, t_grid=[0.1, 0.5, 0.9], dist_grid=np.linspace(0.0, 4.0, 9)
    )
    assert math.isfinite(c)
    c_sphere = spaces.li_yau_constant_scan(
        S2, t_grid=[0.1, 0.5, 0.9], dist_grid=np.linspace(0.0, math.pi, 7)
    )
    assert math.isfinite(c_sphere)


def _rows_with_special_values(d, n=2000, seed=12):
    """Random rows over many scales, with -0.0, inf and nan planted in some."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-8, 8, (n, 1))
    rows[:20] = -0.0
    rows[20:40, 0] = np.inf
    rows[40:60, -1] = -np.inf
    rows[60:80, d // 2] = np.nan
    return rows


def _same(got, want):
    return np.array_equal(got, want, equal_nan=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("d", [1, 2, 3, 6, 7, 9])
def test_euclidean_distances_match_numpy_norm_bit_for_bit(d):
    """Column-by-column sums below 8 columns, and the norm itself above, give
    np.linalg.norm's bits, for single points, row blocks and path batches."""
    space = spaces.euclidean(d)
    a = _rows_with_special_values(d)
    b = _rows_with_special_values(d, seed=13)[::-1]
    assert _same(space.distance_batch(a, b), np.linalg.norm(a - b, axis=-1))
    assert _same(space.distance_batch(a[7], b), np.linalg.norm(a[7] - b, axis=-1))
    batch = a.reshape(20, -1, d)
    assert _same(space.distance_batch(batch[:, 1:], batch[:, :-1]),
                np.linalg.norm(batch[:, 1:] - batch[:, :-1], axis=-1))
    assert space.distance_batch(a[100], b[100]) == np.linalg.norm(a[100] - b[100])
    assert _same(spaces._row_distances(a, b[5]), np.linalg.norm(a - b[5], axis=-1))
