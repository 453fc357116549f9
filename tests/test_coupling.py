import math

import numpy as np
import pytest
from scipy import integrate, stats

from katoflow import coupling, functions, spaces, streams
from katoflow.errors import PrecisionError, TimeDomainError, UnsupportedStrategyError
from katoflow.paths import _grid

E1 = spaces.euclidean(1)
E2 = spaces.euclidean(2)
E3 = spaces.euclidean(3)


def test_survival_closed_form_value():
    # 2*Phi(2 / (2*sqrt(2))) - 1 at separation 2, t = 1
    assert coupling.total_variation_gaussian(2.0, 1.0) == pytest.approx(
        0.5204998778130465, abs=1e-12
    )


def _half_l1(separation, t):
    """(1/2) * int |rho1 - rho2| along the separation axis, by quadrature."""
    sig = math.sqrt(2.0 * t)

    def absdiff(z):
        return abs(stats.norm.pdf(z, 0.0, sig) - stats.norm.pdf(z, separation, sig))

    w = 12.0 * sig + separation
    val, _ = integrate.quad(absdiff, -w, w, limit=200,
                            points=[0.0, separation / 2.0, separation])
    return 0.5 * val


def test_tv_conventions_agree():
    for sep, t in [(0.5, 0.25), (1.0, 1.0), (2.0, 4.0)]:
        cf = coupling.total_variation_gaussian(sep, t)
        qd = _half_l1(sep, t)
        assert cf == pytest.approx(qd, abs=1e-9)


def test_tv_closed_form_is_the_normal_cdf():
    for sep, t in [(2.0, 1.0), (0.5, 0.25), (7.0, 0.3), (0.0, 2.0)]:
        expected = 2.0 * stats.norm.cdf(sep / (2.0 * math.sqrt(2.0 * t))) - 1.0
        assert coupling.total_variation_gaussian(sep, t) == expected


def test_ks_normal_matches_scipys_kstest():
    """Null and shifted samples through every route: 2*smirnov (n D^2 >= 2.2),
    Pelz-Good (n D^2 < 2.2), p = 0 (n D^2 >= 370) and, at n <= 140, scipy.
    The normal CDF is katoflow.special's, which differs from scipy's in the
    last bits, so p agrees within 1e-10 relative and D within 1e-14 relative
    or one ulp of 1: D is i/n minus a CDF value, so it carries that value's
    absolute rounding (at n = 12 000 a D of 0.0045 moves by 2.5e-14)."""
    rng = np.random.default_rng(19)
    loc, scale = 0.3, 1.7
    routes = []
    for n in (100, 141, 2_000, 12_000, 20_000, 100_001):
        for shift in (0.0, 0.0, 0.0, 2.0, 4.0, 6.0, 60.0):
            x = loc + scale * (rng.standard_normal(n) + shift / math.sqrt(n))
            d, p = coupling.ks_normal(x, loc, scale)
            ref = stats.kstest(x, "norm", args=(loc, scale))
            assert d == pytest.approx(ref.statistic, rel=1e-14, abs=2.0**-52)
            assert p == pytest.approx(ref.pvalue, rel=1e-10, abs=0)
            if n > 140:
                routes.append((n * d * d, p))
    assert any(nd2 >= 2.2 for nd2, _p in routes)
    assert any(nd2 < 2.2 for nd2, _p in routes)
    assert any(0.0 < p < 1e-3 for _nd2, p in routes)
    assert any(p == 0.0 for _nd2, p in routes)


def test_tv_limits():
    assert coupling.total_variation_gaussian(0.0, 1.0) == 0.0
    assert coupling.total_variation_gaussian(500.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(TimeDomainError):
        coupling.total_variation_gaussian(1.0, 0.0)


def test_trivial_coupling_from_equal_points():
    xs, ys, taus = coupling.simulate_reflection_endpoints(
        E2, np.zeros(2), np.zeros(2), 1.0, 0.25, 5_000, seed=0
    )
    assert np.all(np.isfinite(xs))
    assert np.all(taus == 0.25)  # every run couples at the first grid time
    assert np.array_equal(xs, ys)


def test_reflection_positive_tau_and_gluing():
    taus = coupling.simulate_reflection_taus(2.0, 6.0, 0.125, 5_000, seed=4)
    assert np.all(taus > 0)
    x, y = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
    xs, ys, taus = coupling.simulate_reflection_endpoints(
        E2, x, y, 1.0, 0.125, 5_000, seed=4
    )
    coupled = taus < math.inf
    assert coupled.any() and not coupled.all()
    assert np.all(taus[coupled] <= 1.0)
    # glued after the crossing, mirror images across x_0 = 0 before it
    assert np.array_equal(xs[coupled], ys[coupled])
    mirror = xs[~coupled] * np.array([-1.0, 1.0])
    assert np.allclose(ys[~coupled], mirror, rtol=0.0, atol=1e-12)
    assert not np.allclose(xs[~coupled], ys[~coupled])


def _one_dimensional_taus(separation, horizon, grid_step, n_runs, seed):
    """Mirror-coupling taus from a walk of the separation coordinate alone:
    the reference that simulate_reflection_taus must reproduce bit for bit."""
    times, _steps = _grid(horizon, grid_step)

    def chunk(rng, size, _k):
        u = np.full(size, -0.5 * float(separation))
        taus = np.full(size, math.inf)
        alive = np.ones(size, dtype=bool)
        for k in range(len(times) - 1):
            h = times[k + 1] - times[k]
            g = rng.standard_normal(size)
            unif = rng.random(size)
            u_new = u + math.sqrt(2.0 * h) * g
            crossed = alive & coupling._crossed(u, u_new, h, unif)
            taus[crossed] = times[k + 1]
            alive &= ~crossed
            u = u_new
        return taus

    return np.concatenate(streams.map_chunks(chunk, n_runs, seed, streams.TAG_COUPLING))


@pytest.mark.parametrize("separation,horizon,grid_step,seed", [
    (2.0, 1.0, 0.125, 101),
    (0.5, 4.0, 0.125, 7),
    (1.0, 1.0, 0.3, 3),  # a step that does not divide the horizon
    (3.0, 0.5, 0.05, 12),
])
def test_taus_are_the_one_dimensional_walk(separation, horizon, grid_step, seed):
    taus = coupling.simulate_reflection_taus(separation, horizon, grid_step, 20_000, seed)
    want = _one_dimensional_taus(separation, horizon, grid_step, 20_000, seed)
    assert np.isfinite(taus).any() and not np.isfinite(taus).all()
    assert np.array_equal(taus, want)


def test_reflection_rejected_on_sphere():
    s2 = spaces.sphere2()
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([1.0, 0.0, 0.0])
    with pytest.raises(UnsupportedStrategyError):
        coupling.simulate_reflection_endpoints(s2, a, b, 1.0, 0.25, 100, seed=0)


def test_survival_matches_reflection_principle():
    taus = coupling.simulate_reflection_taus(2.0, 1.0, 0.125, 100_000, seed=101)
    p_hat = float(np.mean(taus > 1.0))
    se = math.sqrt(p_hat * (1 - p_hat) / taus.size)
    assert abs(p_hat - 0.5204998778130465) <= 3 * se


@pytest.mark.parametrize("sep,t", [(0.5, 0.25), (1.0, 1.0), (2.0, 4.0)])
def test_survival_grid(sep, t):
    taus = coupling.simulate_reflection_taus(sep, t, t / 8, 60_000, seed=77)
    p_hat = float(np.mean(taus > t))
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / taus.size)
    assert abs(p_hat - coupling.total_variation_gaussian(sep, t)) <= 3.5 * se


def test_marginal_correctness_both_legs():
    x = np.array([0.0, 0.0, 0.0])
    y = np.array([1.5, 0.0, 0.0])
    t = 0.8
    xs, ys, _ = coupling.simulate_reflection_endpoints(
        E3, x, y, t, 0.1, 100_000, seed=5
    )
    sig = math.sqrt(2 * t)
    for axis in range(3):
        assert stats.kstest(xs[:, axis], "norm", args=(x[axis], sig)).pvalue > 1e-3
        assert stats.kstest(ys[:, axis], "norm", args=(y[axis], sig)).pvalue > 1e-3


def test_check_maximality_identifies_convention():
    taus = coupling.simulate_reflection_taus(2.0, 4.0, 0.125, 100_000, seed=11)
    checks = coupling.check_maximality(taus, 1, 2.0, [0.25, 1.0, 4.0])
    assert all(c.verdict == "holds" for c in checks)
    for c in checks:
        assert "supB" in c.details["maximality_conventions"]
        assert "half_L1" in c.details["maximality_conventions"]
        assert "half_supB" not in c.details["maximality_conventions"]


def test_check_maximality_requires_runs():
    with pytest.raises(PrecisionError):
        coupling.check_maximality(np.ones(100), 1, 1.0, [0.5])


def test_survival_monotone_and_decaying():
    taus = coupling.simulate_reflection_taus(1.0, 8.0, 0.25, 50_000, seed=21)
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    surv = [float(np.mean(taus > t)) for t in grid]
    assert all(a >= b for a, b in zip(surv, surv[1:]))
    # K = 0: every such coupling is successful, so survival tends to 0
    assert float(np.mean(taus > 8.0)) < coupling.total_variation_gaussian(1.0, 8.0) + 0.01
    assert coupling.total_variation_gaussian(1.0, 200.0) < 0.05


def test_synchronous_survival_dominates():
    """A coupling whose legs never meet, as the synchronous one from distinct
    points, has survival 1 > sup_B |mu1(B) - mu2(B)|: it is not maximal, and
    every maximality row says so."""
    taus = np.full(20_000, math.inf)
    checks = coupling.check_maximality(taus, 1, 1.0, [0.5, 1.0])
    assert all(c.verdict == "violated" for c in checks)
    assert all(c.measured == 1.0 for c in checks)


def test_one_sided_prop_bound_with_half_fk():
    # P(tau > t) <= (1/2) F_0(t) d(x, y) for the mirror coupling, K = 0
    for sep in [0.25, 1.0, 2.0, 5.0]:
        for t in [0.25, 1.0, 4.0]:
            p = coupling.total_variation_gaussian(sep, t)
            assert p <= 0.5 * (1.0 / math.sqrt(2.0 * t)) * sep + 1e-12


def test_equivalence_ladder_holds():
    x = np.array([-1.0])
    y = np.array([1.0])
    fam = functions.default_coupling_family(x, y)
    ends = coupling.simulate_reflection_endpoints(E1, x, y, 1.0, 0.125, 60_000, seed=31)
    checks = coupling.check_equivalence_ladder(
        E1, x, y, 1.0, [0.25, 0.5, 1.0], fam, ends
    )
    assert all(c.verdict == "holds" for c in checks)
    # alpha = 1 reduces (iii) to (ii)
    by_f = {}
    for c in checks:
        p = c.parameters
        by_f.setdefault(p["f"], {})[(p["statement"], p["alpha"])] = c.reference
    for f, bounds in by_f.items():
        assert bounds[("iii", 1.0)] == pytest.approx(bounds[("ii", 1.0)], rel=1e-12)


def test_equivalence_halfspace_extremal():
    # |E f(X_t) - E f(Y_t)| for the midpoint half-space equals the TV distance
    x = np.array([-1.0])
    y = np.array([1.0])
    xs, ys, _ = coupling.simulate_reflection_endpoints(
        E1, x, y, 1.0, 0.125, 100_000, seed=41
    )
    f = functions.HalfSpaceIndicator(np.array([1.0]), 0.0)
    diff = f(xs) - f(ys)
    est = abs(float(np.mean(diff)))
    se = float(np.std(diff)) / math.sqrt(diff.size)
    assert abs(est - 0.5204998778130465) <= 3 * se


def test_constant_function_trivial():
    x = np.array([-0.5])
    y = np.array([0.5])
    fam = {"constant": functions.Constant(1.0)}
    ends = coupling.simulate_reflection_endpoints(E1, x, y, 0.5, 0.125, 20_000, seed=51)
    checks = coupling.check_equivalence_ladder(E1, x, y, 0.5, [0.5], fam, ends)
    assert all(c.measured == 0.0 for c in checks)
    assert all(c.verdict == "holds" for c in checks)
