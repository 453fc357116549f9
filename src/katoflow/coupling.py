"""The mirror coupling on R^d: total variation, maximality, the
equivalence ladder and the KS test of its normal marginals.

The mirror coupling reflects across the perpendicular bisector hyperplane of
the starting pair; the separation coordinate of the driving motion is a 1d
Brownian motion with variance rate 2, and within-step crossings of the
hyperplane are resolved by the exact bridge first-passage probability
exp(-a*b/h), so coupling-time statistics carry no O(sqrt(grid_step)) bias.
"""

import math

import numpy as np

from . import special, streams
from .errors import PrecisionError, TimeDomainError, UnsupportedStrategyError
from .paths import _grid
from .spaces import Euclidean, euclidean
from .reports import TWO_SIDED, UPPER, Check

REFLECTION = "reflection"


# ---------------------------------------------------------------------------
# vectorized run statistics
# ---------------------------------------------------------------------------


def _crossed(u, u_new, h, unif):
    """Whether separation coordinates u -> u_new over a step h hit zero:
    a sign change, or a bridge first passage with probability exp(-u*u_new/h)."""
    prod = u * u_new
    return (prod <= 0) | (unif < np.exp(-np.maximum(prod, 0.0) / h))


def simulate_reflection_taus(separation, horizon, grid_step, n_runs, seed, workers=1):
    """Coupling times of n_runs mirror couplings at the given separation: the
    taus of ``simulate_reflection_endpoints`` on R^1 from 0 to separation.
    tau is dimension-free."""
    return simulate_reflection_endpoints(
        euclidean(1), [0.0], [separation], horizon, grid_step, n_runs, seed, workers
    )[2]


def simulate_reflection_endpoints(space, x, y, t, grid_step, n_runs, seed, workers=1):
    """(X_t, Y_t, tau) samples of the mirror coupling, vectorized.

    tau is the grid time (k+1)*h that brackets a run's crossing, or inf if the
    run has not crossed by t, so survival indicators {tau > s} are exact for
    grid-aligned s; Y_t == X_t wherever tau is finite.  For x == y every
    hyperplane through x is a mirror; the runs couple at the first step."""
    if not isinstance(space, Euclidean):
        raise UnsupportedStrategyError("reflection coupling implemented on R^d only")
    x = space.check_point(x)
    y = space.check_point(y)
    sep = float(np.linalg.norm(y - x))
    mid = 0.5 * (x + y)
    e = (y - x) / sep if sep > 0 else np.eye(x.size)[0]
    times, _steps = _grid(t, grid_step)
    n_steps = len(times) - 1

    def chunk(rng, size, _k):
        xs = np.tile(x, (size, 1))
        taus = np.full(size, math.inf)
        u = np.full(size, -0.5 * sep)
        for k in range(n_steps):
            h = times[k + 1] - times[k]
            xs = space.move(h, xs, rng)
            unif = rng.random(size)
            u_new = (xs - mid) @ e
            taus[(taus == math.inf) & _crossed(u, u_new, h, unif)] = times[k + 1]
            u = u_new
        ys = np.where((taus < math.inf)[:, None], xs, xs - 2.0 * u[:, None] * e)
        return xs, ys, taus

    parts = streams.map_chunks(
        chunk, n_runs, seed, streams.TAG_COUPLING, workers=workers
    )
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


# ---------------------------------------------------------------------------
# total variation of the time-t marginals
# ---------------------------------------------------------------------------


def total_variation_gaussian(separation, t):
    """sup_B |mu1(B) - mu2(B)| between N(x, 2t I_d), N(y, 2t I_d) with
    |x - y| = sep, in any dimension d: the closed form
    2*Phi(sep / (2*sqrt(2t))) - 1."""
    if t <= 0:
        raise TimeDomainError("total variation requires t > 0")
    separation = float(separation)
    if separation < 0:
        raise TimeDomainError("separation must be >= 0")
    return float(2.0 * special.ndtr(separation / (2.0 * math.sqrt(2.0 * t))) - 1.0)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov test of a normal marginal
# ---------------------------------------------------------------------------


def ks_normal(samples, loc, scale):
    """(D, p) of the two-sided one-sample KS test of samples against
    N(loc, scale^2): what scipy 1.17's ``kstest(samples, "norm",
    args=(loc, scale))`` returns, from ``katoflow.special``. Its normal CDF
    is not scipy's to the last bit, so D agrees within 1e-14 relative or one
    ulp of 1, and p within 1e-10 relative.

    p is the exact law of D_n (Simard & L'Ecuyer 2011) along scipy's
    survival route: 0 for n*D^2 >= 370, 2*smirnov(n, D) for n*D^2 >= 2.2,
    else 1 minus the Pelz-Good CDF. The inputs scipy routes elsewhere
    (n <= 140, n*D <= 1, n*D >= n - 1, D >= 1/2, or n <= 100 000 with
    n*D^1.5 <= 1.4, which has probability about 1e-13 at n >= 12 000) go
    to scipy itself."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n > 140:
        cdf = special.ndtr((x - loc) / scale)
        d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
        d_minus = (cdf - np.arange(0.0, n) / n).max()
        d = d_plus if d_plus > d_minus else d_minus
        # a 0-d array, as scipy holds D, so D**1.5 takes the same ufunc loop
        d = np.asarray(d)
        nd = n * d
        nd2 = nd * d
        if (1.0 < nd < n - 1 and d < 0.5
                and (nd2 >= 2.2 or n > 100000 or n * d**1.5 > 1.4)):
            if nd2 >= 370.0:
                p = 0.0
            elif nd2 >= 2.2:
                p = 2 * special.smirnov(n, d)
            else:
                p = 1.0 - _pelz_good_cdf(n, d)
            return float(d), float(np.clip(p, 0.0, 1.0))
    from scipy import stats

    res = stats.kstest(x, "norm", args=(loc, scale))
    return float(res.statistic), float(res.pvalue)


_PI_2, _PI_4, _PI_6 = np.pi**2, np.pi**4, np.pi**6
_SQRT_2PI = np.sqrt(2 * np.pi)
_SQRT_3 = np.sqrt(3)


def _pelz_good_cdf(n, x):
    """P(D_n <= x) by the Pelz-Good (1976) series, operation for operation
    as scipy 1.17's ``_kolmogn_PelzGood`` sums it, so every bit agrees."""
    z = np.sqrt(n) * x
    z2, z3, z4, z6 = z**2, z**3, z**4, z**6
    qlog = -_PI_2 / 8 / z2
    if qlog < -708:  # z below about 0.042: the CDF underflows
        return 0.0
    q = np.exp(qlog)
    # K_0..K_3 as sums c_i q^(m^2) over odd m = 2k - 1, by Horner in q^(8k)
    k1a, k1b = -z2, _PI_2 / 4
    k2a = 6 * z6 + 2 * z4
    k2b = (2 * z4 - 5 * z2) * _PI_2 / 4
    k2c = _PI_4 * (1 - 2 * z2) / 16
    k3d = _PI_6 * (5 - 30 * z2) / 64
    k3c = _PI_4 * (-60 * z2 + 212 * z4) / 16
    k3b = _PI_2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z**8
    terms = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        m2, m4, m6 = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * m2,
                           k2a + k2b * m2 + k2c * m4,
                           k3a + k3b * m2 + k3c * m4 + k3d * m6])
        terms *= qpower
        terms += coeffs
    terms *= q
    terms *= _SQRT_2PI
    terms /= np.array([z, 6 * z4, 72 * z**7, 6480 * z**10])
    # the terms of K_2 and K_3 summed over all integers k
    q = np.exp(-_PI_2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    ks2 = ks**2
    sqrt3z = _SQRT_3 * z
    kspi = np.pi * ks
    qpowers = q**ks2
    k2extra = np.sum(ks2 * qpowers)
    k2extra *= _PI_2 * _SQRT_2PI / (-36 * z3)
    terms[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ks2 * qpowers)
    k3extra *= _PI_2 * _SQRT_2PI / (216 * z6)
    terms[3] += k3extra
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(terms)


# ---------------------------------------------------------------------------
# maximality and the equivalence ladder
# ---------------------------------------------------------------------------


def check_maximality(taus, d, separation, t_grid):
    """One check per t that the mirror coupling is maximal: its survival
    P(tau > t) equals sup_B |mu1(B) - mu2(B)| (Lindvall & Rogers 1986),
    two-sided at 3 stderr + 1e-3.  This is stronger than the coupling
    inequality P(tau > t) >= sup_B |mu1(B) - mu2(B)| that every coupling meets.

    Each check's details name the maximality identities (if any) that the
    survival estimate matches within 3 stderr."""
    taus = np.asarray(taus, dtype=float)
    n = taus.size
    if n < 10**4:
        raise PrecisionError("check_maximality needs >= 10^4 runs")
    checks = []
    for t in t_grid:
        p_hat = float(np.mean(taus > t))
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)
        tv_supb = total_variation_gaussian(separation, t)
        half_l1 = 0.5 * 2.0 * tv_supb  # (1/2) * int |rho1 - rho2| == sup_B value
        conventions = [name for name, value in (("supB", tv_supb), ("half_L1", half_l1),
                                                ("half_supB", 0.5 * tv_supb))
                       if abs(p_hat - value) <= 3.0 * se]
        checks.append(Check(
            "couple",
            {"strategy": REFLECTION, "d": d, "separation": separation, "t": t},
            p_hat, tv_supb, se, TWO_SIDED, 1e-3,
            details={"tv_supB": tv_supb, "half_L1": half_l1,
                     "maximality_conventions": ",".join(conventions) or "none"},
        ))
    return checks


def check_equivalence_ladder(space, x, y, t, alpha_grid, f_family, endpoints):
    """Checks of the implications (i) => (ii) => (iii) with F(t) :=
    2*P(tau>t)/d(x,y): |E f(X_t) - E f(Y_t)| <= F^alpha 2^{1-alpha} d^alpha
    ||f||, whose tol carries the delta-method stderr of the bound.

    ``endpoints`` is the ``(X_t, Y_t, tau)`` triple that
    ``simulate_reflection_endpoints`` returns for the same x, y and t.
    Statement (iii) is stated for alpha in (0, 1]."""
    if not all(0.0 < a <= 1.0 for a in alpha_grid):
        raise TimeDomainError(f"ladder exponents {alpha_grid!r} must lie in (0, 1]")
    dist = space.distance(x, y)
    if dist == 0:
        raise TimeDomainError("the equivalence ladder needs d(x, y) > 0")
    xs, ys, taus = endpoints
    n = xs.shape[0]
    p_hat = float(np.mean(taus == math.inf))
    se_p = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)
    f_big = 2.0 * p_hat / dist
    checks = []
    for name, f in f_family.items():
        diff = f(xs) - f(ys)
        est = abs(float(np.mean(diff)))
        se_d = float(np.std(diff)) / math.sqrt(n)
        # (ii) is (iii) at alpha = 1: the bound F d ||f|| = 2 p_hat ||f||
        for statement, alpha in [("ii", 1.0)] + [("iii", a) for a in alpha_grid]:
            bound = f_big**alpha * 2.0 ** (1.0 - alpha) * dist**alpha * f.sup_norm
            p_eff = max(p_hat, 1e-9)
            dbound = (
                2.0 ** (1.0 - alpha)
                * dist**alpha
                * f.sup_norm
                * alpha
                * (2.0 / dist) ** alpha
                * p_eff ** (alpha - 1.0)
            )
            checks.append(Check(
                "couple_equivalence",
                {"f": name, "alpha": float(alpha), "statement": statement},
                est, bound, se_d, UPPER, 3.0 * dbound * se_p,
            ))
    return checks
