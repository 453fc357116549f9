"""The four special functions the suites need, from numpy and ``math``:
``erf``, the normal CDF ``ndtr``, the one-sided Kolmogorov-Smirnov survival
``smirnov`` and the noncentral chi-square CDF ``chndtr``.

Binomial and Poisson masses are evaluated by Loader's (2000) saddle-point
form, exp(-stirlerr - bd0) / sqrt(2 pi x), which keeps their relative error
near machine precision where a difference of log-gammas would lose up to
ten digits at n = 10^5.  A run of Poisson masses takes that form once, at
its largest mass, and the ratios of neighbouring masses from there.
"""

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _elementwise(fn, x):
    """fn applied to each entry of x, as a float array of x's shape; an
    empty array gives an empty array."""
    x = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def erf(x):
    """The error function, elementwise."""
    return _elementwise(math.erf, x)


def _ndtr(a):
    # cephes' split: erf near 0, erfc in the tails, so neither tail rounds to 0 or 1
    x = a * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def ndtr(a):
    """The standard normal CDF, elementwise."""
    return _elementwise(_ndtr, a)


# ---------------------------------------------------------------------------
# Loader's binomial and Poisson masses
# ---------------------------------------------------------------------------


def _stirlerr_small(n):
    """Stirling's error at one n <= 15, from log Gamma."""
    return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI


def _stirlerr_series(n):
    """Stirling's error at n > 15 (a float or an array), by its asymptotic
    series."""
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn)
                                 / nn) / nn) / nn) / n


def _stirlerr(n):
    """log(n! sqrt(2 pi n)^-1 (e/n)^n), the error of Stirling's formula, for
    an array of n > 0: directly below 15, by its asymptotic series above."""
    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n <= 15.0
    out[small] = [_stirlerr_small(v) for v in n[small].tolist()]
    out[~small] = _stirlerr_series(n[~small])
    return out


def _bd0_series(x, diff, v):
    """x log(x/m) + m - x from diff = x - m and v = diff / (x + m), |v| < 0.1,
    for floats or arrays: the eleventh term is below 1e-22 of the sum."""
    s = diff * v
    ej = 2.0 * x * v
    v2 = v * v
    for j in range(1, 12):
        ej = ej * v2
        s = s + ej / (2 * j + 1)
    return s


def _bd0(x, m):
    """x log(x/m) + m - x for arrays x, m > 0, by its series in
    v = (x - m)/(x + m) where x is near m and the direct form cancels."""
    x, m = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(m, dtype=float))
    diff = x - m
    near = np.abs(diff) < 0.1 * (x + m)
    out = np.empty_like(x)
    xf, mf = x[~near], m[~near]
    out[~near] = xf * np.log(xf / mf) + mf - xf
    out[near] = _bd0_series(x[near], diff[near], diff[near] / (x[near] + m[near]))
    return out


def _poisson_mass(x, mu):
    """mu^x e^-mu / Gamma(x + 1) for one x > 0 and mu > 0."""
    stirlerr = _stirlerr_small(x) if x <= 15.0 else _stirlerr_series(x)
    diff = x - mu
    if abs(diff) < 0.1 * (x + mu):
        bd0 = _bd0_series(x, diff, diff / (x + mu))
    else:
        bd0 = x * math.log(x / mu) + mu - x
    return math.exp(-stirlerr - bd0) / math.sqrt(2.0 * math.pi * x)


def _poisson_masses(v0, n, mu):
    """The masses mu^v e^-mu / Gamma(v + 1) at v = v0, v0 + 1, ..., v0 + n,
    for v0 >= 0 and mu > 0: Loader's form at the v nearest mu, and from
    there the ratios mu / v of neighbouring masses, each below 1, so a mass
    far from mu underflows rather than overflows."""
    j = min(max(round(mu - v0), 0), n)
    peak = math.exp(-mu) if v0 + j == 0 else _poisson_mass(v0 + j, mu)
    out = np.empty(n + 1)
    out[j] = peak
    out[j + 1:] = mu / (v0 + np.arange(j + 1, n + 1))
    out[j:] = np.cumprod(out[j:])
    if j:
        down = (v0 + np.arange(j, 0, -1)) / mu
        down[0] *= peak
        out[:j] = np.cumprod(down)[::-1]
    return out


# ---------------------------------------------------------------------------
# the exact one-sided Kolmogorov-Smirnov law
# ---------------------------------------------------------------------------


def smirnov(n, d):
    """P(D_n^+ >= d) for n samples, by the Birnbaum-Tingey (1951) sum

        d sum_{j <= n(1-d)} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1),

    whose every term is d / p_j times the binomial mass at j with success
    probability p_j = d + j/n."""
    n, d = int(n), float(d)
    if math.isnan(d):
        return math.nan
    if d <= 0.0:
        return 1.0
    if d >= 1.0:
        return 0.0
    nd = n * d
    j = np.arange(1, math.floor(n * (1.0 - d)) + 1, dtype=float)
    j = j[(n - j) - nd > 0.0]  # a term with p_j = 1 is 0
    np_j = nd + j
    nq_j = (n - j) - nd
    log_mass = (_stirlerr(n) - _stirlerr(j) - _stirlerr(n - j)
                - _bd0(j, np_j) - _bd0(n - j, nq_j)
                - 0.5 * np.log(2.0 * math.pi * j * (n - j) / n))
    terms = nd / np_j * np.exp(log_mass)
    # j = 0: the mass (1 - d)^n
    return math.fsum(terms.tolist()) + math.exp(n * math.log1p(-d))


# ---------------------------------------------------------------------------
# the noncentral chi-square CDF
# ---------------------------------------------------------------------------


def chndtr(x, k, lam):
    """P(X <= x) for X noncentral chi-square with k degrees of freedom and
    noncentrality lam.

    Mixing chi-square(k + 2j) over j ~ Poisson(lam/2) and writing the
    regularized gamma P(k/2 + j, x/2) as the sum of Poisson masses
    g_i = (x/2)^(k/2+i) e^(-x/2) / Gamma(k/2 + i + 1) over i >= j gives the
    sum of positive terms g_i W_i, W_i the Poisson(lam/2) CDF at i (Ding
    1992, AS 275). Terms are kept up to 12 standard deviations and 60
    beyond the larger of x/2 and lam/2; past that they are below 1e-30 of
    the sum.  Both runs of masses come from _poisson_masses."""
    x, k, lam = float(x), float(k), float(lam)
    if math.isnan(x + k + lam):
        return math.nan
    if x <= 0.0 or lam == math.inf:
        return 0.0
    if x == math.inf:
        return 1.0
    y, mu = 0.5 * x, 0.5 * lam
    top = max(y, mu)
    n = math.ceil(top + 12.0 * math.sqrt(top) + 60.0)
    g = _poisson_masses(0.5 * k, n, y)
    if mu > 0.0:
        g *= np.minimum(np.cumsum(_poisson_masses(0.0, n, mu)), 1.0)
    return min(math.fsum(g.tolist()), 1.0)
