"""The four special functions the suites need, from numpy and ``math``:
``erf``, the normal CDF ``ndtr``, the one-sided Kolmogorov-Smirnov survival
``smirnov`` and the noncentral chi-square CDF ``chndtr``.

Binomial and Poisson masses are evaluated by Loader's (2000) saddle-point
form, exp(-stirlerr - bd0) / sqrt(2 pi x), which keeps their relative error
near machine precision where a difference of log-gammas would lose up to
ten digits at n = 10^5.
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


def _stirlerr(n):
    """log(n! sqrt(2 pi n)^-1 (e/n)^n), the error of Stirling's formula, for
    an array of n > 0: directly below 15, by its asymptotic series above."""
    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n <= 15.0
    out[small] = [math.lgamma(v + 1.0) - (v + 0.5) * math.log(v) + v - _LN_SQRT_2PI
                  for v in n[small].tolist()]
    big = n[~small]
    nn = big * big
    out[~small] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn)
                                        / nn) / nn) / nn) / big
    return out


def _bd0(x, m):
    """x log(x/m) + m - x for arrays x, m > 0, by its series in
    v = (x - m)/(x + m) where x is near m and the direct form cancels."""
    x, m = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(m, dtype=float))
    diff = x - m
    near = np.abs(diff) < 0.1 * (x + m)
    out = np.empty_like(x)
    xf, mf = x[~near], m[~near]
    out[~near] = xf * np.log(xf / mf) + mf - xf
    xn, dn = x[near], diff[near]
    v = dn / (x[near] + m[near])
    s = dn * v
    ej = 2.0 * xn * v
    v2 = v * v
    for j in range(1, 12):  # |v| < 0.1: the eleventh term is below 1e-22 of s
        ej = ej * v2
        s = s + ej / (2 * j + 1)
    out[near] = s
    return out


def _poisson_mass(x, mu):
    """mu^x e^-mu / Gamma(x + 1) for an array of x > 0 and mu > 0."""
    x = np.asarray(x, dtype=float)
    return np.exp(-_stirlerr(x) - _bd0(x, mu)) / np.sqrt(2.0 * math.pi * x)


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
    the sum."""
    x, k, lam = float(x), float(k), float(lam)
    if math.isnan(x + k + lam):
        return math.nan
    if x <= 0.0 or lam == math.inf:
        return 0.0
    if x == math.inf:
        return 1.0
    y, mu = 0.5 * x, 0.5 * lam
    top = max(y, mu)
    i = np.arange(0.0, math.ceil(top + 12.0 * math.sqrt(top) + 60.0) + 1)
    g = _poisson_mass(0.5 * k + i, y)
    if mu > 0.0:
        p = np.empty_like(i)
        p[0] = math.exp(-mu)
        p[1:] = _poisson_mass(i[1:], mu)
        g *= np.minimum(np.cumsum(p), 1.0)
    return min(math.fsum(g.tolist()), 1.0)
