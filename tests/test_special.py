"""katoflow.special against scipy.special 1.17 on the ranges the suites use."""

import math

import numpy as np
import pytest
from scipy import special as sp

from katoflow import potentials, special


def _max_rel(got, ref):
    """Largest relative difference where the reference is not 0."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    nonzero = ref != 0
    return float(np.max(np.abs(got - ref)[nonzero] / np.abs(ref[nonzero])))


def test_erf_matches_scipy():
    x = np.concatenate([np.linspace(-6.0, 6.0, 4001), np.geomspace(1e-300, 6.0, 601),
                        -np.geomspace(1e-300, 6.0, 601)])
    assert _max_rel(special.erf(x), sp.erf(x)) <= 1e-13


def test_erf_of_an_empty_array_and_of_zero():
    """An empty array gives an empty array: the Kato sup candidates on a
    nucleus leave smoothed_coulomb_dist no positive distance to pass on."""
    empty = special.erf(np.array([]))
    assert empty.shape == (0,) and empty.dtype == float
    assert special.erf(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert float(special.erf(0.0)) == 0.0


def test_smoothed_coulomb_dist_at_and_off_the_center():
    s = 0.3
    u = np.array([0.0, 0.5, 0.0, 2.0, 1e-13])
    got = potentials.smoothed_coulomb_dist(s, u)
    ref = np.where(u < 1e-12, 1.0 / math.sqrt(math.pi * s),
                   sp.erf(u / (2.0 * math.sqrt(s))) / np.where(u < 1e-12, 1.0, u))
    assert _max_rel(got, ref) <= 1e-13


def test_ndtr_matches_scipy():
    a = np.concatenate([np.linspace(-37.0, 8.0, 20001), [0.0, -0.0, 1e-300]])
    assert _max_rel(special.ndtr(a), sp.ndtr(a)) <= 1e-13
    assert special.ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("n", [141, 2_000, 12_000, 20_000, 100_001])
def test_smirnov_matches_scipy(n):
    """Over 2.2 <= n d^2 < 370 and d < 1, the range ks_normal sends to
    smirnov, where the value is a normal double: near n d^2 = 369 it is
    about 1e-321, held in a few bits."""
    d = np.sqrt(np.geomspace(2.2, 369.0, 25) / n)
    ref = sp.smirnov(n, d)
    normal = (d < 1.0) & (ref >= np.finfo(float).tiny)
    assert normal.sum() >= 15
    got = [special.smirnov(n, v) for v in d[normal]]
    assert _max_rel(got, ref[normal]) <= 1e-10


def test_smirnov_limits():
    assert special.smirnov(100, 0.0) == 1.0
    assert special.smirnov(100, 1.0) == 0.0
    assert special.smirnov(1, 0.25) == pytest.approx(0.75, rel=1e-15)
    assert math.isnan(special.smirnov(100, math.nan))


@pytest.mark.parametrize("k", [1, 2, 3, 6, 9])
def test_chndtr_matches_scipy(k):
    """k = 3m for m = 1, 2 and 3 are the molecules' dimensions; lam = 0 is
    the central chi-square.  Compared wherever the CDF is at least 1e-40."""
    worst = 0.0
    for x in np.geomspace(1e-3, 50.0, 40):
        for lam in [0.0, *np.geomspace(1e-6, 200.0, 40)]:
            ref = sp.chndtr(x, k, lam)
            if ref >= 1e-40:
                worst = max(worst, abs(special.chndtr(x, k, lam) - ref) / ref)
    assert worst <= 1e-13


def test_chndtr_limits():
    assert special.chndtr(0.0, 3, 1.0) == 0.0
    assert special.chndtr(1e4, 3, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert special.chndtr(math.inf, 3, 1.0) == 1.0
    assert special.chndtr(1.0, 3, math.inf) == 0.0
    assert math.isnan(special.chndtr(1.0, 3, math.nan))
    assert math.isnan(special.chndtr(math.nan, 3, 1.0))
    # chi-square with 2 degrees of freedom is exponential with mean 2
    assert special.chndtr(1.0, 2, 0.0) == pytest.approx(-math.expm1(-0.5), rel=1e-14)
