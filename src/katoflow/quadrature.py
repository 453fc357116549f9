"""One adaptive quadrature rule: Gauss-Kronrod 7/15 with global bisection.

Every adaptive integral of katoflow goes through ``integrate``: the Kato
integrals, the exact-kernel semigroup values on R^1, the total masses and
moments of the transition kernels and the Chapman-Kolmogorov defect.  The
nodes and weights are the standard G7K15 constants (QUADPACK's ``qk15``).
Each interval's error estimate is QUADPACK's scaled Kronrod-Gauss
difference, so the accepted sums are accurate far below the tolerance on
the smooth integrands used here.
"""

import math

import numpy as np

from .errors import PrecisionError

_EPSABS = 1e-12
_EPSREL = 1e-10
_MAX_INTERVALS = 1000  # the cap: beyond it the rule raises, never guesses

# Kronrod nodes on [0, 1) in decreasing order; the odd ones are Gauss nodes
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WK0 = 0.209482141084727828012999174891714
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG0 = 0.417959183673469387755102040816327
# the 15 nodes on [-1, 1] and their Kronrod and Gauss weights
_NODES = np.concatenate((-_XK, [0.0], _XK[::-1]))
_KRONROD = np.concatenate((_WK, [_WK0], _WK[::-1]))
_GAUSS = np.zeros(15)
_GAUSS[1:7:2] = _WG
_GAUSS[7] = _WG0
_GAUSS[9:15:2] = _WG[::-1]


def _g7k15(f, a, b):
    """(Kronrod sums, error estimates) of f on the intervals [a_i, b_i], from
    one call of f on all their nodes."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    k = fx @ _KRONROD
    g = fx @ _GAUSS
    # QUADPACK's estimate: the difference scaled by the spread of f about its
    # mean, floored at 50 ulp of the absolute sum
    asc = np.abs(fx - 0.5 * k[:, None]) @ _KRONROD
    err = np.abs(k - g)
    ratio = np.divide(200.0 * err, asc, out=np.zeros_like(err), where=asc > 0)
    err = np.where(asc > 0, asc * np.minimum(1.0, ratio**1.5), err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * (np.abs(fx) @ _KRONROD))
    return half * k, np.abs(half) * err


def integrate(f, edges):
    """int f over [edges[0], edges[-1]], adaptively.

    ``f`` maps a 1-D array of nodes to the array of its values there.  The
    ``edges`` start the interval list, so a kink or jump of f belongs among
    them.  Each round evaluates f once, on the nodes of every new interval,
    and bisects each interval whose error estimate exceeds an equal share of
    the tolerance max(_EPSABS, _EPSREL |I|); the sum is exact (``fsum``), so
    the result does not depend on the order of the intervals.  Raises
    ``PrecisionError`` once the tolerance would need more than
    ``_MAX_INTERVALS`` intervals."""
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    val, err = _g7k15(f, a, b)
    while True:
        total = math.fsum(val)
        tol = max(_EPSABS, _EPSREL * abs(total))
        if math.fsum(err) <= tol:
            return total
        split = err > tol / err.size
        if err.size + np.count_nonzero(split) > _MAX_INTERVALS:
            raise PrecisionError(
                f"quadrature error {math.fsum(err):.3g} above {tol:.3g} at "
                f"{err.size} intervals"
            )
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        new_val, new_err = _g7k15(f, new_a, new_b)
        a = np.concatenate((a[keep], new_a))
        b = np.concatenate((b[keep], new_b))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))
