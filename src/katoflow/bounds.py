"""The constants engine: F_K, C(V,K,alpha,r), A(V,K,alpha,t), the submersion
corollary's B, and the empirical Hoelder/Lipschitz quotients they must
dominate.

Quotient suprema are searched on a deterministic multi-scale pair grid, so a
measured quotient is a certified lower bound of the true sup; every theorem
check is one-sided, which is exactly what that gives us.
"""

import math
from dataclasses import replace

import numpy as np
from numpy.polynomial import legendre as npleg

from . import feynman_kac as fk
from . import quadrature, streams
from . import potentials as pot
from .spaces import Euclidean
from .errors import DivergentBoundError, TimeDomainError
from .reports import HOLDS, INCONCLUSIVE, VIOLATED, Check, one_sided_verdict

_QUAD_TOL = 1e-9  # slack for deterministic quadrature comparisons


def _over_expm1(num, x):
    """num / (e^x - 1) as (r, s), the value being r e^{-s}: (num / expm1(x),
    0) where expm1 is finite, else (num, x), since there e^x - 1 equals e^x
    to double precision.  A caller takes its power of r before applying
    e^{-s}, so the factor does not underflow on the way."""
    try:
        den = math.expm1(x)
    except OverflowError:
        return num, x
    return num / den, 0.0


def f_K(K, t):
    """Coupling rate 1/sqrt(2t) at K=0, else sqrt(K/(e^{2Kt}-1))."""
    if t <= 0:
        raise TimeDomainError("f_K requires t > 0")
    if K == 0.0:
        return 1.0 / math.sqrt(2.0 * t)
    ratio, scale = _over_expm1(K, 2.0 * K * t)
    return math.sqrt(ratio) * math.exp(-scale / 2.0)


def holder_cap(K, t, alpha):
    """2^{1-alpha} F_K(t)^alpha, the heat-semigroup Hoelder constant."""
    return 2.0 ** (1.0 - alpha) * f_K(K, t) ** alpha


# ---------------------------------------------------------------------------
# exact-kernel semigroup evaluation
# ---------------------------------------------------------------------------


def heat_semigroup_1d(t, f, xs):
    """P_t f on euclidean(1) by adaptive quadrature against the exact kernel,
    with f's breakpoints among the first interval edges."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    width = 2.0 * math.sqrt(t * math.log(1e18))
    out = np.empty(xs.size)
    breaks = sorted(getattr(f, "breakpoints", ()))
    for i, x in enumerate(xs):
        lo, hi = x - width, x + width
        for b in breaks:
            lo, hi = min(lo, b - 1.0), max(hi, b + 1.0)
        inner = [b for b in breaks if lo < b < hi]

        def integrand(y):
            kernel = (4.0 * math.pi * t) ** -0.5 * np.exp(-((y - x) ** 2) / (4.0 * t))
            return kernel * f(y[:, None])

        out[i] = quadrature.integrate(integrand, [lo, *inner, hi])
    return out


def sphere_zonal_coefficients(profile, ell_max, breaks_cos=()):
    """c_l = int_{-1}^1 P_l(s) g(s) ds by 200-node Gauss-Legendre split at breaks."""
    edges = [-1.0] + sorted(b for b in breaks_cos if -1.0 < b < 1.0) + [1.0]
    nodes, weights = npleg.leggauss(200)
    coeffs = np.zeros(ell_max + 1)
    for a, b in zip(edges, edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = mid + half * nodes
        vander = npleg.legvander(s, ell_max)  # (n, L+1)
        g = np.asarray(profile(s), dtype=float)
        coeffs += half * (weights * g) @ vander
    return coeffs


def sphere_semigroup_zonal(space, t, f, thetas):
    """P_t f at polar angles thetas for a zonal f on the 2-sphere."""
    t_eff = t / (space.radius**2)
    ell_max = space.sphere_series_length(t)
    coeffs = sphere_zonal_coefficients(
        f.zonal_profile, ell_max, getattr(f, "zonal_breaks_cos", ())
    )
    ells = np.arange(ell_max + 1)
    series = (2 * ells + 1) / 2.0 * np.exp(-ells * (ells + 1) * t_eff) * coeffs
    return npleg.legval(np.cos(np.asarray(thetas, dtype=float)), series)


# ---------------------------------------------------------------------------
# deterministic pair grids
# ---------------------------------------------------------------------------


def pair_grid_euclidean(space, anchors=None, scale=1.0, k_max=12):
    """Pairs (a - s/2 u, a + s/2 u), s = scale * 2^-k, axis directions."""
    d = space.dimension
    if anchors is None:
        anchors = [np.zeros(d)]
    pairs = []
    for a in anchors:
        a = np.asarray(a, dtype=float)
        for axis in range(d):
            u = np.zeros(d)
            u[axis] = 1.0
            for k in range(k_max + 1):
                s = scale * 2.0**-k
                pairs.append((a - 0.5 * s * u, a + 0.5 * s * u))
    return pairs


def pair_grid_sphere(space):
    """Meridian pairs straddling polar anchors pi/4, pi/2, 3pi/4, at the
    half-separations (pi/4) 2^-k, k = 0..10."""
    r = space.radius
    pairs = []
    for theta0 in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        for k in range(11):
            half = (math.pi / 4) * 2.0**-k
            th1, th2 = theta0 - half, theta0 + half
            if th1 < 0 or th2 > math.pi:
                continue
            p1 = r * np.array([math.sin(th1), 0.0, math.cos(th1)])
            p2 = r * np.array([math.sin(th2), 0.0, math.cos(th2)])
            pairs.append((p1, p2))
    return pairs


# ---------------------------------------------------------------------------
# measured smoothing quotients
# ---------------------------------------------------------------------------


def _semigroup_values(space, t, f, pairs):
    """p -> P_t f(p) at the pair points, by exact quadrature.

    P_t f is evaluated once per distinct point key: the coordinate on
    euclidean(1), the polar angle of a zonal f on S^2."""
    if isinstance(space, Euclidean):
        if space.dimension != 1:
            raise TimeDomainError("quadrature quotients support euclidean(1)")

        def key(p):
            return float(p[0])

        def evaluate(keys):
            return heat_semigroup_1d(t, f, keys)

    else:

        def key(p):
            return round(math.acos(min(1.0, max(-1.0, p[2] / space.radius))), 15)

        def evaluate(keys):
            return sphere_semigroup_zonal(space, t, f, keys)

    keys = np.array(sorted({key(p) for pair in pairs for p in pair}))
    table = dict(zip(keys.tolist(), evaluate(keys).tolist()))
    return lambda p: table[key(p)]


def _separated(space, pairs):
    """(index, x, y, d(x, y)) of each pair whose points differ."""
    out = []
    for i, (x, y) in enumerate(pairs):
        dist = float(space.distance_batch(np.asarray(x, float), np.asarray(y, float)))
        if dist > 0:
            out.append((i, x, y, dist))
    return out


def _exact_rows(space, pairs, value):
    """(x, y, d, |value(x) - value(y)|, stderr 0) per pair with d(x, y) > 0."""
    return [(x, y, dist, abs(value(x) - value(y)), 0.0)
            for _i, x, y, dist in _separated(space, pairs)]


def _worst_pair(rows, alpha, norm):
    """(sup |difference| / (d^alpha norm), its stderr on that scale, its pair)
    over rows (x, y, d, |difference|, stderr, ...); the pair is None when
    every quotient is 0.  A NaN quotient is returned as the sup, so a pair
    without an estimate is never passed over."""
    best, best_se, witness = 0.0, 0.0, None
    for x, y, dist, diff, se, *_rest in rows:
        scale = dist**alpha * norm
        q = diff / scale
        if math.isnan(q):
            return q, se / scale, (x, y)
        if q > best:
            best, best_se, witness = q, se / scale, (x, y)
    return best, best_se, witness


def holder_quotient(space, t, alpha, f, pairs=None):
    """Measured sup quotient with d^alpha against 2^{1-alpha} F_K(t)^alpha."""
    if t <= 0:
        raise TimeDomainError("t must be > 0")
    if not 0.0 < alpha <= 1.0:
        raise TimeDomainError("alpha must lie in (0, 1]")
    if pairs is None:
        pairs = (
            pair_grid_euclidean(space, scale=max(1.0, 4 * math.sqrt(t)))
            if isinstance(space, Euclidean)
            else pair_grid_sphere(space)
        )
    value = _semigroup_values(space, t, f, pairs)
    best, _se, witness = _worst_pair(
        _exact_rows(space, pairs, value), alpha, f.sup_norm
    )
    K = space.ricci_lower_bound
    return Check(
        "holder",
        {"space": space.kind, "f": type(f).__name__, "t": t, "alpha": alpha},
        best, holder_cap(K, t, alpha), tol=_QUAD_TOL,
        details={"K": K, "witness": witness, "n_pairs": len(pairs)},
    )


# ---------------------------------------------------------------------------
# the constants C, A, B
# ---------------------------------------------------------------------------


def _fk_weight(K, alpha):
    """F_K(s)^alpha = (2s)^{-alpha/2} * w(s) with smooth w, w(0) = 2^{-alpha/2}."""

    def w(s):
        if s <= 0 or K == 0.0:
            return 2.0 ** (-alpha / 2.0)
        g, scale = _over_expm1(2.0 * s * K, 2.0 * K * s)
        return 2.0 ** (-alpha / 2.0) * g ** (alpha / 2.0) * math.exp(-scale * alpha / 2.0)

    return w


def C_constant(V, K, alpha, r):
    """sup_x int_0^r F_K(s)^alpha int p(s,x,y) |V(y)| dy ds."""
    if not 0.0 <= alpha <= 1.0:
        raise TimeDomainError("alpha must lie in [0, 1]")
    if r <= 0:
        raise TimeDomainError("r must be > 0")
    if V.is_zero:
        return 0.0
    if K == 0.0:
        base = V.closed_form_kato(alpha, r)
        if base is not None:
            return 2.0 ** (-alpha / 2.0) * base  # F_0(s)^a == 2^{-a/2} s^{-a/2}
    weight = _fk_weight(K, alpha)
    # F_K(s)^a m(s) = s^{-a/2} w(s) m(s); reuse the kato quadrature machinery
    bound, _wit, _details = pot._quadrature_bound(V, alpha, r, extra_weight=weight)
    return bound


def A_constant(V, K, alpha, t, c_exp_bound):
    """2^{2-alpha} * C_exp(V,t) * C(V,K,alpha,t/2)."""
    c_half = C_constant(V, K, alpha, t / 2.0)
    if math.isinf(c_half) or math.isinf(c_exp_bound):
        return math.inf
    return 2.0 ** (2.0 - alpha) * c_exp_bound * c_half


def corollary_B_constant(vj_terms, vij_terms, K, alpha, t):
    """Submersion corollary constant from base-space (R^3) term potentials.

    Terms pulled back by pi_j enter unchanged (isometric submersion); terms
    pulled back by the pair-difference maps must already carry their 1/sqrt(2)
    normalization.  The exponential factor uses subadditivity of the summed
    alpha=0 Kato integrals."""
    terms = list(vj_terms) + list(vij_terms)
    if not terms:
        return 0.0
    c_sum = 0.0
    for v in terms:
        c = C_constant(v, K, alpha, t / 2.0)
        if math.isinf(c):
            return math.inf
        c_sum += c

    def kappa_total(r):
        return sum(pot.kato_integral(v, 0.0, r).bound for v in terms)

    try:
        c_exp, _k, _kappa_k = fk.khashminskii_bound(kappa_total, t)
    except DivergentBoundError:
        return math.inf
    return 2.0 ** (2.0 - alpha) * c_exp * c_sum


# ---------------------------------------------------------------------------
# main-theorem verification
# ---------------------------------------------------------------------------


def _fk_pair_rows(V, phi, t, pairs, n_paths, seed, workers):
    """(x, y, d, |difference|, stderr, flags) per pair with d(x, y) > 0, where
    the difference of e^{-tH_V}Phi at x and y is one coupled Feynman-Kac
    estimate, whose flags the row keeps: both legs share the pair's
    Brownian increments.

    Pair i of ``pairs`` draws from substream (seed, i).  The ``workers`` split
    the pairs, so each estimate runs its chunks in turn and the rows do not
    depend on the worker count."""
    separated = _separated(V.space, pairs)

    def difference(item):
        i, x, y, _dist = item
        est = fk.fk_evaluate(
            V, phi, np.array([x, y], dtype=float), t, n_paths,
            seed=streams.combine_seed(seed, i), workers=1,
        )
        return float(abs(est.value[2])), float(est.stderr[2]), est.flags

    diffs = streams.map_ordered(difference, separated, workers)
    return [(x, y, dist, *diff) for (_i, x, y, dist), diff in zip(separated, diffs)]


def verify_main_theorem(V, phi, alpha, t, pairs=None, n_paths=20_000, seed=0, workers=1):
    """Check |e^{-tH_V}Phi(x) - e^{-tH_V}Phi(y)| <= (2^{1-a}F_K^a + A) ||Phi|| d^a
    with K the Ricci lower bound of V's space.

    V = 0 collapses to the heat-semigroup Hoelder check evaluated by exact
    quadrature (so it is holder_quotient's check); singular V goes through
    the Feynman-Kac estimator, one run per pair whose two legs share their
    Brownian increments, so each pair's stderr is that of its difference.
    The check holds iff every pair holds at 3 of its stderrs, and is
    violated iff one pair is; a pair without an estimate (NaN) makes it
    inconclusive otherwise.  Its stderr is the largest pair stderr, on the
    scale of the differences; ``details["witness_stderr"]`` is the witness
    pair's stderr on the scale of the quotient."""
    space = V.space
    K = space.ricci_lower_bound
    parameters = {"potential": V.name, "alpha": alpha, "t": t}
    if V.is_zero:
        check = holder_quotient(space, t, alpha, phi, pairs=pairs)
        return replace(check, table="theorem", parameters=parameters,
                       details={**check.details, "A": 0.0, "witness_stderr": 0.0})
    if pairs is None:
        anchors = [np.asarray(c, dtype=float) for c in V.sup_candidates()]
        pairs = pair_grid_euclidean(space, anchors=anchors, scale=1.0, k_max=6)
    khash = fk.khashminskii_certify(V, t)
    a_val = A_constant(V, K, alpha, t, khash.bound_on_C_exp)
    cap = holder_cap(K, t, alpha) + a_val
    pair_rows = _fk_pair_rows(V, phi, t, pairs, n_paths, seed, workers)
    rows = [
        {
            "x": list(np.asarray(x, float)),
            "y": list(np.asarray(y, float)),
            "dist": dist,
            "lhs": lhs,
            "rhs": cap * phi.sup_norm * dist**alpha,
            "stderr": se,
            "flags": flags,
        }
        for x, y, dist, lhs, se, flags in pair_rows
    ]
    verdicts = {one_sided_verdict(r["lhs"], r["rhs"], r["stderr"], 0.0) for r in rows}
    worst_q, witness_se, witness = _worst_pair(pair_rows, alpha, phi.sup_norm)
    return Check(
        "theorem", parameters, worst_q, cap,
        stderr=max((r["stderr"] for r in rows), default=0.0),
        verdict=next((v for v in (VIOLATED, INCONCLUSIVE) if v in verdicts), HOLDS),
        details={"K": K, "A": a_val, "c_exp": khash.bound_on_C_exp,
                 "n_paths": n_paths, "witness": witness,
                 "witness_stderr": witness_se, "rows": rows},
    )


def measured_holder_quotient_mc(V, phi, alpha, t, pairs, n_paths, seed, workers=1):
    """(max quotient, stderr at the witness) of e^{-tH_V}Phi over a pair grid."""
    rows = _fk_pair_rows(V, phi, t, pairs, n_paths, seed, workers)
    best, best_se, _pair = _worst_pair(rows, alpha, phi.sup_norm)
    return best, best_se
