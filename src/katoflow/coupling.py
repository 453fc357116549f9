"""The mirror coupling on R^d: total variation, maximality and the
equivalence ladder.

The mirror coupling reflects across the perpendicular bisector hyperplane of
the starting pair; the separation coordinate of the driving motion is a 1d
Brownian motion with variance rate 2, and within-step crossings of the
hyperplane are resolved by the exact bridge first-passage probability
exp(-a*b/h), so coupling-time statistics carry no O(sqrt(grid_step)) bias.
"""

import math

import numpy as np
from scipy import integrate

from . import streams
from .errors import PrecisionError, TimeDomainError, UnsupportedStrategyError
from .paths import _grid
from .spaces import Euclidean
from .reports import LOWER, UPPER, Check

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
    """Coupling times of n_runs mirror couplings at the given separation.

    Only the separation coordinate is simulated; tau is dimension-free.
    Returned taus are grid times (k+1)*h bracketing the true crossing, so
    survival indicators {tau > t} are exact for grid-aligned t.
    """
    times, _steps = _grid(horizon, grid_step)
    n_steps = len(times) - 1
    u0 = -0.5 * float(separation)

    def chunk(rng, size, _k):
        u = np.full(size, u0)
        taus = np.full(size, math.inf)
        alive = np.ones(size, dtype=bool)
        for k in range(n_steps):
            h = times[k + 1] - times[k]
            g = rng.standard_normal(size)
            unif = rng.random(size)
            u_new = u + math.sqrt(2.0 * h) * g
            crossed = alive & _crossed(u, u_new, h, unif)
            taus[crossed] = times[k + 1]
            alive &= ~crossed
            u = u_new
        return taus

    parts = streams.map_chunks(
        chunk, n_runs, seed, streams.TAG_COUPLING, workers=workers
    )
    return np.concatenate(parts)


def simulate_reflection_endpoints(space, x, y, t, grid_step, n_runs, seed, workers=1):
    """(X_t, Y_t, coupled) samples of the mirror coupling, vectorized.

    For x == y every hyperplane through x is a mirror; the runs couple at the
    first step and Y_t == X_t."""
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
        coupled = np.zeros(size, dtype=bool)
        u = np.full(size, -0.5 * sep)
        for k in range(n_steps):
            h = times[k + 1] - times[k]
            xs = space.move(h, xs, rng)
            unif = rng.random(size)
            u_new = (xs - mid) @ e
            coupled |= _crossed(u, u_new, h, unif)
            u = u_new
        ys = np.where(coupled[:, None], xs, xs - 2.0 * u[:, None] * e)
        return xs, ys, coupled

    parts = streams.map_chunks(
        chunk, n_runs, seed, streams.TAG_COUPLING, workers=workers
    )
    xs = np.concatenate([p[0] for p in parts])
    ys = np.concatenate([p[1] for p in parts])
    coupled = np.concatenate([p[2] for p in parts])
    return xs, ys, coupled


# ---------------------------------------------------------------------------
# total variation of the time-t marginals
# ---------------------------------------------------------------------------


def total_variation_gaussian(d, separation, t, method="closed_form"):
    """sup_B |mu1(B) - mu2(B)| between N(x, 2t I_d), N(y, 2t I_d).

    Closed form 2*Phi(sep / (2*sqrt(2t))) - 1; the quadrature route
    evaluates (1/2) * int |rho1 - rho2| along the separation axis.
    """
    if t <= 0:
        raise TimeDomainError("total variation requires t > 0")
    separation = float(separation)
    if separation < 0:
        raise TimeDomainError("separation must be >= 0")
    from scipy import stats  # lazy: ~0.6 s to import

    if method == "closed_form":
        return float(2.0 * stats.norm.cdf(separation / (2.0 * math.sqrt(2.0 * t))) - 1.0)
    if method == "quadrature":
        sig = math.sqrt(2.0 * t)

        def absdiff(z):
            return abs(
                stats.norm.pdf(z, 0.0, sig) - stats.norm.pdf(z, separation, sig)
            )

        w = 12.0 * sig + separation
        val, _ = integrate.quad(absdiff, -w, w, points=[0.0, separation / 2.0, separation], limit=200)
        return 0.5 * val
    raise TimeDomainError(f"unknown method {method!r}")


def reflection_survival_exact(separation, t):
    """Closed-form P(tau > t) for the mirror coupling (reflection principle)."""
    return total_variation_gaussian(1, separation, t)


# ---------------------------------------------------------------------------
# maximality and the equivalence ladder
# ---------------------------------------------------------------------------


def check_maximality(taus, d, separation, t_grid):
    """One check per t of the coupling inequality P(tau > t) >= (1/2) sup_B
    |mu1(B) - mu2(B)|, a lower bound at 3 stderr.

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
        tv_supb = total_variation_gaussian(d, separation, t)
        half_l1 = 0.5 * 2.0 * tv_supb  # (1/2) * int |rho1 - rho2| == sup_B value
        conventions = [name for name, value in (("supB", tv_supb), ("half_L1", half_l1),
                                                ("half_supB", 0.5 * tv_supb))
                       if abs(p_hat - value) <= 3.0 * se]
        checks.append(Check(
            "couple",
            {"strategy": REFLECTION, "d": d, "separation": separation, "t": t},
            p_hat, 0.5 * tv_supb, se, LOWER,
            details={"tv_supB": tv_supb, "half_L1": half_l1,
                     "maximality_conventions": ",".join(conventions) or "none"},
        ))
    return checks


def check_equivalence_ladder(space, x, y, t, alpha_grid, f_family, endpoints):
    """Checks of the implications (i) => (ii) => (iii) with F(t) :=
    2*P(tau>t)/d(x,y): |E f(X_t) - E f(Y_t)| <= F^alpha 2^{1-alpha} d^alpha
    ||f||, whose tol carries the delta-method stderr of the bound.

    ``endpoints`` is the ``(X_t, Y_t, coupled)`` triple that
    ``simulate_reflection_endpoints`` returns for the same x, y and t."""
    dist = space.distance(x, y)
    if dist == 0:
        raise TimeDomainError("the equivalence ladder needs d(x, y) > 0")
    xs, ys, coupled = endpoints
    n = xs.shape[0]
    p_hat = float(np.mean(~coupled))
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
