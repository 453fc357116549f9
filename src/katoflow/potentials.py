"""Potentials and the alpha-Kato integral machinery.

The central quantity is

    kato(V, alpha, t) = sup_x  int_0^t s^(-alpha/2) int p(s,x,y) |V(y)| m(dy) ds,

with closed forms for constants and single-center Coulomb terms, an
endpoint-exact quadrature route for everything with a smoothed evaluator,
and a path-form Monte Carlo route.  Certificates are always upper bounds of
the inner integral and lower bounds of the outer sup (witness search).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature, special, streams
from .spaces import Euclidean, _row_distances, euclidean
from .errors import ConfigError, InvalidPointError, TimeDomainError, UnsupportedStrategyError

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# smoothed Coulomb values (heat semigroup applied to 1/|y - center|)
# ---------------------------------------------------------------------------


def smoothed_coulomb_dist(s, u):
    """int p(s,x,y) |y-c|^{-1} dy on R^3 as a function of u = |x - c|.

    Equals erf(u / (2 sqrt(s))) / u, with removable limit 1/sqrt(pi*s) at 0.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u < 1e-12
    out[small] = 1.0 / math.sqrt(math.pi * s)
    ub = u[~small]
    out[~small] = special.erf(ub / (2.0 * math.sqrt(s))) / ub
    return out


def _coulomb_kato(charge, alpha, t):
    """Kato integral of charge/|y - c| on R^3: the sup sits at the center,
    where the smoothed value is charge/sqrt(pi s)."""
    if alpha >= 1.0:
        return math.inf
    return charge * (2.0 / SQRT_PI) * t ** ((1.0 - alpha) / 2.0) / (1.0 - alpha)


# ---------------------------------------------------------------------------
# potential library
# ---------------------------------------------------------------------------


class Potential:
    """Base potential: a batch evaluator plus Kato-relevant metadata."""

    space = None
    sup_norm = None  # finite for bounded potentials
    lower_bound = None  # finite when V is bounded below
    is_zero = False
    name = "potential"

    def __call__(self, pts):
        raise NotImplementedError

    def singularity_distance(self, pts):
        """Distance to the singular locus; None when V has no singularities."""
        return None

    def smoothed_abs(self, s, x):
        """int p(s,x,y)|V(y)| dy, or a certified upper bound of it."""
        raise NotImplementedError

    smoothed_abs_exact = True

    def coulomb_strength_at(self, x):
        """Coefficient of the 1/sqrt(pi*s) blow-up of smoothed_abs at x."""
        return 0.0

    def sup_candidates(self):
        """Seed points for the witness search of the outer sup."""
        raise NotImplementedError

    def closed_form_kato(self, alpha, t):
        """Exact Kato integral when available, else None."""
        return None


class CoulombPotential(Potential):
    """charge/|x - center| on R^3; attractive ( - ) by default."""

    space = euclidean(3)

    def __init__(self, center=(0.0, 0.0, 0.0), charge=1.0, attractive=True):
        self.center = self.space.check_point(center)
        self.charge = float(charge)
        self.attractive = bool(attractive)
        self.lower_bound = None if attractive else 0.0
        self.name = f"coulomb(Z={self.charge}, {'-' if self.attractive else '+'})"

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = _row_distances(pts, self.center)
        with np.errstate(divide="ignore"):
            mag = self.charge / r
        return -mag if self.attractive else mag

    def singularity_distance(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _row_distances(pts, self.center)

    def smoothed_abs(self, s, x):
        u = np.linalg.norm(np.asarray(x, dtype=float) - self.center)
        return self.charge * float(smoothed_coulomb_dist(s, np.array([u]))[0])

    def coulomb_strength_at(self, x):
        u = np.linalg.norm(np.asarray(x, dtype=float) - self.center)
        return self.charge if u < 1e-12 else 0.0

    def sup_candidates(self):
        return [self.center.copy()]

    def closed_form_kato(self, alpha, t):
        return _coulomb_kato(self.charge, alpha, t)


class OscillatorPotential(Potential):
    """x^2 on R^1: bounded below but not in any Kato class (sup_x is infinite)."""

    name = "oscillator"
    lower_bound = 0.0
    space = euclidean(1)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts[:, 0] ** 2

    def smoothed_abs(self, s, x):
        return float(np.asarray(x).reshape(-1)[0] ** 2 + 2.0 * s)

    def sup_candidates(self):
        return [np.zeros(1)]

    def closed_form_kato(self, alpha, t):
        return math.inf  # sup_x (x^2 + 2s) = inf for every s


class BoundedPotential(Potential):
    """Wrapper giving any bounded batch function potential semantics."""

    smoothed_abs_exact = False  # the L^inf bound stands in for the integral

    def __init__(self, space, fn, sup_norm, lower_bound=None, name="bounded"):
        self.space = space
        self.fn = fn
        self.sup_norm = float(sup_norm)
        self.lower_bound = -self.sup_norm if lower_bound is None else lower_bound
        self.name = name

    def __call__(self, pts):
        return self.fn(pts)

    def smoothed_abs(self, s, x):
        return self.sup_norm

    def sup_candidates(self):
        return [np.zeros(self.space.embedding_dim)]

    def closed_form_kato(self, alpha, t):
        # conservativeness bounds the inner integral by sup|V|
        return self.sup_norm * t ** (1.0 - alpha / 2.0) / (1.0 - alpha / 2.0)


class ConstantPotential(BoundedPotential):
    """V = c: the L^inf bound |c| is the inner integral itself."""

    smoothed_abs_exact = True
    name = "constant"

    def __init__(self, space, c):
        c = float(c)
        super().__init__(space, None, abs(c), min(c, 0.0), self.name)
        self.c = c

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.full(pts.shape[0], self.c)


class ZeroPotential(ConstantPotential):
    is_zero = True
    name = "zero"

    def __init__(self, space):
        super().__init__(space, 0.0)


class MolecularPotential(Potential):
    """V(x_1..x_m) = -sum_j sum_i Z_i/|x_j - R_i| + sum_{i<j} 1/|x_i - x_j|."""

    smoothed_abs_exact = False  # triangle-inequality sum of per-term values

    def __init__(self, m, nuclei_r, charges):
        self.m = int(m)
        self.R = np.asarray(nuclei_r, dtype=float).reshape(-1, 3)
        self.Z = np.asarray(charges, dtype=float).reshape(-1)
        if self.R.shape[0] != self.Z.shape[0]:
            raise InvalidPointError("need one charge per nucleus")
        if np.any(self.Z < 0):
            raise InvalidPointError("charges must be >= 0")
        self.l = self.R.shape[0]
        self.space = euclidean(3 * self.m)
        self.name = f"molecular(m={self.m}, l={self.l})"

    def _blocks(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts.reshape(pts.shape[0], self.m, 3)

    def __call__(self, pts):
        blocks = self._blocks(pts)
        with np.errstate(divide="ignore"):
            val = np.zeros(blocks.shape[0])
            for j in range(self.m):
                for i in range(self.l):
                    val -= self.Z[i] / _row_distances(blocks[:, j], self.R[i])
            for i in range(self.m):
                for j in range(i + 1, self.m):
                    val += 1.0 / _row_distances(blocks[:, i], blocks[:, j])
        return val

    def singularity_distance(self, pts):
        blocks = self._blocks(pts)
        dist = np.full(blocks.shape[0], np.inf)
        for j in range(self.m):
            for i in range(self.l):
                dist = np.minimum(dist, _row_distances(blocks[:, j], self.R[i]))
        for i in range(self.m):
            for j in range(i + 1, self.m):
                # orthogonal distance to the coincidence subspace {x_i = x_j}
                dist = np.minimum(
                    dist,
                    _row_distances(blocks[:, i], blocks[:, j]) / math.sqrt(2),
                )
        return dist

    def smoothed_abs(self, s, x):
        blocks = np.asarray(x, dtype=float).reshape(self.m, 3)
        total = 0.0
        for j in range(self.m):
            for i in range(self.l):
                u = np.linalg.norm(blocks[j] - self.R[i])
                total += self.Z[i] * float(smoothed_coulomb_dist(s, np.array([u]))[0])
        for i in range(self.m):
            for j in range(i + 1, self.m):
                u = np.linalg.norm(blocks[i] - blocks[j])
                # y_i - y_j has per-coordinate variance 4s: the kernel at 2s
                total += float(smoothed_coulomb_dist(2.0 * s, np.array([u]))[0])
        return total

    def coulomb_strength_at(self, x):
        blocks = np.asarray(x, dtype=float).reshape(self.m, 3)
        strength = 0.0
        for j in range(self.m):
            for i in range(self.l):
                if np.linalg.norm(blocks[j] - self.R[i]) < 1e-12:
                    strength += self.Z[i]
        for i in range(self.m):
            for j in range(i + 1, self.m):
                if np.linalg.norm(blocks[i] - blocks[j]) < 1e-12:
                    strength += 1.0 / math.sqrt(2.0)
        return strength

    def sup_candidates(self):
        cands = []
        # all electrons stacked on one nucleus (hits every coincidence subspace)
        for i in range(self.l):
            cands.append(np.tile(self.R[i], self.m))
        # electrons spread round-robin over nuclei
        if self.l > 1:
            cands.append(
                np.concatenate([self.R[j % self.l] for j in range(self.m)])
            )
        # pairwise nucleus midpoints, all electrons stacked
        for i in range(self.l):
            for j in range(i + 1, self.l):
                mid = 0.5 * (self.R[i] + self.R[j])
                cands.append(np.tile(mid, self.m))
        return cands

    def per_term_kato_closed_form(self, alpha, t):
        """Sum of per-term closed forms: a certified upper bound of the sup."""
        if alpha >= 1.0:
            return math.inf
        single = _coulomb_kato(1.0, alpha, t)
        attraction = self.m * float(np.sum(self.Z)) * single
        n_pairs = self.m * (self.m - 1) // 2
        repulsion = n_pairs * single / math.sqrt(2.0)
        return attraction + repulsion


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class KatoCertificate:
    alpha: float
    t: float
    bound: float
    method: str  # closed_form | quadrature | monte_carlo
    sup_witness: np.ndarray | None = None
    stderr: float = 0.0
    details: dict = field(default_factory=dict)


@dataclass
class KatoClassification:
    alpha: float
    is_kato: bool | None  # None when inconclusive
    status: str  # kato | divergent | not_kato | inconclusive
    fitted_exponent: float
    bounds: list
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the weighted time integral (shared with the constants engine)
# ---------------------------------------------------------------------------


def weighted_time_integral(m_fn, alpha, t, c_lead, extra_weight=None):
    """int_0^t s^{-alpha/2} w(s) m(s) ds with w smooth and w(0) finite.

    A Coulomb-type c_lead/sqrt(pi*s) blow-up of m is absorbed exactly by the
    substitution u = s^{1-beta} with beta = (alpha+1)/2, so the endpoint
    never limits accuracy; bounded m uses beta = alpha/2.
    """
    if extra_weight is None:
        extra_weight = lambda s: 1.0
    if c_lead > 0:
        beta = (alpha + 1.0) / 2.0
        g = lambda s: extra_weight(s) * math.sqrt(s) * m_fn(s)
    else:
        beta = alpha / 2.0
        g = lambda s: extra_weight(s) * m_fn(s)
    if beta >= 1.0:
        return math.inf
    power = 1.0 - beta

    def integrand(us):
        return [g(max(u ** (1.0 / power), 1e-300)) for u in us.tolist()]

    return quadrature.integrate(integrand, [0.0, t**power]) / power


# ---------------------------------------------------------------------------
# kato_integral and friends
# ---------------------------------------------------------------------------

def fit_blowup_exponent(alphas, values):
    """Slope of log(value) against log(1 - alpha)."""
    alphas = np.asarray(alphas, dtype=float)
    values = np.asarray(values, dtype=float)
    return float(np.polyfit(np.log(1.0 - alphas), np.log(values), 1)[0])


def _blowup_exponent_estimate(V, t):
    """Fitted d log(bound) / d log(1-alpha) near alpha = 1."""
    alphas = np.array([0.90, 0.94, 0.98])
    vals = []
    for a in alphas:
        v = V.closed_form_kato(a, t)
        if v is None:
            v = _quadrature_bound(V, a, t)[0]
        vals.append(v)
    return fit_blowup_exponent(alphas, vals)


def _quadrature_bound(V, alpha, t, extra_weight=None):
    """(bound, witness, search details) via witness search + quadrature."""
    cands = V.sup_candidates()

    def objective(x):
        c_lead = V.coulomb_strength_at(x)
        return weighted_time_integral(
            lambda s: V.smoothed_abs(s, x), alpha, t, c_lead, extra_weight
        )

    vals = [objective(np.asarray(c, dtype=float)) for c in cands]
    best = int(np.argmax(vals))
    witness = np.asarray(cands[best], dtype=float)
    bound = vals[best]
    details = {"n_candidates": len(cands), "candidate_values": vals}
    return bound, witness, details


def kato_integral(V, alpha, t, method="auto", n_samples=10**5, seed=0, workers=1):
    """Evaluate the alpha-Kato integral of |V| up to horizon t."""
    if not 0.0 <= alpha <= 1.0:
        raise TimeDomainError("alpha must lie in [0, 1]")
    if t <= 0:
        raise TimeDomainError("t must be > 0")
    if method == "auto":
        method = "closed_form" if V.closed_form_kato(alpha, t) is not None else "quadrature"

    if method == "closed_form":
        val = V.closed_form_kato(alpha, t)
        if val is None:
            raise TimeDomainError(f"no closed form for {V.name}")
        wit = np.asarray(V.sup_candidates()[0], dtype=float)
        details = {}
        if math.isinf(val):
            details["blowup_exponent_estimate"] = _blowup_exponent_estimate(V, t)
        return KatoCertificate(alpha, t, val, "closed_form", wit, 0.0, details)

    if method == "quadrature":
        bound, wit, details = _quadrature_bound(V, alpha, t)
        if math.isinf(bound):
            details["blowup_exponent_estimate"] = _blowup_exponent_estimate(V, t)
        if not V.smoothed_abs_exact:
            details["inner_integral"] = "upper bound (triangle inequality)"
        return KatoCertificate(alpha, t, bound, "quadrature", wit, 0.0, details)

    if method == "monte_carlo":
        if not isinstance(V.space, Euclidean):
            raise UnsupportedStrategyError("the Kato Monte Carlo draws on R^d only")
        _, wit, _ = _quadrature_bound(V, alpha, t)
        c_lead = V.coulomb_strength_at(wit)
        # time density prop. to s^{-beta}; at a Coulomb-singular witness
        # beta = (alpha+1)/2 leaves weights prop. to 1/|Z|, Z standard normal
        # in R^3: unbounded, but E|Z|^-2 = 1 makes their variance finite, so
        # the raw weights are CLT-valid and any finite cap only cuts mass off
        beta = (alpha + 1.0) / 2.0 if c_lead > 0 else alpha / 2.0
        if beta >= 1.0:
            return KatoCertificate(
                alpha,
                t,
                math.inf,
                "monte_carlo",
                wit,
                0.0,
                {"blowup_exponent_estimate": _blowup_exponent_estimate(V, t)},
            )
        power = 1.0 - beta
        z_norm = t**power / power

        def chunk(rng, size, _k):
            u = rng.random(size)
            s = t * u ** (1.0 / power)
            ys = V.space.move(s[:, None], np.tile(wit, (size, 1)), rng)
            w = z_norm * s ** (beta - alpha / 2.0) * np.abs(V(ys))
            return w[None]

        n, mean, stderr = streams.merge(streams.map_chunks(
            chunk, n_samples, seed, streams.TAG_KATO_MC, workers=workers
        ), ())
        return KatoCertificate(
            alpha,
            t,
            float(mean[0]),
            "monte_carlo",
            wit,
            float(stderr[0]),
            {"n_samples": n, "time_density_exponent": beta},
        )

    raise TimeDomainError(f"unknown method {method!r}")


def classify_kato(V, t_grid, alpha):
    """Decide V in K^alpha by the t -> 0 limit along a decreasing grid of
    deterministic certificates."""
    t_grid = list(t_grid)
    if len(t_grid) < 2:
        raise TimeDomainError("classify_kato needs at least two times")
    if any(b >= a for a, b in zip(t_grid, t_grid[1:])):
        raise TimeDomainError("t_grid must decrease strictly")
    certs = [kato_integral(V, alpha, t) for t in t_grid]
    bounds = [c.bound for c in certs]
    if any(math.isinf(b) for b in bounds):
        details = {}
        for c in certs:
            if "blowup_exponent_estimate" in c.details:
                details["blowup_exponent_estimate"] = c.details[
                    "blowup_exponent_estimate"
                ]
        return KatoClassification(alpha, False, "divergent", math.nan, bounds, details)
    # monotone non-increasing along the decreasing grid
    if any(b > a for a, b in zip(bounds, bounds[1:])):
        return KatoClassification(
            alpha, None, "inconclusive", math.nan, bounds, {"reason": "non-monotone"}
        )
    if all(b <= 0.0 for b in bounds):
        return KatoClassification(alpha, True, "kato", math.inf, bounds, {})
    if any(b <= 0.0 for b in bounds):
        return KatoClassification(
            alpha, None, "inconclusive", math.nan, bounds, {"reason": "zero crossing"}
        )
    slope = float(np.polyfit(np.log(t_grid), np.log(bounds), 1)[0])
    if slope > 5e-3:
        return KatoClassification(alpha, True, "kato", slope, bounds, {})
    return KatoClassification(
        alpha, False, "not_kato", slope, bounds, {"reason": "no decay to 0"}
    )


# ---------------------------------------------------------------------------
# molecule file I/O
# ---------------------------------------------------------------------------


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_molecule(data):
    """Molecule from its decoded JSON object
    {"m": int, "nuclei": [{"R": [x,y,z], "Z": charge}]}."""
    if set(data.keys()) - {"m", "nuclei"}:
        raise InvalidPointError(
            f"unknown molecule keys {sorted(set(data) - {'m', 'nuclei'})}"
        )
    m = int(data["m"])
    for n in data["nuclei"]:
        if not (isinstance(n, dict) and set(n) == {"R", "Z"}
                and isinstance(n["R"], list) and len(n["R"]) == 3
                and all(map(_is_number, n["R"] + [n["Z"]]))):
            raise ConfigError(
                f'a nucleus is {{"R": [x, y, z], "Z": charge}}, got {n!r}'
            )
    rs = [n["R"] for n in data["nuclei"]]
    zs = [n["Z"] for n in data["nuclei"]]
    return MolecularPotential(m, rs, zs)


def hydrogen():
    """m=1, single unit charge at the origin."""
    return MolecularPotential(1, [(0.0, 0.0, 0.0)], [1.0])
