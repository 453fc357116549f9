"""Potentials and the alpha-Kato integral machinery.

The central quantity is

    kato(V, alpha, t) = sup_x  int_0^t s^(-alpha/2) int p(s,x,y) |V(y)| m(dy) ds,

with closed forms for constants and single-center Coulomb terms, an
endpoint-exact quadrature route for everything with a smoothed evaluator,
and a path-form Monte Carlo route.  Certificates are always upper bounds of
the inner integral and lower bounds of the outer sup (witness search).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from . import streams
from .spaces import _row_distances
from .errors import (
    DivergentBoundError,
    HypothesisViolationError,
    InvalidPointError,
    TimeDomainError,
)

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


def smoothed_coulomb(space, s, x, center):
    """Heat-smoothed Newtonian potential on R^3 (single values)."""
    if space.kind != "euclidean" or space.dimension != 3:
        raise InvalidPointError("smoothed_coulomb lives on euclidean(3)")
    if s <= 0:
        raise TimeDomainError("requires s > 0")
    x = space.check_point(x)
    center = space.check_point(center)
    return float(smoothed_coulomb_dist(s, np.array([np.linalg.norm(x - center)]))[0])


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
    singularities = ()
    sup_norm = None  # finite for bounded potentials
    lower_bound = None  # finite when V is bounded below
    is_zero = False
    lq_split = None  # {"q": q, "lq_norm": a, "linf_norm": b} when declared
    name = "potential"

    def __call__(self, pts):
        raise NotImplementedError

    def evaluate_one(self, x):
        return float(self(np.asarray(x, dtype=float)[None, :])[0])

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

    def __init__(self, space, center=(0.0, 0.0, 0.0), charge=1.0, attractive=True):
        if space.kind != "euclidean" or space.dimension != 3:
            raise InvalidPointError("Coulomb potential lives on euclidean(3)")
        self.space = space
        self.center = np.asarray(center, dtype=float)
        self.charge = float(charge)
        self.attractive = bool(attractive)
        self.singularities = ({"type": "point", "where": self.center},)
        self.lower_bound = None if attractive else 0.0
        self.name = f"coulomb(Z={charge}, {'-' if attractive else '+'})"

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

    def lq_split_for(self, q):
        """Declared L^q + L^inf split: singular part on the unit ball."""
        if q >= 3:
            raise HypothesisViolationError("Coulomb is in L^q(R^3) only for q < 3")
        ball = 4.0 * math.pi / (3.0 - q)  # int_{|y|<1} |y|^{-q} dy
        return {
            "q": q,
            "lq_norm": self.charge * ball ** (1.0 / q),
            "linf_norm": self.charge,
        }


class OscillatorPotential(Potential):
    """x^2 on R^1: bounded below but not in any Kato class (sup_x is infinite)."""

    name = "oscillator"
    lower_bound = 0.0

    def __init__(self, space):
        if space.kind != "euclidean" or space.dimension != 1:
            raise InvalidPointError("oscillator potential lives on euclidean(1)")
        self.space = space

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

    def __init__(self, space, m, nuclei_r, charges):
        self.m = int(m)
        self.R = np.asarray(nuclei_r, dtype=float).reshape(-1, 3)
        self.Z = np.asarray(charges, dtype=float).reshape(-1)
        if self.R.shape[0] != self.Z.shape[0]:
            raise InvalidPointError("need one charge per nucleus")
        if np.any(self.Z < 0):
            raise InvalidPointError("charges must be >= 0")
        self.l = self.R.shape[0]
        if space.kind != "euclidean" or space.dimension != 3 * self.m:
            raise InvalidPointError(
                f"molecular space must be euclidean({3 * self.m})"
            )
        self.space = space
        sing = []
        for j in range(self.m):
            for i in range(self.l):
                sing.append({"type": "nucleus", "electron": j, "center": self.R[i]})
        for i in range(self.m):
            for j in range(i + 1, self.m):
                sing.append({"type": "coincidence", "pair": (i, j)})
        self.singularities = tuple(sing)
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
    method: str  # closed_form | quadrature | monte_carlo | extension
    sup_witness: np.ndarray | None = None
    stderr: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def finite(self):
        return math.isfinite(self.bound)

    def to_dict(self):
        return {"record": "kato_certificate", **vars(self)}


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

    def integrand(u):
        s = max(u, 0.0) ** (1.0 / power)
        return g(max(s, 1e-300))

    val, _ = integrate.quad(
        integrand, 0.0, t**power, limit=300, epsabs=1e-12, epsrel=1e-10
    )
    return val / power


# ---------------------------------------------------------------------------
# kato_integral and friends
# ---------------------------------------------------------------------------

def _blowup_exponent_estimate(V, t):
    """Fitted d log(bound) / d log(1-alpha) near alpha = 1."""
    alphas = np.array([0.90, 0.94, 0.98])
    vals = []
    for a in alphas:
        v = V.closed_form_kato(a, t)
        if v is None:
            v = _quadrature_bound(V, a, t)[0]
        vals.append(v)
    x = np.log(1.0 - alphas)
    y = np.log(vals)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


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
    # crude resolution + Lipschitz gap estimate for the sup search
    details = {"n_candidates": len(cands), "candidate_values": vals}
    if len(cands) > 1 and math.isfinite(bound):
        arr = np.array([np.asarray(c, float) for c in cands])
        spacing = 0.0
        for c in arr:
            others = np.linalg.norm(arr - c, axis=1)
            others = others[others > 0]
            if others.size:
                spacing = max(spacing, float(others.min()))
        lip = 0.0
        for c, v in zip(arr, vals):
            if math.isfinite(v):
                probe = c + 1e-3
                lip = max(lip, abs(objective(probe) - v) / (1e-3 * math.sqrt(c.size)))
        details["sup_gap_upper_estimate"] = bound + lip * spacing
        details["candidate_spacing"] = spacing
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
            ys = V.space.sample_transition_each(s, wit, rng)
            w = z_norm * s ** (beta - alpha / 2.0) * np.abs(V(ys))
            return size, w.sum(), (w * w).sum()

        n, mean, stderr = streams.merge_chunks(streams.map_chunks(
            chunk, n_samples, seed, streams.TAG_KATO_MC, workers=workers
        ))
        return KatoCertificate(
            alpha,
            t,
            float(mean),
            "monte_carlo",
            wit,
            float(stderr),
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


def extend_small_time(cert, target_t):
    """Chapman-Kolmogorov extension: bound(t) <= ceil(t/t') * bound(t')."""
    if not cert.finite:
        raise DivergentBoundError("cannot extend an infinite certificate")
    if target_t < cert.t:
        raise TimeDomainError("target horizon must be >= certificate horizon")
    ell = max(1, math.ceil(target_t / cert.t - 1e-12))
    return KatoCertificate(
        cert.alpha,
        target_t,
        ell * cert.bound,
        "extension",
        cert.sup_witness,
        ell * cert.stderr,
        {"l": ell, "base_t": cert.t, "base_bound": cert.bound},
    )


def lq_kato_bound(V, q, alpha, t):
    """Kato bound from a declared L^q + L^inf decomposition on R^N.

    Uses the exact on-diagonal Euclidean kernel sup (4 pi s)^{-N/(2q)} in the
    Hoelder chain; requires q > N/(2 - alpha)."""
    space = V.space
    if space.kind != "euclidean":
        raise HypothesisViolationError("lq_kato_bound is specialized to R^N")
    n_dim = space.dimension
    if not 0.0 <= alpha <= 1.0:
        raise TimeDomainError("alpha must lie in [0, 1]")
    if q <= n_dim / (2.0 - alpha):
        raise HypothesisViolationError(
            f"need q > N/(2-alpha) = {n_dim / (2.0 - alpha):g}; got q = {q:g}"
        )
    split = V.lq_split
    if split is None and hasattr(V, "lq_split_for"):
        split = V.lq_split_for(q)
    if split is None:
        raise HypothesisViolationError("potential has no declared L^q + L^inf split")
    e_sing = 1.0 - alpha / 2.0 - n_dim / (2.0 * q)
    e_bdd = 1.0 - alpha / 2.0
    bound = (
        split["lq_norm"] * (4.0 * math.pi) ** (-n_dim / (2.0 * q)) * t**e_sing / e_sing
        + split["linf_norm"] * t**e_bdd / e_bdd
    )
    return KatoCertificate(
        alpha,
        t,
        float(bound),
        "closed_form",
        None,
        0.0,
        {"q": q, "lq_norm": split["lq_norm"], "linf_norm": split["linf_norm"]},
    )


# ---------------------------------------------------------------------------
# submersions of molecular configuration paths
# ---------------------------------------------------------------------------


def submersion_project(points, projection, i=None, j=None, normalized=True):
    """Project points of R^{3m} to R^3 through pi_j or the pair-difference map.

    ``points`` is one path ``(n_times, 3m)`` or a batch ``(n, n_times, 3m)``;
    the projection acts on the last axis.  ``projection`` is "pi_j"
    (coordinate block j, an isometric submersion) or "pi_ij"
    ((x_i - x_j)/sqrt(2); without the normalization the image has
    per-coordinate increment variance 4h, twice Brownian)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] % 3 != 0:
        raise InvalidPointError("submersions act on molecular configuration spaces")
    m = pts.shape[-1] // 3
    if projection == "pi_j":
        if j is None or not 0 <= j < m:
            raise InvalidPointError(f"electron index {j} out of range for m={m}")
        return pts[..., 3 * j : 3 * j + 3].copy()
    if projection == "pi_ij":
        if i is None or j is None or not (0 <= i < m and 0 <= j < m and i != j):
            raise InvalidPointError(f"pair ({i},{j}) out of range for m={m}")
        out = pts[..., 3 * i : 3 * i + 3] - pts[..., 3 * j : 3 * j + 3]
        return out / math.sqrt(2.0) if normalized else out
    raise InvalidPointError(f"unknown projection {projection!r}")


# ---------------------------------------------------------------------------
# molecule file I/O
# ---------------------------------------------------------------------------


def load_molecule(source):
    """Molecule JSON {"m": int, "nuclei": [{"R": [x,y,z], "Z": charge}]}."""
    from . import spaces as _spaces

    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    if set(data.keys()) - {"m", "nuclei"}:
        raise InvalidPointError(
            f"unknown molecule keys {sorted(set(data) - {'m', 'nuclei'})}"
        )
    m = int(data["m"])
    rs = [n["R"] for n in data["nuclei"]]
    zs = [n["Z"] for n in data["nuclei"]]
    return MolecularPotential(_spaces.euclidean(3 * m), m, rs, zs)


def hydrogen(space=None):
    """m=1, single unit charge at the origin."""
    from . import spaces as _spaces

    return MolecularPotential(
        space or _spaces.euclidean(3), 1, [(0.0, 0.0, 0.0)], [1.0]
    )
