"""Model state spaces: Euclidean R^d and the round 2-sphere.

Conventions shared by every module: the generator is the *full* Laplacian,
so the Euclidean transition kernel is

    p(t, x, y) = (4*pi*t)^(-d/2) * exp(-|x-y|^2 / (4t)),

i.e. per-coordinate transition variance 2t, and the sphere kernel is the
spectral series with eigenvalues l(l+1)/radius^2.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy import integrate

from . import streams
from .errors import InvalidPointError, TimeDomainError, TooSmallTimeError

_SPHERE_MIN_TIME = 1e-3  # below this the spectral series is not certified
_SPHERE_TAIL_TOL = 1e-13
_SPHERE_TABLE = 257  # angle-table nodes that bracket each inverse-CDF solve
_SPHERE_MAX_ITER = 64  # a cap only: the residual test stops after 2-4 steps


def _row_distances(a, b):
    """``np.linalg.norm(a - b, axis=-1)`` of two broadcastable arrays, bit for
    bit.  numpy sums an axis shorter than 8 left to right, which the column
    by column sum below repeats without numpy's slow reduction over a short
    axis; longer axes are summed pairwise, so they keep the norm itself."""
    if a.shape[-1] >= 8:
        return np.linalg.norm(a - b, axis=-1)
    out = a[..., 0] - b[..., 0]
    out *= out
    for k in range(1, a.shape[-1]):
        col = a[..., k] - b[..., k]
        col *= col
        out += col
    # two single points give a numpy scalar, which cannot be written in place
    return np.sqrt(out, out=out if out.ndim else None)


@dataclass(frozen=True)
class StateSpace:
    """A model geometry: metric, measure, exact heat kernel, sampler."""

    kind: str  # "euclidean" | "sphere2"
    dimension: int
    ricci_lower_bound: float  # the curvature parameter K
    radius: float = 1.0

    # -- construction ------------------------------------------------------

    def __post_init__(self):
        if self.kind not in ("euclidean", "sphere2"):
            raise InvalidPointError(f"unknown space kind {self.kind!r}")
        if self.dimension < 1:
            raise InvalidPointError("dimension must be >= 1")

    @property
    def embedding_dim(self):
        return self.dimension if self.kind == "euclidean" else 3

    # -- points ------------------------------------------------------------

    def check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.embedding_dim,):
            raise InvalidPointError(
                f"point has shape {x.shape}, expected ({self.embedding_dim},)"
            )
        if self.kind == "sphere2":
            if abs(np.linalg.norm(x) - self.radius) > 1e-12:
                raise InvalidPointError(
                    f"|x| = {np.linalg.norm(x)!r} is not on the sphere of "
                    f"radius {self.radius}"
                )
        return x

    # -- metric ------------------------------------------------------------

    def distance(self, x, y):
        x = self.check_point(x)
        y = self.check_point(y)
        return float(self.distance_batch(x[None, :], y[None, :])[0])

    def distance_batch(self, xs, ys):
        """Pairwise distances of two (..., embedding_dim) arrays."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.kind == "euclidean":
            return _row_distances(xs, ys)
        r = self.radius
        cosang = np.clip(np.sum(xs * ys, axis=-1) / (r * r), -1.0, 1.0)
        return r * np.arccos(cosang)

    # -- heat kernel ---------------------------------------------------------

    def heat_kernel(self, t, x, y):
        if t <= 0:
            raise TimeDomainError("heat kernel requires t > 0")
        x = self.check_point(x)
        y = self.check_point(y)
        if self.kind == "euclidean":
            d = self.dimension
            sq = float(np.sum((x - y) ** 2))
            return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-sq / (4.0 * t))
        theta = self.distance(x, y) / self.radius
        return float(self.sphere_kernel_theta(t, theta))

    def sphere_series_length(self, t):
        """Smallest series length L with certified tail below 1e-13; at most
        188 down to the certified floor t/r^2 = 1e-3."""
        t_eff = t / (self.radius * self.radius)
        if t_eff < _SPHERE_MIN_TIME:
            raise TooSmallTimeError(
                f"sphere kernel needs t/radius^2 >= {_SPHERE_MIN_TIME}; "
                f"got {t_eff:g}"
            )
        for ell in itertools.count():
            tail = (2 * ell + 3) * math.exp(-(ell + 1) * (ell + 2) * t_eff)
            if tail < _SPHERE_TAIL_TOL:
                return ell

    def sphere_kernel_theta(self, t, theta):
        """Spectral kernel as a function of the angle; vectorized in theta."""
        if self.kind != "sphere2":
            raise InvalidPointError("sphere_kernel_theta needs a sphere2 space")
        if t <= 0:
            raise TimeDomainError("heat kernel requires t > 0")
        r = self.radius
        t_eff = t / (r * r)
        ell_max = self.sphere_series_length(t)
        ells = np.arange(ell_max + 1)
        coeffs = (2 * ells + 1) / (4.0 * math.pi * r * r) * np.exp(
            -ells * (ells + 1) * t_eff
        )
        return npleg.legval(np.cos(np.asarray(theta, dtype=float)), coeffs)

    # -- transition sampling -------------------------------------------------

    def sample_transition(self, t, x, rng):
        return self.sample_transition_batch(t, x, 1, rng)[0]

    def sphere_angle_cdf(self, t, theta):
        """P(Theta <= theta) for the polar angle of X_t about its start;
        vectorized in theta, exact up to the certified 1e-13 series tail."""
        if self.kind != "sphere2":
            raise InvalidPointError("sphere_angle_cdf needs a sphere2 space")
        if t <= 0:
            raise TimeDomainError("heat kernel requires t > 0")
        cdf = self._sphere_angle_series(t)
        return npleg.legval(np.cos(np.asarray(theta, dtype=float)), cdf)

    def _sphere_angle_series(self, t):
        """Legendre coefficients in u = cos(theta) of P(Theta <= theta).

        The law of u has CDF F(u) = (1+u)/2 + 1/2 sum_{l>=1} c_l (P_{l+1} -
        P_{l-1})(u) with c_l = exp(-l(l+1)t/r^2), from the integral of P_l;
        P(Theta <= theta) = 1 - F(cos theta)."""
        ell_max = self.sphere_series_length(t)
        ells = np.arange(ell_max + 3)
        c = np.exp(-ells * (ells + 1) * (t / (self.radius * self.radius)))
        c[ell_max + 1:] = 0.0
        cdf = np.empty(ell_max + 2)
        cdf[0] = 0.5 * (1.0 + c[1])
        cdf[1:] = -0.5 * (c[:-2] - c[2:])
        return cdf

    def _sphere_angle_quantile(self, t, v):
        """Polar angles theta with P(Theta <= theta) = v, to 1e-13 in v.

        A theta table on the angle scale sqrt(t) brackets each v; safeguarded
        Newton steps in theta (not in u, which resolves theta near the pole
        only to ~1.5e-8) keep the bracket, bisect when a step leaves it, and
        stop once the residual or the bracket has converged."""
        cdf = self._sphere_angle_series(t)
        dcdf = npleg.legder(cdf)
        v = np.asarray(v, dtype=float)
        # P(Theta > 16 sqrt(t)/r) is about exp(-64): one node at pi covers it
        top = min(math.pi, 16.0 * math.sqrt(t) / self.radius)
        nodes = np.linspace(0.0, top, _SPHERE_TABLE)
        if top < math.pi:
            nodes = np.append(nodes, math.pi)
        table = np.clip(npleg.legval(np.cos(nodes), cdf), 0.0, 1.0)
        table[0], table[-1] = 0.0, 1.0
        np.maximum.accumulate(table, out=table)
        k = np.clip(np.searchsorted(table, v, side="right"), 1, len(nodes) - 1)
        lo, hi = nodes[k - 1], nodes[k]
        # start by interpolating in sqrt(-log(1 - v)), in which the flat-space
        # angle 2 sqrt(t) sqrt(-log(1 - v)) / r is exactly linear
        with np.errstate(divide="ignore", invalid="ignore"):
            flat = np.sqrt(-np.log1p(-table))
            lam = (np.sqrt(-np.log1p(-v)) - flat[k - 1]) / (flat[k] - flat[k - 1])
        theta = lo + np.clip(np.nan_to_num(lam, nan=0.5), 0.0, 1.0) * (hi - lo)
        idx = np.arange(v.size)
        for _ in range(_SPHERE_MAX_ITER):
            th = theta[idx]
            u = np.cos(th)
            res = npleg.legval(u, cdf) - v[idx]
            live = (np.abs(res) > _SPHERE_TAIL_TOL) & (
                hi[idx] - lo[idx] > 4.0 * np.spacing(hi[idx])
            )
            idx, th, u, res = idx[live], th[live], u[live], res[live]
            if idx.size == 0:
                break
            lo[idx] = np.where(res < 0, th, lo[idx])
            hi[idx] = np.where(res > 0, th, hi[idx])
            # Newton in theta, with dP/dtheta = -sin(theta) dP/du
            with np.errstate(divide="ignore", invalid="ignore"):
                step = th + res / (np.sin(th) * npleg.legval(u, dcdf))
            inside = (step > lo[idx]) & (step < hi[idx])  # False on nan
            theta[idx] = np.where(inside, step, 0.5 * (lo[idx] + hi[idx]))
        return theta

    def sample_transition_batch(self, t, x, n, rng):
        """n independent samples of X_t started at x; exact on R^d, and on
        the sphere exact for t >= 1e-3 r^2 (one geodesic step below)."""
        if t < 0:
            raise TimeDomainError("transition requires t >= 0")
        x = self.check_point(x)
        if t == 0:
            return np.tile(x, (n, 1))
        if self.kind == "euclidean":
            return x + math.sqrt(2.0 * t) * rng.standard_normal((n, self.dimension))
        return self._sphere_step(t, np.tile(x, (n, 1)), rng)

    def _sphere_step(self, t, pts, rng):
        """One Brownian move of duration t from each row of pts.

        The direction is uniform in the tangent plane. The geodesic angle is
        drawn by inverse CDF of the certified series where t/r^2 >=
        _SPHERE_MIN_TIME, and below that by one geodesic-walk step: a
        chi(2) length of variance 2t per tangent coordinate."""
        r = self.radius
        n = pts.shape[0]
        v = rng.standard_normal((n, 3))
        if t / (r * r) >= _SPHERE_MIN_TIME:
            ang = self._sphere_angle_quantile(t, rng.random(n))
        else:
            g = rng.standard_normal((n, 2))
            ang = np.sqrt(2.0 * t * np.sum(g * g, axis=1)) / r
        phat = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        w = v - np.sum(v * phat, axis=1, keepdims=True) * phat
        wn = np.linalg.norm(w, axis=1, keepdims=True)
        # a projected draw can degenerate only with probability 0
        wn = np.where(wn < 1e-300, 1.0, wn)
        u = w / wn
        ang = ang[:, None]
        p = np.cos(ang) * pts + np.sin(ang) * r * u
        p *= r / np.linalg.norm(p, axis=1, keepdims=True)
        return p

    def sample_transition_each(self, ts, x, rng):
        """One sample per entry of ts (varying horizons, common start)."""
        ts = np.asarray(ts, dtype=float)
        x = self.check_point(x)
        if np.any(ts < 0):
            raise TimeDomainError("transition requires t >= 0")
        if self.kind == "euclidean":
            z = rng.standard_normal((ts.size, self.dimension))
            return x + np.sqrt(2.0 * ts)[:, None] * z
        out = np.empty((ts.size, 3))
        for i, t in enumerate(ts):
            out[i] = self.sample_transition_batch(float(t), x, 1, rng)[0]
        return out


def euclidean(d):
    """Flat R^d with Lebesgue measure; K = 0."""
    return StateSpace("euclidean", int(d), 0.0)


def sphere2(radius=1.0):
    """Round 2-sphere of the given radius; K = 1/radius^2."""
    radius = float(radius)
    return StateSpace("sphere2", 2, 1.0 / (radius * radius), radius)


# ---------------------------------------------------------------------------
# moment and kernel diagnostics
# ---------------------------------------------------------------------------


@dataclass
class MomentEstimate:
    order: int
    t: float
    value: float
    stderr: float
    n_samples: int


def moment_check(space, t, x, order, n_samples, seed, workers=1):
    """Monte Carlo estimate of the order-th distance moment of p(t, x, .)."""
    if order not in (2, 4):
        raise TimeDomainError("order must be 2 or 4")
    if n_samples < 10**4:
        raise TimeDomainError("moment_check needs n_samples >= 10^4")
    x = space.check_point(x)

    def chunk(rng, size, _k):
        ys = space.sample_transition_batch(t, x, size, rng)
        dist = space.distance_batch(x, ys)
        vals = dist**order
        return size, np.sum(vals), np.sum(vals * vals)

    n, mean, stderr = streams.merge_chunks(streams.map_chunks(
        chunk, n_samples, seed, streams.TAG_MOMENT, workers=workers
    ))
    return MomentEstimate(order, t, float(mean), float(stderr), n)


def exact_euclidean_moment(d, t, order):
    """Closed-form Gaussian distance moments: 2dt and 4d(d+2)t^2."""
    if order == 2:
        return 2.0 * d * t
    if order == 4:
        return 4.0 * d * (d + 2) * t * t
    raise TimeDomainError("order must be 2 or 4")


def exact_sphere_moment(space, t, order):
    """E[d^order] under p(t, x, .) on the sphere, by quadrature of the
    certified series over the polar angle; order 0 gives the total mass."""
    r = space.radius

    def dens(theta):
        weight = (r * theta) ** order
        return weight * 2.0 * math.pi * r * r * math.sin(theta) * float(
            space.sphere_kernel_theta(t, theta)
        )

    val, _ = integrate.quad(dens, 0.0, math.pi, limit=200)
    return val


def conservativeness_defect(space, t, x):
    """|integral of p(t,x,.) dm - 1| by radial quadrature."""
    x = space.check_point(x)
    if space.kind == "euclidean":
        d = space.dimension
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

        def dens(rho):
            return (
                area
                * rho ** (d - 1)
                * (4.0 * math.pi * t) ** (-d / 2.0)
                * math.exp(-rho * rho / (4.0 * t))
            )

        hi = 20.0 * math.sqrt(t) + 1.0
        val, _ = integrate.quad(dens, 0.0, hi, limit=200)
        return abs(val - 1.0)
    return abs(exact_sphere_moment(space, t, 0) - 1.0)


def chapman_kolmogorov_defect(space, t, s, x, y):
    """|int p(t,x,z) p(s,z,y) dz - p(t+s,x,y)| by quadrature on R^1."""
    if space.kind != "euclidean" or space.dimension != 1:
        raise InvalidPointError("Chapman-Kolmogorov quadrature supports R^1 only")
    x = space.check_point(x)
    y = space.check_point(y)
    w = 14.0 * math.sqrt(max(t, s)) + abs(x[0]) + abs(y[0]) + 1.0

    def integrand(z):
        pz = np.array([z])
        return space.heat_kernel(t, x, pz) * space.heat_kernel(s, pz, y)

    val, _ = integrate.quad(integrand, -w, w, limit=400)
    return abs(val - space.heat_kernel(t + s, x, y))


def ball_volume(space, geodesic_radius):
    """Measure of a metric ball (used by the Li-Yau sanity scan)."""
    if space.kind == "euclidean":
        d = space.dimension
        unit = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        return unit * geodesic_radius**d
    r = space.radius
    ang = min(geodesic_radius / r, math.pi)
    return 2.0 * math.pi * r * r * (1.0 - math.cos(ang))


def li_yau_constant_scan(space, t_grid, dist_grid):
    """Smallest C of a geometric grid on [1, 1e3] with
    p(t,x,y) <= C/m(B(x,sqrt t)) * exp(-d^2/(Ct)).

    Only a sanity inequality on model spaces, never a proof.
    """
    if space.kind == "euclidean":
        x = np.zeros(space.dimension)

        def kern(t, dist):
            y = x.copy()
            y[0] = dist
            return space.heat_kernel(t, x, y)

    else:
        x = np.array([0.0, 0.0, space.radius])

        def kern(t, dist):
            return float(space.sphere_kernel_theta(t, dist / space.radius))

    for c in np.geomspace(1.0, 1e3, 200):
        ok = True
        for t in t_grid:
            vol = ball_volume(space, math.sqrt(t))
            for dist in dist_grid:
                lhs = kern(t, dist)
                rhs = c / vol * math.exp(-dist * dist / (c * t))
                if lhs > rhs * (1.0 + 1e-12):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return float(c)
    return math.inf
