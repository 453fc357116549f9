"""Model state spaces: Euclidean R^d and the round 2-sphere.

Conventions shared by every module: the generator is the *full* Laplacian,
so the Euclidean transition kernel is

    p(t, x, y) = (4*pi*t)^(-d/2) * exp(-|x-y|^2 / (4t)),

i.e. per-coordinate transition variance 2t, and the sphere kernel is the
spectral series with eigenvalues l(l+1)/radius^2.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from . import quadrature, streams
from .errors import InvalidPointError, TimeDomainError, TooSmallTimeError

_SPHERE_MIN_TIME = 1e-3  # below this the spectral series is not certified
_SPHERE_TAIL_TOL = 1e-13
_SPHERE_TABLE = 257  # angle-table nodes that bracket each inverse-CDF solve
_SPHERE_MAX_ITER = 64  # a cap only: the residual test stops after 2-4 steps
_ROW_BLOCK = 512  # path rows per block of the Euclidean walk and the FK scan


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


class StateSpace:
    """A model geometry: metric, measure, exact heat kernel, sampler.

    Each geometry is a frozen dataclass with a label ``kind``, ``dimension``,
    ``embedding_dim``, the curvature parameter ``ricci_lower_bound`` (K),
    ``check_point``, ``distance_batch``, ``kernel_at(t, dist)``, one Brownian
    ``move(t, pts, rng)`` per row, ``carry(pts, x, y)`` by an isometry that
    takes x to y, ``total_mass(t)`` and ``ball_volume``."""

    def check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.embedding_dim,):
            raise InvalidPointError(
                f"point has shape {x.shape}, expected ({self.embedding_dim},)"
            )
        return x

    def distance(self, x, y):
        x = self.check_point(x)
        y = self.check_point(y)
        return float(self.distance_batch(x[None, :], y[None, :])[0])

    def heat_kernel(self, t, x, y):
        if t <= 0:
            raise TimeDomainError("heat kernel requires t > 0")
        return self.kernel_at(t, self.distance(x, y))

    # -- transition sampling -------------------------------------------------

    def sample_transition(self, t, x, rng):
        return self.sample_transition_batch(t, x, 1, rng)[0]

    def sample_transition_batch(self, t, x, n, rng):
        """n independent samples of X_t started at x: one ``move``."""
        if t < 0:
            raise TimeDomainError("transition requires t >= 0")
        pts = np.tile(self.check_point(x), (n, 1))
        return pts if t == 0 else self.move(t, pts, rng)

    def walk(self, x, steps, n, rng):
        """Positions (n, len(steps) + 1, embedding_dim) of n paths from x."""
        pts = np.empty((n, len(steps) + 1, self.embedding_dim))
        pts[:, 0, :] = x
        for i, h in enumerate(steps):
            pts[:, i + 1, :] = self.move(h, pts[:, i, :], rng)
        return pts


@dataclass(frozen=True)
class Euclidean(StateSpace):
    """Flat R^d with Lebesgue measure; K = 0."""

    dimension: int
    kind = "euclidean"
    ricci_lower_bound = 0.0

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidPointError("dimension must be >= 1")

    @property
    def embedding_dim(self):
        return self.dimension

    def distance_batch(self, xs, ys):
        """Pairwise distances of two (..., dimension) arrays."""
        return _row_distances(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))

    def kernel_at(self, t, dist):
        d = self.dimension
        return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-dist * dist / (4.0 * t))

    def total_mass(self, t):
        """int p(t, x, .) dm by radial quadrature."""
        d = self.dimension
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

        def dens(rho):
            return (
                area
                * rho ** (d - 1)
                * (4.0 * math.pi * t) ** (-d / 2.0)
                * np.exp(-rho * rho / (4.0 * t))
            )

        return quadrature.integrate(dens, [0.0, 20.0 * math.sqrt(t) + 1.0])

    def ball_volume(self, radius):
        d = self.dimension
        unit = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        return unit * radius**d

    def move(self, t, pts, rng):
        """pts + W_t row by row, for a time t or an (n, 1) array of per-row times."""
        return pts + np.sqrt(2.0 * t) * rng.standard_normal(pts.shape)

    def carry(self, pts, x, y):
        """Translate the points ``pts`` (..., dimension) in place by y - x."""
        pts += y - x

    def walk(self, x, steps, n, rng):
        # the increments are drawn in blocks of _ROW_BLOCK rows, which take
        # the normals of one (n, m*d) draw in the same order, so no
        # increment array as large as the paths is held.  They are scaled
        # and the start added on flat (rows, m*d) rows: the same elementwise
        # operations as a broadcast over the length-d axis, without numpy's
        # slow inner loop of length d
        d, m = self.dimension, len(steps)
        scale = np.repeat(np.sqrt(2.0 * steps), d)
        start = np.tile(x, m)
        pts = np.empty((n, m + 1, d))
        pts[:, 0, :] = x
        for lo in range(0, n, _ROW_BLOCK):
            rows = pts[lo:lo + _ROW_BLOCK]
            b = rows.shape[0]
            incr = rng.standard_normal((b, m * d))
            incr *= scale
            np.cumsum(incr.reshape(b, m, d), axis=1, out=rows[:, 1:, :])
            rows.reshape(b, -1)[:, d:] += start
        return pts


@dataclass(frozen=True)
class Sphere2(StateSpace):
    """Round 2-sphere of the given radius; K = 1/radius^2."""

    radius: float
    kind = "sphere2"
    dimension = 2
    embedding_dim = 3

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise InvalidPointError(
                f"sphere radius must be positive and finite, got {self.radius!r}"
            )

    @property
    def ricci_lower_bound(self):
        return 1.0 / (self.radius * self.radius)

    def check_point(self, x):
        x = super().check_point(x)
        if abs(np.linalg.norm(x) - self.radius) > 1e-12:
            raise InvalidPointError(
                f"|x| = {np.linalg.norm(x)!r} is not on the sphere of "
                f"radius {self.radius}"
            )
        return x

    def distance_batch(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        r = self.radius
        cosang = np.clip(np.sum(xs * ys, axis=-1) / (r * r), -1.0, 1.0)
        return r * np.arccos(cosang)

    def kernel_at(self, t, dist):
        return float(self.sphere_kernel_theta(t, dist / self.radius))

    def total_mass(self, t):
        return exact_sphere_moment(self, t, 0)

    def ball_volume(self, radius):
        r = self.radius
        ang = min(radius / r, math.pi)
        return 2.0 * math.pi * r * r * (1.0 - math.cos(ang))

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

    def sphere_angle_cdf(self, t, theta):
        """P(Theta <= theta) for the polar angle of X_t about its start;
        vectorized in theta, exact up to the certified 1e-13 series tail."""
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

    @functools.lru_cache(maxsize=64)
    def _sphere_angle_table(self, t):
        """(series, its derivative, nodes, table, flat) for the angle law at
        step t, built once per step length and read-only.

        ``table`` holds P(Theta <= node) on nodes of the angle scale sqrt(t),
        and ``flat`` its sqrt(-log(1 - table)), in which the flat-space angle
        2 sqrt(t) sqrt(-log(1 - v)) / r is exactly linear."""
        cdf = self._sphere_angle_series(t)
        dcdf = npleg.legder(cdf)
        # P(Theta > 16 sqrt(t)/r) is about exp(-64): one node at pi covers it
        top = min(math.pi, 16.0 * math.sqrt(t) / self.radius)
        nodes = np.linspace(0.0, top, _SPHERE_TABLE)
        if top < math.pi:
            nodes = np.append(nodes, math.pi)
        table = np.clip(npleg.legval(np.cos(nodes), cdf), 0.0, 1.0)
        table[0], table[-1] = 0.0, 1.0
        np.maximum.accumulate(table, out=table)
        with np.errstate(divide="ignore"):
            flat = np.sqrt(-np.log1p(-table))
        out = (cdf, dcdf, nodes, table, flat)
        for a in out:
            a.setflags(write=False)
        return out

    def _sphere_angle_quantile(self, t, v):
        """Polar angles theta with P(Theta <= theta) = v, to 1e-13 in v.

        A theta table on the angle scale sqrt(t) brackets each v; safeguarded
        Newton steps in theta (not in u, which resolves theta near the pole
        only to ~1.5e-8) keep the bracket, bisect when a step leaves it, and
        stop once the residual or the bracket has converged."""
        cdf, dcdf, nodes, table, flat = self._sphere_angle_table(t)
        v = np.asarray(v, dtype=float)
        k = np.clip(np.searchsorted(table, v, side="right"), 1, len(nodes) - 1)
        lo, hi = nodes[k - 1], nodes[k]
        # start by interpolating in sqrt(-log(1 - v)), in which the flat-space
        # angle is exactly linear
        with np.errstate(divide="ignore", invalid="ignore"):
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

    def move(self, t, pts, rng):
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

    def carry(self, pts, x, y):
        """Rotate the points ``pts`` (..., 3) in place about the axis x × y by
        the angle from x to y; y = -x takes a half turn about an axis normal
        to x."""
        u, v = x / self.radius, y / self.radius
        axis = np.cross(u, v)
        sin, cos = float(np.linalg.norm(axis)), float(u @ v)
        if sin == 0.0:
            if cos > 0.0:
                return
            axis = np.cross(u, np.eye(3)[np.argmin(np.abs(u))])
        a = axis / np.linalg.norm(axis)
        k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        rot = cos * np.eye(3) + sin * k + (1.0 - cos) * np.outer(a, a)
        pts[...] = pts @ rot.T


def euclidean(d):
    """Flat R^d with Lebesgue measure; K = 0."""
    return Euclidean(int(d))


def sphere2(radius=1.0):
    """Round 2-sphere of the given radius; K = 1/radius^2."""
    return Sphere2(float(radius))


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
        return (dist**order)[None]

    n, mean, stderr = streams.merge(streams.map_chunks(
        chunk, n_samples, seed, streams.TAG_MOMENT, workers=workers
    ), ())
    return MomentEstimate(order, t, float(mean[0]), float(stderr[0]), n)


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
        weight = (r * theta) ** order * 2.0 * math.pi * r * r * np.sin(theta)
        return weight * space.sphere_kernel_theta(t, theta)

    return quadrature.integrate(dens, [0.0, math.pi])


def conservativeness_defect(space, t, x):
    """|integral of p(t,x,.) dm - 1| by radial quadrature."""
    if t <= 0:
        raise TimeDomainError("t must be > 0")
    space.check_point(x)
    return abs(space.total_mass(t) - 1.0)


def chapman_kolmogorov_defect(space, t, s, x, y):
    """|int p(t,x,z) p(s,z,y) dz - p(t+s,x,y)| by quadrature on R^1."""
    if space != euclidean(1):
        raise InvalidPointError("Chapman-Kolmogorov quadrature supports R^1 only")
    x = space.check_point(x)
    y = space.check_point(y)
    w = 14.0 * math.sqrt(max(t, s)) + abs(x[0]) + abs(y[0]) + 1.0

    def integrand(z):
        return (
            (4.0 * math.pi * t) ** -0.5 * np.exp(-((z - x[0]) ** 2) / (4.0 * t))
            * (4.0 * math.pi * s) ** -0.5 * np.exp(-((z - y[0]) ** 2) / (4.0 * s))
        )

    val = quadrature.integrate(integrand, [-w, w])
    return abs(val - space.heat_kernel(t + s, x, y))


def li_yau_constant_scan(space, t_grid, dist_grid):
    """Smallest C of a geometric grid on [1, 1e3] with
    p(t,x,y) <= C/m(B(x,sqrt t)) * exp(-d^2/(Ct)).

    Only a sanity inequality on model spaces, never a proof.
    """

    def exceeds(c, t, dist):
        rhs = c / space.ball_volume(math.sqrt(t)) * math.exp(-dist * dist / (c * t))
        return space.kernel_at(t, dist) > rhs * (1.0 + 1e-12)

    for c in np.geomspace(1.0, 1e3, 200):
        if not any(exceeds(c, t, dist) for t in t_grid for dist in dist_grid):
            return float(c)
    return math.inf
