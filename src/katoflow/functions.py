"""Bounded test functions and reference wave functions.

Everything here is a batch callable: input of shape (n, d) (or (n,) scalars
for 1d spaces) maps to an (n,) array. ``sup_norm`` is declared, and 1d
functions expose ``breakpoints`` so quadrature can split at discontinuities.
A function that knows its exact free heat flow exposes ``free_mean``, which
the Feynman-Kac estimator uses as a control variate.
"""


import numpy as np

from . import special
from .errors import InvalidPointError, KatoflowError
from .spaces import Euclidean


class BatchFunction:
    sup_norm = 1.0
    breakpoints = ()

    def __call__(self, pts):
        raise NotImplementedError


def _as_2d(pts):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


class Constant(BatchFunction):
    def __init__(self, c):
        self.c = float(c)
        self.sup_norm = abs(self.c)

    def __call__(self, pts):
        return np.full(_as_2d(pts).shape[0], self.c)


class Sign(BatchFunction):
    """sign(x - threshold) on R^1."""

    def __init__(self, threshold=0.0):
        self.threshold = float(threshold)
        self.breakpoints = (self.threshold,)

    def __call__(self, pts):
        return np.where(_as_2d(pts)[:, 0] > self.threshold, 1.0, -1.0)


class HalfSpaceIndicator(BatchFunction):
    """1 on {<x, normal> > offset}, else 0."""

    def __init__(self, normal, offset=0.0):
        self.normal = np.asarray(normal, dtype=float)
        self.normal /= np.linalg.norm(self.normal)
        self.offset = float(offset)
        if self.normal.size == 1:
            self.breakpoints = (self.offset / self.normal[0],)

    def __call__(self, pts):
        return (_as_2d(pts) @ self.normal > self.offset).astype(float)


class BallIndicator(BatchFunction):
    """1 on the open ball of a positive radius; a length-1 center stands for
    (c, ..., c) in any dimension."""

    def __init__(self, center, radius):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if not self.radius > 0:
            raise InvalidPointError(f"ball radius must be positive, got {radius!r}")
        if self.center.size == 1:
            c = self.center[0]
            self.breakpoints = (c - self.radius, c + self.radius)

    def _offsets(self, pts):
        if self.center.size not in (1, pts.shape[-1]):
            raise InvalidPointError(f"points of dimension {pts.shape[-1]} against "
                                    f"a ball center of length {self.center.size}")
        return pts - self.center

    def __call__(self, pts):
        d = np.linalg.norm(self._offsets(_as_2d(pts)), axis=1)
        return (d < self.radius).astype(float)

    def free_mean(self, space, x, t):
        """P_t 1_B(x), the chance that x + W_t lies in the ball, for the
        Brownian motion W of generator Laplacian on Euclidean(d): |x + W_t -
        c|^2 / 2t is noncentral chi-square with d degrees of freedom and
        noncentrality |x - c|^2 / 2t.  None on any other space."""
        if not isinstance(space, Euclidean):
            return None
        off = self._offsets(np.atleast_1d(np.asarray(x, dtype=float)))
        return special.chndtr(self.radius**2 / (2.0 * t), space.dimension,
                              float(off @ off) / (2.0 * t))


class TanhRamp(BatchFunction):
    """Bounded Lipschitz ramp tanh((x_0 - center)/width)."""

    def __init__(self, center=0.0, width=1.0):
        self.center = float(center)
        self.width = float(width)

    def __call__(self, pts):
        return np.tanh((_as_2d(pts)[:, 0] - self.center) / self.width)


class HemisphereIndicator(BatchFunction):
    """1 on the open hemisphere {<y, axis> > 0} of a 2-sphere."""

    def __init__(self, axis=(0.0, 0.0, 1.0)):
        self.axis = np.asarray(axis, dtype=float)
        self.axis /= np.linalg.norm(self.axis)
        self.zonal_breaks_cos = (0.0,)

    def __call__(self, pts):
        return (np.asarray(pts, dtype=float) @ self.axis > 0).astype(float)

    def zonal_profile(self, cosangle):
        return (np.asarray(cosangle, dtype=float) > 0).astype(float)


class HydrogenGround(BatchFunction):
    """exp(-|x|/2) on R^3, the ground state of -Laplacian - 1/|x|."""

    def __call__(self, pts):
        return np.exp(-0.5 * np.linalg.norm(_as_2d(pts), axis=1))


class OscillatorGround(BatchFunction):
    """exp(-x^2/2) on R^1, the ground state of -d^2/dx^2 + x^2."""

    def __call__(self, pts):
        x = _as_2d(pts)[:, 0]
        return np.exp(-0.5 * x * x)


class SmoothBump(BatchFunction):
    """amplitude * exp(1 - 1/(1 - ((x-center)/width)^2)) on |x-center| < width."""

    def __init__(self, amplitude=1.0, width=1.0, center=0.0):
        self.amplitude = float(amplitude)
        self.width = float(width)
        if not self.width > 0:
            raise KatoflowError("SmoothBump width must be > 0")
        self.center = float(center)
        self.sup_norm = abs(self.amplitude)

    def __call__(self, pts):
        u = (_as_2d(pts)[:, 0] - self.center) / self.width
        out = np.zeros(u.shape)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out


def default_coupling_family(x, y):
    """Half-space / ball / Lipschitz test functions adapted to a pair x, y."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    mid = 0.5 * (x + y)
    normal = y - x
    sep = np.linalg.norm(normal)
    if sep == 0:
        normal = np.zeros_like(x)
        normal[0] = 1.0
        sep = 1.0
    fam = {
        "constant": Constant(1.0),
        "halfspace_mid": HalfSpaceIndicator(normal, float(mid @ (normal / sep))),
        "ball_mid": BallIndicator(mid, sep),
        "tanh": TanhRamp(float(mid[0]), max(sep, 1e-6)),
    }
    return fam
