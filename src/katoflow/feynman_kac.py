"""Feynman-Kac Monte Carlo for the Schrodinger semigroup e^{-tH_V}.

The estimator averages exp(-int_0^t V(w(s)) ds) * Psi(w(t)) over Brownian
paths.  The action integral is a trapezoid on the path skeleton with
adaptive Brownian-bridge refinement near singularity approaches.  For a
Kato-class V, 2|V| is Kato too, so the weights have a finite second moment
(Khashminskii; Aizenman & Simon 1982) and their plain mean is CLT-valid: V is
never clipped.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import paths
from . import potentials as pot
from . import streams
from .spaces import _ROW_BLOCK, euclidean
from .errors import (
    DivergentBoundError,
    NonKatoError,
    TimeDomainError,
)

_MAX_SUBDIVISIONS = 2**20  # Khashminskii splits of [0, r] tried before giving up
_NEAR_FACTOR = 4.0  # refine when dist(endpoint, singularity) < 4*sqrt(2*delta)
_TOL = 5e-5  # refine an interval while its midpoint moves the trapezoid by more
_MAX_DEPTH = 16  # bridge refinement levels below the path grid


@dataclass
class SemigroupEstimate:
    x: np.ndarray  # a start (dim,), or a pair (2, dim)
    t: float
    value: float  # for a pair, the array (leg x, leg y, difference)
    stderr: float  # for a pair, an array like value
    n_paths: int
    action_integrator: dict
    seed: object  # int or tuple of ints
    flags: list = field(default_factory=list)


@dataclass(frozen=True)
class KhashminskiiCertificate:
    r: float
    kappa: float
    bound_on_C_exp: float
    subdivisions: int
    kappa_per_interval: float


# ---------------------------------------------------------------------------
# path + streamed-action engine
# ---------------------------------------------------------------------------


def _children(nl, nr, left, right):
    """``left[nl]`` followed by ``right[nr]``, gathered into one new array.
    The indices are in range; mode "clip" lets ``np.take`` write into ``out``
    without the buffer that mode "raise" takes."""
    out = np.empty((nl.size + nr.size,) + left.shape[1:], dtype=left.dtype)
    np.take(left, nl, axis=0, out=out[:nl.size], mode="clip")
    np.take(right, nr, axis=0, out=out[nl.size:], mode="clip")
    return out


def _scan_skeleton(V, nodes, cols, h, action):
    """Add the far trapezoids of each path's skeleton to ``action``.

    ``nodes`` holds the paths' nodes row after row, ``cols`` per path, and
    is scanned a block of _ROW_BLOCK paths at a time, with one call of V and
    of ``V.singularity_distance`` per block.  A row cumsum adds a path's far
    trapezoids in column order, with 0.0 in place of the near ones.  Returns
    (number of far intervals, near intervals), where the near intervals are
    None when V has no singular set, else the arrays (flat node index of the
    left end, v_left, v_right, d_left, d_right), in path and column order.
    """
    thr = _NEAR_FACTOR * math.sqrt(2.0 * h)
    n_far, parts = 0, []
    for lo in range(0, action.size, _ROW_BLOCK):
        flat = nodes[lo * cols:(lo + _ROW_BLOCK) * cols]
        rows = flat.shape[0] // cols
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.asarray(V(flat), dtype=float).reshape(rows, cols)
            trap = h * (v[:, :-1] + v[:, 1:]) / 2.0
        n_far += trap.size
        dist = V.singularity_distance(flat)
        if dist is not None:
            dist = np.asarray(dist, dtype=float).reshape(rows, cols)
            near = np.minimum(dist[:, :-1], dist[:, 1:]) < thr
            trap[near] = 0.0
            row, col = np.nonzero(near)
            at = row * cols + col
            n_far -= at.size
            parts.append((at + lo * cols, v.take(at), v.take(at + 1),
                          dist.take(at), dist.take(at + 1)))
        action[lo:lo + rows] = np.cumsum(trap, axis=1)[:, -1]
    if not parts:
        return n_far, None
    return n_far, tuple(np.concatenate(a) for a in zip(*parts))


def _chunk_actions(V, pts, h, rng, tol, max_depth):
    """Integrate V along a chunk of paths ``pts`` of shape (size, cols, dim),
    sampled on a grid of step h.

    Returns (endpoints, action of each path, number of leaves).  A leaf is
    one interval of the final partition, and its trapezoid is added to its
    path's action as soon as it settles: the skeleton's far intervals first,
    then at each bridge level the settled left halves, the settled right
    halves and the far children, left ones before right ones.  Each block of
    a level is one bincount over the level, with 0.0 for its non-members:
    bincount adds a path's weights in order, so the sums are those of the
    blocks themselves.  ``pts`` is left as it was; when the caller keeps no
    reference to it, it is freed before the refinement.
    """
    size, cols, dim = pts.shape
    ends = pts[:, -1, :].copy()
    nodes = pts.reshape(-1, dim)
    action = np.empty(size)
    n_leaves, near = _scan_skeleton(V, nodes, cols, h, action)
    if near is None:
        return ends, action, n_leaves
    # only Coulomb and molecular potentials have a singular set, and both
    # build their own Euclidean space, as the bridge midpoints need
    at, vl, vr, dl, dr = near
    pid = at // cols
    xl, xr = nodes.take(at, axis=0), nodes.take(at + 1, axis=0)
    del pts, nodes, near, at  # free the skeleton before refining

    delta = h
    for _depth in range(max_depth):
        if pid.size == 0:
            break
        half = delta / 2.0
        mid = paths.bridge_midpoints(xl, xr, delta, rng)
        with np.errstate(divide="ignore", invalid="ignore"):
            vm = np.asarray(V(mid), dtype=float)
        dm = np.asarray(V.singularity_distance(mid), dtype=float)
        with np.errstate(invalid="ignore"):
            disc = delta * np.abs(2.0 * vm - vl - vr) / 4.0
            left = half * (vl + vm) / 2.0
            right = half * (vm + vr) / 2.0
        keep = ~(disc <= tol)  # parents worth another level; NaN counts as unsettled

        settled = ~keep
        action += np.bincount(pid, np.where(settled, left, 0.0), size)
        action += np.bincount(pid, np.where(settled, right, 0.0), size)
        delta = half
        thr = _NEAR_FACTOR * math.sqrt(2.0 * delta)
        near_l = keep & (np.minimum(dl, dm) < thr)
        near_r = keep & (np.minimum(dm, dr) < thr)
        far_l, far_r = keep & ~near_l, keep & ~near_r
        action += np.bincount(
            np.concatenate((pid, pid)),
            np.concatenate((np.where(far_l, left, 0.0), np.where(far_r, right, 0.0))),
            size,
        )
        n_leaves += (2 * np.count_nonzero(settled) + np.count_nonzero(far_l)
                     + np.count_nonzero(far_r))

        # the near children, left ones before right ones, are the next level
        nl, nr = np.flatnonzero(near_l), np.flatnonzero(near_r)
        pid = _children(nl, nr, pid, pid)
        xl, xr = _children(nl, nr, xl, mid), _children(nl, nr, mid, xr)
        vl, vr = _children(nl, nr, vl, vm), _children(nl, nr, vm, vr)
        dl, dr = _children(nl, nr, dl, dm), _children(nl, nr, dm, dr)

    if pid.size:
        # Only an interval kept to max_depth can end on V's singular set (a
        # path that starts on a nucleus, two electrons on one nucleus), where
        # V is inf or NaN; such an endpoint counts as 0 here.  The action
        # moves by at most the alpha=0 Kato bound over one leaf of length
        # h*2^-max_depth: 3.1e-4 for hydrogen at t = 0.5.
        vl = np.where(np.isfinite(vl), vl, 0.0)
        vr = np.where(np.isfinite(vr), vr, 0.0)
        action += np.bincount(pid, delta * (vl + vr) / 2.0, size)
        n_leaves += pid.size
    return ends, action, n_leaves


def _grid_steps(t, grid_step):
    """Number of path steps on [0, t]; grid_step None means t/100."""
    if grid_step is None:
        grid_step = t / 100.0
    if grid_step <= 0:
        raise TimeDomainError("grid_step must be > 0")
    return max(1, int(round(t / grid_step)))


def _weight_bound(V, t):
    """Bound on sup_x E^x exp(-int_0^t V(w(s)) ds), which bounds every
    Feynman-Kac estimate by its psi's sup norm: e^{-t min(V, 0)} for V
    bounded below, else khashminskii_certify's bound on C_exp(V, t), inf
    when that diverges.  A V that is neither bounded below nor alpha=0 Kato
    raises NonKatoError: Feynman-Kac evaluation of it is refused."""
    if V.lower_bound is not None:
        return math.exp(-min(V.lower_bound, 0.0) * t)
    try:
        return khashminskii_certify(V, t).bound_on_C_exp
    except DivergentBoundError:
        return math.inf


def fk_evaluate(
    V,
    psi,
    x,
    t,
    n_paths,
    seed,
    grid_step=None,
    workers=1,
):
    """Monte Carlo estimate of e^{-tH_V} psi (x).

    ``x`` of shape (2, dim) is a pair (x, y), estimated under the synchronous
    coupling: each chunk draws one walk from x, integrates V along it, carries
    the same nodes to y by an isometry of the space and integrates V again.
    ``value`` and ``stderr`` are then length-3 arrays for the weights
    (w_x, w_y, w_x - w_y), so the difference gets its own stderr.

    When psi gives its exact free mean mu = e^{-tH}psi at each start
    (``psi.free_mean``, a ball on Euclidean space), psi at each path's end
    is a control variate c of known mean mu: the estimate is mean(w) -
    B (mean(c) - mu), with B = Cov(w, c) Cov(c)^+ regressing every weight on
    both legs' controls, and its variance is that of the regression
    residuals over n (Glasserman 2004, Monte Carlo Methods in Financial
    Engineering, 4.1).  The control removes the free part psi(x + W_t) -
    psi(y + W_t) of a pair's noise and leaves the perturbation's.  Without
    a free mean there is no control, and the estimate is the plain mean of
    the weights.

    V is admitted, and its weight bound found, by _weight_bound.  Each leg
    of a psi with a sup norm is checked against that bound, and one that
    exceeds it by more than 3 stderrs flags the estimate
    "integration_bias_warning"."""
    space = V.space
    x = np.asarray(x, dtype=float)
    pair = x.ndim == 2 and x.shape[0] == 2
    x = np.array([space.check_point(p) for p in x]) if pair else space.check_point(x)
    if t <= 0:
        raise TimeDomainError("t must be > 0")
    c_exp = _weight_bound(V, t)
    n_steps = _grid_steps(t, grid_step)
    grid_step = t / n_steps

    starts = x if pair else x[None, :]
    free_mean = getattr(psi, "free_mean", lambda *_: None)
    mu = [free_mean(space, p, t) for p in starts]
    if None in mu:
        mu = []  # no control: the regression is the plain mean

    def walk(rng, size):
        return paths.sample_paths_batch(space, starts[0], t, grid_step, size, rng)[1]

    def weights(ends, action):
        """(w, c): the weights exp(-action) psi(ends), and psi(ends)."""
        c = np.asarray(psi(ends), dtype=float)
        return np.exp(-action) * c, c

    def chunk(rng, size, _k):
        if pair:
            pts = walk(rng, size)
            ends, action, n_x = _chunk_actions(V, pts, grid_step, rng, _TOL, _MAX_DEPTH)
            w_x, c_x = weights(ends, action)
            space.carry(pts, x[0], x[1])
            ends, action, n_y = _chunk_actions(V, pts, grid_step, rng, _TOL, _MAX_DEPTH)
            w_y, c_y = weights(ends, action)
            w, c, n_leaves = np.stack((w_x, w_y, w_x - w_y)), np.stack((c_x, c_y)), n_x + n_y
        else:
            # the skeleton goes straight to _chunk_actions, which frees it
            # before refining
            ends, action, n_leaves = _chunk_actions(
                V, walk(rng, size), grid_step, rng, _TOL, _MAX_DEPTH
            )
            w, c = (a[None, :] for a in weights(ends, action))
        return np.concatenate((w, c[:len(mu)])), n_leaves

    parts = streams.map_chunks(chunk, n_paths, seed, streams.TAG_FK, workers=workers)
    n, value, stderr = streams.merge((p[0] for p in parts), mu)
    if not pair:
        value, stderr = float(value[0]), float(stderr[0])
    flags = []
    sup_psi = getattr(psi, "sup_norm", None)
    if sup_psi is not None:
        # a pair's legs are each bounded; their difference is not checked
        excess = np.abs(np.atleast_1d(value)[:2]) - 3.0 * np.atleast_1d(stderr)[:2]
        if excess.max() > c_exp * sup_psi:
            flags.append("integration_bias_warning")
    return SemigroupEstimate(
        x,
        t,
        value,
        stderr,
        n,
        {
            "grid_step": grid_step,
            "refinement": {"tol": _TOL, "max_depth": _MAX_DEPTH,
                           "near_factor": _NEAR_FACTOR},
            "n_leaves": int(sum(p[1] for p in parts)),
        },
        seed if isinstance(seed, int) else tuple(seed),
        flags,
    )


# ---------------------------------------------------------------------------
# Khashminskii certificates and the empirical exponential moment
# ---------------------------------------------------------------------------


def khashminskii_bound(kappa_at, r):
    """(bound on C_exp, subdivisions k, per-interval kappa) on [0, r], where
    ``kappa_at(s)`` is the alpha=0 Kato bound at horizon s.

    kappa = kappa_at(r) < 1 gives 1/(1-kappa).  Otherwise [0, r] is split into
    the fewest k <= _MAX_SUBDIVISIONS intervals with kappa_k = kappa_at(r/k)
    < 1/2, and the Markov property gives (1/(1-kappa_k))^k.  kappa_at is
    nondecreasing in s, so doubling and then bisection find that k."""
    kappa = kappa_at(r)
    if kappa < 1.0:
        return 1.0 / (1.0 - kappa), 1, kappa
    lo, hi = 1, 2  # kappa_at(r/lo) >= 1/2 throughout; kap_k = kappa_at(r/hi)
    while (kap_k := kappa_at(r / hi)) >= 0.5:
        if hi >= _MAX_SUBDIVISIONS:
            raise DivergentBoundError(
                f"could not reach per-interval kappa < 1/2 within {hi} splits"
            )
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        kap_mid = kappa_at(r / mid)
        if kap_mid < 0.5:
            hi, kap_k = mid, kap_mid
        else:
            lo = mid
    try:
        return (1.0 / (1.0 - kap_k)) ** hi, hi, kap_k
    except OverflowError:
        raise DivergentBoundError(f"(1/(1-kappa_k))^{hi} overflows") from None


@functools.lru_cache(maxsize=32)
def khashminskii_certify(V, r):
    """Bound on C_exp(V, r) = sup_x E^x exp(int_0^r |V|) by khashminskii_bound
    on the alpha=0 Kato certificates of V; a V whose alpha=0 Kato bound at r
    is infinite raises NonKatoError.

    Memoised on (V, r): a theorem row asks once per pair, and the certificate
    is deterministic.  Potentials hash by identity, and the cache holds them,
    so an id is never reused while its entry lives."""
    kappa = pot.kato_integral(V, 0.0, r).bound + 0.0
    if math.isinf(kappa):
        raise NonKatoError(
            f"{V.name} is not certified alpha=0 Kato at horizon {r}"
        )

    def kappa_at(s):
        return kappa if s == r else pot.kato_integral(V, 0.0, s).bound

    bound, k, kap_k = khashminskii_bound(kappa_at, r)
    return KhashminskiiCertificate(r, kappa, bound, k, kap_k)


class _NegAbs(pot.Potential):
    """-|V|: feeding this to the action engine yields weights exp(+int |V|).
    Since |-|V|| = |V|, its Kato questions are those of V."""

    def __init__(self, base):
        self.base = base
        self.space = base.space
        self.lower_bound = None
        self.name = f"-|{base.name}|"

    def __call__(self, pts):
        return -np.abs(self.base(pts))

    def singularity_distance(self, pts):
        return self.base.singularity_distance(pts)

    def smoothed_abs(self, s, x):
        return self.base.smoothed_abs(s, x)

    def coulomb_strength_at(self, x):
        return self.base.coulomb_strength_at(x)

    def sup_candidates(self):
        return self.base.sup_candidates()

    def closed_form_kato(self, alpha, t):
        return self.base.closed_form_kato(alpha, t)


def exp_action_moment(V, x, r, n_paths, seed, grid_step=None, workers=1):
    """Empirical (mean, stderr) of exp(int_0^r |V(w(s))| ds) from x."""
    est = fk_evaluate(
        _NegAbs(V),
        lambda pts: np.ones(np.atleast_2d(pts).shape[0]),
        x,
        r,
        n_paths,
        seed,
        grid_step=grid_step,
        workers=workers,
    )
    return est.value, est.stderr


# ---------------------------------------------------------------------------
# deterministic Duhamel consistency check (euclidean(1), bounded V)
# ---------------------------------------------------------------------------


def duhamel_residual(V, psi, t, n_time_steps):
    """Sup-norm defect of e^{-tH_V} Phi = e^{-tH} Phi - int_0^t e^{-sH} V
    e^{-(t-s)H_V} Phi ds on [-5, 5], computed on the grid of step 0.02 over
    [-10, 10].

    e^{-tH_V} is realized by Strang splitting with step t/n_time_steps and the
    time integral by the composite trapezoid on the same grid, so the residual
    decays at the rule's second order as the grid refines."""
    space = V.space
    if space != euclidean(1):
        raise TimeDomainError("duhamel_residual lives on euclidean(1)")
    if V.sup_norm is None:
        raise TimeDomainError("duhamel_residual needs a bounded potential")
    if t <= 0:
        raise TimeDomainError("t must be > 0")
    if n_time_steps < 1:
        raise TimeDomainError("duhamel_residual needs n_time_steps >= 1")
    dx = 0.02
    xs = np.arange(-10.0, 10.0 + dx / 2.0, dx)
    n = xs.size
    vvec = np.asarray(V(xs[:, None]), dtype=float)
    phi = np.asarray(psi(xs[:, None]), dtype=float)
    h = t / n_time_steps

    # xs[i] - xs[j] = +-lag[|i - j|] bit for bit on this grid, so the kernel
    # matrix is the symmetric Toeplitz matrix of its values on the n lags:
    # row i is the window of (k[n-1], ..., k[1], k[0], ..., k[n-1]) at n-1-i
    lag = xs - xs[0]

    def p_matrix(s):
        k = (4.0 * math.pi * s) ** -0.5 * np.exp(-lag * lag / (4.0 * s)) * dx
        return sliding_window_view(np.concatenate((k[:0:-1], k)), n)[::-1].copy()

    d_half = np.exp(-0.5 * h * vvec)
    p_h = p_matrix(h)
    states = [phi]
    cur = phi
    for _ in range(n_time_steps):
        cur = d_half * (p_h @ (d_half * cur))
        states.append(cur)
    lhs = states[-1]

    # composite trapezoid of e^{-sH} V e^{-(t-s)H_V} Phi over s = j*h
    acc = np.zeros(n)
    for j in range(n_time_steps + 1):
        weight = 0.5 if j in (0, n_time_steps) else 1.0
        integrand = vvec * states[n_time_steps - j]
        if j > 0:
            integrand = p_matrix(j * h) @ integrand
        acc += weight * integrand
    rhs = p_matrix(t) @ phi - h * acc

    mask = np.abs(xs) <= 5.0
    return float(np.max(np.abs(lhs[mask] - rhs[mask])))
