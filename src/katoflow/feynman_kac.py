"""Feynman-Kac Monte Carlo for the Schrodinger semigroup e^{-tH_V}.

The estimator averages exp(-int_0^t V(w(s)) ds) * Psi(w(t)) over Brownian
paths.  The action integral is a trapezoid on the path skeleton with
adaptive Brownian-bridge refinement near singularity approaches, and V is
clipped to the caps 2^k/eps0 (eps0 = 0.05, k = 0..6), of which the
epsilon-halving rule picks one (stop once the estimate moves by less than
half a standard error).  fk_evaluate is the one estimator that picks a cap level;
the Kato Monte Carlo route averages its raw weights, and truncation_ladder
reports every level it is given.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from . import paths
from . import potentials as pot
from . import streams
from .errors import (
    DivergentBoundError,
    NonKatoError,
    TimeDomainError,
    UnsupportedRefinementError,
)

_EPS0 = 0.05  # first cap level 1/_EPS0
_CAP_LEVELS = 7
_MAX_SUBDIVISIONS = 255  # Khashminskii splits of [0, r] tried before giving up
_NEAR_FACTOR = 4.0  # refine when dist(endpoint, singularity) < 4*sqrt(2*delta)
_TOL = 5e-5  # refine an interval while its midpoint moves the trapezoid by more
_MAX_DEPTH = 16  # bridge refinement levels below the path grid


@dataclass
class SemigroupEstimate:
    x: np.ndarray
    t: float
    value: float
    stderr: float
    n_paths: int
    action_integrator: dict
    seed: object  # int or tuple of ints
    flags: list = field(default_factory=list)

    def to_dict(self):
        seed = self.seed
        if isinstance(seed, (tuple, list)):
            seed = list(int(s) for s in seed)
        return {
            "record": "semigroup_estimate",
            "x": list(np.asarray(self.x, dtype=float)),
            "t": self.t,
            "value": self.value,
            "stderr": self.stderr,
            "n_paths": self.n_paths,
            "epsilon": self.action_integrator.get("epsilon"),
            "grid_step": self.action_integrator.get("grid_step"),
            "seed": seed,
            "flags": list(self.flags),
        }


@dataclass
class KhashminskiiCertificate:
    r: float
    kappa: float
    bound_on_C_exp: float
    subdivisions: int = 1
    kappa_per_interval: float = None
    paper_style_bound: float = None  # 2*exp(C_V r) for user-supplied C_V


@dataclass
class TruncationLadderReport:
    levels: list  # [(n, m)]
    estimates: list
    stderrs: list
    monotone_decreasing_in_m: bool
    monotone_increasing_in_n: bool
    converged: bool
    flags: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# path + refined-leaf engine
# ---------------------------------------------------------------------------


def _chunk_leaves(space, V, x, t, size, rng, n_steps, tol, max_depth):
    """Simulate a chunk of paths and refine action intervals near singularities.

    Returns (endpoints, leaves) where leaves is a list of
    (path_index_array, interval_length, v_left_array, v_right_array).
    """
    h = t / n_steps
    d = space.embedding_dim
    _times, pts = paths.sample_paths_batch(space, x, t, h, size, rng)
    ends = pts[:, -1, :].copy()

    flat = pts.reshape(-1, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        vraw = np.asarray(V(flat), dtype=float).reshape(size, n_steps + 1)

    sing_dist = V.singularity_distance(flat)
    leaves = []
    if sing_dist is None:
        pid = np.repeat(np.arange(size), n_steps)
        leaves.append((pid, h, vraw[:, :-1].ravel(), vraw[:, 1:].ravel()))
        return ends, leaves
    if space.kind != "euclidean":
        raise UnsupportedRefinementError(
            "singular potentials are restricted to Euclidean spaces"
        )

    # first level on (size, n_steps) views: far intervals become one leaf
    # block, and only the near ones are gathered for refinement
    dist = np.asarray(sing_dist, dtype=float).reshape(size, n_steps + 1)
    delta = h
    near = np.minimum(dist[:, :-1], dist[:, 1:]) < _NEAR_FACTOR * math.sqrt(2.0 * delta)
    far = ~near
    leaves.append((np.nonzero(far)[0], delta, vraw[:, :-1][far], vraw[:, 1:][far]))
    pid, col = np.nonzero(near)
    xl, xr = pts[pid, col], pts[pid, col + 1]
    vl, vr = vraw[pid, col], vraw[pid, col + 1]
    dl, dr = dist[pid, col], dist[pid, col + 1]
    del pts, flat, vraw, sing_dist, dist  # free the skeleton before refining

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
        keep = ~(disc <= tol)  # parents worth another level; NaN counts as unsettled

        # children of settled parents become leaves right away
        settled = np.flatnonzero(~keep)
        pid_s = pid[settled]
        leaves.append((pid_s, half, vl[settled], vm[settled]))
        leaves.append((pid_s, half, vm[settled], vr[settled]))

        # children of kept parents, left ones before right ones: the far
        # children form one leaf block and the near ones the next level
        delta = half
        thr = _NEAR_FACTOR * math.sqrt(2.0 * delta)
        near_l = np.minimum(dl, dm) < thr
        near_r = np.minimum(dm, dr) < thr
        fl = np.flatnonzero(keep & ~near_l)
        fr = np.flatnonzero(keep & ~near_r)
        leaves.append((
            np.concatenate((pid[fl], pid[fr])), delta,
            np.concatenate((vl[fl], vm[fr])), np.concatenate((vm[fl], vr[fr])),
        ))
        nl = np.flatnonzero(keep & near_l)
        nr = np.flatnonzero(keep & near_r)
        pid = np.concatenate((pid[nl], pid[nr]))
        xl, xr = np.concatenate((xl[nl], mid[nr])), np.concatenate((mid[nl], xr[nr]))
        vl, vr = np.concatenate((vl[nl], vm[nr])), np.concatenate((vm[nl], vr[nr]))
        dl, dr = np.concatenate((dl[nl], dm[nr])), np.concatenate((dm[nl], dr[nr]))

    if pid.size:
        leaves.append((pid, delta, vl, vr))
    return ends, leaves


def _actions_from_leaves(leaves, size, clips):
    """Trapezoid actions per clip level ``(lo, hi)``, V clipped to [lo, hi]
    and summed per path: one row per level.

    A block whose values all lie inside a level's clip adds its unclipped
    per-path sums, which are computed once and shared by those levels."""
    actions = np.zeros((len(clips), size))
    for pid, delta, vl, vr in leaves:
        if pid.size == 0:
            continue
        # np.minimum/np.maximum propagate NaN, which fails every comparison
        vmin = np.minimum(vl.min(), vr.min())
        vmax = np.maximum(vl.max(), vr.max())
        plain = None
        for action, (lo, hi) in zip(actions, clips):
            if lo <= vmin and vmax <= hi:
                if plain is None:
                    plain = np.bincount(pid, weights=delta * (vl + vr) / 2.0,
                                        minlength=size)
                action += plain
            else:
                contrib = delta * (np.clip(vl, lo, hi) + np.clip(vr, lo, hi)) / 2.0
                action += np.bincount(pid, weights=contrib, minlength=size)
    return actions


def _fk_ladder(V, psi, x, t, n_paths, seed, n_steps, clips, workers):
    """(n, means, stderrs, n_leaves) of exp(-action) * psi(end) per clip level.

    Every ``(lo, hi)`` in ``clips`` clips V on the same paths and leaves
    (common random numbers); the chunks draw from the ``TAG_FK`` streams."""
    space = V.space

    def chunk(rng, size, _k):
        ends, leaves = _chunk_leaves(
            space, V, x, t, size, rng, n_steps, _TOL, _MAX_DEPTH
        )
        pvals = np.asarray(psi(ends), dtype=float)
        sums = np.empty(len(clips))
        sqs = np.empty(len(clips))
        for i, action in enumerate(_actions_from_leaves(leaves, size, clips)):
            w = np.exp(-action) * pvals
            sums[i] = w.sum()
            sqs[i] = (w * w).sum()
        return size, sums, sqs, sum(p[0].size for p in leaves)

    parts = streams.map_chunks(chunk, n_paths, seed, streams.TAG_FK, workers=workers)
    n, means, stderrs = streams.merge_chunks(p[:3] for p in parts)
    return n, means, stderrs, sum(p[3] for p in parts)


def _grid_steps(t, grid_step):
    """Number of path steps on [0, t]; grid_step None means t/100."""
    if grid_step is None:
        grid_step = t / 100.0
    if grid_step <= 0:
        raise TimeDomainError("grid_step must be > 0")
    return max(1, int(round(t / grid_step)))


def _kato_gate(V, t, kato0):
    """Feynman-Kac admissibility: Kato certificate or a finite lower bound."""
    if V.is_zero or V.lower_bound is not None:
        return kato0
    if kato0 is not None:
        if not kato0.finite:
            raise NonKatoError("supplied alpha=0 certificate is infinite")
        if kato0.t < t - 1e-12:
            raise NonKatoError(
                f"certificate horizon {kato0.t} is below the requested t={t}"
            )
        return kato0
    cert = pot.kato_integral(V, 0.0, t)
    if not cert.finite:
        raise NonKatoError(
            f"{V.name} is not certified alpha=0 Kato at horizon {t}; "
            "Feynman-Kac evaluation refused"
        )
    return cert


def fk_evaluate(
    V,
    psi,
    x,
    t,
    n_paths,
    seed,
    grid_step=None,
    kato0=None,
    workers=1,
    check_bound=True,
):
    """Monte Carlo estimate of e^{-tH_V} psi (x)."""
    space = V.space
    x = space.check_point(x)
    if t <= 0:
        raise TimeDomainError("t must be > 0")
    kato0 = _kato_gate(V, t, kato0)
    n_steps = _grid_steps(t, grid_step)
    grid_step = t / n_steps

    caps = (1.0 / _EPS0) * 2.0 ** np.arange(_CAP_LEVELS)
    lo_bound = V.lower_bound  # finite => negative clipping is inert
    clips = [(-cap if lo_bound is None else max(-cap, lo_bound), cap) for cap in caps]
    n, means, ses, n_leaves = _fk_ladder(
        V, psi, x, t, n_paths, seed, n_steps, clips, workers
    )
    k_star, settled = streams.settle_level(means, ses)
    value = float(means[k_star])
    stderr = float(ses[k_star])
    flags = [] if settled else ["cap_ladder_not_converged"]
    sup_psi = getattr(psi, "sup_norm", None)
    if check_bound and sup_psi is not None:
        c_exp = None
        if V.is_zero:
            c_exp = 1.0
        elif kato0 is not None and kato0.finite:
            c_exp = khashminskii_certify(V, t, kato0=kato0).bound_on_C_exp
        elif V.lower_bound is not None:
            c_exp = math.exp(-min(V.lower_bound, 0.0) * t)
        if c_exp is not None and abs(value) - 3.0 * stderr > c_exp * sup_psi:
            flags.append("integration_bias_warning")
            warnings.warn(
                "estimate exceeds the Khashminskii bound: "
                f"|{value:g}| > {c_exp * sup_psi:g}",
                stacklevel=2,
            )
    return SemigroupEstimate(
        x,
        t,
        value,
        stderr,
        n,
        {
            "grid_step": grid_step,
            "epsilon": float(1.0 / caps[k_star]),
            "refinement": {"tol": _TOL, "max_depth": _MAX_DEPTH,
                           "near_factor": _NEAR_FACTOR},
            "n_leaves": int(n_leaves),
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
    < 1/2, and the Markov property gives (1/(1-kappa_k))^k."""
    kappa = kappa_at(r)
    if kappa < 1.0:
        return 1.0 / (1.0 - kappa), 1, kappa
    for k in range(2, _MAX_SUBDIVISIONS + 1):
        kap_k = kappa_at(r / k)
        if kap_k < 0.5:
            return (1.0 / (1.0 - kap_k)) ** k, k, kap_k
    raise DivergentBoundError(
        f"could not reach per-interval kappa < 1/2 within {_MAX_SUBDIVISIONS} splits"
    )


def khashminskii_certify(V, r, kato0=None, c_v=None):
    """Bound on C_exp(V, r) = sup_x E^x exp(int_0^r |V|) by khashminskii_bound
    on the alpha=0 Kato certificates of V."""
    if kato0 is None:
        kato0 = pot.kato_integral(V, 0.0, r)
    kappa = kato0.bound + 0.0
    if math.isinf(kappa):
        raise DivergentBoundError("alpha=0 Kato bound is infinite; no certificate")

    def kappa_at(s):
        return kappa if s == r else pot.kato_integral(V, 0.0, s).bound

    bound, k, kap_k = khashminskii_bound(kappa_at, r)
    paper = None if c_v is None else 2.0 * math.exp(c_v * r)
    return KhashminskiiCertificate(r, kappa, bound, k, kap_k, paper)


class _NegAbs(pot.Potential):
    """-|V|: feeding this to the action engine yields weights exp(+int |V|)."""

    def __init__(self, base):
        self.base = base
        self.space = base.space
        self.singularities = base.singularities
        self.lower_bound = None
        self.name = f"-|{base.name}|"

    def __call__(self, pts):
        return -np.abs(self.base(pts))

    def singularity_distance(self, pts):
        return self.base.singularity_distance(pts)


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
        kato0=pot.KatoCertificate(0.0, r, 0.0, "gate_bypass"),
        workers=workers,
        check_bound=False,
    )
    return est.value, est.stderr


# ---------------------------------------------------------------------------
# the V_{n,m} truncation ladder
# ---------------------------------------------------------------------------


def truncation_ladder(V, psi, x, t, levels, n_paths, seed, grid_step=None, workers=1):
    """fk_evaluate with V clipped to [-n, m] per level, common random numbers.

    With shared paths the monotonicity of the capped action is path-wise
    exact: estimates decrease in m and increase in n (for psi >= 0)."""
    x = V.space.check_point(x)
    n_steps = _grid_steps(t, grid_step)
    levels = [(float(n), float(m)) for n, m in levels]
    _n, means, ses, _leaves = _fk_ladder(
        V, psi, x, t, n_paths, seed, n_steps,
        [(-n_low, m_high) for n_low, m_high in levels], workers
    )
    means, ses = means.tolist(), ses.tolist()

    mono_m = True
    mono_n = True
    for (n1, m1), e1 in zip(levels, means):
        for (n2, m2), e2 in zip(levels, means):
            if n1 == n2 and m2 > m1 and e2 > e1 + 1e-12:
                mono_m = False
            if m1 == m2 and n2 > n1 and e2 < e1 - 1e-12:
                mono_n = False
    converged = (
        len(means) < 2
        or abs(means[-1] - means[-2]) <= 3.0 * (ses[-1] + ses[-2]) + 1e-12
    )
    flags = [] if (mono_m and mono_n) else ["integration_bias_flag"]
    return TruncationLadderReport(levels, means, ses, mono_m, mono_n, converged, flags)


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
    if space.kind != "euclidean" or space.dimension != 1:
        raise TimeDomainError("duhamel_residual lives on euclidean(1)")
    if V.sup_norm is None:
        raise TimeDomainError("duhamel_residual needs a bounded potential")
    if n_time_steps < 1:
        raise TimeDomainError("duhamel_residual needs n_time_steps >= 1")
    dx = 0.02
    xs = np.arange(-10.0, 10.0 + dx / 2.0, dx)
    n = xs.size
    vvec = np.asarray(V(xs[:, None]), dtype=float)
    phi = np.asarray(psi(xs[:, None]), dtype=float)
    h = t / n_time_steps

    # xs[i] - xs[j] = +-lag[|i - j|] bit for bit on this grid, so the kernel
    # matrix is the symmetric Toeplitz matrix of its values on the n lags
    lag = xs - xs[0]

    def p_matrix(s):
        k = (4.0 * math.pi * s) ** -0.5 * np.exp(-lag * lag / (4.0 * s)) * dx
        return linalg.toeplitz(k)

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
