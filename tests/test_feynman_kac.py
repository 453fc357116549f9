import math
import tracemalloc

import numpy as np
import pytest

from katoflow import feynman_kac as fk
from katoflow import bounds, functions, paths, potentials, spaces, streams
from katoflow.errors import (
    DivergentBoundError,
    InvalidPointError,
    NonKatoError,
    TimeDomainError,
)

E1 = spaces.euclidean(1)
E3 = spaces.euclidean(3)

HYDROGEN = potentials.hydrogen()
PSI_H = functions.HydrogenGround()


def radial_laplacian(f, r, eps=1e-5):
    """Central-difference Laplacian of a radial function on R^3."""
    return (f(r + eps) - 2 * f(r) + f(r - eps)) / eps**2 + (2.0 / r) * (
        f(r + eps) - f(r - eps)
    ) / (2 * eps)


def test_hydrogen_eigen_identity_finite_differences():
    # pre-build oracle: (-Laplacian - 1/r) e^{-r/2} = -(1/4) e^{-r/2}
    f = lambda r: math.exp(-0.5 * r)
    for r in [0.4, 1.0, 2.3]:
        lhs = -radial_laplacian(f, r) - f(r) / r
        assert lhs == pytest.approx(-0.25 * f(r), rel=1e-5)


def test_oscillator_eigen_identity_finite_differences():
    # (-d^2/dx^2 + x^2) e^{-x^2/2} = 1 * e^{-x^2/2}
    f = lambda x: math.exp(-0.5 * x * x)
    eps = 1e-5
    for x in [0.0, 0.7, -1.3]:
        d2 = (f(x + eps) - 2 * f(x) + f(x - eps)) / eps**2
        assert -d2 + x * x * f(x) == pytest.approx(f(x), rel=1e-4)


def test_fk_zero_potential_exact():
    z = potentials.ZeroPotential(E3)
    est = fk.fk_evaluate(z, functions.Constant(1.0), np.zeros(3), 0.5, 500, seed=1)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_fk_constant_potential_exact_factor():
    c = potentials.ConstantPotential(E1, 0.7)
    est = fk.fk_evaluate(c, functions.Constant(1.0), np.zeros(1), 0.5, 500, seed=1)
    assert est.value == pytest.approx(math.exp(-0.35), rel=1e-12)
    assert est.stderr == 0.0


def test_fk_hydrogen_ground_state():
    x = np.array([1.0, 0.0, 0.0])
    target = math.exp(0.125) * math.exp(-0.5)
    est = fk.fk_evaluate(HYDROGEN, PSI_H, x, 0.5, 100_000, seed=12345,
                         grid_step=0.005)
    assert abs(est.value - target) / target < 0.02
    assert abs(est.value - target) < 3 * est.stderr + 0.01 * target


def test_fk_oscillator_ground_state():
    v = potentials.OscillatorPotential()
    x = np.array([0.4])
    target = math.exp(-0.5) * math.exp(-0.5 * 0.16)
    est = fk.fk_evaluate(
        v, functions.OscillatorGround(), x, 0.5, 100_000, seed=7, grid_step=0.005
    )
    assert abs(est.value - target) / target < 0.01


def test_fk_determinism_and_positivity():
    a = fk.fk_evaluate(HYDROGEN, PSI_H, np.array([1.0, 0, 0]), 0.3, 20_000, seed=5)
    b = fk.fk_evaluate(HYDROGEN, PSI_H, np.array([1.0, 0, 0]), 0.3, 20_000, seed=5)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value >= 0.0  # psi >= 0 forces a nonnegative estimate


def test_fk_is_unbiased_at_the_nucleus():
    """The singular start x = 0, where every path begins at V = -inf, against
    the exact e^{-tH_V}psi_0(0) = e^{t/4}: 200 seeds of 1 000 paths, mean
    z-score within 3/sqrt(200).  A cap on V biases this low (z mean -0.47)."""
    t = 0.5
    exact = math.exp(t / 4.0)
    z = [
        (est.value - exact) / est.stderr
        for est in (
            fk.fk_evaluate(HYDROGEN, PSI_H, np.zeros(3), t, 1_000, seed=seed)
            for seed in range(200)
        )
    ]
    assert abs(np.mean(z)) <= 3.0 / math.sqrt(200)


def test_fk_singular_start_gives_a_number():
    """Two electrons on one nucleus: V(x) = -inf + inf = NaN at the start."""
    helium = potentials.load_molecule({"m": 2, "nuclei": [{"R": [0, 0, 0], "Z": 2}]})
    est = fk.fk_evaluate(helium, functions.Constant(1.0), np.zeros(6), 0.5, 200, seed=1)
    assert math.isfinite(est.value) and math.isfinite(est.stderr)
    assert est.value > 1.0 and est.flags == []


def test_fk_worker_count_invariance():
    one = fk.fk_evaluate(
        HYDROGEN, PSI_H, np.array([1.0, 0, 0]), 0.3, 20_000, seed=5, workers=1
    )
    many = fk.fk_evaluate(
        HYDROGEN, PSI_H, np.array([1.0, 0, 0]), 0.3, 20_000, seed=5, workers=8
    )
    assert one.value == many.value and one.stderr == many.stderr


class Nasty(potentials.Potential):
    """-|x|^{-5/2} on R^3."""

    name = "nasty"

    def __init__(self):
        self.space = E3

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        with np.errstate(divide="ignore"):
            return -1.0 / np.linalg.norm(pts, axis=1) ** 2.5

    def singularity_distance(self, pts):
        return np.linalg.norm(np.atleast_2d(pts), axis=1)

    def smoothed_abs(self, s, x):
        return math.inf

    def sup_candidates(self):
        return [np.zeros(3)]

    def closed_form_kato(self, alpha, t):
        return math.inf  # |x|^{-5/2} fails the 3d Kato test


def test_fk_refuses_uncertified_singular_potential():
    with pytest.raises(NonKatoError):
        fk.fk_evaluate(Nasty(), functions.Constant(1.0), np.array([1.0, 0, 0]),
                       0.2, 100, seed=0)


def test_khashminskii_and_exp_moment_refuse_a_non_kato_potential():
    """One admission rule: an infinite alpha=0 Kato bound is NonKatoError for
    the certificate and for the empirical moment, whose -|V| answers the
    Kato questions of V."""
    with pytest.raises(NonKatoError):
        fk.khashminskii_certify(Nasty(), 0.2)
    with pytest.raises(NonKatoError):
        fk.exp_action_moment(Nasty(), np.array([1.0, 0, 0]), 0.2, 100, seed=0)
    r = math.pi / 16
    for v in (potentials.CoulombPotential(), HYDROGEN):
        assert fk.khashminskii_certify(fk._NegAbs(v), r) == fk.khashminskii_certify(v, r)


class _Understated(functions.BatchFunction):
    """1 everywhere, with a sup norm of 1/2: every estimate exceeds its bound."""

    sup_norm = 0.5

    def __call__(self, pts):
        return np.ones(np.atleast_2d(pts).shape[0])


@pytest.mark.parametrize("x", [
    np.array([0.5, 0.0, 0.0]), np.array([[0.5, 0.0, 0.0], [0.0, 0.75, 0.0]]),
], ids=["start", "pair"])
def test_every_estimate_checks_its_legs_against_the_weight_bound(x):
    """A start and a pair are flagged alike when a leg exceeds C_exp(V, t)
    times psi's sup norm by 3 stderrs, and not when psi's norm is true."""
    est = fk.fk_evaluate(HYDROGEN, _Understated(), x, 0.1, 256, seed=3)
    assert est.flags == ["integration_bias_warning"]
    est = fk.fk_evaluate(HYDROGEN, functions.Constant(1.0), x, 0.1, 256, seed=3)
    assert est.flags == []


def test_quotient_pair_estimates_check_their_bound(monkeypatch):
    """The pair estimates behind a measured Hoelder quotient are checked
    against the weight bound as any other estimate is."""
    seen, evaluate = [], fk.fk_evaluate

    def kept(*args, **kwargs):
        seen.append(evaluate(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(fk, "fk_evaluate", kept)
    pairs = bounds.pair_grid_euclidean(E3, anchors=[np.zeros(3)], k_max=1)
    bounds.measured_holder_quotient_mc(HYDROGEN, _Understated(), 0.5, 0.1, pairs, 64, 3)
    assert len(seen) == len(pairs)
    assert all(est.flags == ["integration_bias_warning"] for est in seen)


def test_fk_uniform_bound_invariant():
    est = fk.fk_evaluate(HYDROGEN, PSI_H, np.array([0.5, 0, 0]), 0.4, 30_000, seed=9)
    cert = fk.khashminskii_certify(HYDROGEN, 0.4)
    assert abs(est.value) <= cert.bound_on_C_exp * PSI_H.sup_norm + 3 * est.stderr


class _Interpolant(functions.BatchFunction):
    """Linear interpolant of grid samples on R^1; constant extrapolation."""

    def __init__(self, xs, values):
        self.xs, self.values = xs, np.asarray(values, dtype=float)
        self.sup_norm = float(np.max(np.abs(self.values)))

    def __call__(self, pts):
        return np.interp(np.asarray(pts, dtype=float)[:, 0], self.xs, self.values)


def test_fk_semigroup_property_statistical():
    v = potentials.BoundedPotential(
        E1, functions.SmoothBump(0.8, 1.0), sup_norm=0.8, lower_bound=0.0
    )
    x = np.array([0.2])
    t = 0.5
    direct = fk.fk_evaluate(v, functions.OscillatorGround(), x, t, 60_000, seed=21)
    grid = np.linspace(-6.0, 6.0, 121)
    half_vals = [
        fk.fk_evaluate(
            v, functions.OscillatorGround(), np.array([g]), t / 2, 4_000,
            seed=1000 + i
        )
        for i, g in enumerate(grid)
    ]
    mid_fn = _Interpolant(grid, [e.value for e in half_vals])
    composed = fk.fk_evaluate(v, mid_fn, x, t / 2, 60_000, seed=22)
    se_mid = max(e.stderr for e in half_vals)
    combined = 3 * (direct.stderr + composed.stderr + se_mid) + 5e-3
    assert abs(direct.value - composed.value) <= combined


def test_khashminskii_certificates():
    z = potentials.ZeroPotential(E3)
    assert fk.khashminskii_certify(z, 1.0).bound_on_C_exp == 1.0
    coul = potentials.CoulombPotential()
    r = math.pi / 16  # kappa = (2/sqrt(pi)) sqrt(r) = 1/2 exactly
    cert = fk.khashminskii_certify(coul, r)
    assert cert.kappa == pytest.approx(0.5, rel=1e-12)
    assert cert.bound_on_C_exp == pytest.approx(2.0, rel=1e-12)
    # kappa >= 1 forces subdivision: (1/(1-kappa_k))^k
    big = fk.khashminskii_certify(coul, 2.0)
    assert big.subdivisions > 1
    assert big.kappa_per_interval < 0.5
    assert math.isfinite(big.bound_on_C_exp)
    # helium needs more splits than a 64-split cap allows; B's rule finds 113
    helium = potentials.load_molecule({"m": 2, "nuclei": [{"R": [0, 0, 0], "Z": 2.0}]})
    he = fk.khashminskii_certify(helium, 1.0)
    assert he.subdivisions == 113 and he.kappa_per_interval < 0.5


def _linear_khashminskii_bound(kappa_at, r):
    """khashminskii_bound's rule as a scan over k = 2, 3, ... with no cap."""
    k = 2
    while kappa_at(r / k) >= 0.5:
        k += 1
    kap_k = kappa_at(r / k)
    return (1.0 / (1.0 - kap_k)) ** k, k, kap_k


@pytest.mark.parametrize("c", [3.1, 12.55, 15.1])
def test_khashminskii_bound_finds_the_fewest_splits_past_255(c):
    """kappa_at(s) = c*sqrt(s) needs k > (2c)^2 splits: 39, 631 and 913."""
    calls = []

    def kappa_at(s):
        calls.append(s)
        return c * math.sqrt(s)

    got = fk.khashminskii_bound(kappa_at, 1.0)
    assert len(calls) <= 2 * math.log2(got[1]) + 2
    assert got == _linear_khashminskii_bound(kappa_at, 1.0)
    assert got[1] == math.floor(4.0 * c * c) + 1


def test_khashminskii_bound_overflow_is_divergent():
    # k = 2^20 splits at kappa_k just below 1/2: 2^(2^20) overflows a float
    with pytest.raises(DivergentBoundError):
        fk.khashminskii_bound(lambda s: 0.49 * math.sqrt(s * 2**20), 1.0)
    with pytest.raises(DivergentBoundError):
        fk.khashminskii_bound(lambda s: 1.0, 1.0)


def test_khashminskii_empirical_exp_moment():
    r = math.pi / 16
    coul = potentials.CoulombPotential()
    mean, se = fk.exp_action_moment(
        coul, np.zeros(3), r, 60_000, seed=9, grid_step=r / 100
    )
    assert mean <= 2.0 + 3 * se


def test_duhamel_zero_and_constant():
    phi = functions.SmoothBump(1.0, 1.5)
    z = potentials.ZeroPotential(E1)
    assert fk.duhamel_residual(z, phi, 0.5, 8) < 1e-10
    c = potentials.ConstantPotential(E1, 0.1)
    assert fk.duhamel_residual(c, phi, 0.5, 64) < 1e-8


def test_duhamel_second_order_refinement():
    bump = potentials.BoundedPotential(
        E1, functions.SmoothBump(1.0, 1.0), sup_norm=1.0, lower_bound=0.0
    )
    phi = functions.SmoothBump(1.0, 1.5)
    residuals = [fk.duhamel_residual(bump, phi, 0.5, m) for m in (8, 16, 32, 64)]
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    assert all(r >= 3.5 for r in ratios)


def _dense_duhamel_residual(V, psi, t, n_time_steps):
    """duhamel_residual with every kernel matrix built entry by entry from
    the full xs[i] - xs[j] difference matrix."""
    dx = 0.02
    xs = np.arange(-10.0, 10.0 + dx / 2.0, dx)
    vvec = np.asarray(V(xs[:, None]), dtype=float)
    phi = np.asarray(psi(xs[:, None]), dtype=float)
    h = t / n_time_steps

    def p_matrix(s):
        diff = xs[:, None] - xs[None, :]
        return (4.0 * math.pi * s) ** -0.5 * np.exp(-diff * diff / (4.0 * s)) * dx

    d_half = np.exp(-0.5 * h * vvec)
    p_h = p_matrix(h)
    states = [phi]
    for _ in range(n_time_steps):
        states.append(d_half * (p_h @ (d_half * states[-1])))
    acc = np.zeros(xs.size)
    for j in range(n_time_steps + 1):
        weight = 0.5 if j in (0, n_time_steps) else 1.0
        integrand = vvec * states[n_time_steps - j]
        if j > 0:
            integrand = p_matrix(j * h) @ integrand
        acc += weight * integrand
    rhs = p_matrix(t) @ phi - h * acc
    mask = np.abs(xs) <= 5.0
    return float(np.max(np.abs(states[-1][mask] - rhs[mask])))


@pytest.mark.parametrize("n_time_steps", [8, 64])
@pytest.mark.parametrize("potential", [
    potentials.BoundedPotential(E1, functions.SmoothBump(1.0, 1.0), sup_norm=1.0,
                                lower_bound=0.0),
    potentials.ConstantPotential(E1, 0.1),
], ids=["bump", "constant"])
def test_duhamel_toeplitz_kernel_matches_the_dense_kernel_bit_for_bit(
    potential, n_time_steps
):
    phi = functions.SmoothBump(1.0, 1.5)
    assert fk.duhamel_residual(potential, phi, 0.5, n_time_steps) == (
        _dense_duhamel_residual(potential, phi, 0.5, n_time_steps)
    )


def test_fk_evaluate_goes_through_the_traced_layer_boundaries(monkeypatch):
    """The benchmark's tracer wraps paths.sample_paths_batch and each
    potential class's own __call__ and singularity_distance by name, and its
    coverage check fails a run in which they record nothing.  A hydrogen
    evaluation must call all three through those names."""
    calls = dict.fromkeys(("sample_paths_batch", "__call__", "singularity_distance"), 0)

    def count(owner, attr):
        original = vars(owner)[attr]

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(paths, "sample_paths_batch")
    count(type(HYDROGEN), "__call__")
    count(type(HYDROGEN), "singularity_distance")
    fk.fk_evaluate(HYDROGEN, PSI_H, np.array([0.3, 0.0, 0.0]), 0.1, 64, seed=3)
    assert all(n > 0 for n in calls.values()), calls


def test_fk_rejects_bad_time():
    with pytest.raises(TimeDomainError):
        fk.fk_evaluate(HYDROGEN, PSI_H, np.array([1.0, 0, 0]), 0.0, 100, seed=0)


def test_fk_bounded_potential_on_sphere():
    s2 = spaces.sphere2(1.0)
    v = potentials.ConstantPotential(s2, 0.6)
    est = fk.fk_evaluate(
        v, functions.Constant(1.0), np.array([0.0, 0.0, 1.0]), 0.5, 400,
        seed=2, grid_step=0.05,
    )
    assert est.value == pytest.approx(math.exp(-0.3), rel=1e-12)


@pytest.mark.parametrize("x", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_chunk_leaves_tile_each_path(x):
    """Every path's leaves in the plain refinement cover [0, t] once, and
    fk_evaluate counts them all."""
    t, size, seed = 0.5, 256, 5
    ends, leaves = _reference_chunk_leaves(
        HYDROGEN, np.array(x), t, size,
        streams.substream(seed, streams.TAG_FK, 0), 100, 5e-5, 16,
    )
    assert ends.shape == (size, 3)
    pid = np.concatenate([block[0] for block in leaves])
    delta = np.concatenate([np.full(block[0].size, block[1]) for block in leaves])
    np.testing.assert_allclose(
        np.bincount(pid, weights=delta, minlength=size), t, rtol=0, atol=1e-12
    )
    for block in leaves:  # a start on the nucleus leaves no -inf in a leaf
        assert np.isfinite(block[2]).all() and np.isfinite(block[3]).all()
    n_far = leaves[0][0].size
    if x[0] == 1.0:
        assert n_far > pid.size / 2  # away from the nucleus: mostly unrefined
    else:
        assert n_far < pid.size / 2  # from the nucleus: mostly refined leaves
    est = fk.fk_evaluate(HYDROGEN, PSI_H, np.array(x), t, size, seed=seed)
    assert est.action_integrator["n_leaves"] == pid.size


def _reference_chunk_leaves(V, x, t, size, rng, n_steps, tol, max_depth):
    """The refinement written plainly: all children of kept parents, left ones
    first, then split into far leaves and near intervals.  Returns the
    endpoints and the leaf blocks (path index, length, v_left, v_right)."""
    h = t / n_steps
    _times, pts = paths.sample_paths_batch(E3, x, t, h, size, rng)
    flat = pts.reshape(-1, 3)
    with np.errstate(divide="ignore"):
        v = V(flat).reshape(size, n_steps + 1)
    dist = V.singularity_distance(flat).reshape(size, n_steps + 1)
    pid = np.repeat(np.arange(size), n_steps)
    xl, xr = pts[:, :-1].reshape(-1, 3), pts[:, 1:].reshape(-1, 3)
    vl, vr = v[:, :-1].ravel(), v[:, 1:].ravel()
    dl, dr = dist[:, :-1].ravel(), dist[:, 1:].ravel()
    delta = h
    near = np.minimum(dl, dr) < fk._NEAR_FACTOR * math.sqrt(2.0 * delta)
    leaves = [(pid[~near], delta, vl[~near], vr[~near])]
    pid, xl, xr, vl, vr, dl, dr = (a[near] for a in (pid, xl, xr, vl, vr, dl, dr))
    for _ in range(max_depth):
        if pid.size == 0:
            break
        mid = paths.bridge_midpoints(xl, xr, delta, rng)
        with np.errstate(divide="ignore"):
            vm = V(mid)
        dm = V.singularity_distance(mid)
        with np.errstate(invalid="ignore"):
            disc = delta * np.abs(2.0 * vm - vl - vr) / 4.0
        keep = np.where(np.isnan(disc), np.inf, disc) > tol
        delta /= 2.0
        leaves.append((pid[~keep], delta, vl[~keep], vm[~keep]))
        leaves.append((pid[~keep], delta, vm[~keep], vr[~keep]))
        kids = [np.concatenate([a[keep], b[keep]]) for a, b in (
            (pid, pid), (xl, mid), (mid, xr), (vl, vm), (vm, vr), (dl, dm), (dm, dr))]
        near = np.minimum(kids[5], kids[6]) < fk._NEAR_FACTOR * math.sqrt(2.0 * delta)
        leaves.append((kids[0][~near], delta, kids[3][~near], kids[4][~near]))
        pid, xl, xr, vl, vr, dl, dr = (a[near] for a in kids)
    if pid.size:  # the last block alone may end on the singular set
        leaves.append((pid, delta, np.nan_to_num(vl, nan=0.0, posinf=0.0, neginf=0.0),
                       np.nan_to_num(vr, nan=0.0, posinf=0.0, neginf=0.0)))
    return pts[:, -1, :], leaves


@pytest.mark.parametrize("x", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_chunk_leaves_match_the_plain_refinement(x):
    """The streamed actions are the plain refinement's leaf blocks summed per
    path block by block, with the same bits: every Feynman-Kac estimate
    depends on that order.  The chunk spans several scan and walk blocks."""
    size = 1500
    assert size > 2 * spaces._ROW_BLOCK
    args = (np.array(x), 0.5, size)
    rng = streams.substream(5, streams.TAG_FK, 0)
    _times, pts = paths.sample_paths_batch(E3, np.array(x), 0.5, 0.005, size, rng)
    ends, action, n_leaves = fk._chunk_actions(HYDROGEN, pts, 0.005, rng, 5e-5, 16)
    want_ends, leaves = _reference_chunk_leaves(
        HYDROGEN, *args, streams.substream(5, streams.TAG_FK, 0), 100, 5e-5, 16
    )
    want = np.zeros(size)
    for pid, delta, vl, vr in leaves:
        want += np.bincount(pid, weights=delta * (vl + vr) / 2.0, minlength=size)
    np.testing.assert_array_equal(ends, want_ends)
    np.testing.assert_array_equal(action, want)
    assert n_leaves == sum(block[0].size for block in leaves)


def test_fk_chunk_streams_its_actions_in_bounded_memory():
    """A 4 096-path hydrogen chunk from the nucleus holds no leaf list and no
    second path-sized array: its traced peak stays below 20 MB (40 MB when
    it kept its 1.2 M leaves), with the ball's control variate.  The plain
    mean of the same weights, the ball without its free mean, keeps its
    bits."""
    psi = functions.BallIndicator(0.0, 1.0)
    tracemalloc.start()
    try:
        est = fk.fk_evaluate(HYDROGEN, psi, np.zeros(3), 0.5, 4096, seed=1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert est.action_integrator["n_leaves"] == 1231485
    plain = fk.fk_evaluate(HYDROGEN, psi.__call__, np.zeros(3), 0.5, 4096, seed=1)
    assert (plain.value, plain.stderr) == (0.5817598289735698, 0.018336931631067407)
    assert plain.action_integrator["n_leaves"] == 1231485


@pytest.mark.parametrize("x, y, ratio", [
    ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0),
    ((0.5, 0.0, 0.0), (0.5 + 1.0 / 64.0, 0.0, 0.0), 0.1),
    ((0.0, 0.5, 0.0), (0.0, 0.0, 1.5), 1.0),
], ids=["d=1/2", "d=1/64", "across"])
def test_coupled_pair_difference_is_calibrated_against_the_ground_state(x, y, ratio):
    """A pair's difference of e^{-tH_V}psi_0 is e^{t/4}(psi_0(x) - psi_0(y)):
    over 100 seeds of 1 000 paths its z has mean within 0.3 and sd within
    [0.8, 1.2], so the stderr is that of the difference.  The legs share
    their increments, so the difference's stderr is below ``ratio`` times
    the legs' hypot, which independent legs would give: a tenth at
    d = 1/64."""
    t = 0.5
    pair = np.array([x, y])
    exact = math.exp(t / 4.0) * (PSI_H(pair[:1])[0] - PSI_H(pair[1:])[0])
    ests = [fk.fk_evaluate(HYDROGEN, PSI_H, pair, t, 1_000, seed=seed)
            for seed in range(100)]
    z = [(est.value[2] - exact) / est.stderr[2] for est in ests]
    assert abs(np.mean(z)) <= 0.3
    assert 0.8 <= np.std(z) <= 1.2
    coupled = np.mean([est.stderr[2] for est in ests])
    legs = np.mean([math.hypot(*est.stderr[:2]) for est in ests])
    assert coupled < ratio * legs


def test_a_pair_holds_its_skeleton_in_little_more_memory_than_one_start():
    """A pair chunk keeps the shared skeleton through leg x's refinement, and
    its traced peak stays within 1.25 times that of a single start."""
    peaks = []
    for x in (np.array([-1.0 / 256, 0.0, 0.0]),
              np.array([[-1.0 / 256, 0.0, 0.0], [1.0 / 256, 0.0, 0.0]])):
        tracemalloc.start()
        try:
            fk.fk_evaluate(HYDROGEN, PSI_H, x, 0.5, 1024, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_pair_estimate_reports_paths_leaves_and_flags():
    """A pair estimate is a SemigroupEstimate whose legs are the single
    estimates' law: n_paths counts pairs, n_leaves counts both legs."""
    pair = np.array([[0.3, 0.0, 0.0], [0.0, 0.4, 0.0]])
    est = fk.fk_evaluate(HYDROGEN, PSI_H, pair, 0.1, 64, seed=3)
    assert isinstance(est.n_paths, int) and est.n_paths == 64
    assert est.value.shape == est.stderr.shape == (3,)
    assert est.value[2] == pytest.approx(est.value[0] - est.value[1], abs=1e-12)
    assert est.flags == []
    legs = [fk.fk_evaluate(HYDROGEN, PSI_H, p, 0.1, 64, seed=3) for p in pair]
    assert est.value[0] == legs[0].value  # leg x draws as a single start does
    assert est.action_integrator["n_leaves"] > legs[0].action_integrator["n_leaves"]
    with pytest.raises(InvalidPointError):
        fk.fk_evaluate(HYDROGEN, PSI_H, np.zeros((3, 3)), 0.1, 64, seed=3)


def test_pair_on_the_sphere_is_carried_by_a_rotation():
    """On S^2 the pair's nodes are rotated from x to y, so leg y is a
    Brownian path from y: both legs and their difference match the zonal
    series of e^{-ct} P_t 1_{z>0} for a constant potential c."""
    s2 = spaces.sphere2(1.0)
    c, t = 0.6, 0.5
    thetas = np.array([1.2, 2.0])
    pair = np.stack([np.sin(thetas), np.zeros(2), np.cos(thetas)], axis=1)
    psi = functions.HemisphereIndicator()
    est = fk.fk_evaluate(potentials.ConstantPotential(s2, c), psi, pair, t,
                         4000, seed=2, grid_step=0.05)
    exact = math.exp(-c * t) * bounds.sphere_semigroup_zonal(s2, t, psi, thetas)
    exact = np.append(exact, exact[0] - exact[1])
    assert np.all(np.abs(est.value - exact) < 4.0 * est.stderr)
    assert est.stderr[2] < math.hypot(*est.stderr[:2])


BALL = functions.BallIndicator(np.zeros(3), 1.0)
OFF_AXIS = np.array([[0.3, 0.4, 0.0], [0.8, 0.4, 0.0]])
NUCLEUS = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])


@pytest.fixture(scope="module")
def off_axis_reference():
    """The off-axis pair's difference from 400 000 controlled paths: its
    stderr is a twentieth of a 1 000-path run's."""
    return fk.fk_evaluate(HYDROGEN, BALL, OFF_AXIS, 0.5, 400_000, seed=(2, 400_000))


@pytest.fixture(scope="module")
def nucleus_reference():
    """The difference of a pair with one end on the nucleus from 200 000
    controlled paths: its stderr is a fourteenth of a 1 000-path run's."""
    return fk.fk_evaluate(HYDROGEN, BALL, NUCLEUS, 0.5, 200_000, seed=(3, 200_000),
                          workers=2)


def _ball_pair_z(pair, exact, seeds=range(100)):
    ests = [fk.fk_evaluate(HYDROGEN, BALL, pair, 0.5, 1_000, seed=s) for s in seeds]
    return ests, np.array([(est.value[2] - exact) / est.stderr[2] for est in ests])


@pytest.mark.parametrize("pair", [
    np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]),
    np.array([[-0.125, 0.0, 0.0], [0.125, 0.0, 0.0]]),
    OFF_AXIS,
    NUCLEUS,
], ids=["d=1", "d=1/4", "off-axis", "nucleus"])
def test_controlled_pair_difference_is_calibrated(pair, request):
    """A ball pair regresses its weights on both legs' controls: Phi(X_t)
    and the path controls G and S G.  Over 100 seeds of 1 000 paths the z of
    the difference has mean within 0.3 and sd within [0.8, 1.2]: against 0
    for a pair mirrored through the nucleus, where e^{-tH_V}1_B is radial,
    and against a high-path reference for the others.  The regression is
    linear, so value[2] = value[0] - value[1]."""
    exact = 0.0
    if pair is OFF_AXIS:
        exact = request.getfixturevalue("off_axis_reference").value[2]
    elif pair is NUCLEUS:
        exact = request.getfixturevalue("nucleus_reference").value[2]
    ests, z = _ball_pair_z(pair, exact)
    assert abs(z.mean()) <= 0.3
    assert 0.8 <= z.std() <= 1.2
    for est in ests:
        assert est.value[2] == pytest.approx(est.value[0] - est.value[1], abs=1e-12)
    if pair[1, 0] == 0.5 and pair[0, 0] == -0.5:
        # at d = 1 the free part is most of the noise: Phi(X_t) alone cuts
        # the stderr to about a third, and the path controls, which see the
        # perturbation along the path, to below a quarter
        plain = [fk.fk_evaluate(HYDROGEN, BALL.__call__, pair, 0.5, 1_000, seed=s)
                 for s in range(100)]
        assert (np.mean([est.stderr[2] for est in ests])
                <= 0.25 * np.mean([est.stderr[2] for est in plain]))


def test_controlled_pair_with_the_free_mean_at_twice_the_time_fails(
        monkeypatch, off_axis_reference):
    """Negative control: a free mean taken at 2t biases the off-axis pair's
    difference, whose legs sit at different radii, and its z fails the
    calibration above."""
    free_mean = functions.BallIndicator.free_mean
    monkeypatch.setattr(functions.BallIndicator, "free_mean",
                        lambda self, space, x, t: free_mean(self, space, x, 2.0 * t))
    _ests, z = _ball_pair_z(OFF_AXIS, off_axis_reference.value[2])
    assert not (abs(z.mean()) <= 0.3 and 0.8 <= z.std() <= 1.2)


def test_controlled_pair_with_path_control_means_at_twice_the_time_fails(
        monkeypatch, off_axis_reference):
    """Negative control: the path controls' means taken at 2t bias the
    off-axis pair's difference, and its z fails the calibration above."""
    means = fk._path_control_means
    monkeypatch.setattr(fk, "_path_control_means",
                        lambda x, times, t, *rest: means(x, 2.0 * times, 2.0 * t, *rest))
    _ests, z = _ball_pair_z(OFF_AXIS, off_axis_reference.value[2])
    assert not (abs(z.mean()) <= 0.3 and 0.8 <= z.std() <= 1.2)


@pytest.mark.parametrize("dim, s", [(3, 0.2), (3, 0.5), (6, 0.3), (6, 0.5)],
                         ids=["D=3", "D=3,s=t", "D=6", "D=6,s=t"])
def test_path_control_means_match_gaussian_draws(dim, s):
    """The closed forms of E G and E[bump(X_s) G] at t = 0.5 against 10^6
    draws of (X_s, X_t), X = x + W of variance 2s per coordinate, within 4
    standard errors.  The ball's center has length 1, so it stands for
    (0.1, ..., 0.1)."""
    t, n, block = 0.5, 1_000_000, 100_000
    c, b = functions.BallIndicator(0.1, 1.0).gaussian_stand_in(spaces.euclidean(dim))
    np.testing.assert_array_equal(c, np.full(dim, 0.1))
    x, bump = np.linspace(0.3, -0.2, dim), np.linspace(-0.1, 0.2, dim)
    a = fk._BUMP_WIDTH * math.sqrt(2.0 * t)
    rng = np.random.default_rng(dim)
    sums = np.zeros((2, 2))  # (G, bump G) by (sum, sum of squares)
    for _ in range(n // block):
        xs = x + math.sqrt(2.0 * s) * rng.standard_normal((block, dim))
        xt = xs + math.sqrt(2.0 * (t - s)) * rng.standard_normal((block, dim))
        g = fk._gaussian(xt, c, b)
        for row, draws in enumerate((g, fk._gaussian(xs, bump, a) * g)):
            sums[row] += draws.sum(), (draws * draws).sum()
    mean = sums[:, 0] / n
    se = np.sqrt((sums[:, 1] / n - mean * mean) / n)
    exact = fk._path_control_means(x, np.array([s]), t, [bump], a, (c, b))
    assert np.all(np.abs(mean - exact) <= 4.0 * se), (mean, exact, se)


def test_path_controls_are_finite_on_the_nucleus(monkeypatch):
    """A start on the nucleus, where V is -inf, gives finite control rows of
    finite mean that vary, and a finite estimate: the Gaussians are bounded."""
    seen, merge = [], streams.merge

    def kept(parts, mu):
        parts = list(parts)
        seen.append((parts, mu))
        return merge(parts, mu)

    monkeypatch.setattr(streams, "merge", kept)
    for x in (np.zeros(3), NUCLEUS):
        est = fk.fk_evaluate(HYDROGEN, BALL, x, 0.5, 1024, seed=6)
        assert np.all(np.isfinite(est.value)) and np.all(np.isfinite(est.stderr))
    for parts, mu in seen:
        assert len(mu) in (3, 6)  # Phi, G and S G for each leg
        assert np.all(np.isfinite(mu))
        controls = np.concatenate([rows[len(rows) - len(mu):] for rows in parts], axis=1)
        assert np.all(np.isfinite(controls)) and np.all(np.ptp(controls, axis=1) > 0)


@pytest.mark.parametrize("ball", [
    functions.BallIndicator(np.array([20.0, 0.0, 0.0]), 1.0),
    functions.BallIndicator(np.zeros(3), 50.0),
], ids=["never-reached", "never-left"])
@pytest.mark.parametrize("x", [
    np.array([0.5, 0.0, 0.0]), np.array([[0.5, 0.0, 0.0], [0.0, 0.75, 0.0]]),
], ids=["start", "pair"])
def test_control_that_never_varies_gives_the_plain_estimate(ball, x, monkeypatch):
    """Paths that never reach the ball, or never leave it, give a Phi
    control of zero covariance: the pseudo-inverse gives it no weight, so
    moving its free mean leaves every bit of the estimate.  A ball never
    reached gives weights 0, which no control moves: the estimate is bit for
    bit the plain one.  Paths in a ball never left still move its Gaussian
    stand-in, so there the path controls move the estimate off the plain
    one."""
    est = fk.fk_evaluate(HYDROGEN, ball, x, 0.5, 512, seed=4)
    free_mean = functions.BallIndicator.free_mean
    monkeypatch.setattr(functions.BallIndicator, "free_mean",
                        lambda self, space, p, t: free_mean(self, space, p, t) - 0.5)
    moved = fk.fk_evaluate(HYDROGEN, ball, x, 0.5, 512, seed=4)
    np.testing.assert_array_equal(moved.value, est.value)
    np.testing.assert_array_equal(moved.stderr, est.stderr)
    plain = fk.fk_evaluate(HYDROGEN, ball.__call__, x, 0.5, 512, seed=4)
    if ball.radius == 1.0:
        np.testing.assert_array_equal(est.value, plain.value)
        np.testing.assert_array_equal(est.stderr, plain.stderr)
    else:  # the weights still vary: not a comparison of zeros
        assert np.all(np.asarray(est.stderr) > 0)
        assert np.all(np.asarray(est.value) != np.asarray(plain.value))

