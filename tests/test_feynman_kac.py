import math

import numpy as np
import pytest

from katoflow import feynman_kac as fk
from katoflow import functions, paths, potentials, spaces, streams
from katoflow.errors import NonKatoError, TimeDomainError

E1 = spaces.euclidean(1)
E3 = spaces.euclidean(3)

HYDROGEN = potentials.hydrogen(E3)
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
    v = potentials.OscillatorPotential(E1)
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


def test_fk_worker_count_invariance():
    one = fk.fk_evaluate(
        HYDROGEN, PSI_H, np.array([1.0, 0, 0]), 0.3, 20_000, seed=5, workers=1
    )
    many = fk.fk_evaluate(
        HYDROGEN, PSI_H, np.array([1.0, 0, 0]), 0.3, 20_000, seed=5, workers=8
    )
    assert one.value == many.value and one.stderr == many.stderr


def test_fk_refuses_uncertified_singular_potential():
    class Nasty(potentials.Potential):
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

    with pytest.raises(NonKatoError):
        fk.fk_evaluate(Nasty(), functions.Constant(1.0), np.array([1.0, 0, 0]),
                       0.2, 100, seed=0)


def test_fk_uniform_bound_invariant():
    est = fk.fk_evaluate(HYDROGEN, PSI_H, np.array([0.5, 0, 0]), 0.4, 30_000, seed=9)
    cert = fk.khashminskii_certify(HYDROGEN, 0.4)
    assert abs(est.value) <= cert.bound_on_C_exp * PSI_H.sup_norm + 3 * est.stderr


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
    mid_fn = functions.GriddedFunction1D(grid, [e.value for e in half_vals])
    composed = fk.fk_evaluate(v, mid_fn, x, t / 2, 60_000, seed=22)
    se_mid = max(e.stderr for e in half_vals)
    combined = 3 * (direct.stderr + composed.stderr + se_mid) + 5e-3
    assert abs(direct.value - composed.value) <= combined


def test_khashminskii_certificates():
    z = potentials.ZeroPotential(E3)
    assert fk.khashminskii_certify(z, 1.0).bound_on_C_exp == 1.0
    coul = potentials.CoulombPotential(E3)
    r = math.pi / 16  # kappa = (2/sqrt(pi)) sqrt(r) = 1/2 exactly
    cert = fk.khashminskii_certify(coul, r)
    assert cert.kappa == pytest.approx(0.5, rel=1e-12)
    assert cert.bound_on_C_exp == pytest.approx(2.0, rel=1e-12)
    # kappa >= 1 forces subdivision: (1/(1-kappa_k))^k
    big = fk.khashminskii_certify(coul, 2.0)
    assert big.subdivisions > 1
    assert big.kappa_per_interval < 0.5
    assert math.isfinite(big.bound_on_C_exp)
    paper = fk.khashminskii_certify(coul, r, c_v=3.0)
    assert paper.paper_style_bound == pytest.approx(2.0 * math.exp(3.0 * r))
    # helium needs more splits than a 64-split cap allows; B's rule finds 113
    helium = potentials.load_molecule({"m": 2, "nuclei": [{"R": [0, 0, 0], "Z": 2.0}]})
    he = fk.khashminskii_certify(helium, 1.0)
    assert he.subdivisions == 113 and he.kappa_per_interval < 0.5


def test_khashminskii_empirical_exp_moment():
    r = math.pi / 16
    coul = potentials.CoulombPotential(E3)
    mean, se = fk.exp_action_moment(
        coul, np.zeros(3), r, 60_000, seed=9, grid_step=r / 100
    )
    assert mean <= 2.0 + 3 * se


def test_truncation_ladder_bounded_potential_constant():
    v = potentials.BoundedPotential(
        E1, functions.SmoothBump(0.9, 1.0), sup_norm=0.9, lower_bound=0.0
    )
    rep = fk.truncation_ladder(
        v, functions.Constant(1.0), np.zeros(1), 0.4,
        [(2.0, 2.0), (4.0, 4.0), (8.0, 8.0)], 5_000, seed=3
    )
    assert max(rep.estimates) - min(rep.estimates) < 1e-12
    assert rep.converged


def test_truncation_ladder_hydrogen_monotone_in_n():
    rep = fk.truncation_ladder(
        HYDROGEN, PSI_H, np.array([0.7, 0, 0]), 0.4,
        [(5.0, 5.0), (20.0, 5.0), (80.0, 5.0), (320.0, 5.0)], 30_000, seed=13
    )
    assert rep.monotone_increasing_in_n
    diffs = np.diff(rep.estimates)
    assert np.all(diffs >= -1e-12)
    assert rep.converged
    # ladder top approaches the eigen-oracle value e^{t/4} psi0(x)
    target = math.exp(0.1) * math.exp(-0.35)
    assert abs(rep.estimates[-1] - target) <= 3 * rep.stderrs[-1] + 0.02 * target


def test_truncation_ladder_repulsive_monotone_in_m():
    rep_pot = potentials.CoulombPotential(E3, charge=1.0, attractive=False)
    rep = fk.truncation_ladder(
        rep_pot, functions.Constant(1.0), np.array([0.3, 0, 0]), 0.3,
        [(5.0, 5.0), (5.0, 20.0), (5.0, 80.0)], 30_000, seed=17
    )
    assert rep.monotone_decreasing_in_m
    assert np.all(np.diff(rep.estimates) <= 1e-12)


@pytest.mark.parametrize(
    "v", [HYDROGEN, potentials.CoulombPotential(E3, charge=1.0, attractive=False)]
)
def test_truncation_ladder_reproduces_fk_evaluate(v):
    x = np.array([0.5, 0.0, 0.0])
    kwargs = dict(grid_step=0.01)
    est = fk.fk_evaluate(v, PSI_H, x, 0.3, 5_000, seed=21, **kwargs)
    cap = 1.0 / est.action_integrator["epsilon"]
    lo = -cap if v.lower_bound is None else max(-cap, v.lower_bound)
    rep = fk.truncation_ladder(v, PSI_H, x, 0.3, [(-lo, cap)], 5_000, seed=21,
                               **kwargs)
    assert rep.estimates == [est.value]
    assert rep.stderrs == [est.stderr]


def test_truncation_ladder_worker_count_invariance():
    args = (HYDROGEN, PSI_H, np.array([0.7, 0, 0]), 0.3,
            [(5.0, 5.0), (40.0, 5.0)], 9_000)
    one = fk.truncation_ladder(*args, seed=8, workers=1)
    eight = fk.truncation_ladder(*args, seed=8, workers=8)
    assert one.estimates == eight.estimates
    assert one.stderrs == eight.stderrs


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
    """Every path's leaves cover [0, t] once, and fk_evaluate counts them all."""
    t, size, seed = 0.5, 256, 5
    ends, leaves = fk._chunk_leaves(
        E3, HYDROGEN, np.array(x), t, size,
        streams.substream(seed, streams.TAG_FK, 0), 100, 5e-5, 16,
    )
    assert ends.shape == (size, 3)
    pid = np.concatenate([block[0] for block in leaves])
    delta = np.concatenate([np.full(block[0].size, block[1]) for block in leaves])
    np.testing.assert_allclose(
        np.bincount(pid, weights=delta, minlength=size), t, rtol=0, atol=1e-12
    )
    n_far = leaves[0][0].size
    if x[0] == 1.0:
        assert n_far > pid.size / 2  # away from the nucleus: mostly unrefined
    else:
        assert n_far < pid.size / 2  # from the nucleus: mostly refined leaves
    est = fk.fk_evaluate(HYDROGEN, PSI_H, np.array(x), t, size, seed=seed)
    assert est.action_integrator["n_leaves"] == pid.size


def _reference_chunk_leaves(V, x, t, size, rng, n_steps, tol, max_depth):
    """The refinement written plainly: all children of kept parents, left ones
    first, then split into far leaves and near intervals."""
    from katoflow import paths

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
    if pid.size:
        leaves.append((pid, delta, vl, vr))
    return leaves


@pytest.mark.parametrize("x", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_chunk_leaves_match_the_plain_refinement(x):
    """Same leaf blocks, in the same order, with the same bits: the per-path
    action sums, and so every Feynman-Kac estimate, depend on that order."""
    args = (np.array(x), 0.5, 256)
    _ends, leaves = fk._chunk_leaves(
        E3, HYDROGEN, *args, streams.substream(5, streams.TAG_FK, 0), 100, 5e-5, 16
    )
    ref = _reference_chunk_leaves(
        HYDROGEN, *args, streams.substream(5, streams.TAG_FK, 0), 100, 5e-5, 16
    )
    assert len(leaves) == len(ref)
    for got, want in zip(leaves, ref):
        assert got[1] == want[1]
        for a, b in zip((got[0], got[2], got[3]), (want[0], want[2], want[3])):
            np.testing.assert_array_equal(a, b)


def test_actions_share_unclipped_sums_bit_for_bit():
    """Every clip level's actions equal clipping that level on its own,
    including blocks that hold -inf or NaN."""
    _ends, leaves = fk._chunk_leaves(
        E3, HYDROGEN, np.zeros(3), 0.5, 256,
        streams.substream(7, streams.TAG_FK, 0), 100, 5e-5, 16,
    )
    leaves.append((np.array([0, 1]), 1e-3, np.array([-np.inf, 1.0]), np.array([2.0, 3.0])))
    # a NaN must not hide the out-of-clip -1e3 beside it
    leaves.append((np.array([2, 3]), 1e-3, np.array([np.nan, -1e3]), np.array([2.0, 3.0])))
    clips = [(-cap, cap) for cap in 20.0 * 2.0 ** np.arange(7)]
    actions = fk._actions_from_leaves(leaves, 256, clips)
    assert actions.shape == (len(clips), 256)
    for action, (lo, hi) in zip(actions, clips):
        want = np.zeros(256)
        for pid, delta, vl, vr in leaves:
            contrib = delta * (np.clip(vl, lo, hi) + np.clip(vr, lo, hi)) / 2.0
            want += np.bincount(pid, weights=contrib, minlength=256)
        np.testing.assert_array_equal(action, want)
    assert np.isnan(actions[:, 2]).all() and np.isfinite(actions[:, [0, 3]]).all()
