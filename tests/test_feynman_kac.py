import math

import numpy as np
import pytest

from katoflow import feynman_kac as fk
from katoflow import functions, potentials, spaces
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
    kwargs = dict(grid_step=0.01, tol=1e-4, max_depth=12)
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
