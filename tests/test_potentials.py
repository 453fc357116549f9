import json
import math

import numpy as np
import pytest
from scipy import integrate

from katoflow import functions, paths, potentials, reports, spaces
from katoflow.errors import (
    ConfigError, InvalidPointError, TimeDomainError, UnsupportedStrategyError,
)

E1 = spaces.euclidean(1)
E3 = spaces.euclidean(3)
E6 = spaces.euclidean(6)

COULOMB = potentials.CoulombPotential(charge=1.0, attractive=False)


def coulomb_kato_exact(alpha, t):
    return (2.0 / math.sqrt(math.pi)) * t ** ((1 - alpha) / 2) / (1 - alpha)


def test_smoothed_coulomb_at_center():
    val = potentials.smoothed_coulomb_dist(1.0, np.array([0.0]))[0]
    assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    assert val == pytest.approx(0.56419, abs=5e-6)


def test_smoothed_coulomb_far_field_and_monotone():
    far = potentials.smoothed_coulomb_dist(0.5, np.array([50.0]))[0]
    assert far == pytest.approx(1.0 / 50.0, rel=1e-10)
    us = np.linspace(0.0, 8.0, 400)
    vals = potentials.smoothed_coulomb_dist(0.7, us)
    assert np.all(np.diff(vals) < 0)


def test_smoothed_coulomb_oracle_quadrature():
    # independent oracle: radial quadrature of the Gaussian average of 1/r
    s = 0.45

    def integrand(r, costh):
        y_minus_x_sq = r * r + 0.64 - 2 * r * 0.8 * costh
        return (
            2
            * math.pi
            * r  # r^2 / r from the 1/|y| weight
            * (4 * math.pi * s) ** -1.5
            * math.exp(-y_minus_x_sq / (4 * s))
        )

    val, _ = integrate.dblquad(integrand, -1, 1, 0, 30.0)
    assert potentials.smoothed_coulomb_dist(s, np.array([0.8]))[0] == pytest.approx(
        val, rel=1e-8
    )


def test_molecular_value_and_singularities():
    mol = potentials.MolecularPotential(
        2, [(0.0, 0.0, 0.0)], [2.0]
    )  # helium-like
    x = np.array([1.0, 0, 0, -1.0, 0, 0])
    # -2/1 - 2/1 + 1/2
    assert mol(x[None])[0] == pytest.approx(-3.5)
    near_nuc = mol(np.array([[1e-14, 0, 0, -1.0, 0, 0]]))[0]
    assert not np.isfinite(near_nuc) or near_nuc < -1e10
    d = mol.singularity_distance(x[None, :])[0]
    assert d == pytest.approx(1.0)  # nucleus distance beats 2/sqrt(2)


def test_coulomb_terms_match_numpy_norm_bit_for_bit():
    """The potentials' distances are np.linalg.norm's, to the last bit, so
    Feynman-Kac estimates do not move."""
    rng = np.random.default_rng(3)
    pts3 = rng.standard_normal((5000, 3)) * rng.uniform(1e-8, 50.0, (5000, 1))
    pts6 = rng.standard_normal((5000, 6)) * rng.uniform(1e-8, 50.0, (5000, 1))
    R = np.array([(0.3, -0.2, 0.1), (-1.0, 0.5, 2.0)])
    mol = potentials.MolecularPotential(2, R, [1.0, 2.0])
    b = pts6.reshape(-1, 2, 3)
    nuc = [np.linalg.norm(b[:, j] - R[i], axis=1) for j in range(2) for i in range(2)]
    pair = np.linalg.norm(b[:, 0] - b[:, 1], axis=1)
    want_v = np.zeros(len(b))
    for r, z in zip(nuc, [1.0, 2.0, 1.0, 2.0]):
        want_v -= z / r
    want_v += 1.0 / pair
    np.testing.assert_array_equal(mol(pts6), want_v)
    want_d = np.minimum.reduce(nuc + [pair / math.sqrt(2)])
    np.testing.assert_array_equal(mol.singularity_distance(pts6), want_d)
    r3 = np.linalg.norm(pts3 - COULOMB.center, axis=1)
    np.testing.assert_array_equal(COULOMB(pts3), 1.0 / r3)
    np.testing.assert_array_equal(COULOMB.singularity_distance(pts3), r3)


def test_declared_singular_locus_matches_blowup():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 3))
    vals = COULOMB(pts)
    assert np.all(np.isfinite(vals))
    assert COULOMB(np.array([[1e-13, 0.0, 0.0]]))[0] > 1e12


@pytest.mark.parametrize("alpha,t,expected", [
    (0.0, 1.0, 1.1283791670955126),
    (0.5, 1.0, 2.256758334191025),
])
def test_kato_closed_form_coulomb(alpha, t, expected):
    cert = potentials.kato_integral(COULOMB, alpha, t, method="closed_form")
    assert cert.bound == pytest.approx(expected, rel=1e-12)
    assert np.allclose(cert.sup_witness, 0.0)


def test_kato_constant_closed_form():
    v = potentials.ConstantPotential(E3, 3.0)
    cert = potentials.kato_integral(v, 1.0, 4.0, method="closed_form")
    assert cert.bound == pytest.approx(12.0, rel=1e-12)


def test_kato_zero():
    z = potentials.ZeroPotential(E3)
    assert potentials.kato_integral(z, 0.3, 1.0).bound == 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("t", [0.25, 1.0])
def test_kato_quadrature_matches_closed_form(alpha, t):
    cert = potentials.kato_integral(COULOMB, alpha, t, method="quadrature")
    assert cert.bound == pytest.approx(coulomb_kato_exact(alpha, t), rel=1e-6)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_kato_monte_carlo_agreement(alpha):
    cert = potentials.kato_integral(
        COULOMB, alpha, 1.0, method="monte_carlo", n_samples=100_000, seed=7
    )
    exact = coulomb_kato_exact(alpha, 1.0)
    assert cert.stderr > 0
    assert abs(cert.bound - exact) <= 3.0 * cert.stderr


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 0.9])  # kato suite grid
def test_kato_monte_carlo_is_unbiased(alpha):
    """Over 300 seeds the mean z-score of the estimate sits within 3 of its own
    stderr 1/sqrt(300) of zero; capping the weights biases it low."""
    t = 0.25
    exact = coulomb_kato_exact(alpha, t)
    z = []
    for seed in range(300):
        cert = potentials.kato_integral(
            COULOMB, alpha, t, method="monte_carlo", n_samples=20_000, seed=seed
        )
        z.append((cert.bound - exact) / cert.stderr)
    assert abs(np.mean(z)) <= 3.0 / math.sqrt(300)


def test_kato_monte_carlo_constant_agreement():
    v = potentials.ConstantPotential(E3, 2.0)
    for alpha in (0.0, 0.6):
        cert = potentials.kato_integral(
            v, alpha, 0.8, method="monte_carlo", n_samples=50_000, seed=13
        )
        exact = v.closed_form_kato(alpha, 0.8)
        assert cert.bound == pytest.approx(exact, rel=1e-9)  # weights constant


def test_kato_monte_carlo_refuses_a_curved_space():
    """The Monte Carlo draws its points with Euclidean.move, so it runs on
    R^d only, as the mirror coupling does."""
    v = potentials.ConstantPotential(spaces.sphere2(1.0), 2.0)
    with pytest.raises(UnsupportedStrategyError):
        potentials.kato_integral(v, 0.5, 0.8, method="monte_carlo", n_samples=1_000)


def test_kato_monte_carlo_deterministic():
    a = potentials.kato_integral(COULOMB, 0.5, 1.0, method="monte_carlo",
                                 n_samples=20_000, seed=3)
    b = potentials.kato_integral(COULOMB, 0.5, 1.0, method="monte_carlo",
                                 n_samples=20_000, seed=3)
    assert a.bound == b.bound and a.stderr == b.stderr


def test_kato_alpha_one_coulomb_divergent():
    cert = potentials.kato_integral(COULOMB, 1.0, 1.0)
    assert math.isinf(cert.bound)
    assert cert.details["blowup_exponent_estimate"] == pytest.approx(-1.0, abs=0.1)


def test_kato_certificate_monotone_in_t():
    prev = 0.0
    for t in [0.25, 0.5, 1.0, 2.0]:
        b = potentials.kato_integral(COULOMB, 0.5, t).bound
        assert b >= prev
        prev = b


def test_kato_linearity_and_nesting():
    scaled = potentials.CoulombPotential(charge=2.5, attractive=False)
    for alpha in [0.0, 0.4, 0.8]:
        b1 = potentials.kato_integral(COULOMB, alpha, 0.7, method="quadrature").bound
        b2 = potentials.kato_integral(scaled, alpha, 0.7, method="quadrature").bound
        assert b2 == pytest.approx(2.5 * b1, rel=1e-9)
    # K^alpha subset K^beta for alpha >= beta: finite at the larger exponent
    # implies finite (and smaller blow-up factor) at the smaller one
    assert (
        potentials.kato_integral(COULOMB, 0.8, 1.0).bound
        >= potentials.kato_integral(COULOMB, 0.2, 1.0).bound
    )


def test_kato_subadditivity_two_nuclei():
    duo = potentials.MolecularPotential(
        1, [(0.0, 0.0, 0.0), (1.5, 0.0, 0.0)], [1.0, 2.0]
    )
    single1 = potentials.CoulombPotential((0, 0, 0), 1.0)
    single2 = potentials.CoulombPotential((1.5, 0, 0), 2.0)
    b = potentials.kato_integral(duo, 0.5, 0.5, method="quadrature").bound
    b1 = potentials.kato_integral(single1, 0.5, 0.5).bound
    b2 = potentials.kato_integral(single2, 0.5, 0.5).bound
    assert b <= b1 + b2 + 1e-9
    assert b >= max(b1, b2)  # the sup search found at least the best center


def test_kato_quadrature_two_nuclei_keeps_its_bits():
    """The two-nucleus quadrature bound, witness and candidate values, bit for
    bit: the sup search evaluates each candidate once and nothing more.  Pinned
    from katoflow.quadrature's G7K15 rule; QUADPACK gave 4.334583971524279 and
    2.976067963103027, within 1.2e-15 relative."""
    duo = potentials.MolecularPotential(
        1, [(0.0, 0.0, 0.0), (1.4, 0.0, 0.0)], [1.0, 2.0]
    )
    cert = potentials.kato_integral(duo, 0.5, 0.5, method="quadrature")
    assert cert.bound == 4.334583971524282
    assert cert.sup_witness.tolist() == [1.4, 0.0, 0.0]
    assert cert.details["candidate_values"] == [
        2.9760679631030307, 4.334583971524282, 2.9760679631030307, 2.571224593197447
    ]


@pytest.mark.parametrize("alpha,expected_status", [
    (0.9, "kato"),
    (1.0, "divergent"),
])
def test_classify_coulomb(alpha, expected_status):
    res = potentials.classify_kato(
        COULOMB, [1.0, 0.5, 0.25, 0.125, 0.0625], alpha
    )
    assert res.status == expected_status
    if expected_status == "kato":
        assert res.is_kato is True
        assert res.fitted_exponent == pytest.approx((1 - alpha) / 2, abs=5e-3)
    else:
        assert res.is_kato is False


def test_classify_bounded_always_kato():
    v = potentials.BoundedPotential(
        E1, functions.SmoothBump(2.0, 1.0), sup_norm=2.0, lower_bound=0.0
    )
    for alpha in [0.0, 0.5, 1.0]:
        res = potentials.classify_kato(v, [1.0, 0.5, 0.25, 0.125], alpha)
        assert res.is_kato is True


def test_classify_oscillator_not_kato():
    v = potentials.OscillatorPotential()
    res = potentials.classify_kato(v, [1.0, 0.5, 0.25], 0.0)
    assert res.is_kato is False


def test_submersion_projections():
    """The electron block pi_j of a Brownian path in R^6 is Brownian in R^3,
    and the pair map (x_i - x_j)/sqrt(2) is too: its raw increments have
    variance 4h, twice Brownian, which is why corollary B charges each pair
    term 1/sqrt(2)."""
    rng = np.random.default_rng(5)
    n = 20_000
    h = 0.05
    _times, pts = paths.sample_paths_batch(E6, np.zeros(6), 0.25, h, n, rng)
    inc = np.diff(pts, axis=1)
    pi1 = inc[..., 0:3].reshape(-1, 3)
    assert np.allclose(pi1.var(axis=0), 2 * h, rtol=0.05)
    raw_diff = (inc[..., 0:3] - inc[..., 3:6]).reshape(-1, 3)
    assert np.allclose(raw_diff.var(axis=0), 4 * h, rtol=0.05)  # twice Brownian
    assert np.allclose((raw_diff / math.sqrt(2.0)).var(axis=0), 2 * h, rtol=0.05)


def test_molecule_json_roundtrip():
    spec = json.loads(json.dumps({"m": 2, "nuclei": [{"R": [0, 0, 0], "Z": 2.0}]}))
    mol = potentials.load_molecule(spec)
    assert mol.m == 2 and mol.l == 1 and mol.Z[0] == 2.0
    with pytest.raises(InvalidPointError):
        potentials.load_molecule({"m": 1, "nuclei": [], "extra": 1})
    with pytest.raises(ConfigError):
        potentials.load_molecule({"m": 1, "nuclei": [{"R": [0, 0], "Z": 1}]})


def test_molecular_per_term_closed_form_matches_quadrature_at_center():
    mol = potentials.hydrogen()
    cert = potentials.kato_integral(mol, 0.5, 1.0, method="quadrature")
    assert cert.bound == pytest.approx(coulomb_kato_exact(0.5, 1.0), rel=1e-8)
    assert mol.per_term_kato_closed_form(0.5, 1.0) == pytest.approx(
        coulomb_kato_exact(0.5, 1.0), rel=1e-12
    )


def test_certificate_json():
    cert = potentials.kato_integral(COULOMB, 0.5, 1.0)
    blob = json.dumps(reports.jsonable(vars(cert)), allow_nan=False)
    assert '"method": "closed_form"' in blob and "sup_witness" in blob


def test_kato_integral_validates_inputs():
    with pytest.raises(TimeDomainError):
        potentials.kato_integral(COULOMB, -0.1, 1.0)
    with pytest.raises(TimeDomainError):
        potentials.kato_integral(COULOMB, 0.5, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
def test_coulomb_distances_keep_numpy_norm_bits_on_special_rows():
    """-0.0, inf and nan coordinates give np.linalg.norm's distances too."""
    rng = np.random.default_rng(9)
    pts6 = rng.standard_normal((300, 6))
    pts6[:10] = -0.0
    pts6[10:20, 0] = np.inf
    pts6[20:30, 4] = -np.inf
    pts6[30:40, 2] = np.nan
    mol = potentials.MolecularPotential(2, [(0.0, -0.0, 0.5)], [1.0])
    b = pts6.reshape(-1, 2, 3)
    nuc = [np.linalg.norm(b[:, j] - mol.R[0], axis=1) for j in range(2)]
    pair = np.linalg.norm(b[:, 0] - b[:, 1], axis=1) / math.sqrt(2)
    want = np.minimum(np.minimum(nuc[0], nuc[1]), pair)
    assert np.array_equal(mol.singularity_distance(pts6), want, equal_nan=True)
    pts3 = pts6[:, 3:]
    assert np.array_equal(COULOMB.singularity_distance(pts3),
                          np.linalg.norm(pts3 - COULOMB.center, axis=1), equal_nan=True)
