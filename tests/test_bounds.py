import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katoflow import bounds, feynman_kac as fk, functions, potentials, spaces
from katoflow.errors import TimeDomainError

E1 = spaces.euclidean(1)
E3 = spaces.euclidean(3)
S2 = spaces.sphere2(1.0)

COULOMB = potentials.CoulombPotential(charge=1.0, attractive=False)
HYDROGEN = potentials.hydrogen()


def test_worst_pair_returns_a_nan_quotient():
    """A pair whose values are NaN is the worst pair, not a quotient of 0."""
    rows = [((0.0,), (1.0,), 1.0, 0.5, 0.1),
            ((0.0,), (2.0,), 4.0, math.nan, math.nan),
            ((0.0,), (3.0,), 1.0, 0.7, 0.1)]
    q, se, pair = bounds._worst_pair(rows, 0.5, 1.0)
    assert math.isnan(q) and math.isnan(se)
    assert pair == ((0.0,), (2.0,))
    assert bounds._worst_pair(rows[::2], 0.5, 1.0) == (0.7, 0.1, ((0.0,), (3.0,)))


def test_f_K_values():
    assert bounds.f_K(0.0, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert bounds.f_K(1.0, 1.0) == pytest.approx(
        math.sqrt(1.0 / (math.e**2 - 1.0)), rel=1e-14
    )
    assert bounds.f_K(1.0, 1.0) == pytest.approx(0.39562, abs=5e-6)
    with pytest.raises(TimeDomainError):
        bounds.f_K(0.0, 0.0)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_f_K_continuous_at_zero_curvature(t):
    base = bounds.f_K(0.0, t)
    for k in (1e-6, -1e-6):
        assert abs(bounds.f_K(k * 1e-3 / t, t) - base) / base < 1e-6


def test_f_K_past_expm1_overflow():
    """Where e^{2Kt} - 1 overflows, F_K is sqrt(K) e^{-Kt}; below, the
    expm1 form is kept bit for bit."""
    assert bounds.f_K(400.0, 1.0) == math.sqrt(400.0) * math.exp(-400.0)
    assert bounds.f_K(1.0, 1.0) == math.sqrt(1.0 / math.expm1(2.0))


def test_f_K_small_K_limit():
    t = 0.7
    assert abs(bounds.f_K(1e-6, t) - bounds.f_K(0.0, t)) / bounds.f_K(0.0, t) < 1e-6


def test_heat_semigroup_sign_closed_form():
    # P_t sign(x) = erf(x / (2 sqrt(t)))
    t = 0.6
    xs = np.array([-1.0, -0.2, 0.0, 0.4, 2.0])
    vals = bounds.heat_semigroup_1d(t, functions.Sign(), xs)
    expected = [math.erf(x / (2 * math.sqrt(t))) for x in xs]
    assert np.allclose(vals, expected, atol=1e-10)


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_lipschitz_quotient_sign(t):
    report = bounds.holder_quotient(E1, t, 1.0, functions.Sign())
    target = 1.0 / math.sqrt(math.pi * t)
    assert report.verdict == "holds"
    assert report.measured == pytest.approx(target, rel=0.01)
    assert report.measured <= bounds.f_K(0.0, t)
    assert report.reference == pytest.approx(1.0 / math.sqrt(2 * t))


def test_lipschitz_quotient_constant_zero():
    report = bounds.holder_quotient(E1, 1.0, 1.0, functions.Constant(1.0))
    assert report.measured == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_holder_quotient_caps(alpha, t):
    report = bounds.holder_quotient(E1, t, alpha, functions.Sign())
    assert report.verdict == "holds"
    cap = 2 ** (1 - alpha) * bounds.f_K(0.0, t) ** alpha
    assert report.reference == pytest.approx(cap, rel=1e-12)


def test_holder_cap_alpha_half_value():
    assert bounds.holder_cap(0.0, 1.0, 0.5) == pytest.approx(2**0.25, rel=1e-12)
    assert bounds.holder_cap(0.0, 1.0, 0.5) == pytest.approx(1.18921, abs=5e-6)


def test_sphere_conservativeness_and_lipschitz():
    f = functions.HemisphereIndicator()
    for t in (0.5, 1.0):
        report = bounds.holder_quotient(S2, t, 1.0, f)
        assert report.verdict == "holds"
        assert report.measured <= bounds.f_K(1.0, t)
    assert bounds.f_K(1.0, 0.5) == pytest.approx(
        math.sqrt(1.0 / (math.e - 1.0)), rel=1e-12
    )


def test_sphere_zonal_series_constant():
    vals = bounds.sphere_semigroup_zonal(
        S2, 0.5, functions.HemisphereIndicator(), np.array([0.3, 1.2, 2.8])
    )
    assert np.all((0 < vals) & (vals < 1))
    ones = functions.Constant(1.0)
    ones.zonal_profile = lambda s: np.ones_like(np.asarray(s))
    ones.zonal_breaks_cos = ()
    flat = bounds.sphere_semigroup_zonal(S2, 0.5, ones, np.array([0.4, 2.0]))
    assert np.allclose(flat, 1.0, atol=1e-10)


def test_C_constant_closed_forms():
    assert bounds.C_constant(potentials.ZeroPotential(E3), 0.0, 0.5, 1.0) == 0.0
    c = bounds.C_constant(COULOMB, 0.0, 0.0, 1.0)
    assert c == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    # alpha = 1/2, r = 1/2: 2^{-1/4} (2/sqrt(pi)) (1/2)^{1/4} * 2
    val = bounds.C_constant(COULOMB, 0.0, 0.5, 0.5)
    assert val == pytest.approx(1.5957691216057308, rel=1e-12)


def test_C_constant_quadrature_cross_check():
    exact = bounds.C_constant(COULOMB, 0.0, 0.5, 0.5)
    quad = potentials._quadrature_bound(
        COULOMB, 0.5, 0.5, extra_weight=bounds._fk_weight(0.0, 0.5)
    )[0]
    assert quad == pytest.approx(exact, rel=1e-6)


def test_C_constant_divergent_at_alpha_one():
    assert math.isinf(bounds.C_constant(COULOMB, 0.0, 1.0, 0.5))


def test_C_constant_positive_curvature_below_flat():
    # F_K <= F_0 for K > 0, so the K > 0 constant is dominated by the flat one
    flat = bounds.C_constant(COULOMB, 0.0, 0.5, 0.8)
    curved = bounds.C_constant(COULOMB, 1.0, 0.5, 0.8)
    assert curved < flat
    assert curved > 0


def test_A_constant_composition_and_divergence():
    z = potentials.ZeroPotential(E3)
    assert bounds.A_constant(z, 0.0, 0.5, 1.0, 1.0) == 0.0
    khash = fk.khashminskii_certify(HYDROGEN, 1.0)
    a = bounds.A_constant(HYDROGEN, 0.0, 0.5, 1.0, khash.bound_on_C_exp)
    expected = (
        2.0 ** (2 - 0.5)
        * khash.bound_on_C_exp
        * bounds.C_constant(HYDROGEN, 0.0, 0.5, 0.5)
    )
    assert a == pytest.approx(expected, rel=1e-9)
    assert math.isinf(bounds.A_constant(HYDROGEN, 0.0, 1.0, 1.0, 2.0))


def test_A_constant_blowup_slope():
    alphas = np.linspace(0.8, 0.98, 10)
    vals = [bounds.A_constant(HYDROGEN, 0.0, a, 1.0, 2.0) for a in alphas]
    slope = potentials.fit_blowup_exponent(alphas, vals)
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_A_eventually_monotone_in_alpha():
    # reported property: for fixed Coulomb V there is an alpha_0 past which
    # A grows in alpha (the 1/(1-alpha) factor wins over 2^{2-alpha})
    alphas = np.linspace(0.05, 0.95, 20)
    vals = [bounds.A_constant(HYDROGEN, 0.0, a, 8.0, 2.0) for a in alphas]
    increasing = np.diff(vals) > 0
    first_up = int(np.argmax(increasing))
    assert increasing[first_up:].all()


def test_A_monotone_in_t_closed_form():
    vals = [
        bounds.A_constant(HYDROGEN, 0.0, 0.5, t, fk.khashminskii_certify(HYDROGEN, t).bound_on_C_exp)
        for t in (0.25, 0.5, 1.0)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_verify_main_theorem_v0_matches_holder():
    rep_thm = bounds.verify_main_theorem(
        potentials.ZeroPotential(E1), functions.Sign(), 0.5, 1.0
    )
    rep_hq = bounds.holder_quotient(E1, 1.0, 0.5, functions.Sign())
    assert rep_thm.verdict == "holds"
    assert abs(rep_thm.measured - rep_hq.measured) < 1e-10
    assert abs(rep_thm.reference - rep_hq.reference) < 1e-10


def test_verify_main_theorem_hydrogen():
    phi = functions.BallIndicator(np.zeros(3), 1.0)
    pairs = bounds.pair_grid_euclidean(E3, anchors=[np.zeros(3)], scale=1.0, k_max=3)
    pairs = [pairs[i] for i in range(0, len(pairs), 2)]
    report = bounds.verify_main_theorem(
        HYDROGEN, phi, 0.5, 0.5, pairs=pairs, n_paths=4000, seed=3
    )
    assert report.verdict == "holds"
    assert math.isfinite(report.reference)
    assert report.measured < report.reference


def test_verify_main_theorem_certifies_its_horizon_once(monkeypatch):
    """The theorem row and every pair's weight bound share one Khashminskii
    certificate of (V, t), so kato_integral is asked once for the alpha=0
    bound at t, not once per pair."""
    exact = potentials.kato_integral
    asked = []

    def counted(V, alpha, t, *args, **kwargs):
        asked.append((alpha, t))
        return exact(V, alpha, t, *args, **kwargs)

    fk.khashminskii_certify.cache_clear()
    monkeypatch.setattr(potentials, "kato_integral", counted)
    try:
        bounds.verify_main_theorem(HYDROGEN, functions.BallIndicator(np.zeros(3), 1.0),
                                   0.5, 0.5, n_paths=64, seed=3)
    finally:
        fk.khashminskii_certify.cache_clear()
    assert asked.count((0.0, 0.5)) == 1


def test_corollary_B_single_term_reduces_to_A():
    coul = potentials.CoulombPotential(charge=1.0, attractive=True)
    t = 1.0
    b = bounds.corollary_B_constant([coul], [], 0.0, 0.5, t)
    khash = fk.khashminskii_certify(coul, t)
    a = bounds.A_constant(coul, 0.0, 0.5, t, khash.bound_on_C_exp)
    assert b == pytest.approx(a, rel=1e-9)


def test_corollary_B_helium_toy_finite():
    nuc = potentials.CoulombPotential(charge=2.0, attractive=True)
    rep = potentials.CoulombPotential(charge=1.0 / math.sqrt(2.0),
                                      attractive=False)
    b = bounds.corollary_B_constant([nuc, nuc], [rep], 0.0, 0.5, 1.0)
    assert math.isfinite(b) and b > 0
    assert bounds.corollary_B_constant([], [], 0.0, 0.5, 1.0) == 0.0
    assert math.isinf(
        bounds.corollary_B_constant([nuc], [], 0.0, 1.0, 1.0)
    )


def test_corollary_B_lithium_needs_more_than_255_splits():
    """m = 3 electrons on a Z = 3 nucleus, as suite_molecule builds its terms:
    the summed alpha=0 Kato bound needs 630 Khashminskii splits at t = 1."""
    nuc = potentials.CoulombPotential(charge=3.0, attractive=True)
    rep = potentials.CoulombPotential(charge=1.0 / math.sqrt(2.0),
                                      attractive=False)
    b = bounds.corollary_B_constant([nuc] * 3, [rep] * 3, 0.0, 0.5, 1.0)
    assert math.isfinite(b) and b > 0


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=4.0),
)
@settings(max_examples=40, deadline=None)
def test_kato_scaling_property(alpha, t):
    # closed form obeys kato(a V) = |a| kato(V) and the C-constant weight
    base = COULOMB.closed_form_kato(alpha, t)
    minus_two = potentials.CoulombPotential(charge=2.0, attractive=True)
    assert minus_two.closed_form_kato(alpha, t) == pytest.approx(
        2.0 * base, rel=1e-12
    )
    assert bounds.C_constant(COULOMB, 0.0, alpha, t) == pytest.approx(
        2.0 ** (-alpha / 2.0) * base, rel=1e-12
    )


def test_pair_point_estimates_do_not_depend_on_workers():
    phi = functions.BallIndicator(np.zeros(3), 1.0)
    pairs = bounds.pair_grid_euclidean(E3, anchors=[np.zeros(3)], scale=1.0, k_max=6)
    theorem_rows, quotients = [], []
    for workers in (1, 2, 8):
        report = bounds.verify_main_theorem(
            HYDROGEN, phi, 0.5, 0.5, n_paths=256, seed=7, workers=workers
        )
        theorem_rows.append(report.details["rows"])
        quotients.append(bounds.measured_holder_quotient_mc(
            HYDROGEN, phi, 0.5, 0.5, pairs, 256, 7, workers=workers
        ))
    assert len(theorem_rows[0]) > 1
    assert theorem_rows[1] == theorem_rows[0] and theorem_rows[2] == theorem_rows[0]
    assert quotients[1] == quotients[0] and quotients[2] == quotients[0]


def test_user_pair_list_rows_skip_zero_distance_and_do_not_depend_on_workers():
    """A user's pair list with a zero-distance pair and a repeated pair: the
    zero-distance pair gets no row, the repeat gets its own substream, and
    the theorem rows and the Monte Carlo quotient are the same at 1, 2 and 8
    workers."""
    phi = functions.BallIndicator(np.zeros(3), 1.0)
    a, b = np.array([0.5, 0.0, 0.0]), np.array([0.75, 0.0, 0.0])
    pairs = [(a, b), (a, a.copy()), (a, b), (np.zeros(3), b)]
    theorem_rows, quotients = [], []
    for workers in (1, 2, 8):
        report = bounds.verify_main_theorem(
            HYDROGEN, phi, 0.5, 0.5, pairs=pairs, n_paths=128, seed=4,
            workers=workers,
        )
        theorem_rows.append(report.details["rows"])
        quotients.append(bounds.measured_holder_quotient_mc(
            HYDROGEN, phi, 0.5, 0.5, pairs, 128, 4, workers=workers
        ))
    rows = theorem_rows[0]
    assert len(rows) == 3
    assert [r["x"] for r in rows] == [a.tolist(), a.tolist(), [0.0, 0.0, 0.0]]
    assert rows[0]["lhs"] != rows[1]["lhs"]
    assert theorem_rows[1] == rows and theorem_rows[2] == rows
    assert quotients[1] == quotients[0] and quotients[2] == quotients[0]


def test_theorem_details_carry_the_witness_stderr_on_the_quotient_scale():
    """``stderr`` stays the largest raw pair stderr; ``witness_stderr`` is
    the witness pair's stderr over d^alpha ||Phi||, as _worst_pair gives it."""
    phi = functions.BallIndicator(np.zeros(3), 1.0)
    pairs = bounds.pair_grid_euclidean(E3, anchors=[np.zeros(3)], scale=1.0, k_max=2)
    check = bounds.verify_main_theorem(HYDROGEN, phi, 0.5, 0.5, pairs=pairs,
                                       n_paths=256, seed=5)
    rows = check.details["rows"]
    assert check.stderr == max(r["stderr"] for r in rows)
    x, y = check.details["witness"]
    (row,) = [r for r in rows if r["x"] == list(x) and r["y"] == list(y)]
    assert row["lhs"] / row["dist"] ** 0.5 == check.measured
    assert check.details["witness_stderr"] == row["stderr"] / row["dist"] ** 0.5
    v0 = bounds.verify_main_theorem(potentials.ZeroPotential(E1), functions.Sign(),
                                    0.5, 1.0)
    assert v0.details["witness_stderr"] == 0.0


def test_theorem_with_non_finite_weights_is_inconclusive():
    """A potential that is NaN beyond x_0 = 1 gives NaN weights on some
    pairs: the theorem check is inconclusive, not violated, and the ball's
    regression raises nothing."""
    class Holed(potentials.MolecularPotential):
        def __call__(self, pts):
            v = super().__call__(pts)
            return np.where(np.atleast_2d(pts)[:, 0] > 1.0, np.nan, v)

    phi = functions.BallIndicator(np.zeros(3), 1.0)
    pairs = [(np.array([0.25, 0.0, 0.0]), np.array([0.75, 0.0, 0.0]))]
    check = bounds.verify_main_theorem(Holed(1, [(0.0, 0.0, 0.0)], [1.0]), phi, 0.5,
                                       0.5, pairs=pairs, n_paths=256, seed=1)
    assert math.isnan(check.measured)
    assert check.verdict == "inconclusive"
