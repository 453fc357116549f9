"""The Gauss-Kronrod rule against QUADPACK: each deterministic integral of
katoflow, computed once by ``quadrature.integrate`` and once with that rule
replaced by ``scipy.integrate.quad`` on the same integrand and edges."""

import numpy as np
import pytest
from scipy import integrate

from katoflow import bounds, functions, potentials, quadrature, spaces
from katoflow.errors import PrecisionError

E1 = spaces.euclidean(1)
S2 = spaces.sphere2(1.0)
KATO_POTENTIALS = {
    "coulomb_attractive": potentials.CoulombPotential(),
    "coulomb_repulsive": potentials.CoulombPotential(attractive=False),
    "oscillator": potentials.OscillatorPotential(),
    "two_nuclei": potentials.MolecularPotential(
        1, [(0.0, 0.0, 0.0), (1.4, 0.0, 0.0)], [1.0, 2.0]
    ),
}


def _quadpack(f, edges):
    """The rule's integral by QUADPACK's adaptive 21-point rule, node by
    node, with the inner edges as breakpoints."""
    inner = list(edges[1:-1])
    val, _ = integrate.quad(
        lambda x: float(np.asarray(f(np.array([x])))[0]), edges[0], edges[-1],
        points=inner or None, epsabs=1e-12, epsrel=1e-10, limit=400,
    )
    return val


@pytest.fixture
def both(monkeypatch):
    """Evaluate a thunk with the rule, then with QUADPACK in its place."""

    def run(thunk):
        ours = thunk()
        with monkeypatch.context() as m:
            m.setattr(quadrature, "integrate", _quadpack)
            return ours, thunk()

    return run


@pytest.mark.parametrize("name", sorted(KATO_POTENTIALS))
def test_kato_integrals_match_quadpack(both, name):
    V = KATO_POTENTIALS[name]
    for alpha in (0.0, 0.25, 0.5, 0.75, 0.9):
        for t in (0.25, 0.5, 1.0):
            ours, ref = both(lambda: potentials.kato_integral(
                V, alpha, t, method="quadrature").details["candidate_values"])
            assert np.all(np.isfinite(ref))
            assert ours == pytest.approx(ref, rel=1e-12, abs=0.0), (alpha, t)


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("t", [0.01, 0.25, 1.0])
def test_sphere_moments_match_quadpack(both, order, t):
    ours, ref = both(lambda: spaces.exact_sphere_moment(S2, t, order))
    assert ours == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_heat_semigroup_of_sign_matches_quadpack(both):
    """Sign's jump at 0 is an initial edge; P_t sign(0) = 0 needs an
    absolute floor."""
    xs = np.array([-1.0, -0.2, 0.0, 0.4, 2.0])
    ours, ref = both(lambda: bounds.heat_semigroup_1d(0.6, functions.Sign(), xs))
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("t", [0.1, 1.0])
def test_total_mass_matches_quadpack(both, d, t):
    ours, ref = both(lambda: spaces.euclidean(d).total_mass(t))
    assert ours == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_chapman_kolmogorov_defect_matches_quadpack(both):
    """The defect is |integral - p(t+s, x, y)|, so the two integrals agree to
    1e-12 of that kernel value when the defects do."""
    x, y = np.array([0.2]), np.array([-0.4])
    ours, ref = both(lambda: spaces.chapman_kolmogorov_defect(E1, 0.3, 0.4, x, y))
    assert abs(ours - ref) <= 1e-12 * E1.heat_kernel(0.7, x, y)


def test_the_cap_raises_instead_of_returning_an_unconverged_value():
    """The integral of 1/x on (0, 1] diverges: each bisection towards 0 leaves
    the same error on the first interval, so the rule reaches its cap."""
    with pytest.raises(PrecisionError, match="intervals"):
        quadrature.integrate(lambda x: 1.0 / x, [0.0, 1.0])
