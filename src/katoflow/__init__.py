"""Brownian couplings, Kato-class certificates and Feynman-Kac Monte Carlo
for Schrodinger-semigroup smoothing bounds on explicit model spaces."""

__version__ = "0.1.0"

from .spaces import StateSpace, euclidean, sphere2  # noqa: F401
from .paths import sample_paths_batch, bridge_midpoints  # noqa: F401
from .coupling import (  # noqa: F401
    simulate_reflection_endpoints,
    total_variation_gaussian,
    check_maximality,
    check_equivalence_ladder,
)
from .potentials import (  # noqa: F401
    Potential,
    CoulombPotential,
    MolecularPotential,
    KatoCertificate,
    kato_integral,
    classify_kato,
    load_molecule,
)
from .feynman_kac import (  # noqa: F401
    SemigroupEstimate,
    KhashminskiiCertificate,
    fk_evaluate,
    khashminskii_certify,
    duhamel_residual,
)
from .bounds import (  # noqa: F401
    f_K,
    holder_quotient,
    C_constant,
    A_constant,
    verify_main_theorem,
    corollary_B_constant,
)
from .reports import Check  # noqa: F401
