"""Numerical laboratory for quantum Sobolev spaces of Schatten-class operators.

Everything lives on finite models: the phase-space group ``Z_N x Z_N`` acts
on ``C^N`` through a Weyl system, operators transform to functions on the
N^2-point dual, and every norm, inequality, and counterexample becomes a
finite computation with measured constants.
"""

from .groups import PhaseFunction, PhaseSpaceGrid, l_q_norm, lq_table_norm, make_group
from .linalg import (
    as_operator,
    schatten_norm,
    singular_values,
    trace_pairing,
)
from .weyl import (
    AxiomCheck,
    AxiomReport,
    RepresentationError,
    WeylSystem,
    check_axioms,
    extract_multiplier,
    make_weyl_system,
    weyl_operator,
)
from .qft import (
    HausdorffYoungReport,
    conjugate_exponent,
    qft_forward,
    qft_inverse,
    verify_hausdorff_young,
    verify_plancherel,
    verify_roundtrips,
)
from .streams import random_operator, random_phase_function, replay, trial_rng
from .sobolev import (
    NondegeneracyReport,
    NormAxiomReport,
    PairingBoundReport,
    SobolevSpec,
    TestFamilyElement,
    Weight,
    make_test_element,
    make_weight_constant,
    make_weight_euclidean,
    nondegeneracy_check,
    pairing_analytic_bound,
    pairing_bound_estimate,
    phi_isometry_check,
    phi_map,
    sobolev_norm,
    verify_norm_axioms,
)
from .embedding import (
    CounterexamplePoint,
    CounterexampleReport,
    EmbeddingRunReport,
    ExponentReport,
    PreconditionError,
    SET_SELECTORS,
    compute_exponents,
    counterexample_run,
    multiplier_norm,
    verify_embedding_chain,
)

__version__ = "0.1.0"
