"""The Weyl convention reaches a result only through the inverse transform.

A symmetric system changes each transform value by a factor of modulus 1
(``TestOperatorSumOracle`` in ``test_qft.py`` measures it), so a harness that
takes a system and reports only norms of ``F(T)`` gives the same report under
either convention.  The operator ``qft_inverse`` builds does depend on the
convention, so every harness that takes a system and inverse-transforms
rejects a symmetric system by name.  The duality calls and the embedding
chain take no system: they read their grid off the weight and always use
the standard one.
"""

import numpy as np
import pytest

from qsobolev.embedding import counterexample_run
from qsobolev.qft import qft_inverse, verify_hausdorff_young, verify_plancherel, verify_roundtrips
from qsobolev.sobolev import SobolevSpec, make_weight_euclidean, verify_norm_axioms
from qsobolev.weyl import make_weyl_system

from transform_oracles import phi_isometry_check


def _spec(system):
    return SobolevSpec(s=1.0, p=4.0 / 3.0, weight=make_weight_euclidean(system.group))


def _ones(system):
    return np.ones(system.group.size)


#: The harnesses that read norms of F(T) only.
FORWARD_ONLY = {
    "norm axioms": lambda system: verify_norm_axioms(system, _spec(system), 20, 5),
}

#: The harnesses that build operators with the inverse transform.
INVERSE = {
    "plancherel": lambda system: verify_plancherel(system, 5, 0),
    "roundtrips": lambda system: verify_roundtrips(system, 5, 0),
    "hausdorff-young": lambda system: verify_hausdorff_young(system, (1.0,), 5, 0),
    "counterexample": lambda system: counterexample_run([system, system], 2.0, 4.0, "lex", [2, 1]),
    "inverse transform": lambda system: qft_inverse(system, _ones(system)),
}


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("harness", FORWARD_ONLY)
def test_forward_only_harnesses_accept_either_convention(harness, N):
    run = FORWARD_ONLY[harness]
    assert run(make_weyl_system(N, "symmetric")) == run(make_weyl_system(N))


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("harness", INVERSE)
def test_inverse_harnesses_reject_a_symmetric_system(harness, N):
    with pytest.raises(ValueError, match="'symmetric'"):
        INVERSE[harness](make_weyl_system(N, "symmetric"))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8])
def test_no_norm_sees_the_convention(N):
    # The FFT route uses the standard system, the pairing route the symmetric
    # operators themselves; the weighted norms agree to rounding.
    system = make_weyl_system(N, "symmetric")
    assert phi_isometry_check(system, _spec(system), 20, 0) <= 1e-12
