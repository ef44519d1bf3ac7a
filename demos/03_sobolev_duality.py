"""Weighted Sobolev norms of operators and the duality side of the construction.

The Sobolev norm weights the phase-space transform by a Bessel-style factor
and takes an L^q norm.  The negative-order side is generated by inverse
transforms of weighted generators; its pairing against Schatten operators is
bounded by an explicitly computable chained constant, and the delta-generated
family has full rank, so the pairing separates points.
"""

import numpy as np

from qsobolev.groups import lq_table_norm
from qsobolev.sobolev import (
    SobolevSpec,
    make_test_element,
    make_weight_euclidean,
    nondegeneracy_check,
    pairing_bound_estimate,
    sobolev_norm,
)
from qsobolev.weyl import make_weyl_system, weyl_operator

system = make_weyl_system(8)
weight = make_weight_euclidean(system.group)
print("euclidean weight gamma on the dual (symmetric representatives, +1 floor):")
print(np.array(weight.values).reshape(8, 8).round(2))
print()

spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight)
print(f"Sobolev norm (s=1, p=4/3, q={spec.q:.0f}) of some operators:")
for label, op in [
    ("identity", np.eye(8, dtype=complex)),
    ("shift pi(1,0)", np.asarray(weyl_operator(system, (1, 0)))),
    ("corner unit E_00", np.eye(8, dtype=complex)[:, [0]] @ np.eye(8)[[0], :]),
]:
    print(f"  {label:18s} {sobolev_norm(op, spec):10.6f}")
print()

# The dual side at p = 4: p' = 4/3, and the generator's norm is taken at q' = p = 4.
print("test family: W_phi = inverse transform of the weighted generator")
phi = np.eye(64)[0]  # the delta at the origin (0, 0), index 0 of the 64-point dual table
for sign in (+1, -1):
    top = make_test_element(system, 1.0, weight, phi, sign)[0, 0]
    norm = lq_table_norm(phi, 4.0, system.group.dual_mass)
    print(f"  sign {sign:+d}: delta at the origin gives W = {top:.4f} * I, defining norm {norm:.4f}")
print()

(bound,) = pairing_bound_estimate(system, p=4.0, s=1.0, weight=weight, signs=(-1,), trials=400, seed=5)
print(f"pairing ratios over 400 draws (p=4, s=1): max {bound['max_ratio']:.4f} "
      f"vs analytic bound {bound['analytic_bound']:.4f} -> satisfied: {bound['satisfied']}")

for N in (2, 4):
    small = make_weyl_system(N)
    w = make_weight_euclidean(small.group)
    (nd,) = nondegeneracy_check(small, 1.0, w, signs=(-1,))
    print(f"delta-family Gram rank at N={N}: {nd['rank']}/{nd['dimension']} (full rank: {nd['full_rank']})")
