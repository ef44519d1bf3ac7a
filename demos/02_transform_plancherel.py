"""The phase-space transform: reconstruction, norm preservation, and inequalities.

With dual mass 1/N the transform is exactly unitary from Hilbert-Schmidt
operators to L^2 of the N^2-point dual, and the interpolated norm
inequalities hold with constant 1 in both directions.  This script measures
all of that on seeded random ensembles and prints the worst ratios.
"""

import numpy as np

from qsobolev.qft import (
    qft_forward,
    qft_inverse,
    verify_hausdorff_young,
    verify_plancherel,
    verify_roundtrips,
)
from qsobolev.streams import OperatorReads
from qsobolev.weyl import make_weyl_system

system = make_weyl_system(8)

reads = OperatorReads(8, 1)
reads.read(np.random.default_rng(1), 0)
T = reads.assemble()[0]
back = qft_inverse(system, qft_forward(T))
print(f"reconstruction residual on a random operator: {np.linalg.norm(back - T):.2e}")

print(f"worst Plancherel deviation over 300 draws:    {verify_plancherel(system, 300, 7)['worst_relative_deviation']:.2e}")
rts = verify_roundtrips(system, 200, 7)
print(f"worst round-trip residuals:                   "
      f"operator {rts['operator_roundtrip']:.2e}, function {rts['function_roundtrip']:.2e}")
print()

print("norm inequality ratios (must stay <= 1), 300 draws per cell:")
print(f"  {'p':>8s} {'q':>8s} {'forward':>12s} {'inverse':>12s}")
exponents = (1.0, 8.0 / 7.0, 4.0 / 3.0, 8.0 / 5.0, 2.0)
report = verify_hausdorff_young(system, exponents, 300, 11)
runs = report["runs"]  # per exponent: forward, inverse
for p, fwd, inv in zip(exponents, runs[::2], runs[1::2]):
    print(f"  {p:8.4f} {fwd['q']:8.4f} {fwd['worst_ratio']:12.8f} {inv['worst_ratio']:12.8f}")

# Both directions pooled, as the report holds it.
consistency = report["endpoint_consistency"]
print()
print(f"endpoint consistency (reported): interior max {consistency['interior_max']:.8f} "
      f"vs endpoint max {consistency['endpoint_max']:.8f}")
print("the p = 2 column is the unitary case; p = 1 forward is the operator-norm bound.")
