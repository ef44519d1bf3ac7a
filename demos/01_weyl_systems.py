"""Build finite Weyl systems and inspect their multiplier identities.

The phase-space group Z_N x Z_N acts on C^N by cyclic shifts and modulations.
This script shows the operators at small N, reads the multiplier off
operator composition as the trace pairing tr(pi(x+y)^* pi(x) pi(y)) / N, and
prints the exhaustive identity report for both conventions, including the
N-dependent behavior of the two conjugation variants on inverses.
"""

import numpy as np

from qsobolev.weyl import check_axioms, make_weyl_system, weyl_operator

np.set_printoptions(precision=3, suppress=True, linewidth=120)

system = make_weyl_system(2)
print("N = 2, standard convention")
print("pi(1,0) (cyclic shift):")
print(weyl_operator(system, (1, 0)).real)
print("pi(0,1) (modulation):")
print(weyl_operator(system, (0, 1)).real)
print()

system = make_weyl_system(4)
shift, modulation, both = (weyl_operator(system, x) for x in ((1, 0), (0, 1), (1, 1)))
print("N = 4: composition pi(1,0) pi(0,1) picks up the phase", np.vdot(both, shift @ modulation) / 4)
print("while pi(0,1) pi(1,0) picks up             ", np.vdot(both, modulation @ shift) / 4)
print()

print("Identity report per convention (worst deviations over all pairs/triples):")
for N in (2, 3, 4):
    for convention in ("standard", "symmetric"):
        rep = check_axioms(make_weyl_system(N, convention))
        cells = []
        for check in rep.checks:
            flag = "ok" if check.passed else "VIOLATED"
            cells.append(f"{check.axiom}={flag}({check.worst_deviation:.1e})")
        print(f"  N={N} {convention:9s}: " + " ".join(cells))
print()
print("The conjugation identity on inverses m(x,y) = conj(m(-x,-y)) holds at")
print("N = 2 (all multipliers are real there) and fails from N = 3 on; the")
print("order-swapped variant conj(m(-y,-x)) instead holds for the symmetric")
print("convention at N = 2. Both rows are informational: no experiment in this")
print("package assumes either variant.")
