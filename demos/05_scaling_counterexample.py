"""Why the embedding cannot be upgraded: norm blow-up of concentrated generators.

Generators a = eps^(-1/q) 1_E with |E| = eps have unit L^q norm for every
eps, but the conjugate Schatten norm of their inverse transforms grows like
eps^(1/rho - 1/q) as eps shrinks, so no bound in terms of the L^q norm alone
is possible.  The subgroup-shaped sets realize the law exactly (their
transforms have flat singular spectra); spread-out shapes sit above the law,
and every shape must leave it past eps = 1, where the Hilbert-Schmidt lower
bound eps^(1/2 - 1/q) overtakes the prediction.
"""

from qsobolev.embedding import counterexample_run
from qsobolev.weyl import make_weyl_system

q, rho = 4.0, 8.0

dims = [8, 8, 8, 8, 16, 32, 64, 128, 256, 512, 1024]
sizes = [8, 4, 2, 1, 1, 1, 1, 1, 1, 1, 1]
report = counterexample_run([make_weyl_system(n) for n in dims], q, rho, "subgroup", sizes)
print(f"subgroup-shaped sweep, q={q:.0f}, rho={rho:.0f} (predicted slope {report['predicted_slope']:+.4f}):")
schatten_header = "||T||_S_rho'"
print(f"  {'N':>4s} {'|E|':>4s} {'eps':>9s} {'||a||_q':>9s} {schatten_header:>12s}")
for pt in report["points"]:
    print(f"  {pt['N']:4d} {pt['set_size']:4d} {pt['epsilon']:9.6f} {pt['sobolev_norm']:9.6f} "
          f"{pt['schatten_beta_norm']:12.8f}")
print(f"  fitted slope {report['fitted_slope']:+.12f} over {report['decades_spanned']:.2f} decades of measure")
print()

print("shape dependence at N=32 (same measures, different sets):")
for selector in ("subgroup", "lex", "ball"):
    systems = [make_weyl_system(32)] * 5
    sizes32 = [16, 8, 4, 2, 1]
    rep = counterexample_run(systems, q, rho, selector, sizes32)
    norms = ", ".join(f"{pt['schatten_beta_norm']:.4f}" for pt in rep["points"])
    print(f"  {selector:9s}: fitted slope {rep['fitted_slope']:+.6f} (norms {norms})")
print()
print("the fit is exact for the subgroup shape; segments and balls carry")
print("shape-dependent constants that drag the fitted slope off the prediction.")
