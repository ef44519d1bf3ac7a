"""Exponent arithmetic and the two-link embedding chain, with both beta candidates.

The chain factors the transform through an intermediate exponent sigma with
1/sigma = 1/alpha + 1/q (weighted Hoelder), then applies the inverse norm
inequality at sigma.  That forces the Schatten target beta = sigma/(sigma-1);
a second alternate candidate beta = alpha q/(alpha(q-1) - s) is carried
alongside and simply measured, never asserted.
"""

from qsobolev.embedding import compute_exponents, verify_embedding_chain
from qsobolev.groups import PhaseSpaceGrid
from qsobolev.sobolev import SobolevSpec, make_weight_euclidean

print("exponent arithmetic for a few configurations:")
print(f"  {'alpha':>6s} {'q':>4s} {'s':>4s} {'sigma':>7s} {'in range':>9s} {'beta_corr':>10s} {'beta_alt':>11s}")
for alpha, q, s in [(4, 4, 1), (4, 4, 2), (2, 4, 1), (8, 3, 1), (1.5, 4, 5), (1e9, 4, 1)]:
    rep = compute_exponents(alpha, q, s)
    bp = f"{rep['beta_alternate']:.4f}" if rep["beta_alternate"] is not None else "undefined"
    bc = f"{rep['beta_corrected']:.4f}" if rep["beta_corrected"] is not None else "undefined"
    print(f"  {alpha:6.1f} {q:4.1f} {s:4.1f} {rep['sigma']:7.4f} {str(rep['sigma_in_range']):>9s} {bc:>10s} {bp:>11s}")
print()

weight = make_weight_euclidean(PhaseSpaceGrid(8))
print("chain measurements at N=8, s=1, p=4/3 (q=4), alpha=4, 400 draws:")
reports = {}
for homogeneous in (False, True):
    spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight, homogeneous=homogeneous)
    rep = reports[homogeneous] = verify_embedding_chain(spec, alpha=4.0, trials=400, seed=23)
    kind = "homogeneous " if homogeneous else "inhomogeneous"
    print(f"  {kind}: multiplier constant ||m||_alpha = {rep['multiplier_norm']:.6f}")
    print(f"    link 1 (exact Hoelder)   max ratio {rep['max_link1_ratio']:.6f}, violations {rep['link1_violations']}")
    print(f"    link 2 (norm inequality) max ratio {rep['max_link2_ratio']:.10f}, violations {rep['link2_violations']}")
    print(f"    composite vs constant    max ratio {rep['max_ratio']:.6f} <= {rep['multiplier_norm']:.6f}: "
          f"violations {rep['violations']}")
print()

rep = reports[False]
print(f"beta adjudication: corrected = {rep['beta_corrected']:.4f}, alternate candidate = {rep['beta_alternate']:.4f}")
print(f"  composite ratio distributions (both recorded): "
      f"max corrected {max(rep['ratios_corrected']):.4f}, max alternate {max(rep['ratios_alternate']):.4f}")
print(f"  at this size the alternate candidate stays below the constant too "
      f"({max(rep['ratios_alternate']):.4f} <= {rep['multiplier_norm']:.4f}); only the corrected one is provable.")
