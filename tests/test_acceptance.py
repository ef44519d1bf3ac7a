"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 8's two-decade span sub-check is a strict expected failure:
with the stipulated dimensions the scaling law provably cannot cover two
decades of measure (see the criterion-8 tests for the obstruction), so the
assertion is marked xfail(strict) rather than silently loosened.
"""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from qsobolev.embedding import compute_exponents, counterexample_run, verify_embedding_chain
from qsobolev.groups import lq_table_norm, make_group
from qsobolev.linalg import schatten_norm, singular_values
from qsobolev.qft import (
    conjugate_exponent,
    qft_forward,
    qft_inverse,
    verify_hausdorff_young,
    verify_plancherel,
)
from qsobolev.sobolev import (
    SobolevSpec,
    make_weight_euclidean,
    nondegeneracy_check,
    pairing_bound_estimate,
    verify_norm_axioms,
)
from qsobolev.weyl import check_axioms, make_weyl_system, weyl_operator

from draw_oracles import operator_oracle
from transform_oracles import phi_isometry_check

SEED = 20240901


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_plancherel_unitarity():
    worst_dev = 0.0
    worst_rt = 0.0
    for N in (2, 4, 8):
        system = make_weyl_system(N)
        rts = verify_plancherel(system, 200, SEED)
        worst_dev = max(worst_dev, rts["worst_relative_deviation"])
        worst_rt = max(worst_rt, rts["operator_roundtrip"], rts["function_roundtrip"])
    report(
        1,
        "norm preservation and round-trip identity of the transform",
        worst_dev <= 1e-11 and worst_rt <= 1e-11,
        f"worst deviation {worst_dev:.2e}, worst round-trip {worst_rt:.2e}",
    )


def test_criterion_2_hausdorff_young():
    worst = 0.0
    for N in (4, 8):
        system = make_weyl_system(N)
        runs = verify_hausdorff_young(system, (1.0, 8.0 / 7.0, 4.0 / 3.0, 8.0 / 5.0, 2.0), 500, SEED)["runs"]
        assert {run["direction"] for run in runs} == {"forward", "inverse"}
        worst = max([worst] + [run["worst_ratio"] for run in runs])
        # Endpoint p = 1: exhaustive matrix-unit basis.
        for j in range(N):
            for k in range(N):
                E = np.zeros((N, N), dtype=complex)
                E[j, k] = 1.0
                ratio = lq_table_norm(qft_forward(E), math.inf, 1.0 / N) / schatten_norm(E, 1.0)
                worst = max(worst, ratio)
    report(
        2,
        "two-sided norm inequality at sampled and endpoint exponents",
        worst <= 1.0 + 1e-10,
        f"worst ratio - 1 = {worst - 1.0:.2e}",
    )


def test_criterion_3_weyl_system():
    worst_ortho = 0.0
    worst_comp = 0.0
    axiom3_rows = []
    for N in range(1, 9):
        for convention in ("standard", "symmetric"):
            system = make_weyl_system(N, convention)
            rows = {c["axiom"]: c for c in check_axioms(system)["checks"]}
            worst_ortho = max(worst_ortho, rows["trace_orthogonality"]["worst_deviation"])
            worst_comp = max(worst_comp, rows["composition"]["worst_deviation"])
            axiom3_rows.append(
                (
                    N,
                    convention,
                    rows["inverse_conjugation"]["passed"],
                    rows["inverse_conjugation_swapped"]["passed"],
                )
            )
    # The inverse-conjugation report must exist for both conventions; which
    # variant holds is informational, not gated.
    conventions_covered = {row[1] for row in axiom3_rows}
    report(
        3,
        "trace orthogonality and composition residuals, exhaustive N <= 8",
        worst_ortho <= 1e-11
        and worst_comp <= 1e-11
        and conventions_covered == {"standard", "symmetric"},
        f"orthogonality {worst_ortho:.2e}, composition {worst_comp:.2e}, "
        f"{len(axiom3_rows)} inverse-conjugation reports",
    )


def test_criterion_4_sobolev_norm_axioms():
    system = make_weyl_system(8)
    weight = make_weight_euclidean(system.group)
    spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight)
    rep = verify_norm_axioms(system, spec, trials=1000, seed=SEED)
    iso = phi_isometry_check(system, spec, trials=200, seed=SEED)
    ok = (
        rep["worst_homogeneity_rel"] <= 1e-12
        and rep["triangle_violations"] == 0
        and iso <= 1e-12
        and rep["worst_isometry_abs"] <= 1e-12
        and rep["s_monotonicity_violations"] == 0
        and rep["hom_dominance_violations"] == 0
        and rep["definiteness_violations"] == 0
    )
    report(
        4,
        "norm axioms, weighted-map isometry, and order relations",
        ok,
        f"homogeneity {rep['worst_homogeneity_rel']:.2e}, triangle excess "
        f"{rep['worst_triangle_excess']:.2e}, isometry {max(iso, rep['worst_isometry_abs']):.2e}",
    )


def test_criterion_5_duality():
    weight = make_weight_euclidean(make_group([8, 8]))
    ok = True
    details = []
    (pair,) = pairing_bound_estimate(p=4.0, s=1.0, weight=weight, signs=(-1,), trials=500, seed=SEED)
    ok = ok and pair["satisfied"]
    details.append(f"max ratio {pair['max_ratio']:.4f} vs bound {pair['analytic_bound']:.4f}")
    for N in (2, 4):
        for nd in nondegeneracy_check(1.0, make_weight_euclidean(make_group([N, N])), signs=(-1, 1)):
            ok = ok and nd["full_rank"]
    report(5, "pairing bound and full-rank delta test family", ok, "; ".join(details))


def test_criterion_6_embedding_chain():
    weight = make_weight_euclidean(make_group([8, 8]))
    ok = True
    details = []
    for homogeneous in (False, True):
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight, homogeneous=homogeneous)
        rep = verify_embedding_chain(spec, alpha=4.0, beta_choice="corrected", trials=500, seed=SEED)
        ok = (
            ok
            and rep["link1_violations"] == 0
            and rep["link2_violations"] == 0
            and rep["violations"] == 0
            and rep["max_ratio"] <= rep["multiplier_norm"] * (1.0 + 1e-10)
        )
        details.append(
            f"{'hom' if homogeneous else 'inhom'}: links ({rep['max_link1_ratio']:.4f}, "
            f"{rep['max_link2_ratio']:.6f}), composite {rep['max_ratio']:.4f} <= {rep['multiplier_norm']:.4f}"
        )
    report(6, "weighted Hoelder and norm-inequality chain with corrected exponent", ok, "; ".join(details))


def test_criterion_7_exponent_adjudication(tmp_path):
    weight = make_weight_euclidean(make_group([8, 8]))
    spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight)
    exponents = compute_exponents(4.0, spec.q, spec.s)
    assert exponents["beta_alternate"] != exponents["beta_corrected"]
    rep = verify_embedding_chain(spec, alpha=4.0, beta_choice="alternate", trials=500, seed=SEED)
    out = tmp_path / "beta_adjudication.json"
    out.write_text(json.dumps(rep, indent=2, sort_keys=True))
    stored = json.loads(out.read_text())
    identity_error = abs(1.0 / rep["sigma"] - (1.0 / 4.0 + 1.0 / spec.q))
    ok = (
        out.exists()
        and identity_error <= 1e-15
        and len(stored["ratios_corrected"]) == 500 - rep["skipped"]
        and len(stored["ratios_alternate"]) == len(stored["ratios_corrected"])
        and stored["beta_used"] == pytest.approx(16.0 / 11.0)
    )
    report(
        7,
        "both beta candidates measured and stored on a distinguishing configuration",
        ok,
        f"holder identity error {identity_error:.1e}, alternate-beta max ratio {rep['max_ratio']:.4f} "
        f"vs corrected {max(stored['ratios_corrected']):.4f}",
    )


def _acceptance_sweep():
    """Widest law-compliant sweep at the stipulated dimensions N in {8, 16, 32}.

    Measures above 1 are excluded on principle: the Hilbert-Schmidt lower
    bound ||T||_{S_rho'} >= eps^(1/2 - 1/q) crosses the predicted law
    eps^(1/rho - 1/q) at eps = 1, so points with eps > 1 cannot follow the
    law regardless of the set shape.  The subgroup shape realizes the law
    exactly at every point (flat singular spectra).
    """
    dims = [8, 8, 8, 8, 16, 32]
    sizes = [8, 4, 2, 1, 1, 1]
    systems = [make_weyl_system(n) for n in dims]
    return counterexample_run(systems, q=4.0, rho=8.0, set_selector="subgroup", set_sizes=sizes)


def test_criterion_8_counterexample_scaling():
    rep = _acceptance_sweep()
    norm_ok = all(abs(pt["sobolev_norm"] - 1.0) <= 1e-12 for pt in rep["points"])
    norms = [pt["schatten_beta_norm"] for pt in rep["points"]]
    monotone = all(b > a for a, b in zip(norms, norms[1:]))
    slope_ok = abs(rep["fitted_slope"] - rep["predicted_slope"]) <= 0.10 * abs(rep["predicted_slope"])
    ok = norm_ok and monotone and slope_ok and len(rep["points"]) >= 4
    report(
        8,
        "normalized generators, divergent conjugate Schatten norms, fitted slope",
        ok,
        f"slope {rep['fitted_slope']:.6f} vs {rep['predicted_slope']:.6f}, "
        f"{len(rep['points'])} points over {rep['decades_spanned']:.2f} decades",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Two decades of measure are unreachable at N in {8, 16, 32}: the sweep "
        "is confined to eps in [1/32, 1] (1.51 decades) because eps < 1/N is "
        "impossible with dual mass 1/N and eps > 1 provably violates the "
        "scaling law (Hilbert-Schmidt lower bound crosses it at eps = 1); "
        "two decades need N >= 100, see demos/05_scaling_counterexample.py."
    ),
)
def test_criterion_8_two_decade_span():
    rep = _acceptance_sweep()
    print(
        f"[criterion 8] span sub-check: {rep['decades_spanned']:.2f} decades "
        f"(infeasible at these dimensions; two decades need N >= 100)"
    )
    assert rep["decades_spanned"] >= 2.0


def test_criterion_9_kernel_oracle():
    worst_sv = 0.0
    for k in range(200):
        rng = np.random.default_rng([SEED, k])
        n = int(rng.integers(2, 9))
        T = operator_oracle(rng, n)
        s = singular_values(T)
        evals = np.linalg.eigvalsh(np.asarray(T).conj().T @ np.asarray(T))
        ref = np.sqrt(np.clip(evals, 0.0, None))[::-1]
        # The squared oracle cannot resolve below sqrt(machine eps) * top;
        # clear its own junk there (the kernel must produce clean zeros).
        if ref[0] > 0:
            ref[ref < 1e-7 * ref[0]] = 0.0
        worst_sv = max(worst_sv, float(np.max(np.abs(s - ref)) / max(ref[0], 1e-300)))
    holder_ok = True
    worst_excess = -math.inf
    for k in range(1000):
        rng = np.random.default_rng([SEED + 1, k])
        n = int(rng.integers(2, 9))
        A = operator_oracle(rng, n)
        B = operator_oracle(rng, n)
        r = float(rng.uniform(1.0, 4.0))
        u = float(rng.uniform(0.05, 0.95))
        lhs = schatten_norm(A @ B, r)
        rhs = schatten_norm(A, r / u) * schatten_norm(B, r / (1.0 - u))
        if rhs > 0:
            worst_excess = max(worst_excess, lhs / rhs - 1.0)
            holder_ok = holder_ok and lhs <= rhs * (1.0 + 1e-10)
    report(
        9,
        "singular-value oracle agreement and Schatten Hoelder inequality",
        worst_sv <= 1e-10 and holder_ok,
        f"worst sv deviation {worst_sv:.2e}, worst Hoelder excess {worst_excess:.2e}",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    args = [
        sys.executable,
        "-m",
        "qsobolev",
        "plancherel",
        "--N",
        "8",
        "--trials",
        "50",
        "--seed",
        "123",
        "--format",
        "both",
    ]
    blobs = []
    for _ in range(2):
        proc = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0
        blobs.append(
            (
                (tmp_path / "plancherel_report.json").read_text(),
                (tmp_path / "plancherel_report.csv").read_bytes(),
            )
        )
    scrub = lambda text: re.sub(r'"timestamp": "[^"]*"', "", text)
    ok = scrub(blobs[0][0]) == scrub(blobs[1][0]) and blobs[0][1] == blobs[1][1]
    report(10, "byte-identical consecutive CLI reports modulo timestamp", ok)
