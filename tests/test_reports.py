"""Every harness returns the dict its report holds: key order and plain-JSON types.

The CLI writes a harness's dict as it is.  Its CSV report lists one row per
scalar in the dict's insertion order, so the key order of each harness is
pinned here.  The JSON report is written with plain ``json.dumps``, so a
numpy boolean or integer in a result would raise ``TypeError`` outside the
exit-code contract; every harness result and the result of every CLI
default must survive the round trip leaf for leaf.  A command's results are
one harness's dict, so each ends in the verdict the report's ``passed`` echoes.
"""

import csv
import json

import numpy as np
import pytest

from qsobolev import cli
from qsobolev.embedding import compute_exponents, counterexample_run, verify_embedding_chain
from qsobolev.qft import verify_hausdorff_young, verify_plancherel, verify_roundtrips
from qsobolev.sobolev import (
    SobolevSpec,
    make_weight_euclidean,
    nondegeneracy_check,
    pairing_bound_estimate,
    verify_duality,
    verify_norm_axioms,
)
from qsobolev.weyl import check_axioms, make_weyl_system


SYSTEM = make_weyl_system(4)
WEIGHT = make_weight_euclidean(SYSTEM.group)
SPEC = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=WEIGHT)

#: One small run of each harness.  The two that measure one report per sign
#: return a tuple of them.
HARNESS_RUNS = {
    "check_axioms": lambda: check_axioms(make_weyl_system(2)),
    "verify_plancherel": lambda: verify_plancherel(SYSTEM, 10, 0),
    "verify_roundtrips": lambda: verify_roundtrips(SYSTEM, 10, 0),
    # p = 1 gives q = inf, written as JSON's Infinity; endpoints and an interior
    # exponent give endpoint_consistency.
    "verify_hausdorff_young": lambda: verify_hausdorff_young(SYSTEM, (1.0, 4.0 / 3.0, 2.0), 10, 0),
    "verify_norm_axioms": lambda: verify_norm_axioms(SYSTEM, SPEC, 10, 0),
    "pairing_bound_estimate": lambda: pairing_bound_estimate(4.0, 1.0, WEIGHT, (-1, 1), 10, 0),
    "nondegeneracy_check": lambda: nondegeneracy_check(1.0, WEIGHT, (-1, 1)),
    "verify_duality": lambda: verify_duality(4.0, 1.0, WEIGHT, 10, 0),
    # alpha (q - 1) <= s: beta_alternate is None.
    "compute_exponents": lambda: compute_exponents(1.5, 4.0, 5.0),
    "verify_embedding_chain": lambda: verify_embedding_chain(SPEC, 4.0, "alternate", 10, 0),
    "counterexample_run": lambda: counterexample_run(
        [make_weyl_system(n) for n in (4, 4, 8)], 4.0, 8.0, "subgroup", [4, 1, 1]
    ),
}

#: The keys of each harness's report, in the order its CSV rows list them.
KEY_ORDER = {
    "check_axioms": ("N", "convention", "checks", "core_passed"),
    "verify_plancherel": ("worst_relative_deviation", "operator_roundtrip", "function_roundtrip", "passed"),
    "verify_roundtrips": ("operator_roundtrip", "function_roundtrip", "passed"),
    "verify_hausdorff_young": ("runs", "endpoint_consistency", "passed"),
    "verify_norm_axioms": (
        "N", "s", "p", "homogeneous", "trials", "seed", "worst_homogeneity_rel",
        "worst_triangle_excess", "triangle_violations", "worst_isometry_abs",
        "s_monotonicity_violations", "worst_s_monotonicity_excess", "hom_dominance_violations",
        "worst_hom_dominance_excess", "definiteness_violations", "passed",
    ),
    "pairing_bound_estimate": (
        "N", "p", "p_prime", "q_prime", "s", "sign", "trials", "seed", "skipped", "max_ratio",
        "analytic_bound", "satisfied",
    ),
    "nondegeneracy_check": ("N", "sign", "dimension", "rank", "full_rank", "deficiency", "min_eigenvalue"),
    "verify_duality": ("pairing", "nondegeneracy", "passed"),
    "compute_exponents": (
        "alpha", "q", "s", "sigma", "beta_corrected", "beta_alternate", "sigma_in_range",
        "beta_alternate_defined", "holder_identity_error", "passed",
    ),
    "verify_embedding_chain": (
        "N", "s", "p", "q", "alpha", "homogeneous", "sigma", "beta_choice", "beta_used",
        "beta_corrected", "beta_alternate", "multiplier_norm", "trials", "seed", "skipped",
        "violations", "link1_violations", "link2_violations", "max_ratio", "max_link1_ratio",
        "max_link2_ratio", "ratios_corrected", "ratios_alternate", "passed",
    ),
    "counterexample_run": (
        "q", "rho", "selector", "points", "fitted_slope", "predicted_slope", "decades_spanned",
        "normalization_ok", "strictly_increasing", "slope_within_tolerance", "passed",
    ),
}
#: The keys of the reports nested in a report, alone or in a list (``checks[i]``).
NESTED_KEY_ORDER = {
    "checks": ("axiom", "passed", "worst_deviation", "witness", "informational"),
    "points": ("N", "set_size", "epsilon", "sobolev_norm", "schatten_beta_norm"),
    "runs": (
        "p", "q", "direction", "trials", "seed", "worst_ratio", "witness_available", "witness_index",
        "skipped", "passed",
    ),
    "endpoint_consistency": ("endpoint_max", "interior_max", "endpoints_bound_interior"),
    "pairing": KEY_ORDER["pairing_bound_estimate"],
    "nondegeneracy": KEY_ORDER["nondegeneracy_check"],
}


def reports_of(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


def cli_default_results(command: str):
    """The results of one CLI command at its defaults, computed as ``cli.main`` does."""
    config = cli.resolve_config(cli.build_parser().parse_args([command]))
    with np.errstate(over="raise", invalid="raise"):
        return cli.COMMANDS[command].run(config)[0]


def test_every_harness_has_a_key_order():
    assert set(HARNESS_RUNS) == set(KEY_ORDER)


@pytest.mark.parametrize("harness", HARNESS_RUNS)
def test_report_keys_keep_their_order(harness):
    reports = reports_of(HARNESS_RUNS[harness]())
    assert reports
    for report in reports:
        assert tuple(report) == KEY_ORDER[harness]
        for name, keys in NESTED_KEY_ORDER.items():
            nested = report.get(name, ())
            for item in [nested] if isinstance(nested, dict) else nested:
                assert tuple(item) == keys


@pytest.mark.parametrize(
    "run",
    list(HARNESS_RUNS.values())
    + [lambda command=command: cli_default_results(command) for command in cli.COMMANDS],
    ids=list(HARNESS_RUNS) + [f"cli-{command}" for command in cli.COMMANDS],
)
def test_result_round_trips_through_plain_json(run):
    result = run()
    # No ``default=``: a numpy boolean or integer raises TypeError here.
    back = json.loads(json.dumps(result))
    assert list(cli.leaves(back)) == list(cli.leaves(result))


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_cli_results_end_in_the_reports_verdict(command, tmp_path, capsys):
    # The CSV lists the results in insertion order (the JSON sorts its keys).
    out = tmp_path / "report.json"
    assert cli.main([command, "--out", str(out), "--format", "both"]) == 0
    with open(out.with_suffix(".csv"), newline="") as fh:
        fields = [field for field, _ in csv.reader(fh) if field.startswith("results.")]
    key = "core_passed" if command == "axioms" else "passed"
    assert fields[-1] == f"results.{key}"
    report = json.loads(out.read_text())
    assert report["results"][key] is report["passed"]
