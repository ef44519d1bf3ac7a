import contextlib
import csv
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import qsobolev
from qsobolev import cli, embedding, qft, sobolev, weyl
from qsobolev.embedding import CHAIN_TOLERANCES
from qsobolev.groups import PhaseSpaceGrid
from qsobolev.weyl import AXIOM_TOLERANCES


def run_cli(args, cwd, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qsobolev", *args],
        cwd=cwd,
        env=full_env,
        capture_output=True,
        text=True,
    )


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


class TestSubcommands:
    def test_exponents_prints_and_passes(self, tmp_path):
        proc = run_cli(["exponents", "--alpha", "4", "--q", "4", "--s", "1"], tmp_path)
        assert proc.returncode == 0
        assert "sigma = 2.0" in proc.stderr
        assert proc.stdout.splitlines() == ["exponents: PASS (exponents_report.json)"]
        report = json.loads((tmp_path / "exponents_report.json").read_text())
        assert report["passed"] is True
        assert report["results"]["beta_alternate"] == pytest.approx(16.0 / 11.0)
        assert report["results"]["holder_identity_error"] <= 1e-15

    def test_axioms_passes_with_informational_failure(self, tmp_path):
        proc = run_cli(["axioms", "--N", "4", "--convention", "standard"], tmp_path)
        assert proc.returncode == 0
        report = json.loads((tmp_path / "axioms_report.json").read_text())
        checks = {c["axiom"]: c for c in report["results"]["checks"]}
        assert not checks["inverse_conjugation"]["passed"]
        assert checks["inverse_conjugation"]["informational"]
        assert checks["composition"]["passed"]
        assert report["passed"] is True

    def test_plancherel(self, tmp_path):
        proc = run_cli(
            ["plancherel", "--N", "4", "--trials", "20", "--seed", "42"], tmp_path
        )
        assert proc.returncode == 0
        report = json.loads((tmp_path / "plancherel_report.json").read_text())
        assert report["passed"] is True
        assert report["results"]["worst_relative_deviation"] <= 1e-11

    def test_hausdorff_young_fraction_exponents(self, tmp_path):
        proc = run_cli(
            ["hausdorff-young", "--N", "4", "--p", "1,8/7,2", "--trials", "10", "--seed", "1"],
            tmp_path,
        )
        assert proc.returncode == 0
        report = json.loads((tmp_path / "hausdorff_young_report.json").read_text())
        ps = {round(run["p"], 6) for run in report["results"]["runs"]}
        assert ps == {1.0, round(8.0 / 7.0, 6), 2.0}
        assert len(report["results"]["runs"]) == 6  # three exponents, two directions

    def test_sobolev_norms(self, tmp_path):
        proc = run_cli(
            ["sobolev-norms", "--N", "4", "--trials", "20", "--seed", "0"], tmp_path
        )
        assert proc.returncode == 0

    def test_pairing(self, tmp_path):
        proc = run_cli(["pairing", "--N", "4", "--trials", "20"], tmp_path)
        assert proc.returncode == 0
        report = json.loads((tmp_path / "pairing_report.json").read_text())
        assert len(report["results"]["pairing"]) == 2  # both signs
        assert all(nd["full_rank"] for nd in report["results"]["nondegeneracy"])

    def test_pairing_notes_the_skipped_rank_check(self, tmp_path, capsys):
        out = tmp_path / "pairing_report.json"
        assert cli.main(["pairing", "--N", "17", "--trials", "5", "--out", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr.splitlines() == [
            "nondegeneracy rank check skipped: it runs only at N <= 16, got N = 17"
        ]
        assert stdout.splitlines() == [f"pairing: PASS ({out})"]
        results = json.loads(out.read_text())["results"]
        assert results["nondegeneracy"] == [] and len(results["pairing"]) == 2
        assert cli.main(["pairing", "--N", "8", "--trials", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(json.loads(out.read_text())["results"]["nondegeneracy"]) == 2

    def test_pairing_checks_the_rank_up_to_the_cap(self, tmp_path, capsys):
        out = tmp_path / "pairing_report.json"
        assert cli.main(["pairing", "--N", "16", "--trials", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        ranks = json.loads(out.read_text())["results"]["nondegeneracy"]
        assert [(nd["sign"], nd["rank"], nd["full_rank"]) for nd in ranks] == [(-1, 256, True), (1, 256, True)]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_embed(self, tmp_path):
        proc = run_cli(["embed", "--N", "4", "--trials", "20", "--p", "4/3"], tmp_path)
        assert proc.returncode == 0
        report = json.loads((tmp_path / "embed_report.json").read_text())
        assert report["results"]["link1_violations"] == 0

    def test_counterexample_csv_rows(self, tmp_path):
        proc = run_cli(
            [
                "counterexample",
                "--N",
                "8,8,16",
                "--sizes",
                "4,1,1",
                "--format",
                "both",
            ],
            tmp_path,
        )
        assert proc.returncode == 0
        with open(tmp_path / "counterexample_report.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["field", "value"]
        cells = dict(rows)
        points = [cells[f"results.points[{k}].N"] for k in range(3)]
        assert points == ["8", "8", "16"]
        assert [cells[f"results.points[{k}].set_size"] for k in range(3)] == ["4", "1", "1"]
        assert not any(field.startswith("results.points[3]") for field in cells)

    @pytest.mark.parametrize(
        "argv",
        [
            ["hausdorff-young", "--N", "4", "--trials", "10", "--p", "1.5"],
            ["embed", "--N", "4", "--trials", "10", "--homogeneous", "--beta-choice", "alternate"],
            ["counterexample", "--selector", "ball"],
            ["pairing", "--N", "16", "--trials", "5"],
        ],
    )
    def test_non_default_paths_write_plain_json(self, argv, monkeypatch, tmp_path):
        # The report is written with plain ``json.dumps``: a numpy scalar that
        # is not a float (numpy.bool_, numpy.int64) raises instead of being
        # written as a string.  The ball selector misses the predicted slope
        # at the default sizes, so that run fails its verdict and exits 1.
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code = cli.main(argv + ["--format", "both"])
        assert code == (1 if "ball" in argv else 0)
        stem = argv[0].replace("-", "_") + "_report"
        report = json.loads((tmp_path / f"{stem}.json").read_text())
        assert report["passed"] is (code == 0)
        assert (tmp_path / f"{stem}.csv").read_text().count("\n") >= 2


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 4\ntrials = 10\nseed = 7  # fixed seed\n")
        proc = run_cli(
            ["plancherel", "--config", str(cfg), "--trials", "15"], tmp_path
        )
        assert proc.returncode == 0
        report = json.loads((tmp_path / "plancherel_report.json").read_text())
        assert report["config"]["N"] == 4
        assert report["config"]["trials"] == 15  # flag wins
        assert report["config"]["seed"] == 7

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana = 3\n")
        proc = run_cli(["plancherel", "--config", str(cfg)], tmp_path)
        assert proc.returncode == 2

    def test_invalid_parameter_exits_2(self, tmp_path):
        proc = run_cli(["pairing", "--N", "4", "--p", "2"], tmp_path)
        assert proc.returncode == 2
        assert "invalid configuration" in proc.stderr

    def test_precondition_failure_exits_2(self, tmp_path):
        proc = run_cli(["embed", "--N", "4", "--alpha", "1e9"], tmp_path)
        assert proc.returncode == 2
        assert "sigma" in proc.stderr

    def test_unknown_tolerance_exits_2(self, tmp_path):
        proc = run_cli(["plancherel", "--N", "4", "--tol", "bogus=1"], tmp_path)
        assert proc.returncode == 2

    def test_unknown_command_exits_2(self, tmp_path):
        proc = run_cli(["frobnicate"], tmp_path)
        assert proc.returncode == 2

    def test_output_dir_env(self, tmp_path):
        outdir = tmp_path / "reports"
        proc = run_cli(
            ["exponents"],
            tmp_path,
            env={"QSOBOLEV_OUTPUT_DIR": str(outdir)},
        )
        assert proc.returncode == 0
        assert (outdir / "exponents_report.json").exists()

    def test_explicit_out_path(self, tmp_path):
        target = tmp_path / "custom" / "run.json"
        proc = run_cli(["exponents", "--out", str(target)], tmp_path)
        assert proc.returncode == 0
        assert target.exists()

    def test_both_formats_at_a_csv_path_are_rejected(self, monkeypatch, tmp_path, capsys):
        # The JSON would go to r.csv and the CSV would then overwrite it.
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "r.csv"
        assert cli.main(["exponents", "--out", str(target), "--format", "both"]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and str(target) in stderr
        assert stderr.startswith("invalid configuration: out:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "out, fmt, written",
        [
            ("r.json", "both", ["r.csv", "r.json"]),
            ("r", "both", ["r", "r.csv"]),
            ("r.csv", "csv", ["r.csv"]),
            ("r.csv", "json", ["r.csv"]),
        ],
    )
    def test_distinct_report_paths_are_accepted(self, out, fmt, written, monkeypatch, tmp_path, capsys):
        # Only --format both at a .csv path puts two reports on one path.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["exponents", "--out", out, "--format", fmt]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == written
        if fmt != "csv":
            assert json.loads((tmp_path / out).read_text())["command"] == "exponents"


class TestExitCodes:
    def test_assertion_failure_exits_1_with_report(self, tmp_path):
        proc = run_cli(
            ["plancherel", "--N", "4", "--trials", "5", "--tol", "deviation=0"],
            tmp_path,
        )
        assert proc.returncode == 1
        report = json.loads((tmp_path / "plancherel_report.json").read_text())
        assert report["passed"] is False

    def test_inconsistent_composition_exits_1_with_report(self, monkeypatch, tmp_path, capsys):
        # check_axioms measures a broken composition and reports it; nothing raises.
        import qsobolev.weyl

        original = qsobolev.weyl.weyl_operator

        def corrupted(system, point):
            op = original(system, point)
            return 0.5 * op if tuple(point) == (1, 0) else op

        monkeypatch.setattr(qsobolev.weyl, "weyl_operator", corrupted)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["axioms"]) == 1
        assert capsys.readouterr().out.startswith("axioms: FAIL")
        report = json.loads((tmp_path / "axioms_report.json").read_text())
        checks = {c["axiom"]: c for c in report["results"]["checks"]}
        assert not checks["composition"]["passed"]
        assert checks["composition"]["worst_deviation"] > 1.0
        assert report["results"]["core_passed"] is False
        assert report["passed"] is False

    def test_kernel_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        # At the LAPACK call itself, so every module's route to the SVD fails.
        monkeypatch.setattr(np.linalg, "svd", explode)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["hausdorff-young", "--N", "4", "--trials", "3"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "kernel" in err
        assert "invalid configuration" not in err

    def test_dual_exponent_rounding_to_one_exits_2(self, monkeypatch, tmp_path, capsys):
        # p / (p - 1) rounds to 1.0 at p = 1e308: the message names both values.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["pairing", "--N", "4", "--trials", "3", "--p", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert "1e+308" in err and "1.0" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha, key", [("1e308", "beta_corrected")])
    def test_nan_result_exits_3_without_report(self, alpha, key, monkeypatch, tmp_path, capsys):
        # Every exponent is finite at 1e308, so a kernel returning a NaN
        # beta_corrected stands in for a numerical failure.
        real = cli.compute_exponents
        monkeypatch.setattr(cli, "compute_exponents",
                            lambda *args: real(*args) | {"beta_corrected": math.nan})
        monkeypatch.chdir(tmp_path)
        assert cli.main(["exponents", "--alpha", alpha]) == 3
        err = capsys.readouterr().err
        assert f"results.{key} is NaN" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["sobolev-norms", "pairing"])
    def test_multiplier_overflow_exits_3_without_report(self, command, tmp_path):
        proc = run_cli([command, "--N", "4", "--trials", "3", "--s", "1e308"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical kernel failure:") and "overflowed" in proc.stderr
        assert proc.stderr.count("\n") == 1  # no RuntimeWarning lines
        assert not list(tmp_path.iterdir())

    def test_gram_beyond_float_range_is_reported(self, monkeypatch, tmp_path, capsys):
        # At N = 8 the sign +1 Gram entries (34^125 / 8)^2 would overflow; the
        # least eigenvalue N (2^125 / N)^2 = 2^247 is read off the row-scaled Gram.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["pairing", "--trials", "3", "--s", "250"]) == 0
        assert capsys.readouterr().err == ""
        results = json.loads((tmp_path / "pairing_report.json").read_text())["results"]
        (plus,) = [nd for nd in results["nondegeneracy"] if nd["sign"] == 1]
        assert plus["full_rank"] and plus["min_eigenvalue"] == pytest.approx(2.0**247, rel=1e-14)

    @pytest.mark.parametrize("argv", [["embed", "--N", "4", "--s", "616"],
                                      ["sobolev-norms", "--N", "4", "--s", "308"],
                                      ["pairing", "--N", "4", "--s", "616"]], ids=" ".join)
    def test_weighted_table_overflow_is_one_line(self, argv, monkeypatch, tmp_path, capsys):
        # The multiplier (10^308 at the corner of the N = 4 grid) is finite; its
        # product with a transform or a generator of modulus above 1.8 is not.
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err == "numerical kernel failure: overflow encountered in multiply\n"
        assert not list(tmp_path.iterdir())


MAX, TINY = sys.float_info.max, math.ulp(0.0)
ABOVE_ONE, BELOW_TWO = math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0)
ABOVE_TWO = math.nextafter(2.0, 3.0)
EMBED = ["embed", "--N", "2", "--trials", "3"]
SMALL = ["--N", "2", "--trials", "3"]
#: The run each command's extreme values are put into, at N <= 4 and trials <= 3.
BASES = {
    "exponents": ["exponents"],
    "embed": EMBED,
    "axioms": ["axioms", "--N", "2"],
    "plancherel": ["plancherel", *SMALL],
    "hausdorff-young": ["hausdorff-young", *SMALL],
    "sobolev-norms": ["sobolev-norms", *SMALL],
    "pairing": ["pairing", *SMALL],
    "counterexample": ["counterexample", "--N", "2,4", "--sizes", "1,1"],
}
MULTIPLIER_OVERFLOWS = "the order-s Sobolev multiplier (1 + gamma^2)^(s/2) overflows"


def extreme_cases():
    """(argv, the parameter given, why exit 3 is right or None) for each extreme input.

    The values are the smallest and largest finite ones, one ulp inside each
    open bound, and fraction forms; ``--N`` stays at most 4 and ``--trials``
    at most 3, apart from the overflow boundaries listed last.
    """
    overflow = {
        ("embed", "s", MAX): MULTIPLIER_OVERFLOWS,
        ("sobolev-norms", "s", MAX): MULTIPLIER_OVERFLOWS,
        ("pairing", "s", MAX): MULTIPLIER_OVERFLOWS,
    }
    reals = {"alpha": (TINY, "1e-320", "1/3", "8/2", "1e308", MAX), "s": (TINY, "1/2", MAX)}
    counts = {"N": (1, 4), "trials": (1, 3), "seed": (0, 2**128)}
    values = {
        "exponents": reals | {"q": (ABOVE_ONE, "4/3", "1e308", MAX)},
        "embed": reals | {"p": (ABOVE_ONE, "5/4", "4/3", BELOW_TWO)} | counts,
        "axioms": {"N": (1, 4)},
        "plancherel": counts,
        "hausdorff-young": counts | {"p": ("1e-300", 1, ABOVE_ONE, "8/7", BELOW_TWO, 2, ABOVE_TWO, MAX)},
        "sobolev-norms": counts | {"s": (0, TINY, "1/2", MAX), "p": (ABOVE_ONE, "4/3", BELOW_TWO)},
        "pairing": counts | {"s": ("-1e308", -1, 0, TINY, "1/2", MAX),
                             "p": (ABOVE_TWO, "4", "1e300", "1e308", MAX)},
        # One ulp inside the open bounds q < rho (default 8) and rho > q (default 4).
        "counterexample": {"N": ("1,4", "4,4"), "sizes": ("2,1", "1,4", "1,2"),
                           "q": (1, "4/3", math.nextafter(8.0, 0.0), MAX),
                           "rho": (math.nextafter(4.0, 5.0), "1e308", MAX)},
    }
    for command, params in values.items():
        for name, choices in params.items():
            for value in choices:
                flags = [f"--{name}", str(value)]
                yield pytest.param(BASES[command] + flags, name, overflow.get((command, name, value)),
                                   id=" ".join([command, *flags]))
    for flags in (["--alpha", "1e300", "--q", "1e300"], ["--alpha", str(MAX), "--q", str(MAX), "--s", str(MAX)]):
        yield pytest.param(["exponents", *flags], "alpha", None, id=" ".join(["exponents", *flags]))
    for flags in (["--q", "1", "--rho", str(ABOVE_ONE)], ["--q", "1", "--rho", "1e308"]):
        yield pytest.param(BASES["counterexample"] + flags, "rho", None, id=" ".join(["counterexample", *flags]))
    # The sign +1 Gram of the test family lies beyond the float range here,
    # its least eigenvalue and rank do not.
    for flags in (["--N", "8", "--s", "250"], ["--N", "4", "--s", "400"], ["--N", "4", "--s", "612"],
                  ["--N", "4", "--s", "616"]):
        yield pytest.param(BASES["pairing"] + flags, "s", None, id=" ".join(["pairing", *flags]))
    # A multiplier, or its product with a transform, overflows although every
    # reported field is a representable ratio or count: the order-2s norm of
    # the s-monotonicity check, and the weighted transform at the default trials.
    for base, s, why in ((BASES["sobolev-norms"], "400", "the order-2s multiplier overflows"),
                         (["embed"], "616", "the weighted transform overflows"),
                         (["sobolev-norms"], "308", "the weighted transform overflows")):
        flags = ["--N", "4", "--s", s]
        yield pytest.param(base + flags, "s", None, id=" ".join([base[0], *flags]),
                           marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason=f"exits 3: {why}"))


def finite_floats(value) -> bool:
    """No NaN and no infinity, apart from the exact ``q = inf`` conjugate to ``p = 1``."""
    if isinstance(value, dict):
        exact = {"q"} if value.get("p") == 1.0 and value.get("q") == math.inf else set()
        return all(finite_floats(item) for key, item in value.items() if key not in exact)
    if isinstance(value, list):
        return all(finite_floats(item) for item in value)
    return not isinstance(value, float) or math.isfinite(value)


class TestExtremeInputs:
    @pytest.mark.parametrize("argv, name, unrepresentable", list(extreme_cases()))
    def test_extreme_value_ends_in_a_documented_exit(self, argv, name, unrepresentable,
                                                     monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.main(argv)
        err = capsys.readouterr().err
        if code in (0, 1):
            report = json.loads((tmp_path / f"{argv[0].replace('-', '_')}_report.json").read_text())
            assert finite_floats(report["results"]), report["results"]
        elif code == 2:
            assert err.startswith("invalid configuration:") and err.count("\n") == 1
            assert re.search(rf"\b{name}\b", err), err
        else:
            assert code == 3 and unrepresentable is not None, err
            assert err.startswith("numerical kernel failure:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, sigma",
        [(["--alpha", "1e308"], 4.0), (["--q", "1e308"], 4.0), (["--alpha", "1e300", "--q", "1e300"], 5e299)],
    )
    def test_huge_exponents_give_finite_sigma(self, argv, sigma, monkeypatch, tmp_path, capsys):
        # sigma = alpha q / (alpha + q) is finite although alpha q overflows.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["exponents", *argv]) == 0
        results = json.loads((tmp_path / "exponents_report.json").read_text())["results"]
        assert results["sigma"] == pytest.approx(sigma, rel=1e-15)
        assert finite_floats(results)

    def test_holder_identity_holds_at_every_scale(self, monkeypatch, tmp_path, capsys):
        # |sigma/alpha + sigma/q - 1| is measured relative to 1, so a true
        # identity passes however large 1/sigma is.
        monkeypatch.chdir(tmp_path)
        for alpha in ["0.1", "0.01", "1e-3", *(f"1e{k}" for k in range(-300, 301, 25))]:
            assert cli.main(["exponents", "--alpha", alpha]) == 0, alpha
            results = json.loads((tmp_path / "exponents_report.json").read_text())["results"]
            assert results["holder_identity_error"] <= 1e-15 and finite_floats(results), alpha

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="the order -s multiplier underflows to 0 on part of the grid, so the rank "
                              "reads short; ROADMAP item 6")
    @pytest.mark.parametrize("N, s", [("8", "616"), ("16", "400")])
    def test_underflowing_multiplier_keeps_full_rank(self, N, s):
        # The delta family's Gram is diag(N (m/N)^2), full rank in exact arithmetic.
        # The library call: at this s the +1 sign's multiplier overflows, so
        # ``pairing``, which runs both signs, exits 3 before the rank check.
        weight = sobolev.make_weight_euclidean(PhaseSpaceGrid(int(N)))
        (nondegeneracy,) = sobolev.nondegeneracy_check(float(s), weight, (-1,))
        assert nondegeneracy["full_rank"]

    def test_huge_alpha_names_the_finite_sigma(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(EMBED + ["--alpha", "1e308"]) == 2
        err = capsys.readouterr().err
        sigma = float(re.search(r"sigma = (\S+) for", err).group(1))
        assert sigma == pytest.approx(4.0, rel=1e-15)


#: A run that passes at the default tolerances and fails at ``value``, per
#: tolerance of every command.  ``isometry`` flips only below 0: its field is
#: 0 by construction (ROADMAP item 2).
TOLERANCE_FLIPS = [
    *((["axioms", "--N", "2"], name, "-1") for name in AXIOM_TOLERANCES),
    *((EMBED, name, "-1") for name in CHAIN_TOLERANCES),
    (["sobolev-norms", "--N", "2", "--trials", "3"], "triangle", "-1"),
    (["pairing", "--N", "2", "--trials", "3"], "pairing_slack", "-1"),
    (["pairing", "--N", "2", "--trials", "3"], "rank", "2"),
    (["plancherel", *SMALL], "deviation", "-1"),
    (["plancherel", *SMALL], "roundtrip", "-1"),
    (["hausdorff-young", *SMALL], "ratio_slack", "-1"),
    (["sobolev-norms", *SMALL], "homogeneity", "-1"),
    (["sobolev-norms", *SMALL], "isometry", "-1"),
    (["exponents"], "identity", "-1"),
    (["counterexample"], "normalization", "-1"),
    (["counterexample"], "slope_rel", "-1"),
]


def verdict(result: dict) -> bool:
    """A command harness's verdict: its ``passed``, or ``core_passed`` for ``check_axioms``."""
    (key,) = {"passed", "core_passed"} & set(result)
    return result[key]


def record_harness_calls(monkeypatch) -> list:
    """Spy on every harness the CLI calls: each call appends a rerun of it under a given mapping."""
    reruns = []
    for harness, _ in TOLERANCE_HARNESSES:
        if getattr(cli, harness.__name__, None) is not harness:
            continue  # verify_roundtrips: no command calls it

        def spy(*args, harness=harness, **kwargs):
            arguments = inspect.signature(harness).bind(*args, **kwargs).arguments
            reruns.append(lambda tolerances: harness(**arguments | {"tolerances": tolerances}))
            return harness(*args, **kwargs)

        monkeypatch.setattr(cli, harness.__name__, spy)
    return reruns


class TestToleranceWiring:
    @pytest.mark.parametrize("argv, name, value", TOLERANCE_FLIPS, ids=[f[1] for f in TOLERANCE_FLIPS])
    def test_tolerance_reaches_its_gate(self, argv, name, value, monkeypatch, tmp_path, capsys):
        # The exit code follows the harnesses' verdict in the report, and a
        # library call under the same mapping reaches the same verdict.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / f"{argv[0].replace('-', '_')}_report.json"
        assert cli.main(argv) == 0
        assert verdict(json.loads(path.read_text())["results"]) is True
        reruns = record_harness_calls(monkeypatch)
        assert cli.main(argv + ["--tol", f"{name}={value}"]) == 1
        report = json.loads(path.read_text())
        assert report["config"]["tolerances"][name] == float(value)
        assert verdict(report["results"]) is False
        flipped = dict(cli.COMMANDS[argv[0]].tolerances) | {name: float(value)}
        assert reruns and all(verdict(rerun(flipped)) for rerun in reruns) is False

    def test_every_tolerance_has_a_flip(self):
        flipped = [(argv[0], name) for argv, name, _ in TOLERANCE_FLIPS]
        assert sorted(flipped) == sorted(
            (command, name) for command, spec in cli.COMMANDS.items() for name in spec.tolerances
        )


#: Each harness that applies a ``--tol`` name, with the command whose table holds it.
TOLERANCE_HARNESSES = [
    (weyl.check_axioms, "axioms"),
    (qft.verify_plancherel, "plancherel"),
    (qft.verify_roundtrips, "plancherel"),
    (qft.verify_hausdorff_young, "hausdorff-young"),
    (sobolev.verify_norm_axioms, "sobolev-norms"),
    (sobolev.verify_duality, "pairing"),
    (sobolev.pairing_bound_estimate, "pairing"),
    (sobolev.nondegeneracy_check, "pairing"),
    (embedding.compute_exponents, "exponents"),
    (embedding.verify_embedding_chain, "embed"),
    (embedding.counterexample_run, "counterexample"),
]
SEEDED_HARNESSES = [
    qft.verify_plancherel,
    qft.verify_roundtrips,
    qft.verify_hausdorff_young,
    sobolev.verify_norm_axioms,
    sobolev.verify_duality,
    sobolev.pairing_bound_estimate,
    embedding.verify_embedding_chain,
]


def public_functions():
    """Every public function of every module of the package, and every public method of its classes."""
    path = Path(qsobolev.__file__).parent
    for module_path in sorted(path.glob("[!_]*.py")):
        module = importlib.import_module(f"qsobolev.{module_path.stem}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                yield from (
                    (f"{name}.{attr}", method) for attr, method in vars(value).items()
                    if inspect.isfunction(method) and not attr.startswith("_")
                )
            elif inspect.isfunction(value):
                yield name, value


class TestHarnessInterface:
    """One way into every harness: one tolerance mapping each, and no hidden trial count or seed."""

    @pytest.mark.parametrize("harness, command", TOLERANCE_HARNESSES,
                             ids=[h.__name__ for h, _ in TOLERANCE_HARNESSES])
    def test_gated_harness_takes_one_mapping_of_its_commands_names(self, harness, command):
        default = inspect.signature(harness).parameters["tolerances"].default
        assert isinstance(default, MappingProxyType)
        assert set(default) <= set(cli.COMMANDS[command].tolerances)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_command_holds_no_tolerance_of_its_own(self, command):
        # Every --tol name, with its default and in its order, is a key of a harness constant.
        defaults = [inspect.signature(harness).parameters["tolerances"].default
                    for harness, name in TOLERANCE_HARNESSES if name == command]
        union = {key: value for default in defaults for key, value in default.items()}
        assert defaults and list(cli.COMMANDS[command].tolerances.items()) == list(union.items())

    def test_no_public_function_takes_a_scalar_tolerance(self):
        functions = dict(public_functions())
        assert {h.__name__ for h, _ in TOLERANCE_HARNESSES} <= set(functions)  # the walk reaches them
        found = [
            f"{name}({parameter})" for name, function in functions.items()
            for parameter in inspect.signature(function).parameters
            if parameter == "tolerance" or parameter.endswith("_tol")
        ]
        assert found == []

    @pytest.mark.parametrize("harness", SEEDED_HARNESSES, ids=[h.__name__ for h in SEEDED_HARNESSES])
    def test_seeded_harness_has_no_default_before_its_tolerances(self, harness):
        parameters = list(inspect.signature(harness).parameters.values())
        names = [parameter.name for parameter in parameters]
        required = parameters[: names.index("tolerances")] if "tolerances" in names else parameters
        assert [p.name for p in required if p.default is not inspect.Parameter.empty] == []

    def test_a_weight_fixes_the_grid(self):
        # A function given a weight or a spec reads N off it; only verify_norm_axioms
        # still takes a system beside its spec, and checks that the two agree.
        both = []
        for name, function in public_functions():
            annotations = {p.annotation for p in inspect.signature(function).parameters.values()}
            if annotations & {"Weight", "SobolevSpec"} and "WeylSystem" in annotations:
                both.append(name)
        assert both == ["verify_norm_axioms"]

    @pytest.mark.parametrize("function", [sobolev.make_test_element, sobolev.pairing_analytic_bound,
                                          sobolev.pairing_bound_estimate, sobolev.nondegeneracy_check])
    def test_no_duality_call_defaults_its_sign(self, function):
        parameters = inspect.signature(function).parameters
        sign = parameters["sign"] if "sign" in parameters else parameters["signs"]
        assert sign.default is inspect.Parameter.empty


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["exponents", "--q", "1/0"],
            ["exponents", "--q", "inf"],
            ["counterexample", "--rho", "1e309"],
        ],
        ids=["zero-denominator", "infinite-flag", "overflowing-flag"],
    )
    def test_non_finite_real_exits_2(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # no report, so no NaN or false PASS

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in [
                (["pairing", "--s", "-1e308"], "smoothness s must be nonnegative, got -1e+308"),
                (["embed", "--s", "-1e-3"], "smoothness s must be nonnegative, got -0.001"),
                (["exponents", "--alpha", "-1e-3"], "alpha must be positive, got -0.001"),
                (["exponents", "--q", "-.5"], "q must exceed 1, got -0.5"),
                (["pairing", "--s", "-1/2"], "smoothness s must be nonnegative, got -0.5"),
            ]
        ],
    )
    def test_negative_number_reaches_its_parameter(self, argv, message, monkeypatch, tmp_path, capsys):
        # argparse's own pattern (Python 3.10-3.12) reads -1e308, -1e-3 and -1/2 as flags.
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert message in err, err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["embed", "--beta-choice", "alternate", "--s", "5", "--alpha", "1.5"],
             "hypothesis alpha (q - 1) > s fails: alpha=1.5, q=4.000000000000001, s=5.0"),
            (["counterexample", "--N", "8,16", "--sizes", "8"],
             "set sizes must list one size per system, got 1 for 2"),
            (["counterexample", "--q", "0.5"], "normalization exponent q must be >= 1, got 0.5"),
        ],
        ids=["alternate-beta-hypothesis", "sizes-per-N", "counterexample-q-below-one"],
    )
    def test_rejection_after_parsing_is_one_exact_line(self, argv, message, monkeypatch, tmp_path, capsys):
        # Raised by the harness, once every value has parsed.
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"invalid configuration: {message}\n")
        assert not list(tmp_path.iterdir())

    def test_non_finite_real_in_config_file_exits_2(self, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = inf\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["exponents", "--config", str(cfg)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "exponents_report.json").exists()

    @pytest.mark.parametrize(
        "argv, entry",
        [
            (["counterexample"], "selector = nope"),
            (["plancherel"], "format = xml"),
            (["pairing"], "weight = flat"),
            (["plancherel"], "trials = 2.5"),
            (["plancherel", "--trials", "abc"], None),
        ],
        ids=["selector-file", "format-file", "weight-file", "trials-file", "trials-flag"],
    )
    def test_invalid_value_exits_2_naming_parameter(self, argv, entry, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        if entry is not None:
            (tmp_path / "run.cfg").write_text(entry + "\n")
            argv = argv + ["--config", "run.cfg"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        name = entry.split(" = ")[0] if entry else "trials"
        assert f"{name}:" in err
        assert {p.name for p in tmp_path.iterdir()} <= {"run.cfg"}  # no report

    @pytest.mark.parametrize(
        "argv",
        [["plancherel", "--bogus", "1"], ["plancherel", "--trials"], [],
         ["hausdorff-young", "--direction", "forward"], ["pairing", "--sign", "-1"]],
        ids=["unknown-flag", "flag-without-value", "no-command", "no-direction-flag", "no-sign-flag"],
    )
    def test_usage_error_is_one_line_exit_2(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err.startswith("invalid configuration: qsobolev") and err.count("\n") == 1
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_unwritable_out_exits_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        proc = run_cli(["exponents", "--out", str(blocker / "run.json")], tmp_path)
        assert proc.returncode == 4
        assert proc.stderr.startswith("report could not be written:")
        assert proc.stderr.count("\n") == 1


class TestDimensionCap:
    @pytest.mark.parametrize(
        "argv, entry",
        [
            (["plancherel", "--N", "200000"], None),
            (["axioms", "--N", str(cli.MAX_N + 1)], None),
            (["axioms", "--N", "17"], None),
            (["counterexample", "--N", "8,200000", "--sizes", "8,1"], None),
            (["embed"], "N = 10**6"),
            (["pairing"], f"N = {cli.MAX_N + 1}"),
        ],
        ids=[
            "plancherel-flag",
            "axioms-flag",
            "axioms-check-cap",
            "counterexample-item",
            "bad-int-file",
            "pairing-file",
        ],
    )
    def test_oversized_N_exits_2_before_allocating(self, argv, entry, monkeypatch, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a Weyl system was built for a rejected N")

        monkeypatch.setattr(cli, "make_weyl_system", refuse)
        monkeypatch.chdir(tmp_path)
        if entry is not None:
            (tmp_path / "run.cfg").write_text(entry + "\n")
            argv = argv + ["--config", "run.cfg"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: N:") and err.count("\n") == 1
        assert {p.name for p in tmp_path.iterdir()} <= {"run.cfg"}  # no report

    def test_defaults_benchmark_sizes_and_1024_stay_legal(self):
        assert cli.MAX_N >= 1024
        for name, command in cli.COMMANDS.items():
            params = {param.name: param for param in command.params}
            if "N" not in params:
                continue
            N = params["N"]
            N.read(N.default)
            if name == "counterexample":
                assert N.read("8,8,8,8,16,32,64,128,256,512,1024")[-1] == 1024
                with pytest.raises(ValueError, match="^N:"):
                    N.read(f"8,{cli.MAX_N + 1}")
            elif name == "axioms":
                # The exhaustive check has its own, smaller cap.
                assert N.read("16") == 16
                with pytest.raises(ValueError, match="^N: expected at most 16 "):
                    N.read("17")
            else:
                assert N.read("128") == 128 and N.read("1024") == 1024
                assert N.read(str(cli.MAX_N)) == cli.MAX_N
                with pytest.raises(ValueError, match="^N:"):
                    N.read(str(cli.MAX_N + 1))


#: The least value of each integer parameter.
INTEGER_MINIMA = {"N": 1, "sizes": 1, "trials": 1, "seed": 0}


def integer_cases():
    """(argv, exact stderr line) per integer parameter: a non-integer, one below its minimum, N above its cap."""
    for command, spec in cli.COMMANDS.items():
        for param in spec.params:
            if param.name not in INTEGER_MINIMA:
                continue
            least = INTEGER_MINIMA[param.name]
            values = [("2.5", "expected an integer, got '2.5'"),
                      (str(least - 1), f"expected an integer >= {least}, got {least - 1}")]
            if param.name == "N" and command == "axioms":
                values.append(("17", "expected at most 16 (the exhaustive axiom check), got 17"))
            elif param.name == "N":
                values.append(("2049", "expected at most 2048 (the 1 GiB memory budget), got 2049"))
            # A list parameter reads each entry alike: the bad value goes second.
            lead = "8," if isinstance(param.default, tuple) else ""
            for value, message in values:
                line = f"invalid configuration: {param.name}: {message}\n"
                yield pytest.param([command, f"--{param.name}", lead + value], line,
                                   id=f"{command}-{param.name}={value}")


class TestIntegerMessages:
    @pytest.mark.parametrize("argv, line", list(integer_cases()))
    def test_rejected_integer_is_one_exact_line(self, argv, line, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", line)
        assert not list(tmp_path.iterdir())

    def test_every_integer_parameter_is_listed(self):
        def reads_integers(param):
            try:
                param.read("2.5")
            except ValueError as exc:
                return "expected an integer" in str(exc)
            return False

        integers = {(command, param.name) for command, spec in cli.COMMANDS.items()
                    for param in spec.params + cli.OUTPUT_PARAMS if reads_integers(param)}
        assert {(case.values[0][0], case.values[0][1][2:]) for case in integer_cases()} == integers


#: A small run of each command that passes.
SMALL_RUNS = [
    ["axioms", "--N", "3"],
    ["plancherel", "--N", "4", "--trials", "20", "--seed", "9"],
    ["hausdorff-young", "--N", "4", "--trials", "10", "--seed", "9"],
    ["sobolev-norms", "--N", "4", "--trials", "10", "--seed", "9"],
    ["pairing", "--N", "4", "--trials", "10", "--seed", "9"],
    ["exponents", "--alpha", "3", "--q", "5"],
    ["embed", "--N", "4", "--trials", "10", "--seed", "9"],
    ["counterexample", "--N", "4,4,8", "--sizes", "4,1,1"],
]


def flatten(value, path=""):
    """(path, scalar) pairs of a parsed JSON value, paths of ``.key`` and ``[index]`` steps."""
    if isinstance(value, dict):
        return [pair for key, item in value.items() for pair in flatten(item, f"{path}.{key}")]
    if isinstance(value, list):
        return [pair for k, item in enumerate(value) for pair in flatten(item, f"{path}[{k}]")]
    return [(path.removeprefix("."), value)]


class TestCsvReport:
    @pytest.mark.parametrize("args", SMALL_RUNS, ids=[run[0] for run in SMALL_RUNS])
    def test_csv_is_the_json_report_flattened(self, args, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(args + ["--format", "both"]) == 0
        stem = args[0].replace("-", "_") + "_report"
        report = json.loads((tmp_path / f"{stem}.json").read_text())
        with open(tmp_path / f"{stem}.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["field", "value"]
        cells = dict(rows)
        assert len(cells) == len(rows)  # no field twice
        scalars = dict(pair for pair in flatten(report) if pair[0] != "timestamp")
        # The CSV carries the config and the verdict as well as the results.
        assert {"command", "version", "passed"} <= set(scalars)
        assert any(field.startswith("config.tolerances.") for field in scalars)
        assert cells == {field: cli._format_cell(value) for field, value in scalars.items()}
        for field, value in scalars.items():
            if isinstance(value, float):
                assert float(cells[field]).hex() == value.hex(), field


class TestLeaves:
    """The one walker behind the NaN check and the CSV report."""

    def test_paths_of_a_nested_result(self):
        result = {"worst": 0.5, "points": [{"N": 4, "x": 1.0}, {"N": 8, "x": 2.0}], "pair": (1, "a")}
        assert list(cli.leaves(result)) == [
            (".worst", 0.5),
            (".points[0].N", 4),
            (".points[0].x", 1.0),
            (".points[1].N", 8),
            (".points[1].x", 2.0),
            (".pair[0]", 1),
            (".pair[1]", "a"),
        ]

    def test_scalar_is_its_own_leaf(self):
        assert list(cli.leaves(3.0)) == [("", 3.0)]
        assert list(cli.leaves(None, ".skipped")) == [(".skipped", None)]

    def test_empty_containers_have_no_leaves(self):
        assert list(cli.leaves({"a": {}, "b": [], "c": ()})) == []

    @pytest.mark.parametrize(
        "result, expected",
        [
            ({"ratios": [1.0, math.nan, math.nan]}, ".ratios[1]"),
            ({"points": [{"x": 1.0}, {"x": np.float64("nan")}]}, ".points[1].x"),
            ({"first": math.nan, "second": [math.nan]}, ".first"),
            ({"q": math.inf, "worst": -math.inf}, None),
            ({"label": "nan", "count": 0, "passed": True, "skipped": None}, None),
        ],
        ids=["list", "numpy-scalar-in-nested-dict", "first-of-two", "infinities", "no-floats"],
    )
    def test_nan_path_is_the_first_nan_leaf(self, result, expected):
        assert cli.nan_path(result) == expected


class TestReproducibility:
    @pytest.mark.parametrize("args", SMALL_RUNS, ids=[run[0] for run in SMALL_RUNS])
    def test_json_byte_identical_modulo_timestamp(self, args, tmp_path):
        args = args + ["--format", "both"]
        stem = args[0].replace("-", "_") + "_report"
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        first_json = (tmp_path / f"{stem}.json").read_bytes()
        first_csv = (tmp_path / f"{stem}.csv").read_bytes()
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        second_json = (tmp_path / f"{stem}.json").read_bytes()
        second_csv = (tmp_path / f"{stem}.csv").read_bytes()
        assert first_json != second_json  # the timestamp moved
        assert strip_timestamp(first_json.decode()) == strip_timestamp(second_json.decode())
        assert first_csv == second_csv

    def test_defaults_do_not_depend_on_blas_threads(self, tmp_path):
        # The eight commands at their defaults, all in one interpreter per
        # BLAS thread count; the count must be set before numpy loads.
        script = (
            "import contextlib, io\n"
            "from qsobolev import cli\n"
            "for name in cli.COMMANDS:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main([name, '--format', 'both', '--out', name + '.json'])\n"
            "    assert code == 0, name\n"
        )
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", script],
                cwd=out,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(
                {
                    name: (
                        strip_timestamp((out / f"{name}.json").read_text()),
                        (out / f"{name}.csv").read_bytes(),
                    )
                    for name in cli.COMMANDS
                }
            )
        assert len(reports[0]) == 8
        assert reports[0] == reports[1]

    def test_multi_word_seed_reports_are_byte_identical(self, tmp_path):
        # 2**64 + 5 takes three 32-bit words of seed entropy.
        seed = 2**64 + 5
        args = ["hausdorff-young", "--N", "4", "--trials", "20", "--seed", str(seed), "--format", "both"]
        reports = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(args + ["--out", str(out)]) == 0
            reports.append((strip_timestamp(out.read_text()), out.with_suffix(".csv").read_bytes()))
        assert reports[0] == reports[1]
        assert json.loads(reports[0][0])["config"]["seed"] == seed

    def test_equivalent_reals_give_identical_reports(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("alpha = 8/2\n")
        reports = []
        for i, args in enumerate((["--alpha", "4"], ["--alpha", "4.0"], ["--config", "run.cfg"])):
            assert cli.main(["exponents", *args, "--out", f"r{i}.json"]) == 0
            reports.append(strip_timestamp((tmp_path / f"r{i}.json").read_text()))
        assert '"alpha": 4.0' in reports[0]
        assert reports[0] == reports[1] == reports[2]

    def test_seed_changes_results(self, tmp_path):
        proc_a = run_cli(["hausdorff-young", "--N", "4", "--p", "4/3", "--trials", "5", "--seed", "1", "--out", str(tmp_path / "a.json")], tmp_path)
        proc_b = run_cli(["hausdorff-young", "--N", "4", "--p", "4/3", "--trials", "5", "--seed", "2", "--out", str(tmp_path / "b.json")], tmp_path)
        assert proc_a.returncode == 0, proc_a.stderr
        assert proc_b.returncode == 0, proc_b.stderr
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        ra = [r["worst_ratio"] for r in a["results"]["runs"]]
        rb = [r["worst_ratio"] for r in b["results"]["runs"]]
        assert ra != rb


class TestCompareReportsRuns:
    def test_every_choice_word_is_run(self):
        # A run reaches a word through its flag, or through the default when the
        # flag is left out.  The output parameters choose no result: exempt.
        path = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
        spec = importlib.util.spec_from_file_location("compare_reports", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        reached = set()
        for argv in tool.DEFAULTS + tool.NON_DEFAULTS:
            args = cli.build_parser().parse_args(argv)
            for param in cli.COMMANDS[args.command].params:
                reached.add((args.command, param.name, getattr(args, param.name) or param.default))
        words = {(command, param.name, word) for command, spec in cli.COMMANDS.items()
                 for param in spec.params if isinstance(param.parse, cli.Choice)
                 for word in param.parse.options}
        assert words - reached == set()
