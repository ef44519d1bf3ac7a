import contextlib
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from qsobolev import cli


def run_cli(args, cwd, env=None):
    import os

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
        assert cli.main(["pairing", "--N", "9", "--trials", "5", "--out", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr.splitlines() == [
            "nondegeneracy rank check skipped: it runs only at N <= 8, got N = 9"
        ]
        assert stdout.splitlines() == [f"pairing: PASS ({out})"]
        results = json.loads(out.read_text())["results"]
        assert results["nondegeneracy"] == [] and len(results["pairing"]) == 2
        assert cli.main(["pairing", "--N", "8", "--trials", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(json.loads(out.read_text())["results"]["nondegeneracy"]) == 2

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
        csv_text = (tmp_path / "counterexample_report.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "N,set_size,epsilon,generator_lq_norm,schatten_norm"
        assert len(lines) == 4


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


class TestExitCodes:
    def test_assertion_failure_exits_1_with_report(self, tmp_path):
        proc = run_cli(
            ["plancherel", "--N", "4", "--trials", "5", "--tol", "deviation=0"],
            tmp_path,
        )
        assert proc.returncode == 1
        report = json.loads((tmp_path / "plancherel_report.json").read_text())
        assert report["passed"] is False

    def test_kernel_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        import qsobolev.linalg

        monkeypatch.setattr(qsobolev.linalg, "singular_values", explode)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["plancherel", "--N", "4", "--trials", "3"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "kernel" in err
        assert "invalid configuration" not in err

    @pytest.mark.parametrize(
        "alpha, key", [("1e308", "beta_corrected"), ("1e-320", "holder_identity_error")]
    )
    def test_nan_result_exits_3_without_report(self, alpha, key, monkeypatch, tmp_path, capsys):
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
            (["hausdorff-young"], "direction = sideways"),
            (["plancherel"], "trials = 2.5"),
            (["plancherel", "--trials", "abc"], None),
        ],
        ids=["selector-file", "format-file", "direction-file", "trials-file", "trials-flag"],
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
        [["plancherel", "--bogus", "1"], ["plancherel", "--trials"], []],
        ids=["unknown-flag", "flag-without-value", "no-command"],
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
                with pytest.raises(cli.ConfigError, match="^N:"):
                    N.read(f"8,{cli.MAX_N + 1}")
            elif name == "axioms":
                # The exhaustive check has its own, smaller cap.
                assert N.read("16") == 16
                with pytest.raises(cli.ConfigError, match="^N: expected at most 16 "):
                    N.read("17")
            else:
                assert N.read("128") == 128 and N.read("1024") == 1024
                assert N.read(str(cli.MAX_N)) == cli.MAX_N
                with pytest.raises(cli.ConfigError, match="^N:"):
                    N.read(str(cli.MAX_N + 1))


class TestReproducibility:
    def test_json_byte_identical_modulo_timestamp(self, tmp_path):
        args = ["plancherel", "--N", "4", "--trials", "20", "--seed", "9", "--format", "both"]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        first_json = (tmp_path / "plancherel_report.json").read_bytes()
        first_csv = (tmp_path / "plancherel_report.csv").read_bytes()
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        second_json = (tmp_path / "plancherel_report.json").read_bytes()
        second_csv = (tmp_path / "plancherel_report.csv").read_bytes()
        assert first_json != second_json  # the timestamp moved
        assert strip_timestamp(first_json.decode()) == strip_timestamp(second_json.decode())
        assert first_csv == second_csv

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
