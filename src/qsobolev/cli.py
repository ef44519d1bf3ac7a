"""Command-line experiment runner with reproducible JSON/CSV reports.

Every subcommand resolves its configuration (defaults < config file < flags),
runs a seeded harness, writes a report that embeds the resolved config, the
package version, and the normalization conventions in force, and exits with
a contract CI can consume directly:

* 0 - every assertion in scope passed,
* 1 - an assertion failed (the report is still written),
* 2 - invalid configuration,
* 3 - numerical kernel failure (LAPACK SVD non-convergence or an inconsistent
      operator composition),
* 4 - the report could not be written.

Reports are byte-identical across runs with the same config apart from the
single ``timestamp`` field; CSV output carries no timestamp at all.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys as _sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .embedding import (
    PreconditionError,
    SET_SELECTORS,
    compute_exponents,
    counterexample_run,
    verify_embedding_chain,
)
from .qft import (
    conjugate_exponent,
    verify_hausdorff_young,
    verify_plancherel,
    verify_roundtrips,
)
from .sobolev import (
    SobolevSpec,
    make_weight_constant,
    make_weight_euclidean,
    nondegeneracy_check,
    pairing_bound_estimate,
    verify_norm_axioms,
)
from .weyl import RepresentationError, check_axioms, make_weyl_system

OUTPUT_DIR_ENV = "QSOBOLEV_OUTPUT_DIR"

DEFAULTS: dict[str, dict] = {
    "axioms": {"N": 4, "convention": "standard"},
    "plancherel": {"N": 8, "trials": 100, "seed": 0},
    "hausdorff-young": {
        "N": 8,
        "p": "1,8/7,4/3,8/5,2",
        "direction": "both",
        "trials": 100,
        "seed": 0,
    },
    "sobolev-norms": {
        "N": 8,
        "s": 1.0,
        "p": 4.0 / 3.0,
        "weight": "euclidean",
        "trials": 200,
        "seed": 0,
    },
    "pairing": {
        "N": 8,
        "p": 4.0,
        "s": 1.0,
        "weight": "euclidean",
        "sign": "both",
        "trials": 200,
        "seed": 0,
    },
    "exponents": {"alpha": 4.0, "q": 4.0, "s": 1.0},
    "embed": {
        "N": 8,
        "s": 1.0,
        "p": 4.0 / 3.0,
        "alpha": 4.0,
        "weight": "euclidean",
        "homogeneous": False,
        "beta_choice": "corrected",
        "trials": 200,
        "seed": 0,
    },
    "counterexample": {
        "N": "8,8,8,8,16,32",
        "sizes": "8,4,2,1,1,1",
        "q": 4.0,
        "rho": 8.0,
        "selector": "subgroup",
    },
}

TOLERANCES: dict[str, dict[str, float]] = {
    "axioms": {
        "composition": 1e-11,
        "modulus": 1e-12,
        "unitarity": 1e-12,
        "orthogonality": 1e-11,
        "cocycle": 1e-11,
    },
    "plancherel": {"deviation": 1e-11, "roundtrip": 1e-11},
    "hausdorff-young": {"ratio_slack": 1e-10},
    "sobolev-norms": {"homogeneity": 1e-12, "triangle": 1e-10, "isometry": 1e-12},
    "pairing": {"pairing_slack": 1e-10, "rank": 1e-10},
    "exponents": {"identity": 1e-15},
    "embed": {"link1": 1e-12, "link2": 1e-10, "composite": 1e-10},
    "counterexample": {"normalization": 1e-12, "slope_rel": 0.10},
}

CONVENTION_NOTES = {
    "group_mass_per_point": 1.0,
    "dual_mass_per_point": "1/N",
    "plancherel_constant": 1.0,
    "weyl_standard_action": "shift by a, modulate by exp(2*pi*i*b*t/N)",
}


class ConfigError(ValueError):
    """The resolved configuration is invalid."""


def parse_real(text) -> float:
    """Parse a finite real number, accepting fraction syntax like ``8/7``."""
    num, sep, den = str(text).partition("/")
    try:
        value = float(num) / (float(den) if sep else 1.0)
    except ZeroDivisionError:
        raise ConfigError(f"zero denominator in {str(text).strip()!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite real number, got {str(text).strip()!r}")
    return value


def parse_int_list(text) -> list[int]:
    if isinstance(text, int):
        return [text]
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def parse_real_list(text) -> list[float]:
    if isinstance(text, (int, float)):
        return [float(text)]
    return [parse_real(tok) for tok in str(text).split(",") if tok.strip()]


def parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    val = str(text).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


def load_config_file(path: str) -> dict:
    """Read a simple ``key=value`` config file ('#' starts a comment)."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsobolev",
        description="Seeded verification harnesses for phase-space operator analysis",
    )
    parser.add_argument("--version", action="version", version=f"qsobolev {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file (flags override it)")
        p.add_argument("--out", help="report path (default: <command>_report.json in the output dir)")
        p.add_argument("--format", choices=("json", "csv", "both"), default=None)
        p.add_argument(
            "--tol",
            action="append",
            default=None,
            metavar="NAME=VALUE",
            help="override a named tolerance (repeatable)",
        )

    p = sub.add_parser("axioms", help="exhaustive Weyl-system identity checks")
    p.add_argument("--N", default=None)
    p.add_argument("--convention", choices=("standard", "symmetric"), default=None)
    common(p)

    p = sub.add_parser("plancherel", help="norm preservation and round-trips of the transform")
    p.add_argument("--N", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("hausdorff-young", help="two-sided norm inequality ratios")
    p.add_argument("--N", default=None)
    p.add_argument("--p", default=None, help="comma list of exponents in [1,2]; fractions allowed")
    p.add_argument("--direction", choices=("forward", "inverse", "both"), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("sobolev-norms", help="norm axioms and the weighted-map isometry")
    p.add_argument("--N", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--weight", choices=("euclidean", "constant"), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("pairing", help="duality pairing bound and test-family rank")
    p.add_argument("--N", default=None)
    p.add_argument("--p", default=None, help="Schatten exponent > 2 for the operator side")
    p.add_argument("--s", default=None)
    p.add_argument("--weight", choices=("euclidean", "constant"), default=None)
    p.add_argument("--sign", choices=("-1", "1", "both"), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("exponents", help="embedding exponent arithmetic")
    p.add_argument("--alpha", default=None)
    p.add_argument("--q", default=None)
    p.add_argument("--s", default=None)
    common(p)

    p = sub.add_parser("embed", help="weighted Hoelder + norm-inequality chain")
    p.add_argument("--N", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--weight", choices=("euclidean", "constant"), default=None)
    p.add_argument("--homogeneous", action="store_const", const=True, default=None)
    p.add_argument("--beta-choice", choices=("corrected", "alternate"), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("counterexample", help="scaling sweep of normalized indicator generators")
    p.add_argument("--N", default=None, help="comma list of dimensions, one per sweep point")
    p.add_argument("--sizes", default=None, help="comma list of set sizes, aligned with --N")
    p.add_argument("--q", default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--selector", choices=tuple(SET_SELECTORS), default=None)
    common(p)

    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, the optional config file, and explicit flags (flags win)."""
    command = args.command
    resolved = dict(DEFAULTS[command])
    resolved["format"] = "json"
    file_entries = {}
    if args.config:
        file_entries = load_config_file(args.config)
    for key, value in file_entries.items():
        if key in ("tol", "config"):
            raise ConfigError(f"config key {key!r} is only available as a flag")
        if key not in resolved and key not in ("out", "format"):
            raise ConfigError(f"unknown config key {key!r} for command {command}")
        resolved[key] = value
    for key in list(DEFAULTS[command]) + ["out", "format"]:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            resolved[key] = flag
    tolerances = dict(TOLERANCES[command])
    for item in args.tol or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        if name not in tolerances:
            raise ConfigError(
                f"unknown tolerance {name!r} for {command}; available: {sorted(tolerances)}"
            )
        tolerances[name] = parse_real(value)
    resolved["tolerances"] = tolerances
    resolved["command"] = command
    return resolved


def _weight_for(name: str, dual):
    if name == "euclidean":
        return make_weight_euclidean(dual)
    if name == "constant":
        return make_weight_constant(dual, 1.0)
    raise ConfigError(f"unknown weight kind {name!r}")


def run_axioms(config: dict):
    system = make_weyl_system(int(config["N"]), config["convention"])
    tol = config["tolerances"]
    report = check_axioms(
        system,
        composition_tol=tol["composition"],
        modulus_tol=tol["modulus"],
        unitarity_tol=tol["unitarity"],
        orthogonality_tol=tol["orthogonality"],
        cocycle_tol=tol["cocycle"],
    )
    rows = [
        [c.axiom, c.informational, c.passed, c.worst_deviation, json.dumps(c.witness)]
        for c in report.checks
    ]
    return report.to_dict(), report.core_passed, ["axiom", "informational", "passed", "worst_deviation", "witness"], rows


def run_plancherel(config: dict):
    system = make_weyl_system(int(config["N"]))
    trials = int(config["trials"])
    seed = int(config["seed"])
    tol = config["tolerances"]
    worst = verify_plancherel(system, trials, seed)
    roundtrips = verify_roundtrips(system, trials, seed)
    passed = (
        worst <= tol["deviation"]
        and roundtrips["operator_roundtrip"] <= tol["roundtrip"]
        and roundtrips["function_roundtrip"] <= tol["roundtrip"]
    )
    results = {
        "worst_relative_deviation": worst,
        "operator_roundtrip": roundtrips["operator_roundtrip"],
        "function_roundtrip": roundtrips["function_roundtrip"],
    }
    rows = [[config["N"], trials, seed, worst, roundtrips["operator_roundtrip"], roundtrips["function_roundtrip"]]]
    return results, passed, ["N", "trials", "seed", "worst_relative_deviation", "operator_roundtrip", "function_roundtrip"], rows


def run_hausdorff_young(config: dict):
    system = make_weyl_system(int(config["N"]))
    trials = int(config["trials"])
    seed = int(config["seed"])
    slack = config["tolerances"]["ratio_slack"]
    directions = ("forward", "inverse") if config["direction"] == "both" else (config["direction"],)
    runs = []
    passed = True
    rows = []
    exponents = parse_real_list(config["p"])
    for p in exponents:
        for direction in directions:
            rep = verify_hausdorff_young(system, p, direction, trials, seed)
            ok = rep.worst_ratio <= 1.0 + slack
            passed = passed and ok
            runs.append(rep.to_dict() | {"passed": ok})
            rows.append([rep.p, rep.q, direction, config["N"], trials, seed, rep.worst_ratio, rep.skipped, ok])
    results = {"runs": runs}
    # Reported, never asserted: whether the endpoint exponents bound the
    # interior maxima in this sample.
    endpoint = [r["worst_ratio"] for r in runs if r["p"] in (1.0, 2.0)]
    interior = [r["worst_ratio"] for r in runs if r["p"] not in (1.0, 2.0)]
    if endpoint and interior:
        results["endpoint_consistency"] = {
            "endpoint_max": max(endpoint),
            "interior_max": max(interior),
            "endpoints_bound_interior": max(interior) <= max(endpoint),
        }
    return results, passed, ["p", "q", "direction", "N", "trials", "seed", "worst_ratio", "skipped", "passed"], rows


def run_sobolev_norms(config: dict):
    system = make_weyl_system(int(config["N"]))
    weight = _weight_for(config["weight"], system.group)
    spec = SobolevSpec(s=parse_real(config["s"]), p=parse_real(config["p"]), weight=weight)
    tol = config["tolerances"]
    report = verify_norm_axioms(
        system,
        spec,
        int(config["trials"]),
        int(config["seed"]),
        triangle_tol=tol["triangle"],
    )
    passed = (
        report.worst_homogeneity_rel <= tol["homogeneity"]
        and report.triangle_violations == 0
        and report.worst_isometry_abs <= tol["isometry"]
        and report.s_monotonicity_violations == 0
        and report.hom_dominance_violations == 0
        and report.definiteness_violations == 0
    )
    d = report.to_dict()
    rows = [[k, v] for k, v in d.items()]
    return d, passed, ["field", "value"], rows


def run_pairing(config: dict):
    system = make_weyl_system(int(config["N"]))
    weight = _weight_for(config["weight"], system.group)
    p = parse_real(config["p"])
    s = parse_real(config["s"])
    trials = int(config["trials"])
    seed = int(config["seed"])
    tol = config["tolerances"]
    signs = (-1, 1) if config["sign"] == "both" else (int(config["sign"]),)
    results = {"pairing": [], "nondegeneracy": []}
    passed = True
    rows = []
    for sign in signs:
        bound = pairing_bound_estimate(
            system, p, s, weight, sign=sign, trials=trials, seed=seed, tolerance=tol["pairing_slack"]
        )
        passed = passed and bound.satisfied
        results["pairing"].append(bound.to_dict())
        rows.append(["pairing", sign, bound.max_ratio, bound.analytic_bound, bound.satisfied])
        if system.N <= 8:
            dual_spec = SobolevSpec(s=s, p=conjugate_exponent(p), weight=weight)
            nd = nondegeneracy_check(system, dual_spec, sign=sign, rank_tol=tol["rank"])
            passed = passed and nd.full_rank
            results["nondegeneracy"].append(nd.to_dict())
            rows.append(["nondegeneracy", sign, nd.rank, nd.dimension, nd.full_rank])
    return results, passed, ["check", "sign", "value", "reference", "passed"], rows


def run_exponents(config: dict):
    alpha = parse_real(config["alpha"])
    q = parse_real(config["q"])
    s = parse_real(config["s"])
    report = compute_exponents(alpha, q, s)
    identity_error = abs(1.0 / report.sigma - (1.0 / alpha + 1.0 / q))
    passed = identity_error <= config["tolerances"]["identity"]
    results = report.to_dict() | {"holder_identity_error": identity_error}
    print(
        f"sigma = {report.sigma!r}, beta_corrected = {report.beta_corrected!r}, "
        f"beta_alternate = {report.beta_alternate!r}"
    )
    rows = [[k, v] for k, v in results.items()]
    return results, passed, ["field", "value"], rows


def run_embed(config: dict):
    system = make_weyl_system(int(config["N"]))
    weight = _weight_for(config["weight"], system.group)
    spec = SobolevSpec(
        s=parse_real(config["s"]),
        p=parse_real(config["p"]),
        weight=weight,
        homogeneous=parse_bool(config["homogeneous"]),
    )
    tol = config["tolerances"]
    report = verify_embedding_chain(
        system,
        spec,
        parse_real(config["alpha"]),
        beta_choice=config["beta_choice"],
        trials=int(config["trials"]),
        seed=int(config["seed"]),
        link1_tol=tol["link1"],
        link2_tol=tol["link2"],
        composite_tol=tol["composite"],
    )
    # The composite bound gates only the corrected exponent; the other
    # candidate is measured and recorded.
    passed = report.link1_violations == 0 and report.link2_violations == 0
    if config["beta_choice"] == "corrected":
        passed = passed and report.violations == 0
    rows = [
        [k, rc, rp]
        for k, (rc, rp) in enumerate(
            zip(
                report.ratios_corrected,
                report.ratios_alternate or [""] * len(report.ratios_corrected),
            )
        )
    ]
    return report.to_dict(), passed, ["trial", "ratio_corrected", "ratio_alternate"], rows


def run_counterexample(config: dict):
    dims = parse_int_list(config["N"])
    sizes = parse_int_list(config["sizes"])
    if len(sizes) != len(dims):
        raise ConfigError("--sizes must list one set size per entry of --N")
    q = parse_real(config["q"])
    rho = parse_real(config["rho"])
    tol = config["tolerances"]
    report = counterexample_run(
        [make_weyl_system(n) for n in dims], q, rho, config["selector"], sizes
    )
    norm_ok = all(abs(pt.sobolev_norm - 1.0) <= tol["normalization"] for pt in report.points)
    norms = [pt.schatten_beta_norm for pt in report.points]
    monotone = all(b > a for a, b in zip(norms, norms[1:]))
    slope_ok = (
        abs(report.fitted_slope - report.predicted_slope)
        <= tol["slope_rel"] * abs(report.predicted_slope)
    )
    results = report.to_dict() | {
        "normalization_ok": norm_ok,
        "strictly_increasing": monotone,
        "slope_within_tolerance": slope_ok,
    }
    rows = [
        [pt.N, pt.set_size, pt.epsilon, pt.sobolev_norm, pt.schatten_beta_norm]
        for pt in report.points
    ]
    return results, norm_ok and monotone and slope_ok, ["N", "set_size", "epsilon", "generator_lq_norm", "schatten_norm"], rows


COMMANDS = {
    "axioms": run_axioms,
    "plancherel": run_plancherel,
    "hausdorff-young": run_hausdorff_young,
    "sobolev-norms": run_sobolev_norms,
    "pairing": run_pairing,
    "exponents": run_exponents,
    "embed": run_embed,
    "counterexample": run_counterexample,
}


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_reports(config: dict, results: dict, passed: bool, header, rows) -> list[Path]:
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    stem = config["command"].replace("-", "_") + "_report"
    out = Path(config.get("out") or (out_dir / f"{stem}.json"))
    report = {
        "command": config["command"],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": {k: v for k, v in config.items() if k not in ("command", "out", "format")},
        "conventions": CONVENTION_NOTES,
        "results": results,
        # A numpy.bool_ verdict would otherwise go through ``default=str``.
        "passed": bool(passed),
    }
    written = []
    fmt = config["format"]
    if fmt in ("json", "both"):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
        written.append(out)
    if fmt in ("csv", "both"):
        csv_path = out.with_suffix(".csv")
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(cell) for cell in row])
        written.append(csv_path)
    return written


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        results, passed, header, rows = COMMANDS[config["command"]](config)
    except (np.linalg.LinAlgError, RepresentationError) as exc:
        # Ahead of the ValueError clause: LinAlgError subclasses ValueError.
        print(f"numerical kernel failure: {exc}", file=_sys.stderr)
        return 3
    except (ConfigError, PreconditionError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=_sys.stderr)
        return 2
    try:
        paths = write_reports(config, results, passed, header, rows)
    except OSError as exc:
        print(f"report could not be written: {exc}", file=_sys.stderr)
        return 4
    status = "PASS" if passed else "FAIL"
    print(f"{config['command']}: {status} ({', '.join(str(p) for p in paths)})")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
