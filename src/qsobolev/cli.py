"""Command-line experiment runner with reproducible JSON/CSV reports.

Every subcommand resolves its configuration (defaults < config file < flags),
runs a seeded harness, writes a report that embeds the resolved config, the
package version, and the normalization conventions in force, and exits with
a contract CI can consume directly:

* 0 - every assertion in scope passed,
* 1 - an assertion failed (the report is still written),
* 2 - invalid input (any ``ValueError``: a flag, a config-file entry, a precondition),
* 3 - numerical failure (LAPACK SVD non-convergence, an overflow or invalid
      operation in a harness, or a NaN result; no report is written),
* 4 - the report could not be written.

Each subcommand's results are what one harness call returns, and the
verdict behind 0 and 1 is that harness's own: it takes its command's
``--tol`` mapping, whose defaults sit beside it, and ends its report in the
verdict.  The CLI reads a tolerance only to resolve ``--tol``.

Each subcommand is one :class:`Command` with a table of typed parameters whose
parsers read flags, config-file values and defaults alike.  Every dimension
``N`` is capped by its parser, before anything is allocated: at ``MAX_N``, or
at ``EXHAUSTIVE_MAX_N`` for the exhaustive axiom check.  ``pairing`` runs its
exhaustive rank check only up to that same cap.
Reports are byte-identical across runs with the same config apart from the
single ``timestamp`` field, at a fixed BLAS thread count; README's "BLAS
threads" section says which reports also read the same across counts.  The CSV
report is the JSON report flattened: one ``field,value`` row per scalar, the
timestamp left out.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys as _sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import __version__
from .embedding import (
    BETA_CHOICES,
    CHAIN_TOLERANCES,
    COUNTEREXAMPLE_TOLERANCES,
    EXPONENT_TOLERANCES,
    SET_SELECTORS,
    compute_exponents,
    counterexample_run,
    verify_embedding_chain,
)
from .groups import PhaseSpaceGrid
from .qft import HAUSDORFF_YOUNG_TOLERANCES, PLANCHEREL_TOLERANCES, verify_hausdorff_young, verify_plancherel
from .sobolev import (
    DUALITY_TOLERANCES,
    NORM_TOLERANCES,
    SobolevSpec,
    Weight,
    make_weight_constant,
    make_weight_euclidean,
    verify_duality,
    verify_norm_axioms,
)
from .weyl import AXIOM_TOLERANCES, CONVENTIONS, EXHAUSTIVE_MAX_N, check_axioms, make_weyl_system

OUTPUT_DIR_ENV = "QSOBOLEV_OUTPUT_DIR"

CONVENTION_NOTES = {
    "group_mass_per_point": 1.0,
    "dual_mass_per_point": "1/N",
    "plancherel_constant": 1.0,
    "weyl_standard_action": "shift by a, modulate by exp(2*pi*i*b*t/N)",
}

#: Weight constructors by ``--weight`` word (the constant weight is 1).
WEIGHTS = {"euclidean": make_weight_euclidean, "constant": make_weight_constant}

#: Memory budget of one run.  A run holds at most about 11 N x N complex128
#: matrices at once (random draws, transform tables, the LAPACK SVD
#: workspace: peak RSS above the import baseline of each subcommand that
#: accepts N > 16, measured at N = 512 and 1024), so N is capped where 16
#: of them fit: N <= 2048.  The transform's cached wrapped-diagonal index
#: fits in that room: one N x N int64 table per cached N, half a matrix
#: (8 MiB at N = 1024, 32 MiB at N = 2048), at most eight of them: four
#: matrices' worth, inside the five that the cap leaves.
MEMORY_BUDGET_BYTES = 2**30
MAX_N = math.isqrt(MEMORY_BUDGET_BYTES // (16 * np.dtype(np.complex128).itemsize))


class ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error in one line, like any other invalid input, and exits 2.

    Any argument that starts like a negative number (``-1e308``, ``-.5``,
    ``-1/2``) is a value, never a flag: no flag of this CLI looks like one,
    and argparse's own pattern (Python 3.10-3.12) takes only the ``-1`` and
    ``-1.5`` forms.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(2, f"invalid configuration: {self.prog}: {message}\n")


def parse_real(text) -> float:
    """Parse a finite real number, accepting fraction syntax like ``8/7``."""
    num, sep, den = str(text).partition("/")
    try:
        value = float(num) / (float(den) if sep else 1.0)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {str(text).strip()!r}") from None
    except ValueError:
        raise ValueError(f"expected a real number, got {str(text).strip()!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite real number, got {str(text).strip()!r}")
    return value


def integer(minimum: int, limit: int | None = None, reason: str = "") -> Callable[[object], int]:
    """Parser for an integer >= ``minimum``, and <= ``limit`` if given; ``reason`` names what sets the cap."""

    def parse(text) -> int:
        try:
            value = int(str(text).strip())
        except ValueError:
            raise ValueError(f"expected an integer, got {str(text).strip()!r}") from None
        if value < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {value}")
        if limit is not None and value > limit:
            raise ValueError(f"expected at most {limit} ({reason}), got {value}")
        return value

    return parse


parse_positive_int = integer(1)
parse_nonnegative_int = integer(0)
#: A dimension N in [1, MAX_N], the cap set by the memory budget.
parse_dimension = integer(1, MAX_N, f"the {MEMORY_BUDGET_BYTES >> 30} GiB memory budget")


def parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    val = str(text).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def list_of(parse_item: Callable[[object], object]) -> Callable[[object], tuple]:
    """Parser for a non-empty comma list (or a typed sequence) of ``parse_item`` values."""

    def parse(text) -> tuple:
        items = text if isinstance(text, (list, tuple)) else str(text).split(",")
        values = tuple(parse_item(item) for item in items if str(item).strip())
        if not values:
            raise ValueError("expected a non-empty comma-separated list")
        return values

    return parse


@dataclass(frozen=True)
class Choice:
    """Parser for one word out of a fixed set."""

    options: tuple[str, ...]

    def __call__(self, text) -> str:
        word = str(text).strip()
        if word not in self.options:
            raise ValueError(f"expected one of {', '.join(self.options)}, got {word!r}")
        return word


@dataclass(frozen=True)
class Param:
    """One parameter of a command: config key (and flag), parser, typed default, help."""

    name: str
    parse: Callable[[object], object]
    default: object
    help: str | None = None

    def read(self, raw):
        """The typed value of a flag, a config-file entry or the default."""
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise ValueError(f"{self.name}: {exc}") from None


@dataclass(frozen=True)
class Command:
    """A subcommand: its runner, help text, named tolerances and ordered parameters.

    ``run`` turns a resolved config into the results of one harness call: it
    builds the harness's inputs and passes the resolved ``tolerances`` whole.
    ``tolerances`` is the default mapping of that harness, the constant
    beside it.  ``verdict`` is the key of the results that decides the exit
    code, the last key the harness writes.

    ``note``, if given, turns the results of a run into a line for stderr,
    printed once the report is written (nothing when it returns ``None``);
    stdout carries only the verdict.
    """

    run: Callable[[dict], dict]
    help: str
    tolerances: Mapping[str, float]
    params: tuple[Param, ...]
    note: Callable[[dict], str | None] | None = None
    verdict: str = "passed"


SEED = Param("seed", parse_nonnegative_int, 0)
WEIGHT = Param("weight", Choice(tuple(WEIGHTS)), "euclidean")
#: Parameters of every command that choose where the report goes, not what it holds.
OUTPUT_PARAMS = (
    Param("out", str, "", "report path (default: <command>_report.json in the output dir)"),
    Param("format", Choice(("json", "csv", "both")), "json"),
)


def load_config_file(path: str) -> dict:
    """Read a simple ``key=value`` config file ('#' starts a comment)."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _add_flag(parser: argparse.ArgumentParser, param: Param) -> None:
    # No argparse type or choices: every value is checked by ``param.read``.
    flag = "--" + param.name.replace("_", "-")
    if param.parse is parse_bool:
        parser.add_argument(flag, dest=param.name, action="store_const", const=True,
                            help=param.help)
        return
    metavar = "{" + ",".join(param.parse.options) + "}" if isinstance(param.parse, Choice) else None
    parser.add_argument(flag, dest=param.name, metavar=metavar, help=param.help)


@cache
def build_parser() -> ArgumentParser:
    """The argument parser of every subcommand, built once per process."""
    parser = ArgumentParser(
        prog="qsobolev",
        description="Seeded verification harnesses for phase-space operator analysis",
    )
    parser.add_argument("--version", action="version", version=f"qsobolev {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for param in command.params:
            _add_flag(p, param)
        p.add_argument("--config", help="key=value config file (flags override it)")
        for param in OUTPUT_PARAMS:
            _add_flag(p, param)
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, the optional config file, and explicit flags (flags win), typed."""
    command = COMMANDS[args.command]
    params = {param.name: param for param in command.params + OUTPUT_PARAMS}
    raw = {name: param.default for name, param in params.items()}
    if args.config:
        for key, value in load_config_file(args.config).items():
            if key in ("tol", "config"):
                raise ValueError(f"config key {key!r} is only available as a flag")
            if key not in params:
                raise ValueError(f"unknown config key {key!r} for command {args.command}")
            raw[key] = value
    for name in params:
        flag = getattr(args, name)
        if flag is not None:
            raw[name] = flag
    resolved = {name: params[name].read(value) for name, value in raw.items()}
    if resolved["format"] == "both" and Path(resolved["out"]).suffix == ".csv":
        raise ValueError(
            f"out: --format both would write the JSON and the CSV report to one path, {resolved['out']}"
        )
    tolerances = dict(command.tolerances)
    for item in args.tol or ():
        if "=" not in item:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        if name not in tolerances:
            raise ValueError(
                f"unknown tolerance {name!r} for {args.command}; available: {sorted(tolerances)}"
            )
        tolerances[name] = parse_real(value)
    resolved["tolerances"] = tolerances
    resolved["command"] = args.command
    return resolved


def weight_of(config: dict) -> Weight:
    """The ``--weight`` table on the dual of the N x N grid."""
    return WEIGHTS[config["weight"]](PhaseSpaceGrid(config["N"]))


def spec_of(config: dict, homogeneous: bool = False) -> SobolevSpec:
    """The Sobolev norm of order ``--s`` and exponent ``--p`` under the ``--weight`` table."""
    return SobolevSpec(s=config["s"], p=config["p"], weight=weight_of(config), homogeneous=homogeneous)


# Each row's runner is a lambda that looks its harness up in this module's
# globals at call time, so a wrapper installed on that name (a tracer, a
# spy) sees every call.
COMMANDS: dict[str, Command] = {
    "axioms": Command(
        lambda c: check_axioms(make_weyl_system(c["N"], c["convention"]), c["tolerances"]),
        "exhaustive Weyl-system identity checks", AXIOM_TOLERANCES,
        (Param("N", integer(1, EXHAUSTIVE_MAX_N, "the exhaustive axiom check"), 4),
         Param("convention", Choice(CONVENTIONS), "standard")),
        verdict="core_passed",
    ),
    "plancherel": Command(
        # One draw of (T, dual table) per trial serves all three measurements.
        lambda c: verify_plancherel(make_weyl_system(c["N"]), c["trials"], c["seed"], c["tolerances"]),
        "norm preservation and round-trips of the transform", PLANCHEREL_TOLERANCES,
        (Param("N", parse_dimension, 8), Param("trials", parse_positive_int, 100), SEED),
    ),
    "hausdorff-young": Command(
        lambda c: verify_hausdorff_young(
            make_weyl_system(c["N"]), c["p"], c["trials"], c["seed"], c["tolerances"]),
        "two-sided norm inequality ratios", HAUSDORFF_YOUNG_TOLERANCES,
        (Param("N", parse_dimension, 8),
         Param("p", list_of(parse_real), (1.0, 8 / 7, 4 / 3, 8 / 5, 2.0),
               "comma list of exponents in [1,2]; fractions allowed"),
         Param("trials", parse_positive_int, 100), SEED),
    ),
    "sobolev-norms": Command(
        lambda c: verify_norm_axioms(
            make_weyl_system(c["N"]), spec_of(c), c["trials"], c["seed"], c["tolerances"]),
        "norm axioms and order relations (worst_isometry_abs is 0 by construction)",
        NORM_TOLERANCES,
        (Param("N", parse_dimension, 8), Param("s", parse_real, 1.0),
         Param("p", parse_real, 4 / 3), WEIGHT, Param("trials", parse_positive_int, 200), SEED),
    ),
    "pairing": Command(
        lambda c: verify_duality(c["p"], c["s"], weight_of(c), c["trials"], c["seed"], c["tolerances"]),
        "duality pairing bound and test-family rank",
        DUALITY_TOLERANCES,
        (Param("N", parse_dimension, 8),
         Param("p", parse_real, 4.0, "Schatten exponent > 2 for the operator side"),
         Param("s", parse_real, 1.0), WEIGHT,
         Param("trials", parse_positive_int, 200), SEED),
        lambda r: None if r["nondegeneracy"] else (
            f"nondegeneracy rank check skipped: it runs only at N <= {EXHAUSTIVE_MAX_N}, "
            f"got N = {r['pairing'][0]['N']}"),
    ),
    "exponents": Command(
        lambda c: compute_exponents(c["alpha"], c["q"], c["s"], c["tolerances"]),
        "embedding exponent arithmetic", EXPONENT_TOLERANCES,
        (Param("alpha", parse_real, 4.0), Param("q", parse_real, 4.0), Param("s", parse_real, 1.0)),
        lambda r: (f"sigma = {r['sigma']!r}, beta_corrected = {r['beta_corrected']!r}, "
                   f"beta_alternate = {r['beta_alternate']!r}"),
    ),
    "embed": Command(
        lambda c: verify_embedding_chain(
            spec_of(c, c["homogeneous"]), c["alpha"], c["beta_choice"], c["trials"], c["seed"], c["tolerances"]),
        "weighted Hoelder + norm-inequality chain", CHAIN_TOLERANCES,
        (Param("N", parse_dimension, 8), Param("s", parse_real, 1.0),
         Param("p", parse_real, 4 / 3), Param("alpha", parse_real, 4.0), WEIGHT,
         Param("homogeneous", parse_bool, False),
         Param("beta_choice", Choice(BETA_CHOICES), BETA_CHOICES[0]),
         Param("trials", parse_positive_int, 200), SEED),
    ),
    "counterexample": Command(
        lambda c: counterexample_run(
            [make_weyl_system(n) for n in c["N"]], c["q"], c["rho"], c["selector"], c["sizes"], c["tolerances"]),
        "scaling sweep of normalized indicator generators", COUNTEREXAMPLE_TOLERANCES,
        (Param("N", list_of(parse_dimension), (8, 8, 8, 8, 16, 32),
               "comma list of dimensions, one per sweep point"),
         Param("sizes", list_of(parse_positive_int), (8, 4, 2, 1, 1, 1),
               "comma list of set sizes, aligned with --N"),
         Param("q", parse_real, 4.0), Param("rho", parse_real, 8.0),
         Param("selector", Choice(tuple(SET_SELECTORS)), "subgroup",
               "lex and ball leave the scaling law at the default sizes: exit 1 by design")),
    ),
}


def leaves(value, path: str = ""):
    """Every scalar of a nested result, in order, with its path of ``.key`` and ``[index]`` steps."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def nan_path(value) -> str | None:
    """The path of the first NaN leaf of a nested result, or None.

    Infinities are legitimate results (the exponent conjugate to p = 1).
    """
    return next(
        (path for path, leaf in leaves(value) if isinstance(leaf, float) and math.isnan(leaf)), None
    )


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_reports(config: dict, results: dict, passed: bool) -> list[Path]:
    """Write the JSON report and/or its CSV mirror: one ``field,value`` row per scalar but the timestamp."""
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
        "passed": bool(passed),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    fmt = config["format"]
    if fmt in ("json", "both"):
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        written.append(out)
    if fmt in ("csv", "both"):
        csv_path = out.with_suffix(".csv")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["field", "value"])
            writer.writerows(
                [path[1:], _format_cell(leaf)] for path, leaf in leaves(report) if path != ".timestamp"
            )
        written.append(csv_path)
    return written


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = resolve_config(args)
        # An overflow or invalid operation anywhere in a harness is a numerical failure.
        with np.errstate(over="raise", invalid="raise"):
            results = command.run(config)
        if (where := nan_path(results)) is not None:
            raise FloatingPointError(f"results{where} is NaN")
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # Ahead of the ValueError clause: LinAlgError subclasses ValueError.
        print(f"numerical kernel failure: {exc}", file=_sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=_sys.stderr)
        return 2
    passed = results[command.verdict]
    try:
        paths = write_reports(config, results, passed)
    except OSError as exc:
        print(f"report could not be written: {exc}", file=_sys.stderr)
        return 4
    line = None if command.note is None else command.note(results)
    if line is not None:
        print(line, file=_sys.stderr)
    status = "PASS" if passed else "FAIL"
    print(f"{config['command']}: {status} ({', '.join(str(p) for p in paths)})")
    return 0 if passed else 1
