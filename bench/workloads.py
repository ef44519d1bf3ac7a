"""Workload op lists, per-op correctness checks and the pass runner.

An op is one call into a public entry point: a ``qsobolev.cli.main([...])``
subcommand or a library harness.  Every op builds its own ``WeylSystem`` the
way the CLI does, so operator-cache fills are paid inside the op.

An op fails when it raises, when a subcommand exits nonzero or reports
``passed: false``, when a harness value leaves the harness's own tolerance
(or any ``*violations`` count is above 0, or any value is NaN), and,
where a stored reference applies, when its result differs from the
reference.  The reference holds seed-0 results (seed 0 is the CLI default);
seedless ops are compared on every seed, seeded ops only on seed 0, so other
seeds are judged by verdict and invariants alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference_seed0.json")
REFERENCE_SEED = 0

#: Reference tolerance for floats: |new - ref| <= ATOL + RTOL * |ref|.  Wide
#: enough for a different but correct summation order or SVD algorithm
#: (observed differences are ~1e-15 relative), far below any real defect.
RTOL = 1e-9
ATOL = 1e-12

#: Report fields decided by rounding noise rather than by the mathematics,
#: so they are not compared with the reference:
#: - ``timestamp``: wall-clock time of the report;
#: - ``witness`` / ``witness_index``: argmax over trials or points whose
#:   values tie up to rounding (every trial has ratio 1 at p = 2, every
#:   composition residual is ~1e-16);
#: - ``endpoints_bound_interior``: compares two maxima that both equal 1 up
#:   to rounding (delta generators attain ratio 1 at every exponent).
NOISE_KEYS = frozenset({"timestamp", "witness", "witness_index", "endpoints_bound_interior"})

@dataclass(frozen=True)
class Op:
    """One call into a public entry point and the checks on its result."""

    name: str
    call: Callable[[Path], object]
    result: Callable[[object], dict]
    check: Callable[[dict], list[str]]
    seeded: bool
    span: str | None = None


def plain(obj):
    """JSON-shaped copy of a harness result (dataclasses become dicts)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    return json.loads(json.dumps(obj, default=_scalar))


def _scalar(value):
    # numpy integers and booleans; numpy floats already subclass float.
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def compare(new, ref, path: str = "") -> list[str]:
    """Differences of ``new`` from ``ref``: floats within tolerance, the rest exactly.

    Every key of ``ref`` must be present in ``new``; extra keys in ``new`` are
    ignored, and keys in :data:`NOISE_KEYS` are skipped.
    """
    if isinstance(ref, dict):
        if not isinstance(new, dict):
            return [f"{path}: expected an object, got {new!r}"]
        problems = []
        for key, value in ref.items():
            if key in NOISE_KEYS:
                continue
            if key not in new:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(new[key], value, f"{path}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            return [f"{path}: expected a list of {len(ref)}, got {new!r}"]
        problems = []
        for i, (a, b) in enumerate(zip(new, ref)):
            problems += compare(a, b, f"{path}[{i}]")
        return problems
    if isinstance(ref, float):
        if isinstance(new, bool) or not isinstance(new, (int, float)):
            return [f"{path}: expected a number, got {new!r}"]
        if new != ref and not abs(new - ref) <= ATOL + RTOL * abs(ref):
            return [f"{path}: {new!r} differs from reference {ref!r}"]
        return []
    if type(new) is not type(ref) or new != ref:
        return [f"{path}: {new!r} differs from reference {ref!r}"]
    return []


def invariants(result, path: str = "") -> list[str]:
    """Problems every result is checked for: NaN anywhere, violation counts above 0.

    Infinite values are legitimate (the exponent conjugate to p = 1 is inf).
    """
    problems = []
    if isinstance(result, dict):
        for key, value in result.items():
            if key.endswith("violations") and isinstance(value, int) and value > 0:
                problems.append(f"{path}.{key} = {value}")
            problems += invariants(value, f"{path}.{key}")
    elif isinstance(result, list):
        for i, value in enumerate(result):
            problems += invariants(value, f"{path}[{i}]")
    elif isinstance(result, float) and math.isnan(result):
        problems.append(f"{path} = {result!r}")
    return problems


def at_most(value, limit: float, label: str) -> list[str]:
    if isinstance(value, (int, float)) and value <= limit:
        return []
    return [f"{label} = {value!r} above {limit!r}"]


def is_true(value, label: str) -> list[str]:
    return [] if value is True else [f"{label} is {value!r}"]


def unit_generators(points) -> list[str]:
    """Sweep generators are L^q-normalized: each norm is 1 within 1e-12."""
    problems = []
    for i, pt in enumerate(points):
        problems += at_most(abs(pt["sobolev_norm"] - 1.0), 1e-12, f"points[{i}] |norm - 1|")
    return problems


# -- cli-defaults -------------------------------------------------------------

#: Subcommands at their README defaults; the seeded ones also get ``--seed``.
CLI_COMMANDS = (
    ("axioms", False),
    ("plancherel", True),
    ("hausdorff-young", True),
    ("sobolev-norms", True),
    ("pairing", True),
    ("exponents", False),
    ("embed", True),
    ("counterexample", False),
)


def _check_cli(command: str, out: dict) -> list[str]:
    problems = []
    if out["exit_code"] != 0:
        problems.append(f"exit code {out['exit_code']}: {out.get('stderr', '')}")
    problems += is_true(out["passed"], "passed")
    r = out["results"]
    if not isinstance(r, dict):
        return problems + ["no report written"]
    if command == "axioms":
        for c in r["checks"]:
            if not c["informational"]:
                problems += is_true(c["passed"], f"axiom {c['axiom']} passed")
    elif command == "plancherel":
        for key in ("worst_relative_deviation", "operator_roundtrip", "function_roundtrip"):
            problems += at_most(r[key], 1e-11, key)
    elif command == "hausdorff-young":
        for run in r["runs"]:
            label = f"p={run['p']} {run['direction']} worst_ratio"
            problems += at_most(run["worst_ratio"], 1.0 + 1e-10, label)
    elif command == "sobolev-norms":
        problems += at_most(r["worst_homogeneity_rel"], 1e-12, "worst_homogeneity_rel")
        problems += at_most(r["worst_isometry_abs"], 1e-12, "worst_isometry_abs")
    elif command == "pairing":
        for b in r["pairing"]:
            problems += is_true(b["satisfied"], f"pairing sign={b['sign']} satisfied")
        for nd in r["nondegeneracy"]:
            problems += is_true(nd["full_rank"], f"nondegeneracy sign={nd['sign']} full_rank")
    elif command == "exponents":
        problems += at_most(r["holder_identity_error"], 1e-15, "holder_identity_error")
    elif command == "counterexample":
        problems += unit_generators(r["points"])
        for key in ("strictly_increasing", "slope_within_tolerance"):
            problems += is_true(r[key], key)
    return problems


def _cli_op(cli, command: str, seeded: bool, seed: int) -> Op:
    stem = command.replace("-", "_")

    def call(outdir: Path):
        argv = [command, "--out", str(outdir / f"{stem}.json")]
        if seeded:
            argv += ["--seed", str(seed)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, stderr.getvalue(), Path(argv[2])

    def result(raw) -> dict:
        code, stderr, path = raw
        report = json.loads(path.read_text()) if path.exists() else {}
        # The plancherel report writes its numpy-bool verdict through
        # ``default=str`` as "True"/"False"; read it as the boolean it names.
        passed = {"True": True, "False": False}.get(report.get("passed"), report.get("passed"))
        out = {"exit_code": code, "passed": passed, "results": report.get("results")}
        if code != 0:
            out["stderr"] = stderr.strip()[-500:]
        return out

    return Op(
        name=f"cli.{command}",
        call=call,
        result=result,
        check=lambda out: _check_cli(command, out),
        seeded=seeded,
        span=f"cli.{command}",
    )


def _cli_defaults(seed: int) -> list[Op]:
    from qsobolev import cli

    return [_cli_op(cli, command, seeded, seed) for command, seeded in CLI_COMMANDS]


# -- transform-dense ----------------------------------------------------------

ROUNDTRIP_N, ROUNDTRIP_TRIALS = 64, 10
AXIOMS_N, AXIOMS_TRIALS = 32, 10


def _check_roundtrips(r: dict) -> list[str]:
    return at_most(r["operator_roundtrip"], 1e-11, "operator_roundtrip") + at_most(
        r["function_roundtrip"], 1e-11, "function_roundtrip"
    )


def _check_norm_axioms(r: dict) -> list[str]:
    return at_most(r["worst_homogeneity_rel"], 1e-12, "worst_homogeneity_rel") + at_most(
        r["worst_isometry_abs"], 1e-12, "worst_isometry_abs"
    )


def _transform_dense(seed: int) -> list[Op]:
    from qsobolev import groups, qft, sobolev, weyl

    weight = sobolev.make_weight_euclidean(groups.make_group([AXIOMS_N, AXIOMS_N]))
    spec = sobolev.SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight)
    return [
        Op(
            name=f"qft.verify_roundtrips@N{ROUNDTRIP_N}",
            call=lambda _: qft.verify_roundtrips(
                weyl.make_weyl_system(ROUNDTRIP_N), ROUNDTRIP_TRIALS, seed
            ),
            result=plain,
            check=_check_roundtrips,
            seeded=True,
        ),
        Op(
            name=f"sobolev.verify_norm_axioms@N{AXIOMS_N}",
            call=lambda _: sobolev.verify_norm_axioms(
                weyl.make_weyl_system(AXIOMS_N), spec, AXIOMS_TRIALS, seed
            ),
            result=plain,
            check=_check_norm_axioms,
            seeded=True,
        ),
    ]


# -- scaling-sweep ------------------------------------------------------------

SWEEP_Q, SWEEP_RHO = 4.0, 8.0
#: (label, selector, dimensions, set sizes); the subgroup sweep is demo 05's.
SWEEPS = (
    ("ball-N64", "ball", (64, 64, 64, 64), (64, 16, 4, 1)),
    ("ball-N128", "ball", (128, 128, 128), (128, 16, 1)),
    ("subgroup-N8-128", "subgroup", (8, 8, 8, 8, 16, 32, 64, 128), (8, 4, 2, 1, 1, 1, 1, 1)),
)


def _check_sweep(selector: str, r: dict) -> list[str]:
    problems = unit_generators(r["points"])
    if selector == "subgroup":
        # Flat singular spectra: the law holds exactly, so the norms grow
        # strictly and the fit meets the CLI's 10% slope tolerance.
        norms = [pt["schatten_beta_norm"] for pt in r["points"]]
        if not all(b > a for a, b in zip(norms, norms[1:])):
            problems.append(f"subgroup norms not strictly increasing: {norms}")
        slack = 0.10 * abs(r["predicted_slope"])
        problems += at_most(abs(r["fitted_slope"] - r["predicted_slope"]), slack, "|slope error|")
    return problems


def _scaling_sweep(seed: int) -> list[Op]:
    from qsobolev import embedding, weyl

    def sweep_op(label, selector, dims, sizes):
        return Op(
            name=f"embedding.counterexample_run@{label}",
            call=lambda _: embedding.counterexample_run(
                [weyl.make_weyl_system(n) for n in dims], SWEEP_Q, SWEEP_RHO, selector, list(sizes)
            ),
            result=plain,
            check=lambda r: _check_sweep(selector, r),
            seeded=False,
        )

    return [sweep_op(*sweep) for sweep in SWEEPS]


BUILDERS = {
    "cli-defaults": _cli_defaults,
    "transform-dense": _transform_dense,
    "scaling-sweep": _scaling_sweep,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Op]:
    """The workload's op list (imports qsobolev and builds inputs and weights)."""
    return BUILDERS[workload](seed)


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[workload]


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    problems: list[str]


def run_pass(ops, outdir: Path, seed: int, reference: dict | None, tracer=None) -> PassResult:
    """Run every op once (timed), then check every result (untimed).

    ``reference`` maps op names to stored results; ``None`` skips the
    comparison (used only when the reference itself is being written).
    """
    raws = []
    start = time.perf_counter()
    for op in ops:
        try:
            if tracer is not None and op.span is not None:
                with tracer.span(op.span):
                    raws.append((op.call(outdir), None))
            else:
                raws.append((op.call(outdir), None))
        except Exception:
            raws.append((None, traceback.format_exc(limit=-3).strip()))
    wall = time.perf_counter() - start

    failed = 0
    problems = []
    for op, (raw, error) in zip(ops, raws):
        if error is None:
            try:
                result = op.result(raw)
                found = invariants(result) + op.check(result)
                if reference is not None and (seed == REFERENCE_SEED or not op.seeded):
                    if op.name in reference:
                        found += compare(result, reference[op.name])
                    else:
                        found.append("no stored reference result")
            except Exception:
                found = [traceback.format_exc(limit=-3).strip()]
        else:
            found = [error]
        if found:
            failed += 1
            problems += [f"{op.name}: {p}" for p in found[:5]]
    return PassResult(wall, len(ops), failed, problems)
