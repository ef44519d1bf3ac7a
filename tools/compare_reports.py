"""Compare the CLI reports and demo output of two checkouts of this repository.

    python tools/compare_reports.py PARENT CHANGE

PARENT and CHANGE are repository roots, for example a ``git archive`` of the
parent commit and the working tree.  Each run below is made once per checkout
with ``PYTHONPATH=<checkout>/src``, in a fresh temporary directory, and with
one BLAS thread: reports repeat byte for byte only at a fixed thread count
(README, "BLAS threads").  The runs are the eight subcommands at their
defaults, the twenty non-default runs below and every script in
``demos/``: 33 runs with the five demos of this tree.  A CLI
run writes its JSON and CSV reports there; a demo run only prints.  The
tool compares the JSON report with its ``timestamp`` line left out, the CSV
report, stdout, stderr and the exit code.  It prints one line per run and
exits 1 if any of them differs, 0 if every run is identical.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

#: The eight subcommands at their defaults.
DEFAULTS = [
    [command]
    for command in (
        "axioms", "plancherel", "hausdorff-young", "sobolev-norms",
        "pairing", "exponents", "embed", "counterexample",
    )
]
#: Non-default runs that reach every other choice word, other exponents and
#: orders, the homogeneous norm, the pairing's skipped rank check above
#: N = 16, a sweep to N = 1024, and the tolerance mapping of every command's
#: harnesses, set where a gate must fail.
NON_DEFAULTS = [
    ["axioms", "--convention", "symmetric"],
    ["sobolev-norms", "--weight", "constant"],
    ["sobolev-norms", "--s", "2.5", "--p", "1.2", "--trials", "50"],
    ["embed", "--homogeneous"],
    ["embed", "--beta-choice", "alternate"],
    ["embed", "--alpha", "3", "--weight", "constant"],
    ["pairing", "--s", "8"],
    ["pairing", "--N", "17", "--trials", "5"],
    ["pairing", "--weight", "constant"],
    ["pairing", "--N", "4", "--s", "20", "--p", "6"],
    ["counterexample", "--selector", "ball"],
    ["counterexample", "--selector", "lex"],
    ["counterexample", "--N", "8,8,8,8,16,32,64,128,256,512,1024", "--sizes", "8,4,2,1,1,1,1,1,1,1,1"],
    ["sobolev-norms", "--tol", "triangle=-1"],
    ["pairing", "--tol", "pairing_slack=-1", "--tol", "rank=2"],
    ["plancherel", "--tol", "roundtrip=-1"],
    ["hausdorff-young", "--tol", "ratio_slack=-1"],
    ["exponents", "--tol", "identity=-1"],
    ["embed", "--tol", "composite=-1"],
    ["counterexample", "--tol", "slope_rel=-1"],
]
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMESTAMP_LINE = re.compile(rb'^  "timestamp": "[^"]*",?\n', re.MULTILINE)


def run(checkout: Path, argv: list[str]) -> dict[str, bytes | int | None]:
    """One run in a fresh directory: exit code, stdout, stderr, and the reports if any."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QSOBOLEV_OUTPUT_DIR")}
    env |= {name: "1" for name in BLAS_THREAD_VARIABLES}
    env |= {"PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0].endswith(".py"):
            command = [sys.executable, str(checkout / "demos" / argv[0])]
        else:
            command = [sys.executable, "-m", "qsobolev", *argv, "--out", "report.json", "--format", "both"]
        proc = subprocess.run(command, cwd=tmp, env=env, capture_output=True)
        reports = {name: Path(tmp, name) for name in ("report.json", "report.csv")}
        out = {name: path.read_bytes() if path.exists() else None for name, path in reports.items()}
    if out["report.json"] is not None:
        out["report.json"] = TIMESTAMP_LINE.sub(b"", out["report.json"], count=1)
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr} | out


def first_lines_of_diff(a, b, limit: int = 12) -> list[str]:
    if not isinstance(a, bytes) or not isinstance(b, bytes):
        return [f"    parent {a!r}", f"    change {b!r}"]
    diff = difflib.unified_diff(
        a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines(),
        "parent", "change", lineterm="", n=0,
    )
    return ["    " + line for line in list(diff)[:limit]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="repository root of the parent checkout")
    parser.add_argument("change", type=Path, help="repository root of the changed checkout")
    args = parser.parse_args(argv)
    # Every demo of either checkout: one that only one of them has differs.
    demos = sorted({path.name for root in (args.parent, args.change) for path in root.glob("demos/*.py")})
    cases = DEFAULTS + NON_DEFAULTS + [[demo] for demo in demos]
    differing = 0
    for case in cases:
        parent, change = (run(root.resolve(), case) for root in (args.parent, args.change))
        parts = [part for part in parent if parent[part] != change[part]]
        label = " ".join(case)
        print(f"{'same' if not parts else 'DIFFERS':8s} exit {parent['exit code']}  {label}")
        for part in parts:
            print(f"  {part}:")
            print("\n".join(first_lines_of_diff(parent[part], change[part])))
        differing += bool(parts)
    print(f"{differing} of {len(cases)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
