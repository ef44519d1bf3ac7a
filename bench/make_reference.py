"""Write ``reference_seed0.json``: every workload's op results at seed 0.

Run from the root of a checkout, on the commit whose results are the
reference::

    python3 bench/make_reference.py

Refuses to write a result that fails its own checks.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def strip_noise(value):
    """Drop the fields the comparison skips, so the file holds only what is compared."""
    if isinstance(value, dict):
        return {
            k: strip_noise(v) for k, v in value.items() if k not in workloads.NOISE_KEYS
        }
    if isinstance(value, list):
        return [strip_noise(v) for v in value]
    return value


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            reference[workload] = {}
            for op in workloads.build(workload, workloads.REFERENCE_SEED):
                result = op.result(op.call(Path(tmp)))
                problems = workloads.invariants(result) + op.check(result)
                if problems:
                    print(f"{op.name}: {problems}", file=sys.stderr)
                    return 1
                reference[workload][op.name] = strip_noise(result)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
