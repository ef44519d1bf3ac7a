"""One fresh benchmark process: set up a workload, then time passes of its op list.

Started by ``run.py``; prints one JSON object with its samples as the last
line of standard output.  The first pass after set-up is reported on its
own (a CLI user pays it on every invocation); later passes are warm.  With
``--trace 1`` a traced pass precedes each warm one, so the tracing overhead
is the difference of the two.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUTDIR = ROOT / ".bench_out"


def numpy_build() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def traced_pass(ops, outdir, seed, reference):
    from tracing import Tracer, layer_totals
    from workloads import run_pass

    tracer = Tracer()
    with tracer.installed():
        result = run_pass(ops, outdir, seed, reference, tracer)
    totals, root_covered = layer_totals(tracer.spans, tracer.leaves)
    self_sum = sum(t["self_s"] for t in totals.values())
    if abs(self_sum - root_covered) > 1e-9 * max(1.0, result.wall_s):
        raise RuntimeError(f"self times sum to {self_sum}, spans cover {root_covered}")
    sample = {
        "wall_s": result.wall_s,
        "uncovered_s": result.wall_s - root_covered,
        "layers": totals,
        "cache_entries": tracer.cache_entries,
        "cache_bytes": tracer.cache_bytes,
    }
    spans = {
        "wall_s": result.wall_s,
        "spans": tracer.spans,
        "leaves": [[parent, name, calls, secs] for (parent, name), (calls, secs) in tracer.leaves.items()],
    }
    return result, sample, spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--budget", type=float, default=0.0,
        help="seconds from start; warm passes beyond the first continue while they fit",
    )
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads

    t0 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    import qsobolev

    if Path(qsobolev.__file__).resolve().parent != SRC / "qsobolev":
        raise RuntimeError(f"qsobolev imported from {qsobolev.__file__}, not {SRC}")
    out = {"setup_s": setup_s, "python": platform.python_version(), **numpy_build()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    reference = workloads.load_reference(args.workload)
    workdir = OUTDIR / f"work-{os.getpid()}"
    attempted = failed = 0
    problems: list[str] = []
    first = None
    warm: list[float] = []
    traced: list[dict] = []
    spans: list[dict] = []
    # Untraced first pass, then warm passes; a traced run puts one traced pass
    # before each warm one.  One round of warm passes always runs, later
    # rounds only while at least half of another fits in the budget.
    warm_round = [True, False] if args.trace else [False]
    plan = [False] + warm_round
    slowest = 0.0
    try:
        passes = 0
        while passes < len(plan):
            do_trace = plan[passes]
            outdir = workdir / f"pass-{passes}"
            outdir.mkdir(parents=True)
            gc.collect()
            if do_trace:
                result, sample, pass_spans = traced_pass(ops, outdir, args.seed, reference)
                traced.append(sample)
                spans.append(pass_spans)
            else:
                result = workloads.run_pass(ops, outdir, args.seed, reference)
                if first is None:
                    first = result.wall_s
                else:
                    warm.append(result.wall_s)
            shutil.rmtree(outdir)
            attempted += result.attempted
            failed += result.failed
            problems += result.problems[:10]
            slowest = max(slowest, result.wall_s)
            passes += 1
            round_s = slowest * len(warm_round)
            if passes == len(plan) and time.perf_counter() - T_START + round_s / 2 <= args.budget:
                plan += warm_round
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if spans:
        name = f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        (OUTDIR / name).write_text(json.dumps(spans))
    out.update(
        first_pass_s=first,
        warm_s=warm,
        traced=traced,
        attempted=attempted,
        failed=failed,
        problems=problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
