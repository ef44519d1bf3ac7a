"""qsobolev benchmark: time one workload end to end, or trace it layer by layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload cli-defaults --seed 0 --seconds 30 --trace 0

Each workload runs in fresh worker processes started one after another
(``worker.py``), so the first pass of every worker is a true first pass.
Besides the workers, a few set-up-only processes sample the import and input
construction time.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  A
full record with the environment and every sample goes to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TRACED
from workloads import CLI_COMMANDS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")
OUTDIR = ROOT / ".bench_out"

#: Set-up-only processes per run, on top of the one set-up each worker does.
SETUP_SAMPLES = 9

#: Hard limit on one run, below the 180 s a run may take.
HARD_LIMIT_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsobolev").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    # Fixed string hashing keeps dict and set layouts equal across workers.
    env["PYTHONHASHSEED"] = "0"
    # Compile from source on every import, whatever the caller's environment, so
    # set-up time does not depend on a bytecode cache left by an earlier run.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, extra: list[str], env: dict, hard_deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        *extra,
    ]
    timeout = max(1.0, hard_deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: worker exceeded the {HARD_LIMIT_S:.0f} s run limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def end_to_end(setups, workers) -> dict:
    firsts = [w["first_pass_s"] for w in workers]
    warm = [s for w in workers for s in w["warm_s"]]
    rss = [w["peak_rss_mb"] for w in workers]
    return {
        "wall_s": ("s", summary(warm)),
        "first_pass_s": ("s", summary(firsts)),
        "setup_s": ("s", summary(setups)),
        "peak_rss_mb": ("MiB", summary(rss)),
    }


def per_layer(workers) -> dict:
    """Layer metrics from the traced pass of median wall time (a consistent set)."""
    traced = sorted((s for w in workers for s in w["traced"]), key=lambda s: s["wall_s"])
    warm = [s for w in workers for s in w["warm_s"]]
    chosen = traced[(len(traced) - 1) // 2]
    layers = chosen["layers"]
    n = len(traced)
    metrics = {}
    for name in TRACED:
        layer = layers.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = ("count", layer["calls"], n)
        metrics[f"{name}.self_s"] = ("s", layer["self_s"], n)
    for command, _ in CLI_COMMANDS:
        span = layers.get(f"cli.{command}", {"total_s": 0.0})
        metrics[f"cli.{command}.s"] = ("s", span["total_s"], n)
    weyl_calls = layers.get("weyl.weyl_operator", {"calls": 0})["calls"]
    entries = chosen["cache_entries"]
    metrics["weyl.cache_entries"] = ("count", entries, n)
    metrics["weyl.cache_mb"] = ("MiB", chosen["cache_bytes"] / 2**20, n)
    hit_ratio = (weyl_calls - entries) / weyl_calls if weyl_calls else 0.0
    metrics["weyl.weyl_operator.hit_ratio"] = ("ratio", hit_ratio, n)
    overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(warm)
    metrics["trace.overhead_s"] = ("s", overhead, f"{n} traced, {len(warm)} untraced")
    metrics["trace.wall_s"] = ("s", chosen["wall_s"], n)
    metrics["trace.uncovered_s"] = ("s", chosen["uncovered_s"], n)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qsobolev" / "__init__.py").is_file():
        print(f"bench: no qsobolev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    OUTDIR.mkdir(exist_ok=True)
    for stale in OUTDIR.glob(f"spans-{args.workload}-seed{args.seed}-*.json"):
        stale.unlink()
    threads = nproc()
    env = child_env(threads)

    setup_runs = [
        run_child(args, ["--setup-only"], env, hard_deadline) for _ in range(SETUP_SAMPLES)
    ]
    # Each worker adds one first_pass_s sample and at least one wall_s sample.
    # A worker starts while at least half of one still fits; it is the last
    # when one and a half would not, and then uses the rest of the run for
    # extra warm passes.  At least two run, one if traced.
    min_workers = 1 if args.trace else 2
    workers = []
    took = 0.0
    while True:
        remaining = deadline - time.perf_counter()
        if len(workers) >= min_workers and remaining < took / 2:
            break
        last = bool(workers) and remaining < 1.5 * took
        budget = max(remaining, 0.0) if last else 0.0
        started = time.perf_counter()
        workers.append(run_child(args, ["--budget", f"{budget:.3f}"], env, hard_deadline))
        took = time.perf_counter() - started
        if last:
            break

    setups = [r["setup_s"] for r in setup_runs + workers]
    summaries = {} if args.trace else end_to_end(setups, workers)
    metrics = per_layer(workers) if args.trace else {
        name: (unit, s["median"], s["n"]) for name, (unit, s) in summaries.items()
    }
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    env_record = {
        "cpu_model": cpu_model(),
        "nproc": threads,
        "blas_threads_cap": threads,
        "python": setup_runs[0]["python"],
        "numpy": setup_runs[0]["numpy"],
        "blas": setup_runs[0]["blas"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "platform": platform.platform(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - start,
        "env": env_record,
        "ops": attempted,
        "ops_failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (u, v, n) in metrics.items()},
        "setup_samples": setups,
        "workers": workers,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUTDIR / name).write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workers {len(workers)}  elapsed {record['elapsed_s']:.1f} s")
    print("env " + json.dumps(env_record))
    for metric, (unit, s) in summaries.items():
        print(f"{metric:14s} median {s['median']:.6g} {unit}  "
              f"(n={s['n']}, min {s['min']:.6g}, max {s['max']:.6g})")
    if args.trace:
        for metric, (unit, value, n) in metrics.items():
            print(f"{metric:42s} {value:.6g} {unit}  (n={n})")
    print(f"ops {attempted}  ops_failed {failed}")
    for problem in [p for w in workers for p in w["problems"]][:20]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
