"""Self-test of the benchmark's own arithmetic: span self times and failure counting.

Run from the root of a checkout::

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
import types
import unittest
from itertools import count
from pathlib import Path

from tracing import Tracer, layer_totals
from workloads import Op, compare, run_pass


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 2.0, 3.0, 1],
            ["b", 5.0, 6.0, 0],
        ]
        leaves = {(0, "leaf"): [3, 1.5], (2, "leaf"): [1, 0.25], (-1, "leaf"): [2, 0.5]}
        totals, root_covered = layer_totals(spans, leaves)
        self.assertEqual(totals["a"], {"calls": 1, "total_s": 10.0, "self_s": 4.5})
        self.assertEqual(totals["b"], {"calls": 2, "total_s": 4.0, "self_s": 3.0})
        self.assertEqual(totals["c"], {"calls": 1, "total_s": 1.0, "self_s": 0.75})
        self.assertEqual(totals["leaf"], {"calls": 6, "total_s": 2.25, "self_s": 2.25})
        self.assertEqual(root_covered, 10.5)
        self.assertEqual(sum(t["self_s"] for t in totals.values()), root_covered)

    def test_wrappers_cover_every_binding_and_are_removed(self):
        # A fake package whose ``qft`` module imports ``schatten_norm`` by name
        # from ``linalg``, as qsobolev's modules do.
        pkg = types.ModuleType("fakepkg")
        linalg = types.ModuleType("fakepkg.linalg")
        qft = types.ModuleType("fakepkg.qft")
        linalg.singular_values = lambda x: [x]
        linalg.schatten_norm = lambda x: linalg.singular_values(x)[0]
        qft.schatten_norm = linalg.schatten_norm
        originals = (linalg.singular_values, linalg.schatten_norm)
        modules = {"fakepkg": pkg, "fakepkg.linalg": linalg, "fakepkg.qft": qft}
        sys.modules.update(modules)
        ticks = count()
        tracer = Tracer(clock=lambda: float(next(ticks)))
        try:
            with tracer.installed("fakepkg"):
                linalg.schatten_norm(1.0)
                qft.schatten_norm(2.0)
        finally:
            for name in modules:
                del sys.modules[name]
        self.assertEqual((linalg.singular_values, linalg.schatten_norm), originals)
        self.assertIs(qft.schatten_norm, originals[1])
        totals, root_covered = layer_totals(tracer.spans, tracer.leaves)
        # Each schatten_norm span reads the clock at 4 ticks, one tick apart:
        # start, leaf start, leaf end, end.  3 ticks long, 1 of them the leaf.
        self.assertEqual(totals["linalg.schatten_norm"], {"calls": 2, "total_s": 6.0, "self_s": 4.0})
        self.assertEqual(totals["linalg.singular_values"], {"calls": 2, "total_s": 2.0, "self_s": 2.0})
        self.assertEqual(root_covered, 6.0)

    def test_cache_counters_read_zero_without_a_cache(self):
        def weyl_operator(system, point):
            if hasattr(system, "_cache"):
                system._cache.setdefault(point, object())

        cached = types.SimpleNamespace(N=4, _cache={})
        uncached = types.SimpleNamespace(N=4)
        pkg = types.ModuleType("fakepkg")
        weyl = types.ModuleType("fakepkg.weyl")
        weyl.weyl_operator = weyl_operator
        modules = {"fakepkg": pkg, "fakepkg.weyl": weyl}
        sys.modules.update(modules)
        try:
            tracer = Tracer()
            with tracer.installed("fakepkg"):
                for point in [(0, 1), (0, 1), (1, 1)]:
                    weyl.weyl_operator(uncached, point)
            self.assertEqual((tracer.cache_entries, tracer.cache_bytes), (0, 0))
            with tracer.installed("fakepkg"):
                for point in [(0, 1), (0, 1), (1, 1)]:
                    weyl.weyl_operator(cached, point)
        finally:
            for name in modules:
                del sys.modules[name]
        self.assertEqual((tracer.cache_entries, tracer.cache_bytes), (2, 2 * 4 * 4 * 16))
        totals, _ = layer_totals(tracer.spans, tracer.leaves)
        self.assertEqual(totals["weyl.weyl_operator"]["calls"], 6)


def _op(name, call, check=lambda result: [], seeded=True):
    return Op(name=name, call=call, result=lambda raw: raw, check=check, seeded=seeded)


def _raise(_outdir):
    raise RuntimeError("kernel failure")


class FailureCountingTest(unittest.TestCase):
    def test_each_kind_of_failure_counts_once(self):
        ops = [
            _op("good", lambda _: {"value": 1.0}),
            _op("raises", _raise),
            _op("bad-verdict", lambda _: {"value": 1.0}, check=lambda r: ["passed is False"]),
            _op("violation", lambda _: {"triangle_violations": 2}),
            _op("nan", lambda _: {"value": float("nan")}),
            _op("off-reference", lambda _: {"value": 1.0 + 1e-6}),
            _op("no-reference", lambda _: {"value": 1.0}),
        ]
        reference = {name: {"value": 1.0} for name in ("good", "off-reference")}
        reference["violation"] = {"triangle_violations": 2}
        reference["nan"] = {"value": 1.0}
        with tempfile.TemporaryDirectory() as tmp:
            result = run_pass(ops, Path(tmp), 0, reference)
        self.assertEqual(result.attempted, 7)
        self.assertEqual(result.failed, 6)
        failed_ops = {p.split(":", 1)[0] for p in result.problems}
        self.assertEqual(failed_ops, {op.name for op in ops[1:]})
        self.assertTrue(any("RuntimeError: kernel failure" in p for p in result.problems))

    def test_seeded_ops_skip_the_reference_on_other_seeds(self):
        ops = [_op("seeded", lambda _: {"value": 2.0}), _op("seedless", lambda _: {"value": 2.0}, seeded=False)]
        reference = {"seeded": {"value": 1.0}, "seedless": {"value": 1.0}}
        with tempfile.TemporaryDirectory() as tmp:
            result = run_pass(ops, Path(tmp), 7, reference)
        self.assertEqual((result.attempted, result.failed), (2, 1))
        self.assertTrue(result.problems[0].startswith("seedless:"))


class CompareTest(unittest.TestCase):
    def test_floats_within_tolerance_and_exact_integers(self):
        ref = {"x": 1.0, "n": 3, "ok": True, "inf": float("inf"), "witness_index": 4}
        self.assertEqual(compare({**ref, "x": 1.0 + 1e-12, "witness_index": 9}, ref), [])
        self.assertEqual(len(compare({**ref, "x": 1.0 + 1e-8}, ref)), 1)
        self.assertEqual(len(compare({**ref, "n": 4}, ref)), 1)
        self.assertEqual(len(compare({**ref, "ok": 1}, ref)), 1)
        self.assertEqual(compare({**ref, "extra": 0}, ref), [])
        self.assertEqual(len(compare({"x": 1.0, "n": 3, "ok": True}, ref)), 1)


if __name__ == "__main__":
    unittest.main()
