"""In-memory span tracing of qsobolev's public functions, installed from outside.

The tracer replaces each traced function at every module binding (for
example both ``qsobolev.linalg.schatten_norm`` and the ``schatten_norm``
name imported into ``qsobolev.qft``) with a timing wrapper, and puts the
originals back afterwards; nothing under ``src/`` is edited.

Ordinary functions record one span per call: ``[name, start, end, parent]``,
where ``parent`` is the index of the enclosing span or ``-1``.  The hottest
leaves (functions that call no other traced function, such as
``weyl_operator``, hit hundreds of thousands of times per pass) are
aggregated per ``(parent, name)`` as a call count and summed duration
instead, which keeps the tracing overhead small enough to report while the
parent still learns how much of its interval they covered.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

#: Functions traced, as ``<module>.<function>`` under ``qsobolev``.
TRACED = (
    "linalg.singular_values",
    "linalg.schatten_norm",
    "linalg.trace_pairing",
    "weyl.weyl_operator",
    "weyl.check_axioms",
    "qft.qft_forward",
    "qft.qft_inverse",
    "qft.random_operator",
    "qft.random_phase_function",
    "qft.verify_plancherel",
    "qft.verify_roundtrips",
    "qft.verify_hausdorff_young",
    "groups.lq_table_norm",
    "sobolev.sobolev_norm",
    "sobolev.phi_map",
    "sobolev.make_test_element",
    "sobolev.verify_norm_axioms",
    "sobolev.pairing_bound_estimate",
    "sobolev.nondegeneracy_check",
    "embedding.verify_embedding_chain",
    "embedding.counterexample_run",
    "cli.write_reports",
)

#: Traced functions that call no other traced function and are counted, not spanned.
LEAVES = frozenset(
    {
        "linalg.singular_values",
        "linalg.trace_pairing",
        "weyl.weyl_operator",
        "groups.lq_table_norm",
    }
)

#: Modules whose bindings are rewritten (the package itself re-exports names).
MODULES = ("", "groups", "linalg", "weyl", "qft", "sobolev", "embedding", "cli")

#: Bytes per cached Weyl operator entry (complex128).
ENTRY_BYTES = 16


class Tracer:
    """Spans, leaf aggregates and Weyl-cache counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.cache_entries = 0
        self.cache_bytes = 0
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1]]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = self.clock()
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name not in LEAVES:
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        elif name == "weyl.weyl_operator":
            def traced(system, *args, **kwargs):
                # A miss adds one operator to the per-system cache; a system
                # without ``_cache`` (no operator cache at all) counts nothing.
                cache = getattr(system, "_cache", None)
                before = len(cache) if cache is not None else 0
                start = self.clock()
                try:
                    return fn(system, *args, **kwargs)
                finally:
                    self._leaf(name, self.clock() - start)
                    if cache is not None:
                        added = len(cache) - before
                        self.cache_entries += added
                        self.cache_bytes += added * system.N * system.N * ENTRY_BYTES
        else:
            def traced(*args, **kwargs):
                start = self.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._leaf(name, self.clock() - start)
        traced.__wrapped__ = fn
        return traced

    def _leaf(self, name: str, seconds: float) -> None:
        key = (self._stack[-1], name)
        acc = self.leaves.get(key)
        if acc is None:
            self.leaves[key] = [1, seconds]
        else:
            acc[0] += 1
            acc[1] += seconds

    @contextmanager
    def installed(self, package: str = "qsobolev"):
        """Wrap every traced function at every binding, restoring them on exit.

        Only modules already imported are touched; a module nobody imported
        has no caller to trace.
        """
        modules = {
            name: sys.modules[f"{package}.{name}" if name else package]
            for name in MODULES
            if (f"{package}.{name}" if name else package) in sys.modules
        }
        wrappers = {}
        for qualified in TRACED:
            module_name, fn_name = qualified.split(".")
            fn = getattr(modules.get(module_name), fn_name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(qualified, fn))
        replaced = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)


def layer_totals(spans, leaves) -> tuple[dict[str, dict[str, float]], float]:
    """Per-name calls, total and self seconds, plus the time root spans cover.

    A span's self time is its duration minus the part of its interval covered
    by its children: child spans and the leaf calls aggregated under it.
    Spans of one thread nest, so that coverage is the sum of child durations.
    Leaves call no traced function, so their self time is their duration.
    """
    covered = [0.0] * len(spans)
    root_covered = 0.0
    totals: dict[str, dict[str, float]] = {}

    def entry(name):
        return totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
        else:
            root_covered += end - start
    for (parent, name), (calls, seconds) in leaves.items():
        if parent >= 0:
            covered[parent] += seconds
        else:
            root_covered += seconds
        acc = entry(name)
        acc["calls"] += calls
        acc["total_s"] += seconds
        acc["self_s"] += seconds
    for index, (name, start, end, _parent) in enumerate(spans):
        acc = entry(name)
        acc["calls"] += 1
        acc["total_s"] += end - start
        acc["self_s"] += end - start - covered[index]
    return totals, root_covered
