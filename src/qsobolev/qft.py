"""Phase-space Fourier transform of operators and its verification harnesses.

The forward transform sends an operator ``T`` on C^N to the function
``xi -> tr(T pi(xi)^*)`` on the N^2-point dual, returned as a plain complex
table of length N^2 (see :mod:`qsobolev.groups`); the inverse checks such a
table with :func:`~qsobolev.groups.as_table` and reconstructs
``T = sum_xi f(xi) pi(xi) * mass`` with the module's dual mass ``1/N``.
Under that normalization the transform is exactly unitary from
Hilbert-Schmidt operators to L^2 of the dual (Plancherel constant 1), and the
interpolated norm inequalities hold with constant 1 as well; the harnesses
below measure both claims on seeded random ensembles.

The forward transform reads N off the operator and uses the standard
system: the symmetric convention changes each value by a factor of modulus 1,
which no norm sees.  The inverse builds a different operator under each
convention, so it takes a system and accepts only a standard one.  Both
directions run on the wrapped diagonals ``D[a, t] = T[t, t + a mod N]``, the
support of ``pi(a, b)``: ``tr(T pi(a, b)^*)`` is the length-N DFT in ``t`` of
``D[a, :]`` at frequency ``b``, with no phase arithmetic at all.  A
transform costs O(N^2 log N) time and O(N^2) memory
(Feichtinger, Kozek & Luef, ACHA 2009; Werner, JMP 1984).  Both take a stack
of operators or tables as well and transform it with one FFT call, and
both read the diagonals through one index built once per N.

The harnesses run on the trial engine of :mod:`qsobolev.streams`, which
also owns the seeded streams and the random ensembles read from them.  Each
returns the dict its report holds, keys in report order, and ends it in its
verdict, ``passed``, under a ``tolerances`` mapping whose default sits beside
it: ``PLANCHEREL_TOLERANCES`` or ``HAUSDORFF_YOUNG_TOLERANCES``.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .groups import as_table, exponent_list, lq_table_norm
from . import streams
from .linalg import as_operator, schatten_norm
from .weyl import WeylSystem

#: Default tolerances of :func:`verify_plancherel` and :func:`verify_roundtrips`, by ``--tol`` name.
PLANCHEREL_TOLERANCES = MappingProxyType({"deviation": 1e-11, "roundtrip": 1e-11})
#: Default slack of :func:`verify_hausdorff_young`'s bound 1 on every ratio, by ``--tol`` name.
HAUSDORFF_YOUNG_TOLERANCES = MappingProxyType({"ratio_slack": 1e-10})


@lru_cache(maxsize=8)
def _wrapped_diagonals(N: int) -> np.ndarray:
    """Flat indices ``t*N + (t + a) % N`` at ``[a, t]``: ``D[a, t] = T[t, (t + a) % N]``.

    Built once per N and shared read-only by every system of that N; the
    cache holds the eight most recent N (a scaling sweep's five, a demo's
    eight), one N^2 int64 table each (32 MiB at N = 2048).
    """
    t = np.arange(N)
    index = t * N + (t[:, None] + t) % N
    index.setflags(write=False)
    return index


def qft_forward(T) -> np.ndarray:
    """Transform an N x N ``T`` to the table ``xi -> tr(T pi(xi)^*)`` of length N^2; linear in T.

    ``pi`` is the standard system; the symmetric one changes each value by a
    factor of modulus 1.  A stack of operators (leading axes) gives the stack
    of their transforms from one FFT call.  The output is not checked: an
    operator whose transform overflows gives inf/NaN entries with numpy's
    overflow warning, or ``FloatingPointError`` under ``errstate(over="raise")``.
    """
    T = as_operator(T)
    N = T.shape[-1]
    lead = T.shape[:-2]
    # np.take keeps a stack C-contiguous, so each row reduces as a single table would.
    diagonals = np.take(T.reshape(*lead, N * N), _wrapped_diagonals(N), axis=-1)
    return np.fft.fft(diagonals, axis=-1).reshape(*lead, N * N)


def qft_inverse(system: WeylSystem, f) -> np.ndarray:
    """Reconstruct the operator ``sum_xi f(xi) pi(xi) * mass_per_dual_point``.

    ``f`` is a table of length N^2 on the system's dual grid.  The operator
    depends on the convention, so ``system`` must be standard.  A stack of
    tables gives the stack of operators from one FFT call.
    """
    if system.convention != "standard":
        raise ValueError(f"inverse transform: standard convention only, got {system.convention!r}")
    N = system.N
    f = as_table(f, N)
    lead = f.shape[:-1]
    # norm="forward" leaves the inverse DFT unscaled: sum_b f[a, b] omega^(b t).
    diagonals = np.fft.ifft(f.reshape(*lead, N, N), axis=-1, norm="forward")
    T = np.empty((*lead, N * N), dtype=np.complex128)
    T[..., _wrapped_diagonals(N)] = diagonals
    del diagonals
    T *= system.group.dual_mass  # in place: no second N^2 operator
    return T.reshape(*lead, N, N)


def _roundtrip_residuals(system: WeylSystem, T: np.ndarray, transformed: np.ndarray, values) -> tuple:
    """Residuals and norms of ``F^-1 F T`` against T and ``F F^-1 f`` against f, per trial, given ``F T``."""
    # The caller holds F T, so F^-1 F T is built last: no chunk of it lives through F F^-1 f.
    again = qft_forward(qft_inverse(system, values))
    return (
        np.linalg.norm(qft_inverse(system, transformed) - T, axis=(-2, -1)),
        np.linalg.norm(T, axis=(-2, -1)),
        np.linalg.norm(again - values, axis=-1),
        np.linalg.norm(values, axis=-1),
    )


def _roundtrip_report(tolerances: Mapping[str, float], op_err, op_norm, fn_err, fn_norm) -> dict:
    """Both worst relative residuals, and ``passed``: whether each is within ``tolerances["roundtrip"]``."""
    report = {
        "operator_roundtrip": streams.worst_trial(*streams.kept_ratios(op_err, op_norm))[0],
        "function_roundtrip": streams.worst_trial(*streams.kept_ratios(fn_err, fn_norm))[0],
    }
    return report | {"passed": all(worst <= tolerances["roundtrip"] for worst in report.values())}


def verify_plancherel(
    system: WeylSystem, trials: int, seed: int, tolerances: Mapping[str, float] = PLANCHEREL_TOLERANCES
) -> dict:
    """Worst Plancherel deviation and round-trip residuals, measured on one set of draws.

    ``worst_relative_deviation`` is the worst ``| ||F(T)||_L2 - ||T||_S2 | /
    ||T||_S2`` over random T, with ``||T||_S2`` taken from the entries; the
    round-trip fields are those of :func:`verify_roundtrips` on the same
    operators and dual tables, and one transform of T serves both.
    ``passed`` also needs the deviation within ``tolerances["deviation"]``.
    """

    def measure(T, values):
        transformed = qft_forward(T)
        residuals = _roundtrip_residuals(system, T, transformed, values)
        return np.abs(lq_table_norm(transformed, 2.0, system.group.dual_mass) - residuals[1]), *residuals

    draw = (partial(streams.OperatorReads, system.N), partial(streams.TableReads, system.group.size))
    deviations, *residuals = streams.run_trials(system.N, trials, seed, draw, measure)
    worst = streams.worst_trial(*streams.kept_ratios(deviations, residuals[1]))[0]
    report = {"worst_relative_deviation": worst} | _roundtrip_report(tolerances, *residuals)
    return report | {"passed": worst <= tolerances["deviation"] and report["passed"]}


def verify_roundtrips(
    system: WeylSystem, trials: int, seed: int, tolerances: Mapping[str, float] = PLANCHEREL_TOLERANCES
) -> dict:
    """Worst relative residuals of both transform compositions on random inputs, and their verdict."""
    draw = (partial(streams.OperatorReads, system.N), partial(streams.TableReads, system.group.size))
    measure = lambda T, values: _roundtrip_residuals(system, T, qft_forward(T), values)  # noqa: E731
    return _roundtrip_report(tolerances, *streams.run_trials(system.N, trials, seed, draw, measure))


def conjugate_exponent(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def verify_hausdorff_young(
    system: WeylSystem, exponents: float | Sequence[float], trials: int, seed: int,
    tolerances: Mapping[str, float] = HAUSDORFF_YOUNG_TOLERANCES,
) -> dict:
    """Worst ratios of the two-sided norm inequality, one run per exponent and direction.

    The forward direction measures ``||F(T)||_Lq / ||T||_Sp`` over random
    operators and the inverse one ``||F^-1(f)||_Sq / ||f||_Lp`` over random
    phase functions, with ``q`` conjugate to ``p in [1, 2]``.  Under the
    module's normalization both ratios are bounded by 1; ``p = 2`` is the
    unitary case and ``p = 1`` follows from the operator-norm bound on the
    Weyl unitaries.  Each direction draws its own trials from ``seed`` and
    measures every exponent on them, each draw transformed and decomposed
    once.  ``runs`` lists each exponent's forward run, then its inverse run;
    each ends in ``passed``: whether its worst ratio is at most
    ``1 + tolerances["ratio_slack"]``.  Given endpoint (1 or 2) and interior
    exponents, ``endpoint_consistency`` reports, never gates, whether the
    endpoints' worst ratio bounds the interior ones'.  The report ends in
    ``passed``: every run passed.
    """
    for p in np.ravel(exponents):
        if not 1.0 <= p <= 2.0:
            raise ValueError(f"exponent p must lie in [1, 2], got {p}")
    exponents = exponent_list(exponents)  # rejects an empty list before any draw
    qs = [conjugate_exponent(p) for p in exponents]
    mass = system.group.dual_mass

    def forward(T):
        return lq_table_norm(qft_forward(T), qs, mass), schatten_norm(T, exponents)

    def inverse(f):
        return schatten_norm(qft_inverse(system, f), qs), lq_table_norm(f, exponents, mass)

    operators = (partial(streams.OperatorReads, system.N),)
    tables = (partial(streams.TableReads, system.group.size),)
    measured = {
        "forward": streams.run_trials(system.N, trials, seed, operators, forward),
        "inverse": streams.run_trials(system.N, trials, seed, tables, inverse),
    }
    runs = []
    for j, (p, q) in enumerate(zip(exponents, qs)):
        for direction, (numerators, denominators) in measured.items():
            ratios, kept = streams.kept_ratios(numerators[:, j], denominators[:, j])
            worst, witness = streams.worst_trial(ratios, kept)
            runs.append({
                "p": p,
                "q": q,
                "direction": direction,
                "trials": trials,
                "seed": seed,
                "worst_ratio": worst,
                "witness_available": witness is not None,
                "witness_index": witness,
                "skipped": int(np.count_nonzero(~kept)),
                "passed": worst <= 1.0 + tolerances["ratio_slack"],
            })
    report = {"runs": runs}
    endpoint = [r["worst_ratio"] for r in runs if r["p"] in (1.0, 2.0)]
    interior = [r["worst_ratio"] for r in runs if r["p"] not in (1.0, 2.0)]
    if endpoint and interior:
        report["endpoint_consistency"] = {
            "endpoint_max": max(endpoint),
            "interior_max": max(interior),
            "endpoints_bound_interior": max(interior) <= max(endpoint),
        }
    return report | {"passed": all(r["passed"] for r in runs)}
