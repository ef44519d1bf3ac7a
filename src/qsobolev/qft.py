"""Phase-space Fourier transform of operators and its verification harnesses.

The forward transform sends an operator ``T`` on C^N to the function
``xi -> tr(T pi(xi)^*)`` on the N^2-point dual; the inverse reconstructs
``T = sum_xi f(xi) pi(xi) * mass`` with the module's dual mass ``1/N``.
Under that normalization the transform is exactly unitary from
Hilbert-Schmidt operators to L^2 of the dual (Plancherel constant 1), and the
interpolated norm inequalities hold with constant 1 as well; the harnesses
below measure both claims on seeded random ensembles.

Both directions run on the wrapped diagonals ``D[a, t] = T[t, t + a mod N]``,
the support of ``pi(a, b)``: ``tr(T pi(a, b)^*)`` is the length-N DFT in ``t``
of ``D[a, :]`` at frequency ``b``, times ``exp(i pi (a b mod 2N) / N)`` in the
symmetric convention.  That phase table is gathered from the 2N roots
``exp(i pi k / N)`` on each call; the standard convention does no phase
arithmetic at all.  A transform costs O(N^2 log N) time and O(N^2) memory
(Feichtinger, Kozek & Luef, ACHA 2009; Werner, JMP 1984).  Both take a stack
of operators or functions as well and transform it with one FFT call, and
both read the diagonals through one index built once per N.

The harnesses run on the trial engine of :mod:`qsobolev.streams`, which
also owns the seeded streams and the random ensembles read from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .groups import PhaseFunction, l_q_norm, lq_table_norm
from . import streams
from .linalg import as_operator, schatten_norm, singular_values
from .weyl import WeylSystem


@lru_cache(maxsize=4)
def _wrapped_diagonals(N: int) -> np.ndarray:
    """Flat indices ``t*N + (t + a) % N`` at ``[a, t]``: ``D[a, t] = T[t, (t + a) % N]``.

    Built once per N and shared read-only by every system of that N; the
    cache holds the four most recent N, one N^2 int64 table each (32 MiB at
    N = 2048).
    """
    t = np.arange(N)
    index = t * N + (t[:, None] + t) % N
    index.setflags(write=False)
    return index


def _phase(N: int) -> np.ndarray:
    """Conjugate of the symmetric-convention factor, ``exp(i pi (a b mod 2N) / N)`` over ``(a, b)``.

    Gathered from the 2N roots ``exp(i pi k / N)`` at the integer phases
    reduced mod 2N, as in ``weyl_operator``: 2N complex exponentials per
    call instead of N^2, with the same values.
    """
    a = np.arange(N)
    roots = np.exp(1j * np.pi * np.arange(2 * N) / N)
    return roots[np.outer(a, a) % (2 * N)]


def qft_forward(system: WeylSystem, T) -> PhaseFunction:
    """Transform ``T`` to the phase function ``xi -> tr(T pi(xi)^*)``; linear in T.

    A stack of operators (leading axes) gives the stack of their transforms
    from one FFT call.
    """
    T = as_operator(T)
    N = system.N
    if T.shape[-1] != N:
        raise ValueError(f"operator dimension {T.shape[-1]} does not match system N={N}")
    lead = T.shape[:-2]
    # np.take keeps a stack C-contiguous, so each row reduces as a single table would.
    diagonals = np.take(T.reshape(*lead, N * N), _wrapped_diagonals(N), axis=-1)
    values = np.fft.fft(diagonals, axis=-1)
    if system.convention == "symmetric":
        values *= _phase(N)
    return PhaseFunction(system.group, values.reshape(*lead, N * N))


def qft_inverse(system: WeylSystem, f: PhaseFunction) -> np.ndarray:
    """Reconstruct the operator ``sum_xi f(xi) pi(xi) * mass_per_dual_point``.

    A stack of functions gives the stack of operators from one FFT call.
    """
    N = system.N
    if f.group != system.group:
        raise ValueError(f"phase function lives on the N={f.group.N} grid, system has N={N}")
    lead = f.values.shape[:-1]
    table = f.values.reshape(*lead, N, N)
    if system.convention == "symmetric":
        table = table * np.conj(_phase(N))
    # norm="forward" leaves the inverse DFT unscaled: sum_b table[a, b] omega^(b t).
    diagonals = np.fft.ifft(table, axis=-1, norm="forward")
    del table  # one N^2 table fewer while T is filled
    T = np.empty((*lead, N * N), dtype=np.complex128)
    T[..., _wrapped_diagonals(N)] = diagonals
    del diagonals
    T *= system.group.dual_mass  # in place: no second N^2 operator
    return T.reshape(*lead, N, N)


def _roundtrip_residuals(system: WeylSystem, T: np.ndarray, values: np.ndarray) -> tuple:
    """Residuals and norms of ``F^-1 F T`` against T and ``F F^-1 f`` against f, per trial."""
    back = qft_inverse(system, qft_forward(system, T))
    again = qft_forward(system, qft_inverse(system, PhaseFunction(system.group, values)))
    return (
        np.linalg.norm(back - T, axis=(-2, -1)),
        np.linalg.norm(T, axis=(-2, -1)),
        np.linalg.norm(again.values - values, axis=-1),
        np.linalg.norm(values, axis=-1),
    )


def _roundtrip_report(op_err, op_norm, fn_err, fn_norm) -> dict:
    return {
        "operator_roundtrip": streams.worst_trial(*streams.kept_ratios(op_err, op_norm))[0],
        "function_roundtrip": streams.worst_trial(*streams.kept_ratios(fn_err, fn_norm))[0],
    }


def verify_plancherel(system: WeylSystem, trials: int, seed: int) -> dict:
    """Worst Plancherel deviation and round-trip residuals, measured on one set of draws.

    ``worst_relative_deviation`` is the worst ``| ||F(T)||_L2 - ||T||_S2 | /
    ||T||_S2`` over random T; the round-trip fields are those of
    :func:`verify_roundtrips` on the same operators and dual tables.
    """

    def measure(T, values):
        s2 = schatten_norm(T, 2.0)
        deviations = np.abs(l_q_norm(qft_forward(system, T), 2.0) - s2)
        return deviations, s2, *_roundtrip_residuals(system, T, values)

    draw = (partial(streams.OperatorReads, system.N), partial(streams.TableReads, system.group.size))
    deviations, s2, *residuals = streams.run_trials(system.N, trials, seed, draw, measure)
    worst = streams.worst_trial(*streams.kept_ratios(deviations, s2))[0]
    return {"worst_relative_deviation": worst} | _roundtrip_report(*residuals)


def verify_roundtrips(system: WeylSystem, trials: int, seed: int) -> dict:
    """Worst relative residuals of both transform compositions on random inputs."""
    draw = (partial(streams.OperatorReads, system.N), partial(streams.TableReads, system.group.size))
    residuals = streams.run_trials(system.N, trials, seed, draw, partial(_roundtrip_residuals, system))
    return _roundtrip_report(*residuals)


@dataclass(frozen=True)
class HausdorffYoungReport:
    """Worst measured ratio for one exponent and direction of the norm inequality."""

    p: float
    q: float
    direction: str
    trials: int
    seed: int
    worst_ratio: float
    witness_available: bool
    witness_index: int | None = None
    skipped: int = 0


def conjugate_exponent(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def verify_hausdorff_young(
    system: WeylSystem, exponents: Sequence[float], direction: str, trials: int, seed: int
) -> tuple[HausdorffYoungReport, ...]:
    """Worst ratios of the two-sided norm inequality, one report per exponent.

    ``forward`` measures ``||F(T)||_Lq / ||T||_Sp`` over random operators and
    ``inverse`` measures ``||F^-1(f)||_Sq / ||f||_Lp`` over random phase
    functions, with ``q`` conjugate to ``p in [1, 2]``.  Under the module's
    normalization both ratios are bounded by 1; ``p = 2`` is the unitary case
    and ``p = 1`` follows from the operator-norm bound on the Weyl unitaries.
    Every exponent is measured on the same draws, each transformed and
    decomposed once.
    """
    for p in exponents:
        if not 1.0 <= p <= 2.0:
            raise ValueError(f"exponent p must lie in [1, 2], got {p}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    qs = [conjugate_exponent(p) for p in exponents]
    mass = system.group.dual_mass

    def power_norms(tables, ps, mass_per_point):
        # Schatten norms are the unweighted l^p norms of the singular values.
        return np.stack([lq_table_norm(tables, p, mass_per_point) for p in ps], axis=-1)

    if direction == "forward":
        draw = (partial(streams.OperatorReads, system.N),)

        def measure(T):
            transformed = power_norms(qft_forward(system, T).values, qs, mass)
            return transformed, power_norms(singular_values(T), exponents, 1.0)
    else:
        draw = (partial(streams.TableReads, system.group.size),)

        def measure(f):
            S = singular_values(qft_inverse(system, PhaseFunction(system.group, f)))
            return power_norms(S, qs, 1.0), power_norms(f, exponents, mass)

    numerators, denominators = streams.run_trials(system.N, trials, seed, draw, measure)
    reports = []
    for j, (p, q) in enumerate(zip(exponents, qs)):
        ratios, kept = streams.kept_ratios(numerators[:, j], denominators[:, j])
        worst, witness = streams.worst_trial(ratios, kept)
        reports.append(
            HausdorffYoungReport(
                p=p,
                q=q,
                direction=direction,
                trials=trials,
                seed=seed,
                worst_ratio=worst,
                witness_available=witness is not None,
                witness_index=witness,
                skipped=int(np.count_nonzero(~kept)),
            )
        )
    return tuple(reports)
