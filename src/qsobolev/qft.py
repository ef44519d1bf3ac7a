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
symmetric convention.  A transform costs O(N^2 log N) time and O(N^2) memory
(Feichtinger, Kozek & Luef, ACHA 2009; Werner, JMP 1984).  Both take a stack
of operators or functions as well and transform it with one FFT call.

Every sampling harness of the package runs on one trial engine,
:func:`run_trials`.  It owns the ``trials >= 1`` check and reads trial
``k = 0, 1, ...`` in order from the stream of ``np.random.default_rng([seed,
k])``, so every report is what a one-trial-at-a-time loop gives.  The streams
are seeded in blocks: :func:`~qsobolev.streams.seed_block` derives the
generator states of ``SEED_BLOCK`` trials in one vectorised pass, and a single
generator, local to the run, is reset to each trial's state, so the generator
handed to a read is valid only during that call.  A trial does nothing but
read its stream into the buffers of its chunk (at most ``CHUNK_BYTES`` of
N x N complex operators); all draw arithmetic runs once per chunk (the
Ginibre scaling, outer products, diagonals, phase tables, one batched QR and
one stacked ``U S U*``), and the chunk is measured with stacked kernel calls.
:func:`kept_ratios` and :func:`worst_trial` reduce the per-trial arrays to the
report fields: skipped trials come from a zero-denominator mask, and the worst
value and its witness from ``np.argmax``, whose first occurrence is the trial
a loop keeping the first strict maximum would report.  :func:`replay` rebuilds
one trial's draw, a reported witness for instance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .groups import PhaseFunction, l_q_norm, lq_table_norm
from .linalg import as_operator, schatten_norm, singular_values
# The ensembles and one-draw functions keep their qft names as well.
from .streams import (
    OPERATOR_ENSEMBLES,
    PHASE_ENSEMBLES,
    SEED_BLOCK,
    OperatorReads,
    TableReads,
    random_operator,
    random_phase_function,
    random_unitary,
    seed_block,
    seed_trial,
    trial_rng,
)
from .weyl import WeylSystem


def _wrapped_diagonals(N: int) -> np.ndarray:
    """Flat indices ``t*N + (t + a) % N`` at ``[a, t]``: ``D[a, t] = T[t, (t + a) % N]``."""
    t = np.arange(N)
    return t * N + (t[:, None] + t) % N


def _phase(system: WeylSystem) -> np.ndarray | float:
    """Conjugate of the symmetric-convention factor over ``(a, b)`` (1 if standard),
    with the integer phase reduced mod 2N as in ``weyl_operator``."""
    if system.convention == "standard":
        return 1.0
    a = np.arange(system.N)
    return np.exp(1j * np.pi * (np.outer(a, a) % (2 * system.N)) / system.N)


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
    values = np.fft.fft(diagonals, axis=-1) * _phase(system)
    return PhaseFunction(system.group, values.reshape(*lead, N * N))


def qft_inverse(system: WeylSystem, f: PhaseFunction) -> np.ndarray:
    """Reconstruct the operator ``sum_xi f(xi) pi(xi) * mass_per_dual_point``.

    A stack of functions gives the stack of operators from one FFT call.
    """
    N = system.N
    if f.group != system.group:
        raise ValueError(f"phase function lives on the N={f.group.N} grid, system has N={N}")
    lead = f.values.shape[:-1]
    table = f.values.reshape(*lead, N, N) * np.conj(_phase(system))
    # norm="forward" leaves the inverse DFT unscaled: sum_b table[a, b] omega^(b t).
    diagonals = np.fft.ifft(table, axis=-1, norm="forward")
    del table  # one N^2 table fewer while T is filled
    T = np.empty((*lead, N * N), dtype=np.complex128)
    T[..., _wrapped_diagonals(N)] = diagonals
    return T.reshape(*lead, N, N) * system.group.dual_mass


#: Byte budget of one chunk of stacked trial draws: 128 complex 8 x 8
#: operators, 8 at N = 32, 2 at N = 64, and one trial per chunk from N = 91 up,
#: so a large-N harness holds no more N x N matrices than one trial would.
CHUNK_BYTES = 128 * 1024


def chunk_length(N: int) -> int:
    """Trials per chunk: the N x N complex128 draws that fit in ``CHUNK_BYTES``, at least 1."""
    return max(1, CHUNK_BYTES // (16 * N * N))


def _read(rng: np.random.Generator, columns: Sequence, i: int) -> None:
    for column in columns:
        column.read(rng, i)


def run_trials(N: int, trials: int, seed: int, draw, measure) -> tuple[np.ndarray, ...]:
    """The trial engine: read each trial from its own stream, assemble and measure chunks, join.

    ``draw(length)`` returns the columns of one chunk of ``length`` trials
    (:class:`OperatorReads`, :class:`TableReads`, :class:`ScalarReads`).
    Trial k is read into slot ``k - start`` of each column, in column order,
    from one generator reset to the stream of ``np.random.default_rng([seed,
    k])``; the states come from :func:`seed_block`, ``SEED_BLOCK`` trials at
    a time, and the generator is local to the call.  So every trial reads
    what it would read alone, and no trial does more than read its stream:
    all draw arithmetic runs in ``assemble``, once per chunk of
    ``chunk_length(N)`` trials.  ``measure`` gets the assembled columns and
    returns a tuple of arrays whose leading axis runs over the chunk; those
    are joined in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    step = chunk_length(N)
    rng = np.random.Generator(np.random.PCG64())
    measured = []
    for start in range(0, trials, step):
        stop = min(start + step, trials)
        columns = draw(stop - start)
        for k in range(start, stop):
            if k % SEED_BLOCK == 0:
                block = seed_block(seed, k, min(SEED_BLOCK, trials - k))
            seed_trial(rng, block, k)
            _read(rng, columns, k - start)
        # An assembled column is its own read buffer: measuring holds one chunk.
        parts = [column.assemble() for column in columns]
        del columns
        measured.append(measure(*parts))
        del parts
    return tuple(np.concatenate(column) for column in zip(*measured))


def replay(draw, seed: int, index: int) -> tuple[np.ndarray, ...]:
    """Trial ``index``'s assembled draw, as :func:`run_trials` passes it to ``measure``.

    Each part keeps a leading axis of length one.  With a harness's draw and
    seed, this rebuilds a reported witness from its ``witness_index``.
    """
    columns = draw(1)
    _read(trial_rng(seed, index), columns, 0)
    return tuple(column.assemble() for column in columns)


def operator_draw(system: WeylSystem):
    """The :func:`run_trials` draw of one random operator on C^N per trial."""
    return lambda length: (OperatorReads(system.N, length),)


def table_draw(system: WeylSystem):
    """The :func:`run_trials` draw of one random table on the dual per trial."""
    return lambda length: (TableReads(system.group.size, length),)


def operator_and_table_draw(system: WeylSystem):
    """The :func:`run_trials` draw of a random operator, then a random dual table."""
    return lambda length: (OperatorReads(system.N, length), TableReads(system.group.size, length))


def kept_ratios(numerators: np.ndarray, denominators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial ``numerators / denominators`` and the mask of kept trials.

    A trial with a zero denominator is skipped: its ratio reads 0 and its mask
    entry is False.
    """
    kept = denominators != 0.0
    return np.divide(numerators, denominators, out=np.zeros(kept.shape), where=kept), kept


def worst_trial(values: np.ndarray, kept=True, floor: float = 0.0) -> tuple[float, int | None]:
    """The largest kept value and the first trial attaining it, or ``(floor, None)``.

    ``np.argmax`` returns the first occurrence of the maximum, the trial a
    loop keeps when it replaces its running worst (starting at ``floor``) only
    on a strict ``>``.  A NaN is returned, not skipped.
    """
    values = np.where(kept, values, -np.inf)
    k = int(np.argmax(values))
    if values[k] <= floor:
        return floor, None
    return float(values[k]), k


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
        "operator_roundtrip": worst_trial(*kept_ratios(op_err, op_norm))[0],
        "function_roundtrip": worst_trial(*kept_ratios(fn_err, fn_norm))[0],
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

    deviations, s2, *residuals = run_trials(
        system.N, trials, seed, operator_and_table_draw(system), measure
    )
    worst = worst_trial(*kept_ratios(deviations, s2))[0]
    return {"worst_relative_deviation": worst} | _roundtrip_report(*residuals)


def verify_roundtrips(system: WeylSystem, trials: int, seed: int) -> dict:
    """Worst relative residuals of both transform compositions on random inputs."""
    residuals = run_trials(
        system.N, trials, seed, operator_and_table_draw(system),
        lambda T, values: _roundtrip_residuals(system, T, values),
    )
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

    def to_dict(self) -> dict:
        return asdict(self)


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

    def norms(tables, ps, mass_per_point):
        # Schatten norms are the unweighted l^p norms of the singular values.
        return np.stack([lq_table_norm(tables, p, mass_per_point) for p in ps], axis=-1)

    if direction == "forward":
        draw = operator_draw(system)

        def measure(T):
            transformed = norms(qft_forward(system, T).values, qs, mass)
            return transformed, norms(singular_values(T), exponents, 1.0)
    else:
        draw = table_draw(system)

        def measure(f):
            S = singular_values(qft_inverse(system, PhaseFunction(system.group, f)))
            return norms(S, qs, 1.0), norms(f, exponents, mass)

    norms, denominators = run_trials(system.N, trials, seed, draw, measure)
    reports = []
    for j, (p, q) in enumerate(zip(exponents, qs)):
        ratios, kept = kept_ratios(norms[:, j], denominators[:, j])
        worst, witness = worst_trial(ratios, kept)
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
