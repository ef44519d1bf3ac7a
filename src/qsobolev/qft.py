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
:func:`run_trials`.  It owns the ``trials >= 1`` check, calls a per-trial draw
on ``trial_rng(seed, k)`` for ``k = 0, 1, ...`` in order (so every per-trial
stream, and with it every report, is what a one-trial-at-a-time loop gives),
stacks the draws in chunks of at most ``CHUNK_BYTES`` of N x N complex
operators, and measures a whole chunk with stacked kernel calls.
:func:`kept_ratios` and :func:`worst_trial` reduce the per-trial arrays to the
report fields: skipped trials come from a zero-denominator mask, and the worst
value and its witness from ``np.argmax``, whose first occurrence is the trial
a loop keeping the first strict maximum would report.

A random draw is split in two.  The per-trial part only reads the stream:
:func:`read_operator` and :func:`read_phase_table` consume it in the order a
one-go draw does and return raw arrays (an :class:`OperatorRead`, a dual
table), not validated objects.  The deterministic part runs once per chunk:
:func:`assemble_operators` factors the Ginibre matrices of all
``sparse_unitary`` reads with one batched QR and conjugates their sparse cores
with one stacked matmul, bit for bit what one draw at a time gives.  The
one-draw API, :func:`random_operator` and :func:`random_phase_function`, is
the same reader and assembly applied to a single trial.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .groups import PhaseFunction, l_q_norm, lq_table_norm
from .linalg import as_operator, schatten_norm, singular_values
from .weyl import WeylSystem

OPERATOR_ENSEMBLES = ("ginibre", "rank_one", "diagonal", "sparse_unitary")
PHASE_ENSEMBLES = ("gaussian", "delta", "indicator")


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


def _haar_unitaries(Z: np.ndarray) -> np.ndarray:
    """Haar-ish unitaries from the QR factorization of Ginibre matrices (one or a stack).

    A stack is factored with one ``np.linalg.qr`` call, which loops LAPACK
    over the matrices exactly as single calls do.
    """
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _read_ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR factorization of a Ginibre matrix."""
    return _haar_unitaries(_read_ginibre(rng, n))


@dataclass(frozen=True, eq=False)
class OperatorRead:
    """One random operator as read from its stream, before chunk assembly.

    ``matrix`` is the operator itself, except for a ``sparse_unitary`` draw:
    there it is the Ginibre matrix of the Haar unitary ``U``, and ``core``
    holds the ``(rows, cols, values)`` of the sparse matrix ``S`` in ``U S U*``.
    """

    matrix: np.ndarray
    core: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def read_operator(rng: np.random.Generator, n: int, kind: str = "mixed") -> OperatorRead:
    """Read one random operator from ``rng``: Ginibre, rank-one, diagonal, or sparse core.

    ``mixed`` draws the ensemble uniformly; the variety supplies diverse
    near-extremal candidates for the norm inequalities (rank-one operators in
    particular saturate the interpolated bounds).  Only the stream is read
    here; the QR factorization and conjugation of a ``sparse_unitary`` draw
    wait for :func:`assemble_operators`.
    """
    if kind == "mixed":
        kind = OPERATOR_ENSEMBLES[rng.integers(len(OPERATOR_ENSEMBLES))]
    if kind == "ginibre":
        return OperatorRead(_read_ginibre(rng, n) / math.sqrt(2.0))
    if kind == "rank_one":
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return OperatorRead(np.outer(u, v.conj()))
    if kind == "diagonal":
        return OperatorRead(np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    if kind == "sparse_unitary":
        nnz = max(1, n // 2)
        rows = rng.integers(n, size=nnz)
        cols = rng.integers(n, size=nnz)
        values = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
        return OperatorRead(_read_ginibre(rng, n), (rows, cols, values))
    raise ValueError(f"unknown operator ensemble {kind!r}")


def assemble_operators(matrices: np.ndarray, cores: Sequence) -> np.ndarray:
    """Turn the stacked ``matrix`` fields of a chunk of reads into its operators, in place.

    ``cores[k]`` is the ``core`` of read k.  The Ginibre matrices of all
    ``sparse_unitary`` reads are factored with one batched QR and conjugate
    their cores with one stacked matmul, bit for bit what one read at a time
    gives.  Returns ``matrices``.
    """
    haar = [k for k, core in enumerate(cores) if core is not None]
    if not haar:
        return matrices
    # A chunk of sparse_unitary reads only (at large N, a chunk of one) is
    # factored and overwritten without a copy of the stack: at N = 1024 that
    # saves one N x N array at the peak, 120 instead of 136 MiB for three such trials.
    whole = len(haar) == len(matrices)
    U = _haar_unitaries(matrices if whole else matrices[haar])
    S = np.zeros_like(U)
    for s, k in zip(S, haar):
        rows, cols, values = cores[k]
        s[rows, cols] = values
    US = U @ S
    if whole:
        np.matmul(US, U.conj().swapaxes(-2, -1), out=matrices)
    else:
        matrices[haar] = US @ U.conj().swapaxes(-2, -1)
    return matrices


def random_operator(rng: np.random.Generator, n: int, kind: str = "mixed") -> np.ndarray:
    """One random operator: :func:`read_operator` assembled on its own."""
    read = read_operator(rng, n, kind)
    return assemble_operators(read.matrix[None], [read.core])[0]


def read_phase_table(rng: np.random.Generator, size: int, kind: str = "mixed") -> np.ndarray:
    """Read one random table on the dual: dense Gaussian, a delta, or an indicator."""
    if kind == "mixed":
        kind = PHASE_ENSEMBLES[rng.integers(len(PHASE_ENSEMBLES))]
    if kind == "gaussian":
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)
    values = np.zeros(size, dtype=np.complex128)
    if kind == "delta":
        values[rng.integers(size)] = rng.standard_normal() + 1j * rng.standard_normal()
    elif kind == "indicator":
        count = int(rng.integers(1, size + 1))
        support = rng.choice(size, size=count, replace=False)
        values[support] = rng.standard_normal() + 1j * rng.standard_normal()
    else:
        raise ValueError(f"unknown phase ensemble {kind!r}")
    return values


def random_phase_function(
    rng: np.random.Generator, system: WeylSystem, kind: str = "mixed"
) -> PhaseFunction:
    """One random function on the dual: :func:`read_phase_table` as a PhaseFunction."""
    return PhaseFunction(system.group, read_phase_table(rng, system.group.size, kind))


#: Byte budget of one chunk of stacked trial draws: 128 complex 8 x 8
#: operators, 8 at N = 32, 2 at N = 64, and one trial per chunk from N = 91 up,
#: so a large-N harness holds no more N x N matrices than one trial would.
CHUNK_BYTES = 128 * 1024


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator derived from (seed, trial index).

    The stream of ``np.random.default_rng([seed, index])``, built without
    ``default_rng``'s argument dispatch.
    """
    return np.random.Generator(np.random.PCG64([seed, index]))


def chunk_length(N: int) -> int:
    """Trials per chunk: the N x N complex128 draws that fit in ``CHUNK_BYTES``, at least 1."""
    return max(1, CHUNK_BYTES // (16 * N * N))


def run_trials(N: int, trials: int, seed: int, draw, measure) -> tuple[np.ndarray, ...]:
    """The trial engine: draw each trial on its own stream, measure whole chunks, join.

    ``draw(rng)`` runs on ``trial_rng(seed, k)`` for ``k = 0, ..., trials - 1``
    in order, so every trial sees the stream it would see alone, and returns
    a tuple of arrays, scalars or :class:`OperatorRead` objects.  The draws of
    ``chunk_length(N)`` trials are stacked component by component (a column
    of operator reads is then assembled by :func:`assemble_operators`) and
    passed to ``measure``, which returns a tuple of arrays whose leading axis
    runs over the chunk; those are joined in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    step = chunk_length(N)

    def measure_chunk(start: int) -> tuple:
        # Each draw is copied into its chunk stack and dropped, and locals end
        # with the call, so at most one chunk and one draw are held at a time.
        length = min(start + step, trials) - start
        for i in range(length):
            parts = draw(trial_rng(seed, start + i))
            if i == 0:
                columns = [_ChunkColumn(length, part) for part in parts]
            for column, part in zip(columns, parts):
                column.put(i, part)
        del parts, part
        return measure(*(column.finish() for column in columns))

    measured = [measure_chunk(start) for start in range(0, trials, step)]
    return tuple(np.concatenate(column) for column in zip(*measured))


class _ChunkColumn:
    """One component of a chunk's draws, copied into its stack as each trial is drawn.

    A column of :class:`OperatorRead` objects stacks their matrices, keeps
    their cores and is assembled by :func:`assemble_operators` when finished.
    """

    def __init__(self, length: int, first):
        self.cores = [] if isinstance(first, OperatorRead) else None
        sample = np.asarray(first if self.cores is None else first.matrix)
        self.stack = np.empty((length, *sample.shape), sample.dtype)

    def put(self, i: int, part) -> None:
        if self.cores is None:
            self.stack[i] = part
        else:
            self.stack[i] = part.matrix
            self.cores.append(part.core)

    def finish(self) -> np.ndarray:
        if self.cores is None:
            return self.stack
        return assemble_operators(self.stack, self.cores)


def operator_draw(system: WeylSystem):
    """The :func:`run_trials` draw of one random operator on C^N per trial."""
    return lambda rng: (read_operator(rng, system.N),)


def operator_and_table_draw(system: WeylSystem):
    """The :func:`run_trials` draw of a random operator, then a random dual table."""
    return lambda rng: (read_operator(rng, system.N), read_phase_table(rng, system.group.size))


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

        def draw(rng):
            return (read_phase_table(rng, system.group.size),)

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
