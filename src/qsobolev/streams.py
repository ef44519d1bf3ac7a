"""The trial engine, its seeded per-trial streams, and the random ensembles read from them.

Trial k of a run with seed ``seed`` draws from the stream of
``np.random.default_rng([seed, k])``.  numpy seeds that generator in two
steps, both frozen by its stream-compatibility policy (NEP 19):
SeedSequence hashes the 32-bit words of ``seed`` and ``k`` into a pool of
four words and expands the pool to four 64-bit words, and PCG64 sets its
128-bit LCG state from them (``pcg_setseq_128_srandom_r``, O'Neill, PCG,
HMC-CS-2014-0905).  The state is therefore a pure function of ``(seed, k)``:
:func:`seed_block` derives the states of ``SEED_BLOCK`` consecutive trials
at once, running the hashing on arrays.

A trial only reads its stream.  :class:`OperatorReads`, :class:`TableReads`
and :class:`ScalarReads` each hold one component of a chunk of trials: their
``read(rng, i)`` consumes trial i's draw in the order a one-go draw does and
writes the raw normals and integers into preallocated buffers, and
``assemble()`` then runs all complex arithmetic of the chunk at once (the
Ginibre scaling, outer products, diagonals, phase tables, one batched QR and
one stacked ``U S U*``), bit for bit what one draw at a time gives.
:func:`random_operator` and :func:`random_phase_function` are the same reads
and assembly on a chunk of one trial.

Every sampling harness runs on the trial engine :func:`run_trials`.  A draw
is a tuple of one-argument column constructors, ``(partial(OperatorReads,
N), ScalarReads)`` for instance, each making its column for a chunk of at
most ``CHUNK_BYTES`` of N x N complex operators.  One generator, local to
the run, is reset to each trial's state in trial order, so every report is
what a one-trial-at-a-time loop gives, and the generator handed to a read is
valid only during that call.  :func:`kept_ratios` and :func:`worst_trial`
reduce the per-trial arrays to report fields: the worst value and its
witness come from ``np.argmax``, whose first occurrence is the trial a loop
keeping the first strict maximum would report.  :func:`replay` rebuilds one
trial's draw, a reported witness for instance.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .groups import PhaseFunction
from .weyl import WeylSystem

OPERATOR_ENSEMBLES = ("ginibre", "rank_one", "diagonal", "sparse_unitary")
PHASE_ENSEMBLES = ("gaussian", "delta", "indicator")


def _haar_unitaries(Z: np.ndarray) -> np.ndarray:
    """Haar-ish unitaries from the QR factorization of Ginibre matrices (one or a stack).

    A stack is factored with one ``np.linalg.qr`` call, which loops LAPACK
    over the matrices exactly as single calls do.
    """
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    Q *= (d / np.abs(d))[..., None, :]
    return Q


# -- per-trial stream states ---------------------------------------------------

#: Trials whose stream states :func:`seed_block` derives in one pass.
SEED_BLOCK = 1024

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_WORDS = 4
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first, one at least."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {value!r}")
    value = int(value)
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


# The hashing runs on int64 arrays holding 32-bit words: a product of two
# words wraps modulo 2**64, so masking it keeps exactly the uint32 product.


def _hash_constants(first: int, multiplier: int, count: int) -> np.ndarray:
    """The successive hash constants ``first * multiplier**j mod 2**32``, as a column."""
    constants = [first]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & _MASK32)
    return np.array(constants, dtype=np.int64)[:, None]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``values`` under each consecutive pair of ``constants``."""
    mixed = (values ^ constants[:-1]) * constants[1:] & _MASK32
    return mixed ^ mixed >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y & _MASK32
    return result ^ result >> 16


# Why re-derive what ``default_rng([seed, k])`` computes: on a 2-vCPU x86-64
# host (numpy 2.4.6, one BLAS thread) a 900-trial block costs 3.7-6.2 us per
# trial against 10.9-21.0 us for a fresh ``default_rng`` per trial, which would
# add about 17% to one in-process pass of the eight subcommands' defaults.
def seed_block(seed: int, start: int, count: int) -> list[dict]:
    """The PCG64 states of trials ``start, ..., start + count - 1``, derived together.

    Entry j is ``np.random.default_rng([seed, start + j]).bit_generator.state``.
    ``seed`` is a non-negative integer of any size: a negative or
    non-integer seed raises what ``default_rng`` raises.  Trial indices are
    non-negative and below ``2**63``.
    """
    seed_words = _uint32_words(seed)
    start = operator.index(start)
    if start < 0:
        raise ValueError(f"trial index must be non-negative, got {start}")
    index = np.arange(start, start + count, dtype=np.int64)
    # The entropy words of trial j are column j: the seed's, then the index's
    # low and high word.  An index below 2**32 is one word; its high word reads
    # 0, which is what the hash uses for entropy shorter than the pool, and past
    # the pool the mixing skips it.
    n_seed = len(seed_words)
    entropy = np.zeros((max(n_seed + 2, _POOL_WORDS), count), dtype=np.int64)
    entropy[:n_seed] = np.array(seed_words, dtype=np.int64)[:, None]
    entropy[n_seed] = index & _MASK32
    entropy[n_seed + 1] = index >> 32
    extra = len(entropy) - _POOL_WORDS
    A = _hash_constants(_HASH_A, _MULT_A, _POOL_WORDS**2 + _POOL_WORDS * extra)
    pool = _hashmix(entropy[:_POOL_WORDS], A[: _POOL_WORDS + 1])
    call = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [d for d in range(_POOL_WORDS) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], A[call : call + _POOL_WORDS]))
        call += _POOL_WORDS - 1
    for src in range(_POOL_WORDS, len(entropy)):
        mixed = _mix(pool, _hashmix(entropy[src], A[call : call + _POOL_WORDS + 1]))
        present = src <= n_seed or entropy[src] != 0
        pool = np.where(present, mixed, pool)
        call += _POOL_WORDS
    B = _hash_constants(_HASH_B, _MULT_B, 2 * _POOL_WORDS)
    words = _hashmix(pool[np.arange(2 * _POOL_WORDS) % _POOL_WORDS], B)
    states = []
    # Eight 32-bit words make the 128-bit initial state and sequence, each
    # as two little-endian 64-bit words, high one first.
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*words.tolist()):
        inc = (w4 << 64 | w5 << 96 | w6 | w7 << 32) << 1 & _MASK128 | 1
        state = ((w0 << 64 | w1 << 96 | w2 | w3 << 32) + inc) * _PCG_MULTIPLIER + inc & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return states


def _trial_streams(seed: int, start: int, stop: int):
    """One generator, reset in turn to the streams of trials ``start`` to ``stop - 1``.

    Each stream is valid until the next is drawn; the states come from
    :func:`seed_block`, ``SEED_BLOCK`` trials at a time.
    """
    rng = np.random.Generator(np.random.PCG64())
    for first in range(start, stop, SEED_BLOCK):
        for state in seed_block(seed, first, min(SEED_BLOCK, stop - first)):
            rng.bit_generator.state = state
            yield rng


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of one trial: the stream of ``np.random.default_rng([seed, index])``."""
    return next(_trial_streams(seed, index, index + 1))


# -- raw reads and chunk assembly -----------------------------------------------


def _complex(parts: np.ndarray) -> np.ndarray:
    """``re + 1j*im`` from a stack of (re, im) pairs on axis 1, as a one-go draw builds it."""
    return parts[:, 0] + 1j * parts[:, 1]


def _rows(slots: list[int]) -> slice | list[int]:
    """Increasing chunk slots as an index: a run of consecutive ones as a slice.

    A slice views the read buffers instead of copying them, so a one-trial
    chunk (every chunk from N = 91 up) assembles with no copy of its reads.
    """
    if slots[-1] - slots[0] == len(slots) - 1:
        return slice(slots[0], slots[-1] + 1)
    return slots


class OperatorReads:
    """The random operators on C^n of a chunk of ``length`` trials, read raw, assembled once.

    ``mixed`` draws the ensemble uniformly per trial; the variety supplies
    diverse near-extremal candidates for the norm inequalities (rank-one
    operators in particular saturate the interpolated bounds).  A read writes
    the trial's normals and integers into this chunk's buffers; :meth:`assemble`
    then builds every operator at once: the Ginibre ``(re + 1j*im)/sqrt(2)``,
    the rank-one outer products, the diagonals, and for ``sparse_unitary`` one
    batched QR of the Ginibre matrices and one stacked ``U S U*``.  The
    operator stack doubles as the buffer of the square reads, so assembly
    overwrites the reads and runs once.
    """

    def __init__(self, n: int, length: int, kind: str = "mixed"):
        if kind != "mixed" and kind not in OPERATOR_ENSEMBLES:
            raise ValueError(f"unknown operator ensemble {kind!r}")
        self.n, self.kind = n, kind
        self.nnz = max(1, n // 2)
        self.operators = np.empty((length, n, n), dtype=np.complex128)
        # Trial i's n x n real and imaginary parts, read into its operator's bytes.
        self.square = self.operators.view(np.float64).reshape(length, 2, n, n)
        # Rank-one u and v, or a diagonal: (re, im) pairs of length n.
        self.vectors = np.empty((length, 4, n))
        # A sparse core: its rows and columns, and its values as (re, im).
        self.cores = np.empty((length, 2, self.nnz), dtype=np.int64)
        self.values = np.empty((length, 2, self.nnz))
        self.by_kind = {ensemble: [] for ensemble in OPERATOR_ENSEMBLES}

    def read(self, rng: np.random.Generator, i: int) -> None:
        """Read trial ``i``'s operator from ``rng``."""
        kind = self.kind
        if kind == "mixed":
            kind = OPERATOR_ENSEMBLES[rng.integers(len(OPERATOR_ENSEMBLES))]
        self.by_kind[kind].append(i)
        if kind == "ginibre":
            rng.standard_normal(out=self.square[i])
        elif kind == "rank_one":
            rng.standard_normal(out=self.vectors[i])
        elif kind == "diagonal":
            rng.standard_normal(out=self.vectors[i, :2])
        else:
            self.cores[i] = rng.integers(self.n, size=(2, self.nnz))
            rng.standard_normal(out=self.values[i])
            rng.standard_normal(out=self.square[i])

    def assemble(self) -> np.ndarray:
        """The stack of read operators, in trial order."""
        T, n = self.operators, self.n
        for kind, slots in self.by_kind.items():
            if not slots:
                continue
            rows = _rows(slots)
            if kind == "ginibre":
                T[rows] = _complex(self.square[rows]) / math.sqrt(2.0)
            elif kind == "rank_one":
                u, v = _complex(self.vectors[rows, :2]), _complex(self.vectors[rows, 2:])
                T[rows] = u[:, :, None] * v.conj()[:, None, :]
            elif kind == "diagonal":
                T[rows] = 0.0
                T.reshape(len(T), n * n)[rows, :: n + 1] = _complex(self.vectors[rows, :2])
            else:
                # The Ginibre matrices take the place of their reads, so beside
                # the stack at most three more are live: the QR's copy, Q and R,
                # then U, U S and U S U*.
                T[rows] = _complex(self.square[rows])
                U = _haar_unitaries(T[rows])
                S = np.zeros_like(U)
                cores = self.cores[rows]
                S[np.arange(len(slots))[:, None], cores[:, 0], cores[:, 1]] = _complex(self.values[rows])
                US = U @ S
                del S
                T[rows] = US @ np.conj(U, out=U).swapaxes(-2, -1)
        return T


class TableReads:
    """The random tables on a dual of ``size`` points of a chunk of trials, read raw.

    A table is dense Gaussian, a delta, or an indicator (``mixed`` draws the
    ensemble uniformly).  :meth:`read` consumes one trial's table in the
    order a one-go draw does; :meth:`assemble` builds every table of the
    chunk at once.
    """

    def __init__(self, size: int, length: int, kind: str = "mixed"):
        if kind != "mixed" and kind not in PHASE_ENSEMBLES:
            raise ValueError(f"unknown phase ensemble {kind!r}")
        self.size, self.kind = size, kind
        self.tables = np.empty((length, size), dtype=np.complex128)
        self.gaussian = self.tables.view(np.float64).reshape(length, 2, size)
        # The single value of a delta or indicator table, and its support.
        self.values = np.empty((length, 2))
        self.support = np.zeros((length, size), dtype=bool)
        self.by_kind = {ensemble: [] for ensemble in PHASE_ENSEMBLES}

    def read(self, rng: np.random.Generator, i: int) -> None:
        """Read trial ``i``'s table from ``rng``."""
        kind = self.kind
        if kind == "mixed":
            kind = PHASE_ENSEMBLES[rng.integers(len(PHASE_ENSEMBLES))]
        self.by_kind[kind].append(i)
        if kind == "gaussian":
            rng.standard_normal(out=self.gaussian[i])
            return
        if kind == "delta":
            # A one-go draw reads the value before the point: ``t[point] = value``.
            rng.standard_normal(out=self.values[i])
            self.support[i, rng.integers(self.size)] = True
        else:
            count = int(rng.integers(1, self.size + 1))
            self.support[i, rng.choice(self.size, size=count, replace=False)] = True
            rng.standard_normal(out=self.values[i])

    def assemble(self) -> np.ndarray:
        """The stack of read tables, in trial order."""
        for kind, slots in self.by_kind.items():
            if not slots:
                continue
            rows = _rows(slots)
            if kind == "gaussian":
                self.tables[rows] = _complex(self.gaussian[rows])
            else:
                values = _complex(self.values[rows, :, None])
                self.tables[rows] = np.where(self.support[rows], values, 0.0)
        return self.tables


class ScalarReads:
    """One complex scalar ``complex(re, im)`` of two standard normals per trial."""

    def __init__(self, length: int):
        self.scalars = np.empty(length, dtype=np.complex128)
        self.parts = self.scalars.view(np.float64).reshape(length, 2)

    def read(self, rng: np.random.Generator, i: int) -> None:
        rng.standard_normal(out=self.parts[i])

    def assemble(self) -> np.ndarray:
        return self.scalars


def random_operator(rng: np.random.Generator, n: int, kind: str = "mixed") -> np.ndarray:
    """One random operator: an :class:`OperatorReads` chunk of one trial."""
    reads = OperatorReads(n, 1, kind)
    reads.read(rng, 0)
    return reads.assemble()[0]


def random_phase_function(
    rng: np.random.Generator, system: WeylSystem, kind: str = "mixed"
) -> PhaseFunction:
    """One random function on the dual: a :class:`TableReads` chunk of one trial."""
    reads = TableReads(system.group.size, 1, kind)
    reads.read(rng, 0)
    return PhaseFunction(system.group, reads.assemble()[0])


# -- the trial engine ------------------------------------------------------------

#: Byte budget of one chunk of stacked trial draws: 128 complex 8 x 8
#: operators, 8 at N = 32, 2 at N = 64, and one trial per chunk from N = 91 up,
#: so a large-N harness holds no more N x N matrices than one trial would.
CHUNK_BYTES = 128 * 1024


def chunk_length(N: int) -> int:
    """Trials per chunk: the N x N complex128 draws that fit in ``CHUNK_BYTES``, at least 1."""
    return max(1, CHUNK_BYTES // (16 * N * N))


def _read_chunk(draw, length: int, streams) -> list:
    """The columns of ``draw`` for ``length`` trials, trial i read from the i-th of ``streams``."""
    columns = [column(length) for column in draw]
    for i, rng in zip(range(length), streams):
        for column in columns:
            column.read(rng, i)
    return columns


def run_trials(N: int, trials: int, seed: int, draw, measure) -> tuple[np.ndarray, ...]:
    """The trial engine: read each trial from its own stream, assemble and measure chunks, join.

    Trial k is read into slot ``k - start`` of each column of ``draw``, in
    column order, from the stream of ``np.random.default_rng([seed, k])``.
    All draw arithmetic runs in ``assemble``, once per chunk of
    ``chunk_length(N)`` trials.  ``measure`` gets the assembled columns and
    returns arrays whose leading axis runs over the chunk, joined in trial
    order.  ``trials`` must be at least 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    step = chunk_length(N)
    streams = _trial_streams(seed, 0, trials)
    measured = []
    for start in range(0, trials, step):
        columns = _read_chunk(draw, min(step, trials - start), streams)
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
    columns = _read_chunk(draw, 1, _trial_streams(seed, index, index + 1))
    return tuple(column.assemble() for column in columns)


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
