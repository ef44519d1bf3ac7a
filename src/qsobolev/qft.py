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
(Feichtinger, Kozek & Luef, ACHA 2009; Werner, JMP 1984).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .groups import PhaseFunction, l_q_norm
from .linalg import as_operator, schatten_norm
from .weyl import WeylSystem

OPERATOR_ENSEMBLES = ("ginibre", "rank_one", "diagonal", "sparse_unitary")
PHASE_ENSEMBLES = ("gaussian", "delta", "indicator")


def _wrapped_diagonals(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pair selecting ``D[a, t] = T[t, (t + a) % N]`` from an N x N matrix."""
    t = np.arange(N)
    return t, (t[:, None] + t) % N


def _phase(system: WeylSystem) -> np.ndarray | float:
    """Conjugate of the symmetric-convention factor over ``(a, b)`` (1 if standard),
    with the integer phase reduced mod 2N as in ``weyl_operator``."""
    if system.convention == "standard":
        return 1.0
    a = np.arange(system.N)
    return np.exp(1j * np.pi * (np.outer(a, a) % (2 * system.N)) / system.N)


def qft_forward(system: WeylSystem, T) -> PhaseFunction:
    """Transform ``T`` to the phase function ``xi -> tr(T pi(xi)^*)``; linear in T."""
    T = as_operator(T)
    if T.shape[0] != system.N:
        raise ValueError(f"operator dimension {T.shape[0]} does not match system N={system.N}")
    values = np.fft.fft(T[_wrapped_diagonals(system.N)], axis=1) * _phase(system)
    return PhaseFunction(system.group, values.ravel())


def qft_inverse(system: WeylSystem, f: PhaseFunction) -> np.ndarray:
    """Reconstruct the operator ``sum_xi f(xi) pi(xi) * mass_per_dual_point``."""
    N = system.N
    if f.group != system.group:
        raise ValueError(f"phase function lives on the N={f.group.N} grid, system has N={N}")
    table = f.values.reshape(N, N) * np.conj(_phase(system))
    T = np.empty((N, N), dtype=np.complex128)
    # norm="forward" leaves the inverse DFT unscaled: sum_b table[a, b] omega^(b t).
    T[_wrapped_diagonals(N)] = np.fft.ifft(table, axis=1, norm="forward")
    return T * system.group.dual_mass


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR factorization of a Ginibre matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_operator(rng: np.random.Generator, n: int, kind: str = "mixed") -> np.ndarray:
    """Random test operators: Ginibre, rank-one, diagonal, or unitary-conjugated sparse.

    ``mixed`` draws the ensemble uniformly; the variety supplies diverse
    near-extremal candidates for the norm inequalities (rank-one operators in
    particular saturate the interpolated bounds).
    """
    if kind == "mixed":
        kind = OPERATOR_ENSEMBLES[rng.integers(len(OPERATOR_ENSEMBLES))]
    if kind == "ginibre":
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    if kind == "rank_one":
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.outer(u, v.conj())
    if kind == "diagonal":
        return np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if kind == "sparse_unitary":
        S = np.zeros((n, n), dtype=np.complex128)
        nnz = max(1, n // 2)
        rows = rng.integers(n, size=nnz)
        cols = rng.integers(n, size=nnz)
        S[rows, cols] = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
        U = random_unitary(rng, n)
        return U @ S @ U.conj().T
    raise ValueError(f"unknown operator ensemble {kind!r}")


def random_phase_function(
    rng: np.random.Generator, system: WeylSystem, kind: str = "mixed"
) -> PhaseFunction:
    """Random functions on the dual: dense Gaussian tables, deltas, or indicators."""
    K = system.group.size
    if kind == "mixed":
        kind = PHASE_ENSEMBLES[rng.integers(len(PHASE_ENSEMBLES))]
    if kind == "gaussian":
        vals = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    elif kind == "delta":
        vals = np.zeros(K, dtype=np.complex128)
        vals[rng.integers(K)] = rng.standard_normal() + 1j * rng.standard_normal()
    elif kind == "indicator":
        vals = np.zeros(K, dtype=np.complex128)
        size = int(rng.integers(1, K + 1))
        support = rng.choice(K, size=size, replace=False)
        vals[support] = rng.standard_normal() + 1j * rng.standard_normal()
    else:
        raise ValueError(f"unknown phase ensemble {kind!r}")
    return PhaseFunction(system.group, vals)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator derived from (seed, trial index)."""
    return np.random.default_rng([seed, index])


def verify_plancherel(system: WeylSystem, trials: int, seed: int) -> float:
    """Worst relative deviation | ||F(T)||_L2 - ||T||_S2 | / ||T||_S2 over random T."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    for k in range(trials):
        T = random_operator(trial_rng(seed, k), system.N)
        s2 = schatten_norm(T, 2.0)
        if s2 == 0.0:
            continue
        l2 = l_q_norm(qft_forward(system, T), 2.0)
        worst = max(worst, abs(l2 - s2) / s2)
    return worst


def verify_roundtrips(system: WeylSystem, trials: int, seed: int) -> dict:
    """Worst relative residuals of both transform compositions on random inputs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst_op = 0.0
    worst_fn = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        T = random_operator(rng, system.N)
        back = qft_inverse(system, qft_forward(system, T))
        worst_op = max(worst_op, np.linalg.norm(back - T) / np.linalg.norm(T))
        f = random_phase_function(rng, system)
        norm_f = np.linalg.norm(f.values)
        if norm_f > 0.0:
            again = qft_forward(system, qft_inverse(system, f))
            worst_fn = max(worst_fn, np.linalg.norm(again.values - f.values) / norm_f)
    return {"operator_roundtrip": worst_op, "function_roundtrip": worst_fn}


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
    system: WeylSystem, p: float, direction: str, trials: int, seed: int
) -> HausdorffYoungReport:
    """Worst ratio of the two-sided norm inequality for the transform pair.

    ``forward`` measures ``||F(T)||_Lq / ||T||_Sp`` over random operators and
    ``inverse`` measures ``||F^-1(f)||_Sq / ||f||_Lp`` over random phase
    functions, with ``q`` conjugate to ``p in [1, 2]``.  Under the module's
    normalization both ratios are bounded by 1; ``p = 2`` is the unitary case
    and ``p = 1`` follows from the operator-norm bound on the Weyl unitaries.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"exponent p must lie in [1, 2], got {p}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    q = conjugate_exponent(p)
    worst = 0.0
    witness = None
    skipped = 0
    for k in range(trials):
        rng = trial_rng(seed, k)
        if direction == "forward":
            T = random_operator(rng, system.N)
            denom = schatten_norm(T, p)
            if denom == 0.0:
                skipped += 1
                continue
            ratio = l_q_norm(qft_forward(system, T), q) / denom
        else:
            f = random_phase_function(rng, system)
            denom = l_q_norm(f, p)
            if denom == 0.0:
                skipped += 1
                continue
            ratio = schatten_norm(qft_inverse(system, f), q) / denom
        if ratio > worst:
            worst = ratio
            witness = k
    return HausdorffYoungReport(
        p=p,
        q=q,
        direction=direction,
        trials=trials,
        seed=seed,
        worst_ratio=worst,
        witness_available=witness is not None,
        witness_index=witness,
        skipped=skipped,
    )
