"""One-go draws of a random operator and a random dual table, as test oracles.

Each draws its sample from ``rng`` in a single pass and builds it with its own
arithmetic, one QR per unitary.  The trial engine's columns
(``streams.OperatorReads``, ``streams.TableReads``) read the same stream into
buffers and assemble whole chunks; ``tests/test_trial_engine.py`` checks that
both give the same bits and leave the stream at the same place.
"""

import math

import numpy as np

from qsobolev import streams


def operator_oracle(rng, n, kind="mixed"):
    """One random operator drawn and built in one go, with its own QR (the pre-split draw)."""
    if kind == "mixed":
        kind = streams.OPERATOR_ENSEMBLES[rng.integers(len(streams.OPERATOR_ENSEMBLES))]
    if kind == "ginibre":
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    if kind == "rank_one":
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.outer(u, v.conj())
    if kind == "diagonal":
        return np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    S = np.zeros((n, n), dtype=np.complex128)
    nnz = max(1, n // 2)
    rows = rng.integers(n, size=nnz)
    cols = rng.integers(n, size=nnz)
    S[rows, cols] = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    U = Q * (d / np.abs(d))
    return U @ S @ U.conj().T


def phase_table_oracle(rng, K, kind="mixed"):
    """One random dual table of K points drawn in one go (the pre-split draw)."""
    if kind == "mixed":
        kind = streams.PHASE_ENSEMBLES[rng.integers(len(streams.PHASE_ENSEMBLES))]
    if kind == "gaussian":
        return rng.standard_normal(K) + 1j * rng.standard_normal(K)
    vals = np.zeros(K, dtype=np.complex128)
    if kind == "delta":
        vals[rng.integers(K)] = rng.standard_normal() + 1j * rng.standard_normal()
    else:
        size = int(rng.integers(1, K + 1))
        support = rng.choice(K, size=size, replace=False)
        vals[support] = rng.standard_normal() + 1j * rng.standard_normal()
    return vals
