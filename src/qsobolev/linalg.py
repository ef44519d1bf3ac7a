"""Dense complex matrix kernel: validation, the trace pairing, Schatten norms.

Every function takes one N x N matrix or a stack of them (leading axes), and
a stack is the same code as one matrix: a harness validates, decomposes and
pairs a whole chunk of trials with one call each.

Singular values come from LAPACK (``np.linalg.svd`` without singular
vectors), one call per stack.  The routine is backward stable, so every
computed value is within a small multiple of machine epsilon times ``s_1``
of the exact one.  Values below ``SINGULAR_VALUE_CLAMP`` times their own
matrix's ``s_1`` are set to exact zero so rounding noise cannot leak into
small-exponent Schatten norms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .groups import lq_table_norm

#: Singular values below this fraction of the largest are clamped to zero.
SINGULAR_VALUE_CLAMP = 1e-13


def as_operator(T) -> np.ndarray:
    """Validate a square complex matrix, or a stack of them, with finite entries; as complex128."""
    A = np.asarray(T, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise ValueError(f"operator must be a nonempty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("operator entries must be finite")
    return A


def trace_pairing(T, W):
    """Trace pairing tr(T W^*) = sum_jk T_jk conj(W_jk); conjugate-linear in W.

    Leading axes broadcast.  Each pairing is one vector dot product, the
    BLAS kernel ``np.vdot`` uses, so a stacked pairing equals the single one.
    """
    T = as_operator(T)
    W = as_operator(W)
    if T.shape[-1] != W.shape[-1]:
        raise ValueError(f"dimension mismatch: {T.shape} vs {W.shape}")
    n = T.shape[-1] * T.shape[-1]
    rows = np.conj(W).reshape(*W.shape[:-2], 1, n)
    columns = T.reshape(*T.shape[:-2], n, 1)
    return (rows @ columns)[..., 0, 0]


def singular_values(T) -> np.ndarray:
    """Singular values of ``T`` (or of each matrix in a stack), nonincreasing, from LAPACK.

    Values below ``SINGULAR_VALUE_CLAMP`` times the largest singular value of
    the same matrix are clamped to exact zero.  A LAPACK failure to converge
    raises ``np.linalg.LinAlgError``.
    """
    s = np.linalg.svd(as_operator(T), compute_uv=False)
    s[s < SINGULAR_VALUE_CLAMP * s[..., :1]] = 0.0
    return s


def schatten_norm(T, p: float | Sequence[float]):
    """Schatten (quasi-)norm (sum_n s_n(T)^p)^(1/p); the operator norm for p = inf.

    Defined for every ``p > 0``; only ``p >= 1`` values are genuine norms.  It
    is the unweighted ``l^p`` norm of the singular values, so a sequence of
    exponents adds a trailing axis of norms from one decomposition, as in
    ``lq_table_norm``.
    """
    return lq_table_norm(singular_values(T), p, 1.0)
