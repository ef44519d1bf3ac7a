"""Dense complex matrix kernel: validation, the trace pairing, Schatten norms.

Singular values come from LAPACK (``np.linalg.svd`` without singular
vectors).  The routine is backward stable, so every computed value is within
a small multiple of machine epsilon times ``s_1`` of the exact one.  Values
below ``SINGULAR_VALUE_CLAMP`` times ``s_1`` are set to exact zero so rounding
noise cannot leak into small-exponent Schatten norms.
"""

from __future__ import annotations

import math

import numpy as np

#: Singular values below this fraction of the largest are clamped to zero.
SINGULAR_VALUE_CLAMP = 1e-13


def as_operator(T) -> np.ndarray:
    """Validate a square complex matrix with finite entries and return it as complex128."""
    A = np.asarray(T, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"operator must be a nonempty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("operator entries must be finite")
    return A


def trace_pairing(T, W) -> complex:
    """Trace pairing tr(T W^*) = sum_jk T_jk conj(W_jk); conjugate-linear in W."""
    T = as_operator(T)
    W = as_operator(W)
    if T.shape != W.shape:
        raise ValueError(f"dimension mismatch: {T.shape} vs {W.shape}")
    return complex(np.vdot(W, T))


def singular_values(T) -> np.ndarray:
    """Singular values of ``T``, nonincreasing, from LAPACK.

    Values below ``SINGULAR_VALUE_CLAMP`` times the largest singular value
    are clamped to exact zero.  A LAPACK failure to converge raises
    ``np.linalg.LinAlgError``.
    """
    s = np.linalg.svd(as_operator(T), compute_uv=False)
    if s[0] > 0.0:
        s[s < SINGULAR_VALUE_CLAMP * s[0]] = 0.0
    return s


def schatten_norm(T, p: float) -> float:
    """Schatten (quasi-)norm (sum_n s_n(T)^p)^(1/p); the operator norm for p = inf.

    Defined for every ``p > 0``; only ``p >= 1`` values are genuine norms.
    """
    if math.isnan(p) or p <= 0:
        raise ValueError(f"Schatten exponent must be positive or inf, got {p}")
    s = singular_values(T)
    top = float(s[0])
    if math.isinf(p) or top == 0.0:
        return top
    return top * float(np.sum((s / top) ** p)) ** (1.0 / p)
