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

Where numpy links OpenBLAS, a decomposition of N <= ``SINGLE_THREAD_MAX_N``
runs on one BLAS thread: LAPACK's bidiagonal reduction does much of its
work as matrix-vector products too small to pay for a second thread.  The
count is process-wide state, set through OpenBLAS's own functions and
restored to the caller's after each call.
"""

from __future__ import annotations

import ctypes
from functools import cache
from typing import Sequence

import numpy as np

from .groups import lq_table_norm

#: Singular values below this fraction of the largest are clamped to zero.
SINGULAR_VALUE_CLAMP = 1e-13
#: Largest N whose singular values are computed on one BLAS thread.  On a
#: 2-vCPU host (numpy 2.4.6, OpenBLAS 0.3.31) one thread is 1.2-2.4x faster
#: than two for 96 <= N <= 256, as fast up to N = 64 and near N = 384, and
#: slower from N = 512 up (the ladder is in README "BLAS threads").
SINGLE_THREAD_MAX_N = 256


@cache
def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions, as numpy's linalg extension links them, or None.

    numpy >= 2 wheels export ``scipy_openblas_*64_``, numpy 1.2x wheels
    ``openblas_*64_`` and distro builds the plain names; MKL and Accelerate
    export none of them.  Looked up on the first decomposition, not at import.
    """
    library = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # already loaded: its handle
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, put = (getattr(library, name.format(verb), None) for verb in ("get", "set"))
        if put:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put


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
    raises ``np.linalg.LinAlgError``.  Up to N = ``SINGLE_THREAD_MAX_N`` the
    LAPACK call runs on one OpenBLAS thread; the thread count is process-wide
    state, and the caller's is restored after the call, also when it raises.
    """
    A = as_operator(T)
    blas = A.shape[-1] <= SINGLE_THREAD_MAX_N and _openblas_threads()
    if blas:
        get, put = blas
        caller = get()
        put(1)
    try:
        s = np.linalg.svd(A, compute_uv=False)
    finally:
        if blas:
            put(caller)
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
