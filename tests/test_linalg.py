import math

import numpy as np
import pytest

from qsobolev.linalg import (
    SINGLE_THREAD_MAX_N,
    _openblas_threads,
    as_operator,
    schatten_norm,
    singular_values,
    trace_pairing,
)
from qsobolev.streams import OPERATOR_ENSEMBLES

from draw_oracles import operator_oracle


def random_unitary(rng, n):
    """Haar random unitary: the QR factor of a Ginibre matrix, phases fixed by diag(R)."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def eig_oracle(T, noise_floor=0.0):
    """Independent route: square roots of the eigenvalues of T^* T.

    Squaring costs the oracle any information below sqrt(machine eps) * s_1,
    so rank-deficient comparisons pass ``noise_floor`` (relative to s_1) to
    zero out the oracle's own junk.
    """
    T = np.asarray(T, dtype=complex)
    evals = np.linalg.eigvalsh(T.conj().T @ T)
    s = np.sqrt(np.clip(evals, 0.0, None))[::-1]
    if s.size and s[0] > 0.0:
        s[s < noise_floor * s[0]] = 0.0
    return s


class SweepBudgetExceeded(RuntimeError):
    """The Jacobi oracle did not certify convergence within its sweep budget."""


def jacobi_oracle(T, max_sweeps=30):
    """Singular values by one-sided Jacobi on columns, nonincreasing, unclamped.

    Each sweep orthogonalizes every column pair (a_i, a_j) whose cosine is
    above the per-pair threshold, |c| > tol * sqrt(a * b) with a = |a_i|^2,
    b = |a_j|^2, c = <a_i, a_j>.  That per-pair test, not a global bound on
    the off-diagonal mass, is what gives Jacobi its high relative accuracy
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 1992), so small singular
    values are resolved far below the eig oracle's sqrt(eps) * s_1 floor.
    Convergence is certified by a sweep with no rotation; needing more than
    ``max_sweeps`` sweeps raises :class:`SweepBudgetExceeded`.
    """
    A = np.array(T, dtype=np.complex128)
    n = A.shape[1]
    tol = n * np.finfo(float).eps
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                P = A[:, (i, j)]
                H = P.conj().T @ P
                a, b, c = H[0, 0].real, H[1, 1].real, H[0, 1]
                ac = abs(c)
                if ac <= tol * math.sqrt(a * b):
                    continue
                # Unitary 2x2 rotation diagonalizing [[a, c], [conj(c), b]]:
                # factor out the phase of c, then a real Jacobi rotation.
                phase = c / ac
                zeta = (b - a) / (2.0 * ac)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cs = 1.0 / math.hypot(1.0, t)
                sn = t * cs
                A[:, (i, j)] = P @ np.array(
                    [[cs, sn], [-sn * phase.conjugate(), cs * phase.conjugate()]]
                )
                rotated = True
        if not rotated:
            return np.sort(np.linalg.norm(A, axis=0))[::-1]
    raise SweepBudgetExceeded(f"no convergence in {max_sweeps} sweeps (dim {n})")


@pytest.fixture
def two_blas_threads():
    """OpenBLAS's (get, set) thread-count functions, the caller at two threads for the test; restored after."""
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("numpy's linalg links no BLAS with OpenBLAS's thread-count functions")
    get, put = blas
    caller = get()
    put(2)
    yield blas
    put(caller)


class TestSingularValues:
    def test_diagonal(self):
        assert singular_values(np.diag([3.0, 4.0, 0.0])) == pytest.approx([4.0, 3.0, 0.0])

    def test_identity(self):
        assert singular_values(np.eye(5)) == pytest.approx(np.ones(5))

    def test_nilpotent(self):
        # Oracle: eigenvalues of T^* T = diag(0, 4) -> singular values (2, 0).
        T = [[0.0, 2.0], [0.0, 0.0]]
        assert eig_oracle(T) == pytest.approx([2.0, 0.0])
        assert singular_values(T) == pytest.approx([2.0, 0.0])

    def test_zero_matrix(self):
        assert singular_values(np.zeros((3, 3))) == pytest.approx([0.0, 0.0, 0.0])

    def test_against_eig_oracle_small(self):
        for k in range(100):
            rng = np.random.default_rng([17, k])
            n = int(rng.integers(1, 9))
            T = operator_oracle(rng, n)
            s = singular_values(T)
            ref = eig_oracle(T, noise_floor=1e-7)
            top = max(ref[0], 1e-300)
            assert np.max(np.abs(s - ref)) <= 1e-10 * top
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)

    def test_against_jacobi_oracle(self):
        # Every operator ensemble (rank_one and sparse_unitary are rank
        # deficient), then U diag(d) V with d graded down to 1e-12 or exactly
        # zero: values the eig oracle's 1e-7 noise floor erases.
        cases = []
        for kind in OPERATOR_ENSEMBLES:
            for k in range(50):
                rng = np.random.default_rng([47, k])
                cases.append((operator_oracle(rng, int(rng.integers(1, 9)), kind), None))
        for k in range(100):
            rng = np.random.default_rng([53, k])
            n = int(rng.integers(2, 9))
            d = np.sort(10.0 ** -rng.uniform(0.0, 12.0, size=n))[::-1]
            d[0] = 1.0
            d[1:][rng.random(n - 1) < 0.2] = 0.0
            d = np.sort(d)[::-1]
            U, V = random_unitary(rng, n), random_unitary(rng, n)
            cases.append((U @ np.diag(d) @ V, d))
        for T, d in cases:
            ref = jacobi_oracle(T)
            s = singular_values(T)
            assert np.max(np.abs(s - ref)) <= 1e-14 * ref[0]
            if d is not None:
                assert np.max(np.abs(ref - d)) <= 1e-14
                assert np.all(s[d > 0] > 0.0)

    def test_backward_stable_at_n64(self):
        rng = np.random.default_rng(5)
        T = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        ref = jacobi_oracle(T)
        s = singular_values(T)
        assert np.max(np.abs(s - ref)) <= 1e-12 * ref[0]

    def test_graded_spectrum(self):
        # Sharply graded singular values: backward-stable to 1e-14 * s_1 in
        # absolute terms, and every one survives the clamping threshold.
        d = np.array([1.0, 1e-3, 1e-6, 1e-9])
        rng = np.random.default_rng(2)
        U, V = random_unitary(rng, 4), random_unitary(rng, 4)
        s = singular_values(U @ np.diag(d) @ V)
        assert np.max(np.abs(s - d)) <= 1e-14 * d[0]
        assert np.all(s > 0.0)

    def test_tiny_values_clamped(self):
        s = singular_values(np.diag([1.0, 1e-20]))
        assert s[1] == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            singular_values(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            singular_values(np.array([[np.nan]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            singular_values(np.ones((2, 3)))

    @pytest.mark.parametrize("N, inside", [(8, 1), (SINGLE_THREAD_MAX_N, 1), (SINGLE_THREAD_MAX_N + 1, 2)])
    def test_blas_threads_inside_the_call(self, two_blas_threads, monkeypatch, N, inside):
        get, _ = two_blas_threads
        svd = np.linalg.svd
        counts = []

        def recording(*args, **kwargs):
            counts.append(get())
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        assert singular_values(np.eye(N)) == pytest.approx(np.ones(N))
        assert counts == [inside]
        assert get() == 2

    def test_blas_threads_restored_after_a_failure(self, two_blas_threads, monkeypatch):
        get, _ = two_blas_threads
        counts = []

        def failing(*args, **kwargs):
            counts.append(get())
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            singular_values(np.eye(8))
        assert counts == [1]
        assert get() == 2

    def test_values_do_not_depend_on_the_callers_blas_threads(self, two_blas_threads):
        # At N = 128 LAPACK sums in another order on two threads than on one.
        rng = np.random.default_rng(7)
        T = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        at_two = singular_values(T)
        _, put = two_blas_threads
        put(1)
        at_one = singular_values(T)
        assert at_one.tobytes() == at_two.tobytes()

    def test_sweep_budget_error(self):
        # One sweep rotates the only column pair; a second certifies it.
        T = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(SweepBudgetExceeded):
            jacobi_oracle(T, max_sweeps=1)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        ref = jacobi_oracle(T, max_sweeps=2)
        assert np.max(np.abs(ref - [golden, 1.0 / golden])) <= 1e-15


class TestSchattenNorm:
    def test_trace_norm(self):
        assert schatten_norm(np.diag([3.0, 4.0, 0.0]), 1.0) == pytest.approx(7.0)

    def test_hilbert_schmidt(self):
        assert schatten_norm(np.diag([3.0, 4.0, 0.0]), 2.0) == pytest.approx(5.0)

    def test_operator_norm(self):
        assert schatten_norm(np.diag([3.0, 4.0, 0.0]), math.inf) == pytest.approx(4.0)

    def test_frobenius_agreement(self):
        for k in range(20):
            rng = np.random.default_rng([29, k])
            T = operator_oracle(rng, 6)
            assert schatten_norm(T, 2.0) == pytest.approx(np.linalg.norm(T), rel=1e-12)

    def test_quasi_norm_allowed(self):
        T = np.diag([1.0, 1.0])
        assert schatten_norm(T, 0.5) == pytest.approx(4.0)  # (2 * 1^0.5)^2

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), -1.0)
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), math.nan)

    def test_zero_operator(self):
        assert schatten_norm(np.zeros((4, 4)), 1.5) == 0.0

    def test_holder_inequality(self):
        # ||AB||_r <= ||A||_p ||B||_q with 1/p + 1/q = 1/r, random draws.
        for k in range(300):
            rng = np.random.default_rng([31, k])
            n = int(rng.integers(2, 7))
            A = operator_oracle(rng, n)
            B = operator_oracle(rng, n)
            r = float(rng.uniform(1.0, 4.0))
            u = float(rng.uniform(0.05, 0.95))
            p, q = r / u, r / (1.0 - u)
            lhs = schatten_norm(A @ B, r)
            rhs = schatten_norm(A, p) * schatten_norm(B, q)
            assert lhs <= rhs * (1.0 + 1e-10)

    def test_triangle_inequality(self):
        for k in range(200):
            rng = np.random.default_rng([37, k])
            n = int(rng.integers(2, 7))
            A = operator_oracle(rng, n)
            B = operator_oracle(rng, n)
            p = float(rng.uniform(1.0, 6.0))
            assert schatten_norm(A + B, p) <= (
                schatten_norm(A, p) + schatten_norm(B, p)
            ) * (1.0 + 1e-10)

    def test_unitary_invariance(self):
        for k in range(100):
            rng = np.random.default_rng([41, k])
            n = int(rng.integers(2, 9))
            T = operator_oracle(rng, n)
            U, V = random_unitary(rng, n), random_unitary(rng, n)
            p = float(rng.uniform(0.5, 8.0))
            a = schatten_norm(T, p)
            b = schatten_norm(U @ T @ V, p)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-13)


class TestTracePairing:
    def test_identity_pairing(self):
        assert trace_pairing(np.eye(5), np.eye(5)) == pytest.approx(5.0)

    def test_zero(self):
        assert trace_pairing(np.eye(3), np.zeros((3, 3))) == 0.0

    def test_trace_via_identity(self):
        T = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert trace_pairing(T, np.eye(2)) == pytest.approx(5.0)

    def test_conjugate_linear_in_second_slot(self):
        rng = np.random.default_rng(7)
        T = operator_oracle(rng, 4)
        W = operator_oracle(rng, 4)
        c = 1.3 - 0.7j
        assert trace_pairing(T, c * W) == pytest.approx(np.conj(c) * trace_pairing(T, W))

    def test_entrywise_formula(self):
        rng = np.random.default_rng(9)
        T = operator_oracle(rng, 5)
        W = operator_oracle(rng, 5)
        expected = np.sum(T * W.conj())
        assert trace_pairing(T, W) == pytest.approx(expected)

    def test_duality_bound(self):
        # |tr(T W^*)| <= ||T||_p ||W||_p' for conjugate exponents.
        for k in range(200):
            rng = np.random.default_rng([43, k])
            n = int(rng.integers(2, 7))
            T = operator_oracle(rng, n)
            W = operator_oracle(rng, n)
            p = float(rng.uniform(1.0, 8.0))
            pc = p / (p - 1.0) if p > 1.0 else math.inf
            assert abs(trace_pairing(T, W)) <= schatten_norm(T, p) * schatten_norm(
                W, pc
            ) * (1.0 + 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_pairing(np.eye(2), np.eye(3))


class TestCompositions:
    def test_as_operator_accepts_lists(self):
        A = as_operator([[1, 2], [3, 4]])
        assert A.dtype == np.complex128
