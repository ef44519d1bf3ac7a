import math
import re
from functools import partial

import numpy as np
import pytest

from qsobolev import streams
from qsobolev.groups import as_table, lq_table_norm
from qsobolev.linalg import schatten_norm
from qsobolev.qft import (
    _wrapped_diagonals,
    conjugate_exponent,
    qft_forward,
    qft_inverse,
    verify_hausdorff_young,
    verify_plancherel,
    verify_roundtrips,
)
from qsobolev.streams import OPERATOR_ENSEMBLES, PHASE_ENSEMBLES, OperatorReads, TableReads
from qsobolev.weyl import make_weyl_system, weyl_operator

from draw_oracles import operator_oracle, phase_table_oracle
from transform_oracles import grid_points, oracle_forward, oracle_inverse


@pytest.fixture(scope="module")
def sys4():
    return make_weyl_system(4)


def assert_close_rel(got, ref, rel=1e-13):
    assert np.linalg.norm(got - ref) <= rel * np.linalg.norm(ref)


class TestOperatorSumOracle:
    """The FFT transform pair against the explicit sums over all N^2 Weyl operators."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 16])
    def test_random_inputs(self, N):
        system = make_weyl_system(N)
        for k in range(3):
            rng = np.random.default_rng([N, k])
            for kind in OPERATOR_ENSEMBLES:
                T = operator_oracle(rng, N, kind)
                assert_close_rel(qft_forward(T), oracle_forward(system, T))
            for kind in PHASE_ENSEMBLES:
                f = phase_table_oracle(rng, N * N, kind)
                assert_close_rel(qft_inverse(system, f), oracle_inverse(system, f))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 16])
    def test_every_weyl_operator_and_delta(self, N):
        # Oracle for a delta at xi: the inverse is pi(xi) * mass, and the
        # forward transform of pi(xi) is N at xi and 0 elsewhere.
        system = make_weyl_system(N)
        for i, xi in enumerate(grid_points(N)):
            W = weyl_operator(system, xi)
            delta = np.eye(N * N)[i] * (1.0 - 2.0j)
            assert_close_rel(qft_inverse(system, delta), (1.0 - 2.0j) / N * W)
            expected = np.zeros(N * N, dtype=np.complex128)
            expected[i] = N
            assert_close_rel(qft_forward(W), expected)

    # The symmetric operators are pi_sym(xi) = p(xi) pi(xi) with |p| = 1, so
    # their operator sums are the standard pair with p folded in.
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 16])
    def test_symmetric_sums_on_random_inputs(self, N):
        standard, symmetric = make_weyl_system(N), make_weyl_system(N, "symmetric")
        p = symmetric_phase(N)
        for k in range(3):
            rng = np.random.default_rng([N, k])
            for kind in OPERATOR_ENSEMBLES:
                T = operator_oracle(rng, N, kind)
                forward = qft_forward(T)
                assert_close_rel(np.conj(p) * forward, oracle_forward(symmetric, T))
                # So every norm of the transform is the same under both conventions.
                np.testing.assert_allclose(
                    np.abs(forward), np.abs(oracle_forward(symmetric, T)), rtol=1e-12, atol=1e-12 * N
                )
            for kind in PHASE_ENSEMBLES:
                values = phase_table_oracle(rng, N * N, kind)
                assert_close_rel(qft_inverse(standard, values * p), oracle_inverse(symmetric, values))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 16])
    def test_symmetric_weyl_operators_and_deltas(self, N):
        standard, symmetric = make_weyl_system(N), make_weyl_system(N, "symmetric")
        p = symmetric_phase(N)
        for i, xi in enumerate(grid_points(N)):
            W = weyl_operator(symmetric, xi)
            delta = np.eye(N * N)[i] * ((1.0 - 2.0j) * p[i])
            assert_close_rel(qft_inverse(standard, delta), (1.0 - 2.0j) / N * W)
            expected = np.zeros(N * N, dtype=np.complex128)
            expected[i] = N * p[i]
            assert_close_rel(qft_forward(W), expected)


def symmetric_phase(N):
    """The factor p(a, b) = exp(-i pi ab / N) of pi_sym(a, b) = p(a, b) pi(a, b), row-major."""
    a = np.arange(N)
    return np.exp(-1j * np.pi * (np.outer(a, a) % (2 * N)) / N).ravel()


def per_call_index(N):
    """The wrapped-diagonal index as the transforms once rebuilt it on every call."""
    t = np.arange(N)
    return t * N + (t[:, None] + t) % N


def per_call_forward(system, T):
    """The forward transform with a freshly built index: the cached path's oracle."""
    N = system.N
    lead = T.shape[:-2]
    diagonals = np.take(T.reshape(*lead, N * N), per_call_index(N), axis=-1)
    return np.fft.fft(diagonals, axis=-1).reshape(*lead, N * N)


def per_call_inverse(system, values):
    """The inverse transform with a freshly built index: the cached path's oracle."""
    N = system.N
    lead = values.shape[:-1]
    T = np.empty((*lead, N * N), dtype=np.complex128)
    T[..., per_call_index(N)] = np.fft.ifft(values.reshape(*lead, N, N), axis=-1, norm="forward")
    return T.reshape(*lead, N, N) * system.group.dual_mass


class TestCachedIndex:
    """The per-N cached index gives the per-call transforms bit for bit."""

    SIZES = (1, 2, 3, 5, 8, 64, 127, 128)

    def assert_bitwise_oracle(self, N):
        system = make_weyl_system(N)
        rng = np.random.default_rng(N)
        T = rng.standard_normal((3, N, N)) + 1j * rng.standard_normal((3, N, N))
        f = rng.standard_normal((3, N * N)) + 1j * rng.standard_normal((3, N * N))
        for ops, values in ((T, f), (T[0], f[0])):
            forward = qft_forward(ops)
            inverse = qft_inverse(system, values)
            np.testing.assert_array_equal(forward, per_call_forward(system, ops))
            np.testing.assert_array_equal(inverse, per_call_inverse(system, values))

    @pytest.mark.parametrize("N", SIZES)
    def test_bitwise_equal_to_per_call_index(self, N):
        self.assert_bitwise_oracle(N)

    def test_bitwise_equal_after_cache_evictions(self):
        bound = _wrapped_diagonals.cache_info().maxsize
        for N in range(9, 10 + 2 * bound):
            qft_forward(np.eye(N))
        assert _wrapped_diagonals.cache_info().currsize == bound
        for N in self.SIZES:
            self.assert_bitwise_oracle(N)

    def test_index_is_read_only(self):
        index = _wrapped_diagonals(8)
        np.testing.assert_array_equal(index, per_call_index(8))
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 1

    def test_systems_of_equal_n_share_the_index(self):
        first, second = make_weyl_system(6), make_weyl_system(6)
        qft_inverse(first, np.ones(36))
        hits = _wrapped_diagonals.cache_info().hits
        qft_inverse(second, np.ones(36))
        qft_forward(np.eye(6))
        assert _wrapped_diagonals.cache_info().hits == hits + 2
        assert _wrapped_diagonals(6) is _wrapped_diagonals(6)

    def test_a_warm_sweep_rebuilds_no_index(self):
        # The five N of a scaling sweep, two of them met twice, fit the cache.
        sweep = (64, 128, 8, 16, 32, 64, 128)

        def transform_all():
            for N in sweep:
                system = make_weyl_system(N)
                qft_inverse(system, qft_forward(np.eye(N)))

        transform_all()
        misses = _wrapped_diagonals.cache_info().misses
        transform_all()
        assert _wrapped_diagonals.cache_info().misses == misses


@pytest.mark.parametrize("N", [1, 4])
def test_inverse_transform_rejects_a_symmetric_system(N):
    system = make_weyl_system(N, "symmetric")
    with pytest.raises(ValueError, match="standard convention only, got 'symmetric'"):
        qft_inverse(system, np.ones(N * N))


class TestForward:
    def test_identity_transform(self):
        f = qft_forward(np.eye(4))
        assert f[0] == pytest.approx(4.0)  # the origin (0, 0)
        assert np.max(np.abs(f[1:])) < 1e-13

    def test_zero(self):
        f = qft_forward(np.zeros((4, 4)))
        assert np.all(f == 0)

    def test_matrix_unit_pattern(self):
        # E_00 picks out the pure modulations: value 1 at (0, b), 0 otherwise.
        E00 = np.zeros((4, 4), dtype=complex)
        E00[0, 0] = 1.0
        f = qft_forward(E00)
        for i, (a, b) in enumerate(grid_points(4)):
            expected = 1.0 if a == 0 else 0.0
            assert abs(f[i] - expected) < 1e-13

    def test_matches_trace_definition(self, sys4):
        rng = np.random.default_rng(0)
        T = operator_oracle(rng, 4)
        f = qft_forward(T)
        for xi in [(0, 0), (1, 2), (3, 3)]:
            direct = np.trace(T @ weyl_operator(sys4, xi).conj().T)
            assert f[xi[0] * 4 + xi[1]] == pytest.approx(direct)

    def test_linearity(self):
        for k in range(30):
            rng = np.random.default_rng([101, k])
            T = operator_oracle(rng, 4)
            S = operator_oracle(rng, 4)
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            lhs = qft_forward(a * T + b * S)
            rhs = a * qft_forward(T) + b * qft_forward(S)
            scale = max(np.max(np.abs(rhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    @pytest.mark.parametrize("N", [1, 5])
    def test_grid_is_read_off_the_operator(self, N):
        T = operator_oracle(np.random.default_rng(N), N)
        f = qft_forward(T)
        assert f.shape == (N * N,) and f.dtype == np.complex128
        assert_close_rel(qft_inverse(make_weyl_system(N), f), T)

    def test_overflow_is_left_to_numpy(self):
        # A finite operator whose trace, the value at the origin, overflows.
        T = np.diag([1e308, 1e308])
        with pytest.warns(RuntimeWarning, match="overflow encountered in fft"):
            f = qft_forward(T)
        assert np.isinf(f[0]) and np.all(np.isfinite(f[1:]))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            qft_forward(T)


class TestInverse:
    def test_delta_reconstructs_identity(self, sys4):
        f = np.eye(16)[0] * 4.0  # the origin (0, 0)
        assert np.allclose(qft_inverse(sys4, f), np.eye(4))

    def test_zero(self, sys4):
        assert np.all(qft_inverse(sys4, np.zeros(16)) == 0)

    def test_roundtrip_random(self, sys4):
        for k in range(50):
            T = operator_oracle(np.random.default_rng([7, k]), 4)
            back = qft_inverse(sys4, qft_forward(T))
            assert np.linalg.norm(back - T) <= 1e-11 * max(np.linalg.norm(T), 1.0)

    def test_group_mismatch(self, sys4):
        # A table of the N = 5 grid.
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 16\)"):
            qft_inverse(sys4, np.zeros(25))


class TestPlancherel:
    def test_identity_example(self):
        f = qft_forward(np.eye(4))
        assert lq_table_norm(f, 2.0, 0.25) ** 2 == pytest.approx(4.0)
        assert schatten_norm(np.eye(4), 2.0) ** 2 == pytest.approx(4.0)

    def test_matrix_unit_example(self):
        for N in (2, 4, 8):
            E00 = np.zeros((N, N), dtype=complex)
            E00[0, 0] = 1.0
            f = qft_forward(E00)
            assert lq_table_norm(f, 2.0, 1.0 / N) == pytest.approx(1.0)

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_harness(self, N):
        results = verify_plancherel(make_weyl_system(N), 100, 42)
        assert list(results) == ["worst_relative_deviation", "operator_roundtrip", "function_roundtrip", "passed"]
        *measured, passed = results.values()
        assert max(measured) <= 1e-11 and passed is True

    def test_roundtrip_harness(self, sys4):
        rts = verify_roundtrips(sys4, 50, 42)
        assert rts["operator_roundtrip"] <= 1e-11
        assert rts["function_roundtrip"] <= 1e-11

    def test_trials_validation(self, sys4):
        with pytest.raises(ValueError):
            verify_plancherel(sys4, 0, 1)


def run_of(report: dict, direction: str) -> dict:
    """The one run of ``direction`` in a single-exponent Hausdorff-Young report."""
    (run,) = [run for run in report["runs"] if run["direction"] == direction]
    return run


class TestHausdorffYoung:
    def test_unitary_endpoint_is_exact(self, sys4):
        rep = run_of(verify_hausdorff_young(sys4, [2.0], 50, 3), "forward")
        assert rep["worst_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_p1_forward_operator_norm_bound(self):
        # Independent route: |tr(T pi^*)| <= sum of singular values because
        # every pi(xi) has operator norm 1.
        for k in range(30):
            T = operator_oracle(np.random.default_rng([9, k]), 4)
            f = qft_forward(T)
            nuclear = float(np.sum(np.linalg.svd(T, compute_uv=False)))
            assert np.max(np.abs(f)) <= nuclear * (1.0 + 1e-12)

    def test_p1_forward_matrix_units(self):
        for N in (4, 8):
            for j in range(N):
                for k in range(N):
                    E = np.zeros((N, N), dtype=complex)
                    E[j, k] = 1.0
                    f = qft_forward(E)
                    ratio = lq_table_norm(f, math.inf, 1.0 / N) / schatten_norm(E, 1.0)
                    assert ratio <= 1.0 + 1e-10

    @pytest.mark.parametrize("p", [1.0, 8.0 / 7.0, 4.0 / 3.0, 8.0 / 5.0, 2.0])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_sampled_ratios(self, sys4, p, direction):
        rep = run_of(verify_hausdorff_young(sys4, [p], 100, 11), direction)
        assert rep["worst_ratio"] <= 1.0 + 1e-10
        assert rep["q"] == pytest.approx(conjugate_exponent(p))

    @pytest.mark.parametrize("p, q", [(math.inf, 1.0), (1.0, math.inf)])
    def test_conjugate_exponent(self, p, q):
        assert conjugate_exponent(p) == q

    def test_report_fields(self, sys4):
        rep = run_of(verify_hausdorff_young(sys4, [1.5], 20, 5), "inverse")
        assert rep["trials"] == 20
        assert rep["seed"] == 5
        assert rep["witness_available"]
        assert 0 <= rep["witness_index"] < 20

    def test_exponent_validation(self, sys4, monkeypatch):
        # Every bad exponent list is rejected before the first draw.
        def refuse(*args, **kwargs):
            raise AssertionError("a trial was drawn for rejected exponents")

        monkeypatch.setattr(streams, "run_trials", refuse)
        for exponents, message in (
            ([0.9], "exponent p must lie in [1, 2], got 0.9"),
            ([1.5, 2.5], "exponent p must lie in [1, 2], got 2.5"),
            ([], "exponent sequence must hold at least one exponent, got none"),
        ):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                verify_hausdorff_young(sys4, exponents, 10, 0)

    def test_runs_are_exponent_major(self, sys4):
        report = verify_hausdorff_young(sys4, [2.0, 1.5, 1.0], 10, 0)
        assert [(run["p"], run["direction"]) for run in report["runs"]] == [
            (p, direction) for p in (2.0, 1.5, 1.0) for direction in ("forward", "inverse")
        ]
        assert report["passed"] is True and all(run["passed"] for run in report["runs"])

    @pytest.mark.parametrize("exponents", [[1.0, 2.0], [1.5, 8.0 / 7.0]])
    def test_endpoint_consistency_needs_endpoints_and_interior(self, sys4, exponents):
        assert "endpoint_consistency" not in verify_hausdorff_young(sys4, exponents, 10, 0)

    def test_endpoint_consistency_pools_both_directions(self, sys4):
        report = verify_hausdorff_young(sys4, [1.0, 1.5, 2.0], 30, 2)
        ratios = {(run["p"], run["direction"]): run["worst_ratio"] for run in report["runs"]}
        endpoint = max(ratios[p, d] for p in (1.0, 2.0) for d in ("forward", "inverse"))
        interior = max(ratios[1.5, d] for d in ("forward", "inverse"))
        assert report["endpoint_consistency"] == {
            "endpoint_max": endpoint,
            "interior_max": interior,
            "endpoints_bound_interior": interior <= endpoint,
        }


def one_of_each(column, rng):
    """The first sample of each ensemble, read from ``rng`` into one-trial columns.

    Each read draws its ensemble; the column's ``by_kind`` says which one.
    """
    samples = {}
    while True:
        reads = column(1)
        reads.read(rng, 0)
        (kind,) = (kind for kind, slots in reads.by_kind.items() if slots)
        samples.setdefault(kind, reads.assemble()[0])
        if len(samples) == len(reads.by_kind):
            return samples


class TestEnsembles:
    def test_operator_kinds(self):
        samples = one_of_each(partial(OperatorReads, 6), np.random.default_rng(1))
        assert sorted(samples) == sorted(OPERATOR_ENSEMBLES)
        for T in samples.values():
            assert T.shape == (6, 6)
            assert np.all(np.isfinite(T))

    def test_rank_one_is_rank_one(self):
        T = one_of_each(partial(OperatorReads, 5), np.random.default_rng(2))["rank_one"]
        s = np.linalg.svd(T, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_phase_kinds(self, sys4):
        samples = one_of_each(partial(TableReads, sys4.group.size), np.random.default_rng(3))
        assert sorted(samples) == sorted(PHASE_ENSEMBLES)
        for values in samples.values():
            assert as_table(values, sys4.N).shape == (16,)
