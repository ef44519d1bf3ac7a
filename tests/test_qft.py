import math

import numpy as np
import pytest

from qsobolev.groups import PhaseFunction, l_q_norm
from qsobolev.linalg import schatten_norm
from qsobolev.qft import (
    OPERATOR_ENSEMBLES,
    PHASE_ENSEMBLES,
    conjugate_exponent,
    qft_forward,
    qft_inverse,
    random_operator,
    random_phase_function,
    trial_rng,
    verify_hausdorff_young,
    verify_plancherel,
    verify_roundtrips,
)
from qsobolev.weyl import make_weyl_system, weyl_operator


@pytest.fixture(scope="module")
def sys4():
    return make_weyl_system(4)


def grid_points(N):
    """Row-major (a, b) tuples: the point at flat index a*N + b."""
    return [(a, b) for a in range(N) for b in range(N)]


def oracle_forward(system, T):
    """Operator-sum form of the forward transform: tr(T pi(xi)^*) point by point."""
    return np.array([np.vdot(weyl_operator(system, xi), T) for xi in grid_points(system.N)])


def oracle_inverse(system, values):
    """Operator-sum form of the inverse transform: sum_xi f(xi) pi(xi) / N."""
    T = np.zeros((system.N, system.N), dtype=np.complex128)
    for v, xi in zip(values, grid_points(system.N)):
        T += v * weyl_operator(system, xi)
    return T / system.N


def assert_close_rel(got, ref, rel=1e-13):
    assert np.linalg.norm(got - ref) <= rel * np.linalg.norm(ref)


class TestOperatorSumOracle:
    """The FFT transform pair against the explicit sums over all N^2 Weyl operators."""

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 16])
    def test_random_inputs(self, N, convention):
        system = make_weyl_system(N, convention)
        for k in range(3):
            rng = trial_rng(N, k)
            for kind in OPERATOR_ENSEMBLES:
                T = random_operator(rng, N, kind)
                assert_close_rel(qft_forward(system, T).values, oracle_forward(system, T))
            for kind in PHASE_ENSEMBLES:
                f = random_phase_function(rng, system, kind)
                assert_close_rel(qft_inverse(system, f), oracle_inverse(system, f.values))

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 16])
    def test_every_weyl_operator_and_delta(self, N, convention):
        # Oracle for a delta at xi: the inverse is pi(xi) * mass, and the
        # forward transform of pi(xi) is N at xi and 0 elsewhere.
        system = make_weyl_system(N, convention)
        for i, xi in enumerate(grid_points(N)):
            W = weyl_operator(system, xi)
            delta = PhaseFunction.delta(system.group, xi, amplitude=1.0 - 2.0j)
            assert_close_rel(qft_inverse(system, delta), (1.0 - 2.0j) / N * W)
            expected = np.zeros(N * N, dtype=np.complex128)
            expected[i] = N
            assert_close_rel(qft_forward(system, W).values, expected)


class TestForward:
    def test_identity_transform(self, sys4):
        f = qft_forward(sys4, np.eye(4))
        assert f.values[0] == pytest.approx(4.0)  # the origin (0, 0)
        assert np.max(np.abs(f.values[1:])) < 1e-13

    def test_zero(self, sys4):
        f = qft_forward(sys4, np.zeros((4, 4)))
        assert np.all(f.values == 0)

    def test_matrix_unit_pattern(self, sys4):
        # E_00 picks out the pure modulations: value 1 at (0, b), 0 otherwise.
        E00 = np.zeros((4, 4), dtype=complex)
        E00[0, 0] = 1.0
        f = qft_forward(sys4, E00)
        for i, (a, b) in enumerate(grid_points(4)):
            expected = 1.0 if a == 0 else 0.0
            assert abs(f.values[i] - expected) < 1e-13

    def test_matches_trace_definition(self, sys4):
        rng = np.random.default_rng(0)
        T = random_operator(rng, 4)
        f = qft_forward(sys4, T)
        for xi in [(0, 0), (1, 2), (3, 3)]:
            direct = np.trace(T @ weyl_operator(sys4, xi).conj().T)
            assert f.values[xi[0] * 4 + xi[1]] == pytest.approx(direct)

    def test_linearity(self, sys4):
        for k in range(30):
            rng = trial_rng(101, k)
            T = random_operator(rng, 4)
            S = random_operator(rng, 4)
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            lhs = qft_forward(sys4, a * T + b * S).values
            rhs = a * qft_forward(sys4, T).values + b * qft_forward(sys4, S).values
            scale = max(np.max(np.abs(rhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_dimension_mismatch(self, sys4):
        with pytest.raises(ValueError):
            qft_forward(sys4, np.eye(5))


class TestInverse:
    def test_delta_reconstructs_identity(self, sys4):
        f = PhaseFunction.delta(sys4.group, (0, 0), amplitude=4.0)
        assert np.allclose(qft_inverse(sys4, f), np.eye(4))

    def test_zero(self, sys4):
        f = PhaseFunction(sys4.group, np.zeros(16))
        assert np.all(qft_inverse(sys4, f) == 0)

    def test_roundtrip_random(self, sys4):
        for k in range(50):
            T = random_operator(trial_rng(7, k), 4)
            back = qft_inverse(sys4, qft_forward(sys4, T))
            assert np.linalg.norm(back - T) <= 1e-11 * max(np.linalg.norm(T), 1.0)

    def test_group_mismatch(self, sys4):
        other = make_weyl_system(5)
        f = PhaseFunction(other.group, np.zeros(25))
        with pytest.raises(ValueError):
            qft_inverse(sys4, f)


class TestPlancherel:
    def test_identity_example(self, sys4):
        f = qft_forward(sys4, np.eye(4))
        assert l_q_norm(f, 2.0) ** 2 == pytest.approx(4.0)
        assert schatten_norm(np.eye(4), 2.0) ** 2 == pytest.approx(4.0)

    def test_matrix_unit_example(self):
        for N in (2, 4, 8):
            system = make_weyl_system(N)
            E00 = np.zeros((N, N), dtype=complex)
            E00[0, 0] = 1.0
            f = qft_forward(system, E00)
            assert l_q_norm(f, 2.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_harness(self, N):
        worst = verify_plancherel(make_weyl_system(N), 100, 42)
        assert worst <= 1e-11

    def test_roundtrip_harness(self, sys4):
        rts = verify_roundtrips(sys4, 50, 42)
        assert rts["operator_roundtrip"] <= 1e-11
        assert rts["function_roundtrip"] <= 1e-11

    def test_trials_validation(self, sys4):
        with pytest.raises(ValueError):
            verify_plancherel(sys4, 0, 1)


class TestHausdorffYoung:
    def test_unitary_endpoint_is_exact(self, sys4):
        (rep,) = verify_hausdorff_young(sys4, [2.0], "forward", 50, 3)
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)

    def test_p1_forward_operator_norm_bound(self, sys4):
        # Independent route: |tr(T pi^*)| <= sum of singular values because
        # every pi(xi) has operator norm 1.
        for k in range(30):
            T = random_operator(trial_rng(9, k), 4)
            f = qft_forward(sys4, T)
            nuclear = float(np.sum(np.linalg.svd(T, compute_uv=False)))
            assert np.max(np.abs(f.values)) <= nuclear * (1.0 + 1e-12)

    def test_p1_forward_matrix_units(self):
        for N in (4, 8):
            system = make_weyl_system(N)
            for j in range(N):
                for k in range(N):
                    E = np.zeros((N, N), dtype=complex)
                    E[j, k] = 1.0
                    f = qft_forward(system, E)
                    ratio = l_q_norm(f, math.inf) / schatten_norm(E, 1.0)
                    assert ratio <= 1.0 + 1e-10

    @pytest.mark.parametrize("p", [1.0, 8.0 / 7.0, 4.0 / 3.0, 8.0 / 5.0, 2.0])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_sampled_ratios(self, sys4, p, direction):
        (rep,) = verify_hausdorff_young(sys4, [p], direction, 100, 11)
        assert rep.worst_ratio <= 1.0 + 1e-10
        assert rep.q == pytest.approx(conjugate_exponent(p))

    def test_report_fields(self, sys4):
        (rep,) = verify_hausdorff_young(sys4, [1.5], "inverse", 20, 5)
        d = rep.to_dict()
        assert d["direction"] == "inverse"
        assert d["trials"] == 20
        assert d["seed"] == 5
        assert d["witness_available"]
        assert 0 <= d["witness_index"] < 20

    def test_exponent_validation(self, sys4):
        with pytest.raises(ValueError):
            verify_hausdorff_young(sys4, [0.9], "forward", 10, 0)
        with pytest.raises(ValueError):
            verify_hausdorff_young(sys4, [2.5], "forward", 10, 0)
        with pytest.raises(ValueError):
            verify_hausdorff_young(sys4, [1.5], "sideways", 10, 0)


class TestEnsembles:
    def test_operator_kinds(self):
        rng = np.random.default_rng(1)
        for kind in ("ginibre", "rank_one", "diagonal", "sparse_unitary", "mixed"):
            T = random_operator(rng, 6, kind)
            assert T.shape == (6, 6)
            assert np.all(np.isfinite(T))
        with pytest.raises(ValueError):
            random_operator(rng, 6, "bogus")

    def test_rank_one_is_rank_one(self):
        rng = np.random.default_rng(2)
        T = random_operator(rng, 5, "rank_one")
        s = np.linalg.svd(T, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_phase_kinds(self, sys4):
        rng = np.random.default_rng(3)
        for kind in ("gaussian", "delta", "indicator", "mixed"):
            f = random_phase_function(rng, sys4, kind)
            assert f.values.shape == (16,)
        with pytest.raises(ValueError):
            random_phase_function(rng, sys4, "bogus")

    def test_trial_rng_deterministic(self):
        a = trial_rng(5, 7).standard_normal(4)
        b = trial_rng(5, 7).standard_normal(4)
        c = trial_rng(5, 8).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
