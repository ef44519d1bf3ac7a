import math
import warnings

import numpy as np
import pytest

from qsobolev.groups import PhaseFunction, l_q_norm, make_group, symmetric_representative
from qsobolev.linalg import trace_pairing, schatten_norm
from qsobolev.qft import qft_forward, random_operator, trial_rng
from qsobolev.sobolev import (
    SobolevSpec,
    Weight,
    bessel_multiplier,
    make_test_element,
    make_weight_constant,
    make_weight_euclidean,
    nondegeneracy_check,
    pairing_analytic_bound,
    pairing_bound_estimate,
    phi_isometry_check,
    phi_map,
    recover_generator,
    sobolev_norm,
    verify_norm_axioms,
)
from qsobolev.weyl import make_weyl_system, weyl_operator


def scalar_representative(residue, order):
    # Oracle: the scalar loop form of the (-order/2, order/2] window.
    r = residue % order
    return r if 2 * r <= order else r - order


def index(point, N):
    # Row-major position of the point (a, b) on the N x N dual grid.
    return point[0] * N + point[1]


@pytest.fixture(scope="module")
def sys4():
    return make_weyl_system(4)


@pytest.fixture(scope="module")
def w4(sys4):
    return make_weight_euclidean(sys4.group)


class TestWeights:
    def test_origin_floor(self, w4):
        assert w4.values[index((0, 0), 4)] == pytest.approx(1.0)

    def test_symmetric_representative_wraps(self):
        dual = make_group([8, 8])
        w = make_weight_euclidean(dual)
        assert w.values[index((7, 0), 8)] == pytest.approx(math.sqrt(2.0))

    def test_boundary_representative(self):
        dual = make_group([8, 8])
        w = make_weight_euclidean(dual)
        assert w.values[index((4, 4), 8)] == pytest.approx(math.sqrt(33.0))

    def test_representative_window(self):
        for n in (1, 2, 3, 4, 7, 8):
            residues = np.arange(-2 * n, 2 * n + 1)
            rep = symmetric_representative(residues, n)
            assert rep.tolist() == [scalar_representative(int(r), n) for r in residues]
            assert np.all((-n / 2 < rep) & (rep <= n / 2))
            assert np.all((rep - residues) % n == 0)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 16])
    def test_euclidean_matches_scalar_loop(self, N):
        dual = make_group([N, N])
        expected = [
            math.sqrt(scalar_representative(a, N) ** 2 + scalar_representative(b, N) ** 2 + 1.0)
            for a in range(N)
            for b in range(N)
        ]
        assert make_weight_euclidean(dual).values.tolist() == expected

    def test_constant_weight(self, sys4):
        w = make_weight_constant(sys4.group, 2.5)
        assert np.all(w.values == 2.5)
        with pytest.raises(ValueError):
            make_weight_constant(sys4.group, 0.0)

    def test_positivity_enforced(self, sys4):
        with pytest.raises(ValueError):
            Weight(sys4.group, np.zeros(16))
        with pytest.raises(ValueError):
            Weight(sys4.group, np.full(16, np.inf))


class TestSobolevSpec:
    def test_exponent_validation(self, w4):
        with pytest.raises(ValueError):
            SobolevSpec(s=1.0, p=2.0, weight=w4)
        with pytest.raises(ValueError):
            SobolevSpec(s=1.0, p=1.0, weight=w4)
        with pytest.raises(ValueError):
            SobolevSpec(s=-1.0, p=1.5, weight=w4)

    def test_conjugate_exponent(self, w4):
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=w4)
        assert spec.q == pytest.approx(4.0)
        assert 1.0 / spec.p + 1.0 / spec.q == pytest.approx(1.0, abs=1e-15)

    def test_multiplier_variants(self, w4):
        assert bessel_multiplier(w4, 2.0) == pytest.approx(1.0 + w4.values**2)
        assert bessel_multiplier(w4, 2.0, homogeneous=True) == pytest.approx(w4.values**2)
        assert bessel_multiplier(w4, -2.0) == pytest.approx(1.0 / (1.0 + w4.values**2))
        assert bessel_multiplier(w4, -2.0, homogeneous=True) == pytest.approx(w4.values**-2)

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_multiplier_overflow_raises_without_warning(self, sys4, homogeneous):
        weight = make_weight_constant(sys4.group, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflowed"):
                bessel_multiplier(weight, 1e308, homogeneous)
            # The negative order underflows to zero, which is finite.
            assert np.all(bessel_multiplier(weight, -1e308, homogeneous) == 0.0)


class TestSobolevNorm:
    def test_zero_operator(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        assert sobolev_norm(sys4, np.zeros((4, 4)), spec) == 0.0

    def test_degenerate_smoothness_reduces_to_lq(self, sys4):
        # s = 0 turns the multiplier into 1, so the norm is the plain L^q norm.
        w = make_weight_constant(sys4.group, 1.0)
        spec = SobolevSpec(s=0.0, p=4.0 / 3.0, weight=w)
        T = random_operator(np.random.default_rng(4), 4)
        assert sobolev_norm(sys4, T, spec) == pytest.approx(
            l_q_norm(qft_forward(sys4, T), 4.0)
        )

    def test_identity_closed_form(self, sys4, w4):
        # F(I) is supported at the origin where gamma = 1: single-term sum.
        spec = SobolevSpec(s=2.0, p=4.0 / 3.0, weight=w4)
        expected = 8.0 * 0.25**0.25
        assert sobolev_norm(sys4, np.eye(4), spec) == pytest.approx(expected, rel=1e-12)

    def test_definite_on_weyl_operators(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        for x in [(0, 1), (2, 3)]:
            assert sobolev_norm(sys4, np.asarray(weyl_operator(sys4, x)), spec) > 0.1

    def test_norm_axiom_harness(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=w4)
        report = verify_norm_axioms(sys4, spec, trials=100, seed=8)
        assert report.worst_homogeneity_rel <= 1e-12
        assert report.triangle_violations == 0
        assert report.worst_isometry_abs <= 1e-12
        assert report.s_monotonicity_violations == 0
        assert report.hom_dominance_violations == 0
        assert report.definiteness_violations == 0

    def test_isometry_check(self, sys4, w4):
        spec = SobolevSpec(s=1.5, p=1.25, weight=w4)
        assert phi_isometry_check(sys4, spec, 50, 21) <= 1e-12

    def test_phi_map_values(self, sys4, w4):
        spec = SobolevSpec(s=2.0, p=1.5, weight=w4)
        T = random_operator(np.random.default_rng(5), 4)
        f = qft_forward(sys4, T)
        phi = phi_map(sys4, T, spec)
        assert phi.values == pytest.approx((1.0 + w4.values**2) * f.values)


class TestTestFamily:
    def test_zero_generator(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        elem = make_test_element(sys4, spec, PhaseFunction(sys4.group, np.zeros(16)))
        assert np.all(elem.operator == 0)
        assert elem.negative_norm == 0.0

    def test_delta_generator_positive_sign(self, sys4, w4):
        # Weight 2 at the origin, reconstruction mass 1/N: W = (2/N) I.
        spec = SobolevSpec(s=2.0, p=4.0 / 3.0, weight=w4)
        phi = PhaseFunction.delta(sys4.group, (0, 0))
        elem = make_test_element(sys4, spec, phi, sign=+1)
        assert np.allclose(elem.operator, (2.0 / 4.0) * np.eye(4))

    def test_delta_generator_negative_sign(self, sys4, w4):
        spec = SobolevSpec(s=2.0, p=4.0 / 3.0, weight=w4)
        phi = PhaseFunction.delta(sys4.group, (0, 0))
        elem = make_test_element(sys4, spec, phi, sign=-1)
        assert np.allclose(elem.operator, (0.5 / 4.0) * np.eye(4))

    def test_negative_norm_is_generator_lq(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=w4)
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phi = PhaseFunction(sys4.group, vals)
        elem = make_test_element(sys4, spec, phi)
        assert elem.negative_norm == pytest.approx(l_q_norm(phi, spec.q))

    def test_injectivity_roundtrip(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        rng = np.random.default_rng(13)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phi = PhaseFunction(sys4.group, vals)
        for sign in (-1, 1):
            elem = make_test_element(sys4, spec, phi, sign)
            back = recover_generator(sys4, spec, elem)
            assert np.max(np.abs(back.values - phi.values)) < 1e-11

    def test_disjoint_support_norm_additivity(self, sys4, w4):
        # ||phi1 + phi2||_q'^q' splits exactly over disjoint supports.
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=w4)
        v1 = np.zeros(16, dtype=complex)
        v2 = np.zeros(16, dtype=complex)
        v1[[0, 3, 5]] = [1.0, 2.0, -1.0j]
        v2[[7, 9]] = [0.5, 3.0]
        e1 = make_test_element(sys4, spec, PhaseFunction(sys4.group, v1))
        e2 = make_test_element(sys4, spec, PhaseFunction(sys4.group, v2))
        esum = make_test_element(sys4, spec, PhaseFunction(sys4.group, v1 + v2))
        q = spec.q
        assert esum.negative_norm == pytest.approx(
            (e1.negative_norm**q + e2.negative_norm**q) ** (1.0 / q), rel=1e-13
        )

    def test_sign_validation(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        with pytest.raises(ValueError):
            make_test_element(sys4, spec, PhaseFunction(sys4.group, np.zeros(16)), sign=2)


class TestPairingBound:
    def test_single_delta_closed_form(self, sys4, w4):
        # phi = delta_xi and T = c pi(xi) pair to exactly the multiplier value
        # at xi once both defining norms are divided out.
        s = 1.0
        p = 4.0
        spec = SobolevSpec(s=s, p=4.0 / 3.0, weight=w4)
        for sign in (-1, 1):
            for xi in [(0, 0), (1, 2), (3, 1)]:
                phi = PhaseFunction.delta(sys4.group, xi)
                elem = make_test_element(sys4, spec, phi, sign)
                T = (2.0 - 1.0j) * np.asarray(weyl_operator(sys4, xi))
                ratio = abs(trace_pairing(T, elem.operator)) / (
                    schatten_norm(T, p) * elem.negative_norm
                )
                expected = (1.0 + w4.values[index(xi, 4)] ** 2) ** (sign * s / 2.0)
                assert ratio == pytest.approx(expected, rel=1e-12)

    def test_harness_respects_bound(self):
        system = make_weyl_system(8)
        weight = make_weight_euclidean(system.group)
        reps = pairing_bound_estimate(
            system, p=4.0, s=1.0, weight=weight, signs=(-1, 1), trials=120, seed=3
        )
        assert [rep.sign for rep in reps] == [-1, 1]
        for rep in reps:
            assert rep.satisfied
            assert rep.max_ratio <= rep.analytic_bound * (1.0 + 1e-10)
            assert rep.q_prime == pytest.approx(4.0)
            assert rep.p_prime == pytest.approx(4.0 / 3.0)

    def test_bound_is_attained_by_concentrated_generators(self, sys4, w4):
        # The chain loses nothing when the generator sits on a single point
        # maximizing the multiplier, so the measured max approaches the bound
        # within the power-mean slack N^(1/p' - 1/2).
        bound = pairing_analytic_bound(sys4, 4.0, 1.0, w4, -1)
        assert bound > 0.0

    def test_p_validation(self, sys4, w4):
        with pytest.raises(ValueError):
            pairing_bound_estimate(sys4, p=2.0, s=1.0, weight=w4)


class TestNondegeneracy:
    @pytest.mark.parametrize("N", [1, 2, 4])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_full_rank(self, N, sign):
        system = make_weyl_system(N)
        weight = make_weight_euclidean(system.group)
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight)
        report = nondegeneracy_check(system, spec, sign=sign)
        assert report.full_rank
        assert report.rank == N * N
        assert report.deficiency == 0

    def test_size_limit(self):
        system = make_weyl_system(9)
        weight = make_weight_euclidean(system.group)
        spec = SobolevSpec(s=1.0, p=1.5, weight=weight)
        with pytest.raises(ValueError):
            nondegeneracy_check(system, spec)

    def test_report_dict(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        d = nondegeneracy_check(sys4, spec).to_dict()
        assert d["dimension"] == 16
        assert d["full_rank"] is True
