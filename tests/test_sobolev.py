import math
import re
import warnings

import numpy as np
import pytest

from qsobolev.groups import lq_table_norm, make_group, symmetric_representative
from qsobolev.linalg import trace_pairing, schatten_norm
from qsobolev import embedding, sobolev
from qsobolev.qft import qft_forward
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
    sobolev_norm,
    verify_norm_axioms,
    weighted_norm,
)
from qsobolev.weyl import make_weyl_system, weyl_operator

from draw_oracles import operator_oracle
from transform_oracles import phi_isometry_check


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
        w = make_weight_constant(sys4.group)
        assert w.values.tolist() == [1.0] * 16

    def test_positivity_enforced(self, sys4):
        with pytest.raises(ValueError):
            Weight(sys4.group, np.zeros(16))
        with pytest.raises(ValueError):
            Weight(sys4.group, np.full(16, np.inf))
        with pytest.raises(ValueError, match="^weight values must be real, got a complex table$"):
            Weight(sys4.group, np.full(16, 1 + 1j))

    @pytest.mark.parametrize("shape", [(15,), (4, 4), (1, 16)])
    def test_table_of_another_shape_is_rejected(self, sys4, shape):
        message = f"weight table has shape {shape}, expected (16,)"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Weight(sys4.group, np.ones(shape))


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
        weight = Weight(sys4.group, np.full(16, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflowed"):
                bessel_multiplier(weight, 1e308, homogeneous)
            # The negative order underflows to zero, which is finite.
            assert np.all(bessel_multiplier(weight, -1e308, homogeneous) == 0.0)


class TestSobolevNorm:
    def test_zero_operator(self, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        assert sobolev_norm(np.zeros((4, 4)), spec) == 0.0

    def test_degenerate_smoothness_reduces_to_lq(self, sys4):
        # s = 0 turns the multiplier into 1, so the norm is the plain L^q norm.
        w = make_weight_constant(sys4.group)
        spec = SobolevSpec(s=0.0, p=4.0 / 3.0, weight=w)
        T = operator_oracle(np.random.default_rng(4), 4)
        assert sobolev_norm(T, spec) == pytest.approx(
            lq_table_norm(qft_forward(T), 4.0, 0.25)
        )

    def test_identity_closed_form(self, w4):
        # F(I) is supported at the origin where gamma = 1: single-term sum.
        spec = SobolevSpec(s=2.0, p=4.0 / 3.0, weight=w4)
        expected = 8.0 * 0.25**0.25
        assert sobolev_norm(np.eye(4), spec) == pytest.approx(expected, rel=1e-12)

    def test_weight_on_another_grid_is_rejected(self, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        with pytest.raises(ValueError, match="different dual group than the transform"):
            sobolev_norm(np.eye(5), spec)

    def test_definite_on_weyl_operators(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=1.5, weight=w4)
        for x in [(0, 1), (2, 3)]:
            assert sobolev_norm(np.asarray(weyl_operator(sys4, x)), spec) > 0.1

    def test_norm_axiom_harness(self, sys4, w4):
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=w4)
        report = verify_norm_axioms(sys4, spec, trials=100, seed=8)
        assert report["worst_homogeneity_rel"] <= 1e-12
        assert report["triangle_violations"] == 0
        assert report["worst_isometry_abs"] <= 1e-12
        assert report["s_monotonicity_violations"] == 0
        assert report["hom_dominance_violations"] == 0
        assert report["definiteness_violations"] == 0

    def test_isometry_check(self, sys4, w4):
        spec = SobolevSpec(s=1.5, p=1.25, weight=w4)
        assert phi_isometry_check(sys4, spec, 50, 21) <= 1e-12


class TestWeightedNorm:
    S = 1.5

    @pytest.fixture(scope="class")
    def tables(self):
        # Three transforms on the N = 4 dual; the first alone is the single table.
        rng = np.random.default_rng(24)
        return np.stack([qft_forward(operator_oracle(rng, 4)) for _ in range(3)])

    @pytest.mark.parametrize("homogeneous", [False, True])
    @pytest.mark.parametrize("q", [4.0 / 3.0, 4.0, math.inf])
    @pytest.mark.parametrize("order", [S, 2.0 * S, -S])
    def test_is_the_norm_of_the_multiplied_table(self, w4, tables, order, q, homogeneous):
        multiplier = bessel_multiplier(w4, order, homogeneous)
        for table in (tables[0], tables):
            got = weighted_norm(table, w4, order, q, homogeneous)
            expected = lq_table_norm(multiplier * table, q, 1.0 / 4.0)
            assert np.shape(got) == np.shape(expected) and np.all(got == expected)

    @pytest.mark.parametrize("homogeneous", [False, True])
    @pytest.mark.parametrize("q", [1.0, 4.0, math.inf])
    @pytest.mark.parametrize("order", [S, -S])
    def test_multiplier_alone(self, w4, order, q, homogeneous):
        expected = lq_table_norm(bessel_multiplier(w4, order, homogeneous), q, w4.group.dual_mass)
        assert weighted_norm(1.0, w4, order, q, homogeneous) == expected

    @pytest.mark.parametrize("shape", [(25,), (3, 25), (16, 1)])
    def test_table_on_another_grid_is_rejected(self, w4, shape):
        with pytest.raises(ValueError, match="different dual group than the transform"):
            weighted_norm(np.ones(shape), w4, self.S, 4.0)


class TestTestFamily:
    def test_zero_generator(self, w4):
        phi = np.zeros(16)
        assert np.all(make_test_element(1.0, w4, phi, -1) == 0)
        assert lq_table_norm(phi, 3.0, 0.25) == 0.0

    def test_delta_generator_positive_sign(self, w4):
        # Weight 2 at the origin, reconstruction mass 1/N: W = (2/N) I.
        phi = np.eye(16)[index((0, 0), 4)]
        assert np.allclose(make_test_element(2.0, w4, phi, sign=+1), (2.0 / 4.0) * np.eye(4))

    def test_delta_generator_negative_sign(self, w4):
        phi = np.eye(16)[index((0, 0), 4)]
        assert np.allclose(make_test_element(2.0, w4, phi, sign=-1), (0.5 / 4.0) * np.eye(4))

    def test_injectivity_roundtrip(self, w4):
        rng = np.random.default_rng(13)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for sign in (-1, 1):
            W = make_test_element(1.0, w4, vals, sign)
            # Invert the construction: divide the transform by the order sign*s multiplier.
            back = qft_forward(W) / bessel_multiplier(w4, sign * 1.0)
            assert np.max(np.abs(back - vals)) < 1e-11

    def test_disjoint_support_norm_additivity(self, sys4):
        # ||phi1 + phi2||_q'^q' splits exactly over disjoint supports.
        v1 = np.zeros(16, dtype=complex)
        v2 = np.zeros(16, dtype=complex)
        v1[[0, 3, 5]] = [1.0, 2.0, -1.0j]
        v2[[7, 9]] = [0.5, 3.0]
        q = 4.0
        n1, n2, nsum = (lq_table_norm(v, q, 0.25) for v in (v1, v2, v1 + v2))
        assert nsum == pytest.approx((n1**q + n2**q) ** (1.0 / q), rel=1e-13)

    def test_sign_validation(self, w4):
        with pytest.raises(ValueError):
            make_test_element(1.0, w4, np.zeros(16), sign=2)

    @pytest.mark.parametrize("s", [-1.0, -1e308, math.nan])
    def test_negative_smoothness_rejected_before_any_multiplier(self, w4, s, monkeypatch):
        # The message SobolevSpec gives, raised before an order-(sign*s) table is built.
        def refuse(*args, **kwargs):
            raise AssertionError("a multiplier was built for a rejected s")

        monkeypatch.setattr(sobolev, "bessel_multiplier", refuse)
        phi = np.eye(16)[index((0, 0), 4)]
        message = "^" + re.escape(f"smoothness s must be nonnegative, got {s}") + "$"
        with pytest.raises(ValueError, match=message):
            make_test_element(s, w4, phi, -1)
        with pytest.raises(ValueError, match=message):
            pairing_bound_estimate(p=4.0, s=s, weight=w4, signs=(-1, 1), trials=2, seed=0)
        with pytest.raises(ValueError, match=message):
            nondegeneracy_check(s, w4, signs=(-1, 1))
        with pytest.raises(ValueError, match=message):
            SobolevSpec(s=s, p=1.5, weight=w4)


class TestEarlyRejection:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda w: verify_norm_axioms(make_weyl_system(8), SobolevSpec(1.0, 1.5, w), 200, 0),
                "weight lives on a different dual group than the system",
                id="norm axioms, weight of another grid",
            ),
            pytest.param(
                lambda w: pairing_bound_estimate(4.0, 1.0, w, (), 200, 0),
                "signs must hold at least one weight sign, got none",
                id="pairing, no sign",
            ),
            pytest.param(
                lambda w: pairing_bound_estimate(4.0, 1.0, w, (-1, 2), 200, 0),
                "sign must be +1 or -1, got 2",
                id="pairing, sign 2",
            ),
            pytest.param(
                lambda w: nondegeneracy_check(1.0, w, ()),
                "signs must hold at least one weight sign, got none",
                id="rank check, no sign",
            ),
            pytest.param(
                lambda w: nondegeneracy_check(1.0, w, (-1, 2)),
                "sign must be +1 or -1, got 2",
                id="rank check, sign 2",
            ),
        ],
    )
    def test_bad_input_is_rejected_before_the_first_draw(self, w4, call, message, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial was drawn or a test element built for a rejected input")

        for module, name in ((sobolev, "run_trials"), (embedding, "run_trials"), (sobolev, "qft_inverse")):
            monkeypatch.setattr(module, name, refuse)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(w4)


class TestPairingBound:
    def test_single_delta_closed_form(self, sys4, w4):
        # phi = delta_xi and T = c pi(xi) pair to exactly the multiplier value
        # at xi once both defining norms are divided out.
        s = 1.0
        p = 4.0
        for sign in (-1, 1):
            for xi in [(0, 0), (1, 2), (3, 1)]:
                phi = np.eye(16)[index(xi, 4)]
                W = make_test_element(s, w4, phi, sign)
                T = (2.0 - 1.0j) * np.asarray(weyl_operator(sys4, xi))
                ratio = abs(trace_pairing(T, W)) / (schatten_norm(T, p) * lq_table_norm(phi, p, 0.25))
                expected = (1.0 + w4.values[index(xi, 4)] ** 2) ** (sign * s / 2.0)
                assert ratio == pytest.approx(expected, rel=1e-12)

    def test_harness_respects_bound(self):
        weight = make_weight_euclidean(make_group([8, 8]))
        reps = pairing_bound_estimate(p=4.0, s=1.0, weight=weight, signs=(-1, 1), trials=120, seed=3)
        assert [rep["sign"] for rep in reps] == [-1, 1]
        for rep in reps:
            assert rep["satisfied"]
            assert rep["max_ratio"] <= rep["analytic_bound"] * (1.0 + 1e-10)
            assert rep["q_prime"] == pytest.approx(4.0)
            assert rep["p_prime"] == pytest.approx(4.0 / 3.0)

    def test_bound_is_attained_by_concentrated_generators(self, w4):
        # The chain loses nothing when the generator sits on a single point
        # maximizing the multiplier, so the measured max approaches the bound
        # within the power-mean slack N^(1/p' - 1/2).
        bound = pairing_analytic_bound(4.0, 1.0, w4, -1)
        assert bound > 0.0

    def test_bound_is_a_function_of_the_weight(self):
        # N is read off the weight's grid, so no second N can disagree with it.
        bounds = [
            pairing_analytic_bound(4.0, 1.0, make_weight_euclidean(make_group([N, N])), -1)
            for N in (4, 8)
        ]
        assert bounds == [1.0221605829453764, 1.0925542455436243]

    def test_p_validation(self, w4):
        with pytest.raises(ValueError):
            pairing_bound_estimate(p=2.0, s=1.0, weight=w4, signs=(-1,), trials=100, seed=0)

    @pytest.mark.parametrize(
        "p, s, sign, message",
        [
            (4.0, 1.0, 2, "sign must be +1 or -1, got 2"),
            (4.0, 1.0, 0, "sign must be +1 or -1, got 0"),
            (4.0, -1.0, -1, "smoothness s must be nonnegative, got -1.0"),
            (2.0, 1.0, -1, "pairing estimate needs p > 2, got 2.0"),
        ],
        ids=["sign 2", "sign 0", "negative s", "p 2"],
    )
    def test_bound_checks_its_inputs_as_the_estimate_does(self, p, s, sign, message):
        # Without the checks, sign 2 read 50.43, sign 0 2.83, s = -1 the s = 1, sign +1
        # bound 10.91, and p = 2 raised ZeroDivisionError.
        weight = make_weight_euclidean(make_group([8, 8]))
        for call in (
            lambda: pairing_analytic_bound(p, s, weight, sign),
            lambda: pairing_bound_estimate(p, s, weight, (sign,), 10, 0),
        ):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                call()

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_pairing_bound_is_its_multiplier_norm(self, w4, sign):
        # bound = N^(1/p' - 1/2) ||(1 + gamma^2)^(sign s/2)||_r with 1/r = 1/2 - 1/q'; p = q' = 4.
        r = 4.0
        direct = sum(((1.0 + g**2) ** (sign * 0.5)) ** r / 4.0 for g in w4.values) ** (1.0 / r)
        assert pairing_analytic_bound(4.0, 1.0, w4, sign) == pytest.approx(
            4.0 ** (0.75 - 0.5) * direct, rel=1e-13
        )




class TestNondegeneracy:
    @pytest.mark.parametrize("N", [1, 2, 4])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_full_rank(self, N, sign):
        (report,) = nondegeneracy_check(1.0, make_weight_euclidean(make_group([N, N])), signs=(sign,))
        assert report["sign"] == sign
        assert report["full_rank"]
        assert report["rank"] == N * N
        assert report["deficiency"] == 0

    def test_one_report_per_sign_in_order(self, w4):
        both = nondegeneracy_check(1.0, w4, signs=(1, -1))
        assert both == nondegeneracy_check(1.0, w4, signs=(1,)) + nondegeneracy_check(1.0, w4, signs=(-1,))

    @pytest.mark.parametrize("N", [4, 8])
    @pytest.mark.parametrize("s", [8.0, 20.0, 100.0])
    def test_rank_does_not_depend_on_the_multiplier_spread(self, N, s):
        # The Gram of the delta family is diag(N (m_xi / N)^2), full rank at every s;
        # the eigenvalue floor must not count the small m_xi as missing.
        weight = make_weight_euclidean(make_group([N, N]))
        for report in nondegeneracy_check(s, weight, signs=(-1, 1)):
            assert (report["rank"], report["full_rank"], report["deficiency"]) == (N * N, True, 0), report

    def test_subnormal_row_maximum_keeps_the_rank(self):
        # At N = 8, s = 410 the smallest row maximum 34^(-205) / 8 is subnormal,
        # and dividing a complex row by it overflows in its reciprocal.
        (report,) = nondegeneracy_check(410.0, make_weight_euclidean(make_group([8, 8])), signs=(-1,))
        assert (report["rank"], report["full_rank"], report["min_eigenvalue"]) == (64, True, 0.0)

    def test_zeroed_row_is_one_short(self, sys4):
        # (1 + gamma^2)^(-1/2) underflows to zero at the one point of weight 1e200.
        values = np.ones(16)
        values[5] = 1e200
        weight = Weight(sys4.group, values)
        (report,) = nondegeneracy_check(1.0, weight, signs=(-1,))
        assert (report["rank"], report["full_rank"], report["deficiency"]) == (15, False, 1)
        # The zero row's largest modulus is 0, so the eigenvalue bound is 0.
        assert report["min_eigenvalue"] == 0.0

    @pytest.mark.parametrize("N", [2, 4, 8])
    @pytest.mark.parametrize("s", [1.0, 8.0, 20.0, 400.0])
    def test_min_eigenvalue_is_its_closed_form(self, N, s):
        # Weyl orthogonality makes the delta family's Gram diag(N (m_xi / N)^2),
        # so its least eigenvalue is N (min m / N)^2, 0.0 where that underflows.
        weight = make_weight_euclidean(make_group([N, N]))
        for report in nondegeneracy_check(s, weight, signs=(-1, 1)):
            least = float(np.min(bessel_multiplier(weight, report["sign"] * s)))
            closed = N * (least / N) ** 2
            assert report["min_eigenvalue"] == pytest.approx(closed, rel=1e-14, abs=0.0), report

    def test_one_eigendecomposition_per_sign(self, w4, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        nondegeneracy_check(1.0, w4, signs=(-1, 1))
        assert calls == [(16, 16), (16, 16)]

    def test_size_limit(self):
        weight = make_weight_euclidean(make_group([17, 17]))
        with pytest.raises(ValueError, match="limited to N <= 16, got 17"):
            nondegeneracy_check(1.0, weight, signs=(-1,))

    def test_report_dict(self, w4):
        (report,) = nondegeneracy_check(1.0, w4, signs=(-1,))
        assert report["dimension"] == 16
        assert report["full_rank"] is True
