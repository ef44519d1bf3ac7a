import math

import numpy as np
import pytest

from qsobolev.embedding import (
    SET_SELECTORS,
    ball_points,
    compute_exponents,
    counterexample_run,
    lex_first_points,
    subgroup_points,
    verify_embedding_chain,
)
from qsobolev.groups import lq_table_norm, make_group
from qsobolev.sobolev import SobolevSpec, make_weight_constant, make_weight_euclidean, weighted_norm
from qsobolev.weyl import make_weyl_system


class TestComputeExponents:
    def test_reference_config(self):
        rep = compute_exponents(4.0, 4.0, 1.0)
        assert rep["sigma"] == pytest.approx(2.0)
        assert rep["beta_corrected"] == pytest.approx(2.0)
        assert rep["beta_alternate"] == pytest.approx(16.0 / 11.0)
        assert rep["sigma_in_range"]
        assert rep["beta_alternate_defined"]

    def test_larger_smoothness(self):
        rep = compute_exponents(4.0, 4.0, 2.0)
        assert rep["beta_alternate"] == pytest.approx(1.6)

    def test_large_alpha_leaves_range(self):
        rep = compute_exponents(1e9, 4.0, 1.0)
        assert rep["sigma"] == pytest.approx(4.0, rel=1e-6)
        assert not rep["sigma_in_range"]

    def test_alternate_beta_hypothesis_boundary(self):
        # alpha (q - 1) <= s makes the alternate formula's denominator nonpositive:
        # reported as a flag, not an error.
        rep = compute_exponents(1.5, 4.0, 5.0)
        assert rep["sigma_in_range"]
        assert not rep["beta_alternate_defined"]
        assert rep["beta_alternate"] is None

    def test_holder_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            alpha = float(rng.uniform(0.2, 50.0))
            q = float(rng.uniform(1.01, 50.0))
            rep = compute_exponents(alpha, q, 1.0)
            assert abs(1.0 / rep["sigma"] - (1.0 / alpha + 1.0 / q)) <= 1e-15
            assert rep["sigma"] <= min(alpha, q) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_exponents(0.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            compute_exponents(4.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            compute_exponents(4.0, 4.0, 0.0)


class TestMultiplierNorm:
    def test_constant_weight_l1(self):
        # gamma = 1 makes the order -2 multiplier constant 1/2; total dual mass is 4.
        dual = make_group([4, 4])
        weight = make_weight_constant(dual)
        assert weighted_norm(1.0, weight, -2.0, 1.0) == pytest.approx(2.0)

    def test_sup_norm(self):
        dual = make_group([4, 4])
        weight = make_weight_euclidean(dual)
        expected = (1.0 + float(np.min(weight.values)) ** 2) ** (-1.0)
        assert weighted_norm(1.0, weight, -2.0, math.inf) == pytest.approx(expected)

    def test_homogeneous_brute_force(self):
        dual = make_group([4, 4])
        weight = make_weight_euclidean(dual)
        expected = sum(g ** (-1.0 * 2.0) * 0.25 for g in weight.values) ** 0.5
        assert weighted_norm(1.0, weight, -1.0, 2.0, homogeneous=True) == pytest.approx(expected, rel=1e-13)


@pytest.fixture(scope="module")
def setup():
    return make_weight_euclidean(make_group([8, 8]))


class TestEmbeddingChain:

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_chain_holds(self, setup, homogeneous):
        weight = setup
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight, homogeneous=homogeneous)
        rep = verify_embedding_chain(spec, alpha=4.0, trials=80, seed=17)
        assert rep["link1_violations"] == 0
        assert rep["link2_violations"] == 0
        assert rep["violations"] == 0
        assert rep["max_ratio"] <= rep["multiplier_norm"] * (1.0 + 1e-10)
        assert rep["sigma"] == pytest.approx(2.0)
        assert rep["beta_used"] == pytest.approx(2.0)

    def test_link2_is_tight_at_sigma_two(self, setup):
        # sigma = 2 makes link 2 the unitary case: ratios reach 1 exactly.
        weight = setup
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight)
        rep = verify_embedding_chain(spec, alpha=4.0, trials=40, seed=2)
        assert rep["max_link2_ratio"] == pytest.approx(1.0, abs=1e-11)

    def test_alternate_choice_records_both_distributions(self, setup):
        weight = setup
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight)
        rep = verify_embedding_chain(spec, alpha=4.0, trials=50, seed=17)
        assert rep["beta_alternate"] == pytest.approx(16.0 / 11.0)
        assert rep["beta_alternate"] != rep["beta_corrected"]
        assert len(rep["ratios_corrected"]) == 50 - rep["skipped"]
        assert rep["ratios_alternate"] is not None
        assert len(rep["ratios_alternate"]) == len(rep["ratios_corrected"])
        # The alternate exponent is smaller, so its Schatten norms are larger.
        assert all(
            rp >= rc - 1e-12 for rc, rp in zip(rep["ratios_corrected"], rep["ratios_alternate"])
        )

    def test_sigma_precondition(self, setup):
        weight = setup
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight)
        with pytest.raises(ValueError, match="sigma"):
            verify_embedding_chain(spec, alpha=1e9, trials=5, seed=0)

    def test_undefined_alternate_is_recorded_null(self, setup):
        # alpha (q - 1) <= s: the alternate closed form is undefined, sigma is
        # still in range, and the corrected chain is measured and gated.
        weight = setup
        spec = SobolevSpec(s=5.0, p=4.0 / 3.0, weight=weight)
        rep = verify_embedding_chain(spec, alpha=1.5, trials=20, seed=0)
        assert rep["beta_alternate"] is None
        assert rep["ratios_alternate"] is None
        assert rep["beta_used"] == rep["beta_corrected"]
        assert len(rep["ratios_corrected"]) == 20 - rep["skipped"]
        assert rep["link1_violations"] == rep["link2_violations"] == rep["violations"] == 0
        assert rep["passed"] is True


def as_points(indices, N):
    # Flat row-major indices back to (a, b) tuples.
    return [divmod(int(i), N) for i in indices]


def sorted_ball_oracle(N, k):
    # Oracle: every point sorted by (r^2, point), with symmetric representatives.
    def rep(r):
        return r if 2 * r <= N else r - N

    points = [(a, b) for a in range(N) for b in range(N)]
    return sorted(points, key=lambda p: (rep(p[0]) ** 2 + rep(p[1]) ** 2, p))[:k]


class TestSetSelectors:
    def test_lex_prefix(self):
        group = make_group([4, 4])
        assert as_points(lex_first_points(group, 3), 4) == [(0, 0), (0, 1), (0, 2)]

    def test_ball_centers_on_origin(self):
        group = make_group([4, 4])
        pts = as_points(ball_points(group, 5), 4)
        assert pts[0] == (0, 0)
        assert set(pts) == {(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)}

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 7, 8, 16, 64, 127, 128])
    def test_ball_order_matches_sorted_oracle(self, N):
        # k = 2, 3, 6 and 10 end inside a class of equal radius once N >= 5.
        for k in sorted({1, 2, 3, 6, 10, N, max(1, N * N // 2), N * N} & set(range(1, N * N + 1))):
            assert as_points(ball_points(make_group([N, N]), k), N) == sorted_ball_oracle(N, k)

    def test_returned_indices_are_the_callers(self):
        group = make_group([8, 8])
        first = ball_points(group, 6)
        expected = first.copy()
        first[:] = -1
        np.testing.assert_array_equal(ball_points(group, 6), expected)

    def test_subgroup_stride(self):
        group = make_group([8, 8])
        assert as_points(subgroup_points(group, 4), 8) == [(0, 0), (0, 2), (0, 4), (0, 6)]

    def test_subgroup_requires_divisor(self):
        group = make_group([8, 8])
        with pytest.raises(ValueError):
            subgroup_points(group, 3)

    def test_size_bounds(self):
        group = make_group([4, 4])
        for selector in SET_SELECTORS.values():
            with pytest.raises(ValueError):
                selector(group, 0)


class TestCounterexample:
    def test_generator_norms_closed_form(self):
        # Single dual point at N = 16: eps = 1/16, ||a||_8 = 16^(1/8) = sqrt(2).
        report = counterexample_run(
            [make_weyl_system(8), make_weyl_system(16)], 4.0, 8.0, "lex", [1, 1]
        )
        pt = report["points"][-1]
        assert pt["N"] == 16
        assert pt["sobolev_norm"] == pytest.approx(1.0, abs=1e-12)
        assert pt["epsilon"] == pytest.approx(1.0 / 16.0)

        vals = np.zeros(256, dtype=complex)
        vals[0] = (1.0 / 16.0) ** (-0.25)
        assert lq_table_norm(vals, 8.0, 1.0 / 16.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_full_support_flat_case(self):
        # E = whole dual: eps = N and ||a||_rho = eps^(1/rho - 1/q) is the
        # smallest generator norm in any sweep.
        eps = 4.0
        vals = np.full(16, eps ** (-0.25), dtype=complex)
        assert lq_table_norm(vals, 4.0, 0.25) == pytest.approx(1.0, abs=1e-13)
        assert lq_table_norm(vals, 8.0, 0.25) == pytest.approx(eps ** (1.0 / 8.0 - 1.0 / 4.0), rel=1e-13)

    def test_single_point_exact_law(self):
        # A one-point set gives a scalar multiple of a Weyl unitary: flat
        # singular values, so ||T||_{S_rho'} = eps^(1/rho - 1/q) exactly.
        systems = [make_weyl_system(n) for n in (4, 8, 16)]
        report = counterexample_run(systems, 4.0, 8.0, "lex", [1, 1, 1])
        for pt in report["points"]:
            assert pt["schatten_beta_norm"] == pytest.approx(
                pt["epsilon"] ** (-1.0 / 8.0), rel=1e-12
            )
        assert report["fitted_slope"] == pytest.approx(-1.0 / 8.0, abs=1e-10)

    def test_subgroup_sweep_to_1024(self):
        # The flat-spectrum sweep run out to N = 1024: three decades of measure.
        dims = [8, 8, 8, 8] + [2**j for j in range(4, 11)]
        sizes = [8, 4, 2, 1] + [1] * 7
        report = counterexample_run([make_weyl_system(n) for n in dims], 4.0, 8.0, "subgroup", sizes)
        assert abs(report["fitted_slope"] - (-0.125)) <= 1e-9
        assert report["decades_spanned"] >= 3.0
        norms = [pt["schatten_beta_norm"] for pt in report["points"]]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_subgroup_sweep_exact_slope(self):
        systems = [make_weyl_system(n) for n in (8, 8, 8, 8, 16, 32)]
        sizes = [8, 4, 2, 1, 1, 1]
        report = counterexample_run(systems, 4.0, 8.0, "subgroup", sizes)
        assert report["predicted_slope"] == pytest.approx(-0.125)
        assert report["fitted_slope"] == pytest.approx(-0.125, rel=1e-10)
        norms = [pt["schatten_beta_norm"] for pt in report["points"]]
        assert all(b > a for a, b in zip(norms, norms[1:]))
        for pt in report["points"]:
            assert abs(pt["sobolev_norm"] - 1.0) <= 1e-12

    def test_points_sorted_by_decreasing_measure(self):
        systems = [make_weyl_system(8), make_weyl_system(4)]
        report = counterexample_run(systems, 4.0, 8.0, "lex", [1, 1])
        eps = [pt["epsilon"] for pt in report["points"]]
        assert eps == sorted(eps, reverse=True)

    def test_decades_spanned(self):
        systems = [make_weyl_system(8), make_weyl_system(8)]
        report = counterexample_run(systems, 4.0, 8.0, "subgroup", [8, 1])
        assert report["decades_spanned"] == pytest.approx(math.log10(8.0))

    def test_validation(self):
        system = make_weyl_system(4)
        with pytest.raises(ValueError):
            counterexample_run([system], 4.0, 4.0, "lex", [1])
        with pytest.raises(ValueError):
            counterexample_run([system], 4.0, 2.0, "lex", [1])
        with pytest.raises(ValueError):
            counterexample_run([], 4.0, 8.0, "lex", [])
        with pytest.raises(ValueError):
            counterexample_run([system], 4.0, 8.0, "lex", [1, 2])
        with pytest.raises(ValueError):
            counterexample_run([system], 4.0, 8.0, "lex", [1, 1])

    def test_needs_two_distinct_measures(self):
        system = make_weyl_system(4)
        with pytest.raises(ValueError):
            counterexample_run([system, system], 4.0, 8.0, "lex", [2, 2])

    def test_unknown_selector_name(self):
        systems = [make_weyl_system(4), make_weyl_system(8)]
        with pytest.raises(ValueError, match="selector"):
            counterexample_run(systems, 4.0, 8.0, "corner", [1, 1])
