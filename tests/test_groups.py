import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsobolev.groups import (
    PhaseSpaceGrid,
    as_table,
    lq_table_norm,
    make_group,
)
from qsobolev.qft import qft_inverse
from qsobolev.sobolev import make_test_element, make_weight_euclidean
from qsobolev.weyl import make_weyl_system


def brute_lq(values, q, mass):
    # Independent oracle: plain python accumulation of the defining sum.
    if math.isinf(q):
        return max(abs(v) for v in values)
    return sum(abs(v) ** q * mass for v in values) ** (1.0 / q)


def grid_points(N):
    # Oracle enumeration: row-major (a, b) tuples, last coordinate fastest.
    return [(a, b) for a in range(N) for b in range(N)]


def unmasked_lq(values, q, mass):
    # Oracle: lq_table_norm with every ratio raised to the power, zeros included.
    mods = np.abs(values)
    top = np.max(mods, axis=-1)
    scale = np.where(top > 0.0, top, 1.0)[..., None]
    total = np.sum((mods / scale) ** q, axis=-1) * mass
    root = np.array([t ** (1.0 / q) for t in total.ravel().tolist()]).reshape(total.shape)
    return top * root


class TestMakeGroup:
    def test_single_cyclic_factor(self):
        # Only the square grid Z_N x Z_N exists: one cyclic factor is rejected.
        with pytest.raises(ValueError):
            make_group([4])

    def test_product_order(self):
        assert make_group([3, 3]).size == 9
        assert make_group([3, 3]) == PhaseSpaceGrid(3)
        with pytest.raises(ValueError):
            make_group([2, 3])

    def test_trivial_group(self):
        g = make_group([1, 1])
        assert g.size == 1
        assert g.coordinates.tolist() == [[0], [0]]

    def test_rejects_empty_and_nonpositive(self):
        for orders in ([], [4, 0], [0, 0], [-2, -2], [-2], [4, 4, 4]):
            with pytest.raises(ValueError):
                make_group(orders)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(2.5)

    def test_enumeration_is_lexicographic(self):
        for N in (1, 2, 3, 5):
            a, b = make_group([N, N]).coordinates
            pts = list(zip(a.tolist(), b.tolist()))
            assert pts == grid_points(N)
            assert [x * N + y for x, y in pts] == list(range(N * N))

    def test_require_point(self):
        g = make_group([4, 4])
        assert g.require_point((3, 1)) == (3, 1)
        assert g.require_point([np.int64(2), 0.0]) == (2, 0)
        for bad in [(4, 0), (0, -1), (1, 1.5), (1,), (1, 2, 3)]:
            with pytest.raises(ValueError):
                g.require_point(bad)


class TestSquaredRadii:
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 9])
    def test_equals_indices_form(self, N):
        # Oracle: both coordinates of every point from np.indices, folded into (-N/2, N/2].
        r = np.indices((N, N)).reshape(2, -1) % N
        expected = np.sum(np.where(2 * r <= N, r, r - N) ** 2, axis=0)
        radii = make_group([N, N]).squared_radii()
        assert radii.dtype == expected.dtype
        np.testing.assert_array_equal(radii, expected)


class TestGroupArithmetic:
    # Flat-index tables against tuple arithmetic mod N on every pair of points.
    def test_mod_4_sum(self):
        g = make_group([4, 4])
        pts = grid_points(4)
        table = g.sum_index()
        assert pts[table[pts.index((3, 1)), pts.index((2, 3))]] == (1, 0)
        for i, (a, b) in enumerate(pts):
            for j, (c, d) in enumerate(pts):
                assert pts[table[i, j]] == ((a + c) % 4, (b + d) % 4)

    def test_neg(self):
        g = make_group([4, 4])
        pts = grid_points(4)
        assert [pts[i] for i in g.neg_index()] == [((-a) % 4, (-b) % 4) for a, b in pts]

    def test_product_sum(self):
        g = make_group([3, 3])
        pts = grid_points(3)
        assert pts[g.sum_index()[pts.index((1, 2)), pts.index((1, 2))]] == (2, 1)

    def test_sum_with_neg_is_identity(self):
        for N in (1, 2, 5, 6):
            g = make_group([N, N])
            table = g.sum_index()
            assert np.all(table[np.arange(N * N), g.neg_index()] == 0)


class TestLqNorm:
    # Tables of length 16 live on the N = 4 grid: 16 dual points of mass 1/4.

    def test_constant_one_total_mass(self):
        assert lq_table_norm(np.ones(16), 1.0, 0.25) == pytest.approx(4.0)

    def test_constant_sup(self):
        assert lq_table_norm(np.ones(16), math.inf, 0.25) == pytest.approx(1.0)

    def test_indicator_l2(self):
        vals = np.zeros(16)
        vals[[1, 5, 11]] = 1.0
        assert lq_table_norm(vals, 2.0, 0.25) == pytest.approx(brute_lq(vals, 2.0, 0.25))
        assert lq_table_norm(vals, 2.0, 0.25) == pytest.approx(math.sqrt(3 * 0.25))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for q in (0.5, 1.0, 1.7, 2.0, 4.0, math.inf):
            assert lq_table_norm(vals, q, 0.25) == pytest.approx(brute_lq(vals, q, 0.25), rel=1e-13)

    @pytest.mark.parametrize("N", [1, 3, 8])
    def test_dual_mass_gives_the_grid_norm(self, N):
        # At the grid's dual mass 1/N the norm is the defining sum: one table and a stack.
        mass = make_group([N, N]).dual_mass
        rng = np.random.default_rng(N)
        stack = rng.standard_normal((2, N * N)) + 1j * rng.standard_normal((2, N * N))
        for q in (1.0, 4.0 / 3.0, math.inf):
            norms = lq_table_norm(stack, q, mass)
            assert norms.shape == (2,)
            for table, norm in zip(stack, norms):
                assert lq_table_norm(table, q, mass) == norm
                assert norm == pytest.approx(brute_lq(table.tolist(), q, 1.0 / N), rel=1e-13)

    @pytest.mark.parametrize("q", [1.0, 8 / 7, 4 / 3, 2.0, 4.0, 8.0])
    def test_zero_skip_equals_unmasked_sum(self, q):
        # A delta, an indicator, an all-zero row and a dense row whose moduli
        # span six decades, bit for bit, stacked and one table at a time.
        rng = np.random.default_rng(5)
        stack = np.zeros((4, 64), dtype=np.complex128)
        stack[0, 17] = 0.3 - 2.0j
        stack[1, [2, 9, 40, 63]] = 1.0
        stack[3] = np.exp(2j * np.pi * rng.random(64)) * 10.0 ** rng.uniform(-6.0, 0.0, 64)
        expected = unmasked_lq(stack, q, 0.125)
        assert lq_table_norm(stack, q, 0.125).tobytes() == expected.tobytes()
        for row, value in zip(stack, expected):
            assert lq_table_norm(row, q, 0.125) == value

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_exponent_sequence_equals_one_exponent_at_a_time(self, dense):
        # A trailing axis of norms, each bit for bit the norm at that exponent
        # alone, on a stack and on one table, inf and a repeat among them.
        rng = np.random.default_rng(8)
        stack = np.zeros((5, 64), dtype=np.complex128)
        if dense:
            stack[:] = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
            stack[4] *= 10.0 ** rng.uniform(-6.0, 0.0, 64)
        else:
            stack[0, 17] = 0.3 - 2.0j
            stack[1, [2, 9, 40, 63]] = 1.0
            stack[3, ::7] = rng.standard_normal(10)
        qs = (1.0, 8 / 7, math.inf, 4 / 3, 0.5, 2.0, 8.0, 1.0)
        for table in (stack, stack[3]):
            norms = lq_table_norm(table, qs, 0.125)
            assert norms.shape == table.shape[:-1] + (len(qs),)
            for j, q in enumerate(qs):
                assert norms[..., j].tobytes() == np.asarray(lq_table_norm(table, q, 0.125)).tobytes(), q
        assert lq_table_norm(stack, np.array(qs), 0.125).tobytes() == lq_table_norm(stack, qs, 0.125).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_bad_exponent_anywhere_in_a_sequence(self, bad, at):
        qs = [2.0, math.inf, 4.0]
        qs[at] = bad
        with pytest.raises(ValueError, match="exponent"):
            lq_table_norm(np.ones((3, 16)), qs, 0.25)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            lq_table_norm(np.ones(16), 0.0, 0.25)
        with pytest.raises(ValueError):
            lq_table_norm(np.ones(16), -1.0, 0.25)
        with pytest.raises(ValueError, match="^exponent sequence must hold at least one exponent, got none$"):
            lq_table_norm(np.ones(16), [], 0.25)

    def test_zero_function(self):
        assert lq_table_norm(np.zeros(16), 2.0, 0.25) == 0.0
        assert lq_table_norm(np.zeros(16), math.inf, 0.25) == 0.0

    def test_pointwise_monotone(self):
        rng = np.random.default_rng(11)
        small = np.abs(rng.standard_normal(16))
        big = small + np.abs(rng.standard_normal(16))
        for q in (0.7, 1.0, 2.0, 5.0, math.inf):
            assert lq_table_norm(small, q, 0.25) <= lq_table_norm(big, q, 0.25) + 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False), min_size=16, max_size=16),
        st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False), min_size=16, max_size=16),
        st.floats(1.0, 20.0),
    )
    def test_triangle_inequality(self, u, v, q):
        fu, fv = np.array(u), np.array(v)
        lhs = lq_table_norm(fu + fv, q, 0.25)
        rhs = lq_table_norm(fu, q, 0.25) + lq_table_norm(fv, q, 0.25)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12

    def test_holder_on_dual(self):
        # ||fg||_sigma <= ||f||_alpha ||g||_q with 1/sigma = 1/alpha + 1/q.
        rng = np.random.default_rng(23)
        for trial in range(200):
            f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            alpha = float(rng.uniform(1.0, 8.0))
            q = float(rng.uniform(1.0, 8.0))
            sigma = alpha * q / (alpha + q)
            lhs = lq_table_norm(f * h, sigma, 0.25)
            rhs = lq_table_norm(f, alpha, 0.25) * lq_table_norm(h, q, 0.25)
            assert lhs <= rhs * (1.0 + 1e-12)


class TestAsTable:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 16\)"):
            as_table(np.ones(5), 4)
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 16\)"):
            as_table(np.ones((16, 1)), 4)

    def test_finiteness_validation(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError, match="finite"):
                as_table(np.array([1.0, bad, 0.0, 0.0]), 2)

    def test_returns_complex128_and_keeps_the_stack(self):
        real = np.arange(32.0).reshape(2, 16)
        table = as_table(real, 4)
        assert table.dtype == np.complex128 and table.shape == (2, 16)
        assert np.array_equal(table, real)
        # A complex128 table comes back as the same array, not a copy.
        assert as_table(table, 4) is table

    def test_haar_positivity(self):
        # The dual Haar mass is 1/N > 0 on every grid.
        for N in (1, 2, 8, 1024):
            assert make_group([N, N]).dual_mass == 1.0 / N > 0.0


@pytest.fixture(scope="module")
def incoming_kernels():
    # Each kernel that takes a table from its caller, on the N = 4 grid (length 16).
    system = make_weyl_system(4)
    weight = make_weight_euclidean(system.group)
    return {
        "qft_inverse": lambda f: qft_inverse(system, f),
        "make_test_element": lambda f: make_test_element(1.0, weight, f, -1),
    }


def _nan_table(length):
    table = np.ones(length, dtype=np.complex128)
    table[5] = complex(1.0, np.nan)
    return table


def _shape_message(length):
    return rf"shape \((3, )?{length},?\), expected \(\.\.\., 16\)"


#: (kernel, defect, table, message); every table is checked alone and in a stack of three.
INCOMING_DEFECTS = [
    (kernel, defect, table, message)
    for defect, table, message in (
        ("empty", np.ones(0), _shape_message(0)),
        ("other-grid", np.ones(25), _shape_message(25)),
        ("nan", _nan_table(16), "finite"),
        ("not-square", np.ones(15), _shape_message(15)),
    )
    for kernel in ("qft_inverse", "make_test_element")
]


@pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize(
    "kernel, table, message",
    [case[:1] + case[2:] for case in INCOMING_DEFECTS],
    ids=[f"{case[0]}-{case[1]}" for case in INCOMING_DEFECTS],
)
def test_kernels_check_incoming_tables(incoming_kernels, kernel, table, message, stack):
    if stack:
        table = np.stack([np.ones_like(table), table, np.ones_like(table)])
    with pytest.raises(ValueError, match=message):
        incoming_kernels[kernel](table)
    # The same kernel takes a valid table of the same rank.
    assert np.all(np.isfinite(incoming_kernels[kernel](np.ones(table.shape[:-1] + (16,)))))
