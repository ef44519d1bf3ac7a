import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from qsobolev import weyl
from qsobolev.linalg import trace_pairing
from qsobolev.weyl import AXIOM_TOLERANCES, check_axioms, make_weyl_system, weyl_operator
from qsobolev.groups import make_group


def row(report, axiom):
    """The row of ``report`` that measures ``axiom``."""
    (check,) = (c for c in report.checks if c.axiom == axiom)
    return check


def grid_points(N):
    # Oracle enumeration: row-major (a, b) tuples, last coordinate fastest.
    return [(a, b) for a in range(N) for b in range(N)]


@pytest.fixture
def captured_rows(monkeypatch):
    """The (multipliers, residuals) rows ``check_axioms`` gets from the composition routine, in order."""
    rows = []
    compose_row = weyl._compose_row

    def spy(*args):
        c, residuals = compose_row(*args)
        rows.append((np.array(c), np.array(residuals)))
        return c, residuals

    monkeypatch.setattr(weyl, "_compose_row", spy)
    return rows


@pytest.fixture
def multiplier_table(captured_rows):
    """For a system, m(x, y) read off the multiplier table that ``check_axioms`` builds."""

    def table(system):
        captured_rows.clear()
        check_axioms(system)
        m = np.stack([c for c, _ in captured_rows]).reshape((system.N,) * 4)
        return lambda x, y: complex(m[(*x, *y)])

    return table


class TestWeylOperator:
    def test_identity_point(self):
        system = make_weyl_system(4)
        assert np.allclose(weyl_operator(system, (0, 0)), np.eye(4))

    def test_pure_shift_n2(self):
        system = make_weyl_system(2)
        assert np.allclose(weyl_operator(system, (1, 0)), [[0, 1], [1, 0]])

    def test_pure_modulation_n2(self):
        system = make_weyl_system(2)
        assert np.allclose(weyl_operator(system, (0, 1)), np.diag([1.0, -1.0]))

    def test_action_on_basis(self):
        # (pi(a,b) e_k)(t) = omega^{bt} delta_{t+a,k}: shifts e_k to e_{k-a} side.
        system = make_weyl_system(5)
        omega = np.exp(2j * np.pi / 5)
        a, b = 2, 3
        op = weyl_operator(system, (a, b))
        for k in range(5):
            e = np.zeros(5, dtype=complex)
            e[k] = 1.0
            out = op @ e
            expected = np.zeros(5, dtype=complex)
            expected[(k - a) % 5] = omega ** (b * ((k - a) % 5))
            assert np.allclose(out, expected)

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8])
    def test_unitarity_exhaustive(self, N, convention):
        system = make_weyl_system(N, convention)
        for x in grid_points(N):
            op = weyl_operator(system, x)
            assert np.linalg.norm(op.conj().T @ op - np.eye(N)) < 1e-12

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8])
    def test_trace_orthogonality_exhaustive(self, N, convention):
        system = make_weyl_system(N, convention)
        ops = [weyl_operator(system, x) for x in grid_points(N)]
        V = np.stack([op.ravel() for op in ops])
        gram = V.conj() @ V.T
        assert np.max(np.abs(gram - N * np.eye(N * N))) < 1e-11

    def test_invalid_point_rejected(self):
        system = make_weyl_system(4)
        with pytest.raises(ValueError):
            weyl_operator(system, (4, 0))
        with pytest.raises(ValueError):
            weyl_operator(system, (0, -1))

    def test_invalid_system(self):
        with pytest.raises(ValueError):
            make_weyl_system(0)
        with pytest.raises(ValueError):
            make_weyl_system(4, "weird")

    def test_operator_is_readonly(self):
        system = make_weyl_system(3)
        op = weyl_operator(system, (1, 1))
        with pytest.raises(ValueError):
            op[0, 0] = 5.0

    def test_convention(self):
        # Mass 1/N per dual point on the system's N x N grid: Plancherel constant 1.
        system = make_weyl_system(8)
        assert system.group == make_group([8, 8])
        assert system.group.dual_mass == 1.0 / 8.0


class TestMultiplier:
    """The multiplier as ``check_axioms`` tabulates it, the one place it is computed."""

    def test_identity_factor(self, multiplier_table):
        m = multiplier_table(make_weyl_system(6))
        for y in [(0, 0), (3, 2), (5, 5)]:
            assert m((0, 0), y) == pytest.approx(1.0)

    def test_shift_modulation_n4(self, multiplier_table):
        m = multiplier_table(make_weyl_system(4))
        assert m((1, 0), (0, 1)) == pytest.approx(1j)

    def test_diagonal_pair_n2(self, multiplier_table):
        m = multiplier_table(make_weyl_system(2))
        assert m((1, 1), (1, 1)) == pytest.approx(-1.0)

    def test_standard_closed_form(self, multiplier_table):
        # Composition gives m((a,b),(c,d)) = omega^(d a) in the standard convention.
        m = multiplier_table(make_weyl_system(5))
        omega = np.exp(2j * np.pi / 5)
        for x in [(1, 2), (3, 0), (4, 4)]:
            for y in [(0, 1), (2, 3), (4, 2)]:
                assert m(x, y) == pytest.approx(omega ** (y[1] * x[0]))

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    def test_composition_residual(self, convention, multiplier_table):
        system = make_weyl_system(4, convention)
        m = multiplier_table(system)
        for x in grid_points(4):
            for y in grid_points(4):
                z = tuple((a + b) % 4 for a, b in zip(x, y))
                residual = weyl_operator(system, x) @ weyl_operator(system, y) - m(x, y) * weyl_operator(system, z)
                assert np.linalg.norm(residual) < 1e-12

    def test_modulus_guard(self, monkeypatch):
        # A composition off the unit circle fails the gated unimodular row:
        # m((0,0),(1,0)) = tr((pi(1,0)/2)^* pi(1,0)/2) / 2 = 1/4.
        def shrunk_shift(system, point):
            op = weyl_operator(system, point)
            return 0.5 * op if tuple(point) == (1, 0) else op

        monkeypatch.setattr(weyl, "weyl_operator", shrunk_shift)
        check = row(check_axioms(make_weyl_system(2)), "unimodular")
        assert not check.passed
        assert check.worst_deviation == pytest.approx(0.75)
        assert check.witness == {"x": [0, 0], "y": [1, 0]}


class TestCheckAxioms:
    def test_trivial_system(self):
        report = check_axioms(make_weyl_system(1))
        assert all(c.passed for c in report.checks)

    def test_standard_core_axioms(self):
        for N in (2, 3, 4, 8):
            report = check_axioms(make_weyl_system(N))
            assert row(report, "composition").passed
            assert row(report, "unimodular").passed
            assert row(report, "cocycle").passed
            assert row(report, "unitarity").passed
            assert row(report, "trace_orthogonality").passed
            assert report.core_passed

    def test_symmetric_core_axioms(self):
        for N in (2, 3, 4):
            report = check_axioms(make_weyl_system(N, "symmetric"))
            assert report.core_passed

    def test_inverse_conjugation_n2_standard_holds(self):
        # At N = 2 every multiplier is real (omega = -1), so the conjugation
        # identity on inverses holds; the first N where it fails is 3.
        report = check_axioms(make_weyl_system(2))
        assert row(report, "inverse_conjugation").passed
        assert row(report, "inverse_conjugation").worst_deviation < 1e-12

    def test_inverse_conjugation_fails_standard_n4(self, multiplier_table):
        report = check_axioms(make_weyl_system(4))
        assert not row(report, "inverse_conjugation").passed
        # Direct witness: m((1,0),(0,1)) = i but conj(m((3,0),(0,3))) = -i.
        m = multiplier_table(make_weyl_system(4))
        assert abs(m((1, 0), (0, 1)) - np.conj(m((3, 0), (0, 3)))) == pytest.approx(2.0)

    def test_swapped_variant_symmetric_n2_holds(self):
        report = check_axioms(make_weyl_system(2, "symmetric"))
        assert row(report, "inverse_conjugation_swapped").passed
        assert not row(report, "inverse_conjugation").passed

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    @pytest.mark.parametrize("N", [3, 4])
    def test_pairwise_deviations_match_tuple_oracle(self, N, convention, multiplier_table):
        # Worst deviations recomputed pair by pair with tuple arithmetic mod N.
        system = make_weyl_system(N, convention)
        pts = grid_points(N)
        table = multiplier_table(system)
        m = {(x, y): table(x, y) for x in pts for y in pts}
        neg = lambda x: ((-x[0]) % N, (-x[1]) % N)
        worst_inv = max(abs(m[x, y] - np.conj(m[neg(x), neg(y)])) for x in pts for y in pts)
        worst_swap = max(abs(m[x, y] - np.conj(m[neg(y), neg(x)])) for x in pts for y in pts)
        report = check_axioms(system)
        assert row(report, "inverse_conjugation").worst_deviation == pytest.approx(worst_inv, abs=1e-12)
        assert row(report, "inverse_conjugation_swapped").worst_deviation == pytest.approx(
            worst_swap, abs=1e-12
        )
        witness = row(report, "inverse_conjugation").witness
        x, y = tuple(witness["x"]), tuple(witness["y"])
        assert abs(m[x, y] - np.conj(m[neg(x), neg(y)])) == pytest.approx(worst_inv, abs=1e-12)

    def test_axiom3_rows_are_informational(self):
        report = check_axioms(make_weyl_system(4))
        assert row(report, "inverse_conjugation").informational
        assert row(report, "inverse_conjugation_swapped").informational
        assert not row(report, "composition").informational

    def test_cocycle_symmetric_n3(self):
        report = check_axioms(make_weyl_system(3, "symmetric"))
        assert row(report, "cocycle").worst_deviation < 1e-12

    def test_report_json_roundtrip(self):
        report = check_axioms(make_weyl_system(2))
        assert report.core_passed is True
        blob = json.loads(json.dumps(asdict(report)))
        assert blob["N"] == 2
        assert {c["axiom"] for c in blob["checks"]} >= {
            "composition",
            "unimodular",
            "inverse_conjugation",
            "inverse_conjugation_swapped",
            "cocycle",
            "unitarity",
            "trace_orthogonality",
        }
        witness = blob["checks"][0]["witness"]
        assert isinstance(witness["x"], list)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            check_axioms(make_weyl_system(17))

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    @pytest.mark.parametrize("N", [1, 4])
    @pytest.mark.parametrize(
        "keyword, axioms",
        [
            ("composition_tol", {"composition", "inverse_conjugation", "inverse_conjugation_swapped"}),
            ("modulus_tol", {"unimodular"}),
            ("cocycle_tol", {"cocycle"}),
            ("unitarity_tol", {"unitarity"}),
            ("orthogonality_tol", {"trace_orthogonality"}),
        ],
    )
    def test_each_tolerance_gates_only_its_rows(self, keyword, axioms, N, convention):
        # A negative tolerance fails every row it gates, since deviations are >= 0.
        # At N = 1 every row passes by default, so each flip shows; at N = 4
        # (the CLI default) both inverse-conjugation rows already fail.
        system = make_weyl_system(N, convention)
        default = {c.axiom: c.passed for c in check_axioms(system).checks}
        assert N != 1 or all(default.values())
        # ``keyword`` is the --tol name with a "_tol" suffix, which keeps the test ids.
        tolerances = AXIOM_TOLERANCES | {keyword.removesuffix("_tol"): -1.0}
        flipped = {c.axiom: c.passed for c in check_axioms(system, tolerances).checks}
        assert flipped == {axiom: passed and axiom not in axioms for axiom, passed in default.items()}


def dense_compose(left, right, target):
    """Multipliers and residuals of ``left @ right = c * target`` from the dense products.

    ``c = tr(target^* left right) / N`` is the trace pairing of the product
    with the target, and the residual is the Frobenius norm of ``left @ right
    - c * target``; leading axes broadcast.  For Weyl operators with ``target
    = pi(x + y)`` these are ``m(x, y)`` and the deviation of the composition
    identity: N^3 work per pair, the oracle of ``weyl._compose_row``.
    """
    products = left @ right
    c = trace_pairing(products, target) / target.shape[-1]
    products -= c[..., None, None] * target
    return c, np.linalg.norm(products, axis=(-2, -1))


def operator_stack(system):
    """All N^2 operators of ``system``, in the flat order of its grid."""
    return np.stack([weyl_operator(system, p) for p in system.group.coordinates.T.tolist()])


def first_worst(values):
    """Largest value and the point indices of its first occurrence."""
    flat = int(np.argmax(values))
    return values.flat[flat], np.unravel_index(flat, values.shape)


class TestFormComposition:
    """The multiplier table composed on the operators' forms, against the dense products."""

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 16])
    def test_matches_dense_oracle(self, N, convention, captured_rows, monkeypatch):
        system = make_weyl_system(N, convention)
        report = check_axioms(system)
        m = np.stack([c for c, _ in captured_rows])
        residuals = np.stack([r for _, r in captured_rows])

        # The same report with every row of the table from the dense products.
        stack = operator_stack(system)
        dense = []

        def dense_row(columns, phases, off, i, targets):
            dense.append(dense_compose(stack[i], stack, stack[targets]))
            return dense[-1]

        monkeypatch.setattr(weyl, "_compose_row", dense_row)
        oracle = check_axioms(system)
        np.testing.assert_allclose(m, np.stack([c for c, _ in dense]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(residuals, np.stack([r for _, r in dense]), rtol=0, atol=1e-15)
        assert [c.axiom for c in report.checks] == [c.axiom for c in oracle.checks]
        for got, want in zip(report.checks, oracle.checks):
            assert got.passed == want.passed, got.axiom
            assert got.worst_deviation == pytest.approx(want.worst_deviation, rel=0, abs=1e-15), got.axiom

    @pytest.mark.parametrize("convention", ["standard", "symmetric"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8])
    def test_rows_read_the_table(self, N, convention, captured_rows):
        # Each row recomputed in numpy from the captured table and residuals,
        # and the unitarity row one operator at a time.
        system = make_weyl_system(N, convention)
        report = check_axioms(system)
        m = np.stack([c for c, _ in captured_rows])
        residuals = np.stack([r for _, r in captured_rows])

        def point(i):
            return list(divmod(int(i), N))

        def assert_row(axiom, values, names):
            worst, at = first_worst(values)
            check = row(report, axiom)
            assert check.worst_deviation == worst, axiom
            assert check.witness == {name: point(i) for name, i in zip(names, at)}, axiom

        group = system.group
        neg = group.neg_index()
        sum_idx = group.sum_index()
        assert_row("composition", residuals, "xy")
        assert_row("unimodular", np.abs(np.abs(m) - 1.0), "xy")
        assert_row("inverse_conjugation", np.abs(m - np.conj(m[np.ix_(neg, neg)])), "xy")
        assert_row("inverse_conjugation_swapped", np.abs(m - np.conj(m[np.ix_(neg, neg)].T)), "xy")
        # m(x, y) m(x + y, z) against m(y, z) m(x, y + z) over every triple (x, y, z).
        lhs = m[:, :, None] * m[sum_idx, :]
        rhs = m[None, :, :] * m[:, sum_idx]
        assert_row("cocycle", np.abs(lhs - rhs), "xyz")

        # Stacked Frobenius norms sum in another order than one norm per matrix.
        unit_dev = [np.linalg.norm(op.conj().T @ op - np.eye(N)) for op in operator_stack(system)]
        assert abs(row(report, "unitarity").worst_deviation - max(unit_dev)) <= 1e-30


class TestFormGuards:
    """An operator that is not one shift and one phase per row fails a named row there."""

    N = 4
    POINT = (1, 2)

    def report_with(self, monkeypatch, corrupt):
        def corrupted(system, point):
            op = weyl_operator(system, point)
            return corrupt(np.array(op)) if tuple(point) == self.POINT else op

        monkeypatch.setattr(weyl, "weyl_operator", corrupted)
        return check_axioms(make_weyl_system(self.N))

    def test_off_form_entry_fails_composition_at_its_point(self, monkeypatch):
        # One extra entry beside the nonzero of row 0, of modulus 1e-6.
        def extra_entry(op):
            column = int(np.argmax(np.abs(op[0])))
            op[0, (column + 1) % self.N] = 1e-6
            return op

        check = row(self.report_with(monkeypatch, extra_entry), "composition")
        assert not check.passed
        assert list(self.POINT) in check.witness.values()
        # The extra entry's norm enters twice: as the operator on either side, or as the target.
        assert check.worst_deviation == pytest.approx(2e-6, rel=1e-9)

    def test_phase_error_fails_composition_at_its_point(self, monkeypatch):
        # The nonzero of row 0 turned by 1e-6 rad: still one unit-modulus entry per row.
        def turned(op):
            op[0] *= np.exp(1e-6j)
            return op

        report = self.report_with(monkeypatch, turned)
        check = row(report, "composition")
        assert not check.passed
        assert list(self.POINT) in check.witness.values()
        assert row(report, "unimodular").passed


def test_memory_peak_at_the_largest_n():
    # The table's rows are composed one at a time on the forms: no K x K x N
    # table, which would be 16 MiB of complex values alone at N = 16.
    system = make_weyl_system(weyl.EXHAUSTIVE_MAX_N)
    tracemalloc.start()
    try:
        check_axioms(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
