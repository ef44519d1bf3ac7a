"""Finite Weyl-Heisenberg systems: phase-space translations of C^N and their multiplier.

The phase-space group is ``Z_N x Z_N`` acting on ``H = C^N`` by cyclic shifts
and modulations.  Two unitarily equivalent conventions are provided:

* ``standard``:  ``(pi(a,b) psi)(t) = omega^(b t) psi(t + a mod N)`` with
  ``omega = exp(2 pi i / N)``;
* ``symmetric``: ``pi(a,b) = tau^(-a b) pi_standard(a,b)`` with
  ``tau = exp(i pi / N)`` and ``a, b`` the representatives in ``[0, N)``.

The multiplier ``m(x, y)`` linking ``pi(x) pi(y)`` to ``pi(x + y)`` is
extracted empirically from operator composition, which makes the composition
identity hold by construction in either convention and sidesteps the even-N
wraparound subtleties of the symmetric phase.  ``check_axioms`` measures all
the defining identities exhaustively and reports deviations instead of
asserting any contested variant.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .groups import PhaseSpaceGrid

CONVENTIONS = ("standard", "symmetric")

#: Modulus-1 scalar extraction is rejected beyond this deviation.
MULTIPLIER_MODULUS_GUARD = 1e-8


class RepresentationError(RuntimeError):
    """Operator composition did not reduce to a unimodular multiple of a Weyl operator."""


@dataclass(frozen=True, eq=False)
class WeylSystem:
    """Projective phase-space representation of Z_N x Z_N on C^N."""

    N: int
    convention: str = "standard"
    group: PhaseSpaceGrid = field(init=False)

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"Hilbert dimension must be a positive integer, got {self.N}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "group", PhaseSpaceGrid(self.N))


def make_weyl_system(N: int, convention: str = "standard") -> WeylSystem:
    return WeylSystem(N, convention)


def weyl_operator(system: WeylSystem, point) -> np.ndarray:
    """The unitary pi(a, b) as a freshly built, read-only N x N matrix."""
    a, b = system.group.require_point(point)
    N = system.N
    t = np.arange(N)
    M = np.zeros((N, N), dtype=np.complex128)
    # Reduce integer phases mod N before exponentiating for one-ulp accuracy.
    M[t, (t + a) % N] = np.exp(2j * np.pi * ((b * t) % N) / N)
    if system.convention == "symmetric":
        M *= np.exp(-1j * np.pi * ((a * b) % (2 * N)) / N)
    M.setflags(write=False)
    return M


def extract_multiplier(system: WeylSystem, x, y) -> complex:
    """The unimodular scalar c with pi(x) pi(y) = c pi(x + y), from traces.

    Computed as ``tr(pi(x+y)^* pi(x) pi(y)) / N``; deviations of the modulus
    from 1 beyond a guard threshold raise :class:`RepresentationError`.
    """
    N = system.N
    P = weyl_operator(system, x) @ weyl_operator(system, y)
    Q = weyl_operator(system, ((x[0] + y[0]) % N, (x[1] + y[1]) % N))
    c = complex(np.vdot(Q, P)) / N
    if abs(abs(c) - 1.0) > MULTIPLIER_MODULUS_GUARD:
        raise RepresentationError(
            f"composition scalar at x={x}, y={y} has modulus {abs(c)!r}, expected 1"
        )
    return c


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one measured identity: worst deviation and where it happened."""

    axiom: str
    passed: bool
    worst_deviation: float
    witness: dict
    informational: bool = False


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom deviations for one Weyl system; JSON-serializable."""

    N: int
    convention: str
    checks: tuple[AxiomCheck, ...]

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    @property
    def core_passed(self) -> bool:
        """All non-informational identities passed (axiom-3 variants are reported only)."""
        return all(c.passed for c in self.checks if not c.informational)

    def to_dict(self) -> dict:
        return asdict(self) | {"core_passed": self.core_passed}


def _worst(values: np.ndarray) -> tuple[float, tuple[int, ...]]:
    flat = int(np.argmax(values))
    return float(values.flat[flat]), np.unravel_index(flat, values.shape)


def check_axioms(
    system: WeylSystem,
    *,
    composition_tol: float = 1e-11,
    modulus_tol: float = 1e-12,
    unitarity_tol: float = 1e-12,
    orthogonality_tol: float = 1e-11,
    cocycle_tol: float = 1e-11,
) -> AxiomReport:
    """Measure the defining identities of the projective representation exhaustively.

    Checks, over every phase-space pair (and every triple for the cocycle
    identity, K^3 with K = N^2):

    * ``composition``:       worst Frobenius residual of pi(x) pi(y) = m(x,y) pi(x+y);
    * ``unimodular``:        worst | |m(x,y)| - 1 |;
    * ``inverse_conjugation``          m(x,y) = conj(m(-x,-y))  (reported only);
    * ``inverse_conjugation_swapped``  m(x,y) = conj(m(-y,-x))  (reported only);
    * ``cocycle``:           m(x,y) m(x+y,z) = m(y,z) m(x,y+z);
    * ``unitarity``:         worst Frobenius residual of pi(x)^* pi(x) = I;
    * ``trace_orthogonality``: worst deviation of tr(pi(x)^* pi(y)) from N delta_xy.

    The two inverse-conjugation variants are informational: which one a Weyl
    convention satisfies depends on N and on the convention, so no experiment
    downstream assumes either.  Requires ``N <= 16``.
    """
    if system.N > 16:
        raise ValueError(f"exhaustive axiom check is limited to N <= 16, got {system.N}")
    group = system.group
    K = group.size
    N = system.N
    ops = [weyl_operator(system, p) for p in group.coordinates.T.tolist()]
    sum_idx = group.sum_index()
    neg_idx = group.neg_index()

    m = np.empty((K, K), dtype=np.complex128)
    comp_res = np.empty((K, K))
    for i in range(K):
        Pi = ops[i]
        for j in range(K):
            prod = Pi @ ops[j]
            target = ops[sum_idx[i, j]]
            c = np.vdot(target, prod) / N
            m[i, j] = c
            comp_res[i, j] = np.linalg.norm(prod - c * target)

    worst_comp, comp_at = _worst(comp_res)
    worst_mod, mod_at = _worst(np.abs(np.abs(m) - 1.0))

    inv_dev = np.abs(m - np.conj(m[np.ix_(neg_idx, neg_idx)]))
    worst_inv, inv_at = _worst(inv_dev)
    inv_swap_dev = np.abs(m - np.conj(m[np.ix_(neg_idx, neg_idx)].T))
    worst_swap, swap_at = _worst(inv_swap_dev)

    worst_cocycle = 0.0
    cocycle_at = (0, 0, 0)
    for i in range(K):
        lhs = m[i, :][:, None] * m[sum_idx[i, :], :]
        rhs = m * m[i, sum_idx]
        dev = np.abs(lhs - rhs)
        w, at = _worst(dev)
        if w > worst_cocycle:
            worst_cocycle = w
            cocycle_at = (i, at[0], at[1])

    unit_dev = np.array([np.linalg.norm(op.conj().T @ op - np.eye(N)) for op in ops])
    worst_unit = float(np.max(unit_dev))
    unit_at = np.argmax(unit_dev)

    V = np.stack([op.ravel() for op in ops])
    gram = V.conj() @ V.T
    ortho_dev = np.abs(gram - N * np.eye(K))
    worst_ortho, ortho_at = _worst(ortho_dev)

    def point(i) -> list[int]:
        return list(divmod(int(i), N))

    def pair_witness(i: int, j: int) -> dict:
        return {"x": point(i), "y": point(j)}

    checks = (
        AxiomCheck("composition", worst_comp <= composition_tol, worst_comp, pair_witness(*comp_at)),
        AxiomCheck("unimodular", worst_mod <= modulus_tol, worst_mod, pair_witness(*mod_at)),
        AxiomCheck(
            "inverse_conjugation",
            worst_inv <= composition_tol,
            worst_inv,
            pair_witness(*inv_at),
            informational=True,
        ),
        AxiomCheck(
            "inverse_conjugation_swapped",
            worst_swap <= composition_tol,
            worst_swap,
            pair_witness(*swap_at),
            informational=True,
        ),
        AxiomCheck(
            "cocycle",
            worst_cocycle <= cocycle_tol,
            worst_cocycle,
            {
                "x": point(cocycle_at[0]),
                "y": point(cocycle_at[1]),
                "z": point(cocycle_at[2]),
            },
        ),
        AxiomCheck("unitarity", worst_unit <= unitarity_tol, worst_unit, {"x": point(unit_at)}),
        AxiomCheck(
            "trace_orthogonality",
            worst_ortho <= orthogonality_tol,
            worst_ortho,
            pair_witness(*ortho_at),
        ),
    )
    return AxiomReport(N=N, convention=system.convention, checks=checks)
