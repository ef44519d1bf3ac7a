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
wraparound subtleties of the symmetric phase.  It is computed in one place,
the table of :func:`check_axioms`: one stack-aware routine gives, for one
row ``x`` against every ``y`` at once, the products ``pi(x) pi(y)``, their
multipliers ``tr(pi(x+y)^* pi(x) pi(y)) / N`` from the trace-pairing kernel
and the Frobenius residuals of the composition identity.  ``check_axioms``
measures all the defining identities exhaustively on one stack of the
``N^2`` operators, one table row per identity, and reports deviations
instead of asserting any contested variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .groups import PhaseSpaceGrid
from .linalg import trace_pairing

CONVENTIONS = ("standard", "symmetric")

#: Largest N of the two checks that visit every pair of the N^2 phase-space
#: points: :func:`check_axioms` (its cocycle row visits N^6 triples) and
#: :func:`qsobolev.sobolev.nondegeneracy_check` (its Gram matrix has N^4 entries).
EXHAUSTIVE_MAX_N = 16

#: Default tolerance of each gated identity of :func:`check_axioms`, by ``--tol`` name.
AXIOM_TOLERANCES = MappingProxyType(
    {"composition": 1e-11, "modulus": 1e-12, "unitarity": 1e-12, "orthogonality": 1e-11,
     "cocycle": 1e-11}
)


@dataclass(frozen=True, eq=False)
class WeylSystem:
    """Projective phase-space representation of Z_N x Z_N on C^N."""

    N: int
    convention: str = "standard"
    group: PhaseSpaceGrid = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "group", PhaseSpaceGrid(self.N))  # checks N
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")
        object.__setattr__(self, "N", self.group.N)


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


def _compose(left: np.ndarray, right: np.ndarray, target: np.ndarray) -> tuple:
    """Multipliers and residuals of ``left @ right = c * target``; leading axes broadcast.

    ``c = tr(target^* left right) / N`` is the trace pairing of the product
    with the target, and the residual is the Frobenius norm of ``left @ right
    - c * target``.  For Weyl operators with ``target = pi(x + y)`` these are
    ``m(x, y)`` and the deviation of the composition identity.
    """
    products = left @ right
    c = trace_pairing(products, target) / target.shape[-1]
    products -= c[..., None, None] * target  # in place: one stacked temporary fewer
    return c, np.linalg.norm(products, axis=(-2, -1))


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

    @property
    def core_passed(self) -> bool:
        """All non-informational identities passed (axiom-3 variants are reported only)."""
        return all(c.passed for c in self.checks if not c.informational)


def _worst(values: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The largest value and the indices of its first occurrence."""
    flat = int(np.argmax(values))
    return float(values.flat[flat]), np.unravel_index(flat, values.shape)


def check_axioms(
    system: WeylSystem, tolerances: Mapping[str, float] = AXIOM_TOLERANCES
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
    downstream assumes either.  Each identity is one table row: tolerance,
    informational flag, witness labels, and the worst deviation with the first
    point reaching it.  ``tolerances`` holds every key of ``AXIOM_TOLERANCES``;
    ``composition`` also sets the informational rows.  Requires
    ``N <= EXHAUSTIVE_MAX_N``.
    """
    if system.N > EXHAUSTIVE_MAX_N:
        raise ValueError(
            f"exhaustive axiom check is limited to N <= {EXHAUSTIVE_MAX_N}, got {system.N}"
        )
    group = system.group
    K = group.size
    N = system.N
    stack = np.stack([weyl_operator(system, p) for p in group.coordinates.T.tolist()])
    sum_idx = group.sum_index()
    neg_idx = group.neg_index()

    # Row x of the multiplier table: pi(x) against every pi(y), one batched product.
    m = np.empty((K, K), dtype=np.complex128)
    comp_res = np.empty((K, K))
    for i in range(K):
        m[i], comp_res[i] = _compose(stack[i], stack, stack[sum_idx[i]])
    conj_neg = np.conj(m[np.ix_(neg_idx, neg_idx)])
    # Row x of the cocycle: |m(x,y) m(x+y,z) - m(y,z) m(x,y+z)| over every (y, z).
    cocycle = [_worst(np.abs(m[i][:, None] * m[sum_idx[i]] - m * m[i, sum_idx])) for i in range(K)]
    x = int(np.argmax([worst for worst, _ in cocycle]))
    unit_dev = np.linalg.norm(np.conj(stack).swapaxes(-2, -1) @ stack - np.eye(N), axis=(-2, -1))
    V = stack.reshape(K, N * N)

    rows = (
        ("composition", tolerances["composition"], False, "xy", _worst(comp_res)),
        ("unimodular", tolerances["modulus"], False, "xy", _worst(np.abs(np.abs(m) - 1.0))),
        ("inverse_conjugation", tolerances["composition"], True, "xy", _worst(np.abs(m - conj_neg))),
        ("inverse_conjugation_swapped", tolerances["composition"], True, "xy", _worst(np.abs(m - conj_neg.T))),
        ("cocycle", tolerances["cocycle"], False, "xyz", (cocycle[x][0], (x, *cocycle[x][1]))),
        ("unitarity", tolerances["unitarity"], False, "x", _worst(unit_dev)),
        ("trace_orthogonality", tolerances["orthogonality"], False, "xy",
         _worst(np.abs(V.conj() @ V.T - N * np.eye(K)))),
    )
    checks = tuple(
        AxiomCheck(name, worst <= tol, worst,
                   {label: list(divmod(int(i), N)) for label, i in zip(labels, at)}, informational)
        for name, tol, informational, labels, (worst, at) in rows
    )
    return AxiomReport(N=N, convention=system.convention, checks=checks)
