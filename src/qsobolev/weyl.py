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
the table of :func:`check_axioms`, which reads each built operator as its
form, the column and phase of the one nonzero in each row, and composes
forms by index arithmetic: one routine gives, for one row ``x`` against
every ``y`` at once, the multipliers ``tr(pi(x+y)^* pi(x) pi(y)) / N`` and
the residuals of the composition identity, with no matrix product.
``check_axioms`` measures all the defining identities exhaustively on one
stack of the ``N^2`` operators, one table row per identity, and returns the
dict its report holds: deviations, not assertions on any contested variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .groups import PhaseSpaceGrid

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


def _worst(values: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The largest value and the indices of its first occurrence."""
    flat = int(np.argmax(values))
    return float(values.flat[flat]), np.unravel_index(flat, values.shape)


def _read_operators(system: WeylSystem) -> tuple:
    """The unitarity and trace-orthogonality rows of the built operators, and their forms.

    The two rows measure the full N x N operators.  The form of an operator
    is, in every row, the column and phase of its entry of largest modulus
    (the first if several tie); every other entry is off the form, and its
    Frobenius norm is returned with the form.  Only the rows and the forms
    outlive the call, so the stack is freed before the multiplier table's
    K x K temporaries are made.
    """
    N, K = system.N, system.group.size
    stack = np.stack([weyl_operator(system, p) for p in system.group.coordinates.T.tolist()])
    unitarity = _worst(np.linalg.norm(np.conj(stack).swapaxes(-2, -1) @ stack - np.eye(N), axis=(-2, -1)))
    V = stack.reshape(K, N * N)
    orthogonality = _worst(np.abs(V.conj() @ V.T - N * np.eye(K)))
    moduli = np.abs(stack)
    columns = moduli.argmax(axis=-1)
    phases = np.take_along_axis(stack, columns[..., None], axis=-1)[..., 0]
    np.put_along_axis(moduli, columns[..., None], 0.0, axis=-1)
    return unitarity, orthogonality, (columns, phases, np.linalg.norm(moduli, axis=(-2, -1)))


def _compose_row(columns, phases, off, i, targets) -> tuple:
    """Multipliers and residuals of ``pi(x) pi(y) = c pi(x + y)`` for ``x = i`` and every ``y``.

    Read on the forms of :func:`_read_operators`: row ``t`` of ``pi(x) pi(y)`` has
    its nonzero ``phases[x, t] phases[y, s]`` at column ``columns[y, s]``,
    ``s = columns[x, t]``, and ``targets[y]`` indexes ``pi(x + y)``.  ``c`` is
    the trace pairing ``tr(pi(x+y)^* pi(x) pi(y)) / N`` of the forms: a row
    whose product entry lies in another column than the target's adds
    nothing to it, and both of its entries count whole in the residual.  The
    residual is the Frobenius norm of the forms' ``pi(x) pi(y) - c pi(x + y)``
    plus the off-form norms of the three operators, which bound what those
    parts add to the residual of near-unitary operators.
    """
    step = columns[i]
    product = phases[i] * phases[:, step]
    aligned = np.where(columns[:, step] == columns[targets], product, 0.0)
    target = phases[targets]
    c = np.sum(aligned * np.conj(target), axis=-1) / step.size
    residual = np.concatenate([aligned - c[:, None] * target, product - aligned], axis=-1)
    return c, np.linalg.norm(residual, axis=-1) + off[i] + off + off[targets]


def check_axioms(
    system: WeylSystem, tolerances: Mapping[str, float] = AXIOM_TOLERANCES
) -> dict:
    """Measure the defining identities of the projective representation exhaustively.

    Checks, over every phase-space pair (and every triple for the cocycle
    identity, K^3 with K = N^2):

    * ``composition``:       worst Frobenius residual of pi(x) pi(y) = m(x,y) pi(x+y),
      composed on the operators' forms plus their off-form norms (:func:`_compose_row`);
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
    point reaching it.  The report lists one check per row and, last,
    ``core_passed``: whether every non-informational row passed.
    ``tolerances`` holds every key of ``AXIOM_TOLERANCES``; ``composition``
    also sets the informational rows.  Requires ``N <= EXHAUSTIVE_MAX_N``.
    """
    if system.N > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive axiom check is limited to N <= {EXHAUSTIVE_MAX_N}, got {system.N}")
    group = system.group
    N = system.N
    unitarity, orthogonality, forms = _read_operators(system)
    sum_idx = group.sum_index()

    # Row x of the multiplier table: pi(x) against every pi(y), composed on the forms.
    m = np.empty(sum_idx.shape, dtype=np.complex128)
    comp_res = np.empty(sum_idx.shape)
    for i, targets in enumerate(sum_idx):
        m[i], comp_res[i] = _compose_row(*forms, i, targets)
    neg_idx = group.neg_index()
    conj_neg = np.conj(m[np.ix_(neg_idx, neg_idx)])
    # Row x of the cocycle: |m(x,y) m(x+y,z) - m(y,z) m(x,y+z)| over every (y, z).
    cocycle = [_worst(np.abs(m[i][:, None] * m[sum_idx[i]] - m * m[i, sum_idx])) for i in range(len(m))]
    x = int(np.argmax([worst for worst, _ in cocycle]))

    rows = (
        ("composition", tolerances["composition"], False, "xy", _worst(comp_res)),
        ("unimodular", tolerances["modulus"], False, "xy", _worst(np.abs(np.abs(m) - 1.0))),
        ("inverse_conjugation", tolerances["composition"], True, "xy", _worst(np.abs(m - conj_neg))),
        ("inverse_conjugation_swapped", tolerances["composition"], True, "xy", _worst(np.abs(m - conj_neg.T))),
        ("cocycle", tolerances["cocycle"], False, "xyz", (cocycle[x][0], (x, *cocycle[x][1]))),
        ("unitarity", tolerances["unitarity"], False, "x", unitarity),
        ("trace_orthogonality", tolerances["orthogonality"], False, "xy", orthogonality),
    )
    checks = tuple(
        {"axiom": name, "passed": worst <= tol, "worst_deviation": worst,
         "witness": {label: list(divmod(int(i), N)) for label, i in zip(labels, at)},
         "informational": informational}
        for name, tol, informational, labels, (worst, at) in rows
    )
    core_passed = all(c["passed"] for c in checks if not c["informational"])
    return {"N": N, "convention": system.convention, "checks": checks, "core_passed": core_passed}
