"""Quantum Sobolev norms, the weighted-transform isometry, and the duality side.

A weight is a strictly positive table on the N^2-point dual; the Sobolev norm
of an operator is the weighted L^q norm of its phase-space transform, with
Bessel-style weight ``(1 + gamma^2)^(s/2)`` in the inhomogeneous case and
``gamma^s`` in the homogeneous one (``q`` conjugate to the space exponent
``p in (1, 2)``).  The negative-order side is generated by a test family of
operators built by inverse-transforming weighted generators; the weight-sign
of that construction is a mandatory explicit parameter because both natural
choices are useful, and the default ``-1`` keeps the duality chain sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .groups import PhaseFunction, PhaseSpaceGrid, l_q_norm, lq_table_norm
from .linalg import schatten_norm, trace_pairing
from .qft import conjugate_exponent, qft_forward, qft_inverse
from .streams import OperatorReads, ScalarReads, TableReads, kept_ratios, run_trials, worst_trial
from .weyl import WeylSystem, weyl_operator

#: Largest N of :func:`nondegeneracy_check`, whose Gram matrix has N^4 entries.
NONDEGENERACY_MAX_N = 8

#: Relative slack of the s-monotonicity and homogeneous-dominance counts.
MONOTONE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Weight:
    """Strictly positive weight table gamma on the dual grid."""

    group: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.group.size,):
            raise ValueError(f"weight table has shape {vals.shape}, expected ({self.group.size},)")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError("weight values must be finite and strictly positive")
        object.__setattr__(self, "values", vals)


def make_weight_euclidean(dual: PhaseSpaceGrid) -> Weight:
    """gamma(a, b) = sqrt(a_sym^2 + b_sym^2 + 1) with symmetric representatives.

    The +1 floor keeps gamma strictly positive at the origin, which the
    homogeneous norm needs for definiteness.
    """
    return Weight(dual, np.sqrt(dual.squared_radii() + 1.0))


def make_weight_constant(dual: PhaseSpaceGrid) -> Weight:
    """gamma = 1 on every point of the dual."""
    return Weight(dual, np.ones(dual.size))


@dataclass(frozen=True, eq=False)
class SobolevSpec:
    """Parameters (s, p, gamma, homogeneity) of one quantum Sobolev norm.

    ``p`` must lie strictly inside (1, 2); the Fourier-side exponent is the
    conjugate ``q = p / (p - 1)``.  ``s = 0`` is tolerated so degenerate-weight
    diagnostics can run, but every space-level statement assumes ``s > 0``.
    """

    s: float
    p: float
    weight: Weight
    homogeneous: bool = False

    def __post_init__(self):
        if not 1.0 < self.p < 2.0:
            raise ValueError(f"space exponent p must lie in (1, 2), got {self.p}")
        if not self.s >= 0.0:
            raise ValueError(f"smoothness s must be nonnegative, got {self.s}")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


def bessel_multiplier(weight: Weight, t: float, homogeneous: bool = False) -> np.ndarray:
    """The order-t multiplier table (1 + gamma^2)^(t/2), or gamma^t if homogeneous.

    Order ``s`` weights the Sobolev norm, order ``-s`` builds the test family
    and the embedding constant.  Raises ``FloatingPointError`` if a value
    overflows.
    """
    g = weight.values
    with np.errstate(over="ignore"):
        vals = g**t if homogeneous else (1.0 + g**2) ** (t / 2.0)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError(
            f"Sobolev multiplier of order {t!r} overflowed; reduce s or the weight"
        )
    return vals


def transform_norm(f: PhaseFunction, spec: SobolevSpec, order: float, homogeneous: bool):
    """The Sobolev norm, at ``order`` and ``homogeneous``, of the operator whose transform is ``f``.

    ``||bessel_multiplier(order) * f||_{L^q}`` with the spec's weight and
    ``q``; a stack of transforms gives a stack of norms.  The multiplier is
    built per call: a table kept across transforms would add N^2 floats to
    the peak of every chunk, 8 MiB at N = 1024.
    """
    if spec.weight.group != f.group:
        raise ValueError("weight lives on a different dual group than the system")
    multiplied = bessel_multiplier(spec.weight, order, homogeneous) * f.values
    return l_q_norm(f.with_values(multiplied), spec.q)


def phi_map(system: WeylSystem, T, spec: SobolevSpec) -> PhaseFunction:
    """The weighted transform Phi(T): the Sobolev norm is its plain L^q norm."""
    if spec.weight.group != system.group:
        raise ValueError("weight lives on a different dual group than the system")
    f = qft_forward(system, T)
    return f.with_values(bessel_multiplier(spec.weight, spec.s, spec.homogeneous) * f.values)


def sobolev_norm(system: WeylSystem, T, spec: SobolevSpec) -> float:
    """Weighted L^q norm of the phase-space transform of ``T``; zero iff T = 0."""
    return transform_norm(qft_forward(system, T), spec, spec.s, spec.homogeneous)


def phi_isometry_check(system: WeylSystem, spec: SobolevSpec, trials: int, seed: int) -> float:
    """Worst | ||Phi(T)||_Lq - ||gamma_s * tr(T pi(.)^*)||_Lq | over random operators.

    Two independent routes to the same norm: ``sobolev_norm`` through the FFT
    transform, and the weighted per-point trace pairings against explicitly
    built Weyl operators.  Costs O(trials * N^4); meant for small N.
    """
    weyl = np.stack([weyl_operator(system, xi) for xi in system.group.coordinates.T.tolist()])

    def measure(T):
        via_fft = sobolev_norm(system, T, spec)
        pairings = PhaseFunction(system.group, trace_pairing(T[:, None], weyl))
        return (np.abs(transform_norm(pairings, spec, spec.s, spec.homogeneous) - via_fft),)

    (deviations,) = run_trials(system.N, trials, seed, (partial(OperatorReads, system.N),), measure)
    return worst_trial(deviations)[0]


@dataclass(frozen=True, eq=False)
class TestFamilyElement:
    """Negative-order test operator W_phi with its generator and defining norm."""

    phi: PhaseFunction
    operator: np.ndarray
    negative_norm: float
    sign: int


def make_test_element(
    system: WeylSystem, spec: SobolevSpec, phi: PhaseFunction, sign: int = -1
) -> TestFamilyElement:
    """Build W_phi = F^-1((1 + gamma^2)^(sign * s / 2) phi) for the negative-order space.

    ``spec`` carries the dual-space exponent pair: its ``p`` plays the role of
    p' in (1, 2) and the defining norm of the element is ``||phi||_{L^q'}``
    with ``q' = spec.q``.  The weight sign is an explicit caller choice (+1 or
    -1); -1 is the default used by the duality harnesses.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if phi.group != system.group:
        raise ValueError("generator lives on a different dual group than the system")
    if spec.weight.group != system.group:
        raise ValueError("weight lives on a different dual group than the system")
    multiplier = bessel_multiplier(spec.weight, sign * spec.s)
    weighted = phi.with_values(multiplier * phi.values)
    return TestFamilyElement(
        phi=phi,
        operator=qft_inverse(system, weighted),
        negative_norm=l_q_norm(phi, spec.q),
        sign=sign,
    )


@dataclass(frozen=True)
class NormAxiomReport:
    """Measured norm-axiom deviations for one Sobolev parameter set."""

    N: int
    s: float
    p: float
    homogeneous: bool
    trials: int
    seed: int
    worst_homogeneity_rel: float
    worst_triangle_excess: float
    triangle_violations: int
    worst_isometry_abs: float
    s_monotonicity_violations: int
    worst_s_monotonicity_excess: float
    hom_dominance_violations: int
    worst_hom_dominance_excess: float
    definiteness_violations: int


def verify_norm_axioms(
    system: WeylSystem,
    spec: SobolevSpec,
    trials: int,
    seed: int,
    triangle_tol: float = 1e-10,
) -> NormAxiomReport:
    """Measure the norm axioms and order relations on seeded random operator pairs.

    Per trial: absolute homogeneity of the norm under a random complex scalar,
    the triangle inequality on a random pair, agreement of the weighted-map
    norm with ``sobolev_norm`` (the isometry identity), monotonicity of the
    inhomogeneous norm in the smoothness parameter (the Bessel multiplier is
    >= 1 and increases with s), pointwise dominance of the homogeneous norm by
    the inhomogeneous one, and definiteness (no vanishing norm on a nonzero
    operator).  Violation counts use relative excess beyond ``triangle_tol``
    for the triangle inequality and beyond ``MONOTONE_TOL`` for the two order
    relations.
    """

    def measure(T, S, c):
        # One transform of T for the spec's norm, the inhomogeneous norms at s
        # and 2s and the homogeneous one at s.
        fT = qft_forward(system, T)
        orders = ((spec.s, spec.homogeneous), (spec.s, False), (2.0 * spec.s, False), (spec.s, True))
        nT, n_base, n_stronger, n_hom = (transform_norm(fT, spec, *order) for order in orders)
        del fT
        return (
            nT,
            sobolev_norm(system, S, spec),
            np.any(T != 0.0, axis=(-2, -1)),
            sobolev_norm(system, c[:, None, None] * T, spec),
            # libm's hypot, as abs(complex); np.abs may differ from it in the last bit.
            np.hypot(c.real, c.imag),
            sobolev_norm(system, T + S, spec),
            n_base,
            n_stronger,
            n_hom,
        )

    draw = (partial(OperatorReads, system.N), partial(OperatorReads, system.N), ScalarReads)
    nT, nS, nonzero, scaled, modulus, n_sum, n_base, n_stronger, n_hom = run_trials(
        system.N, trials, seed, draw, measure
    )
    worst_hom_rel = worst_trial(*kept_ratios(np.abs(scaled - modulus * nT), modulus * nT))[0]
    triangle, kept = kept_ratios(n_sum - (nT + nS), nT + nS)
    monotone, base_kept = kept_ratios(n_base - n_stronger, n_base)
    dominance = kept_ratios(n_hom - n_base, n_base)[0]
    return NormAxiomReport(
        N=system.N,
        s=spec.s,
        p=spec.p,
        homogeneous=spec.homogeneous,
        trials=trials,
        seed=seed,
        worst_homogeneity_rel=worst_hom_rel,
        worst_triangle_excess=worst_trial(triangle, kept, -math.inf)[0],
        triangle_violations=int(np.count_nonzero(kept & (triangle > triangle_tol))),
        # phi_map's norm is sobolev_norm itself, so this reads 0.0 by construction.
        worst_isometry_abs=worst_trial(np.abs(nT - nT))[0],
        s_monotonicity_violations=int(np.count_nonzero(base_kept & (monotone > MONOTONE_TOL))),
        worst_s_monotonicity_excess=worst_trial(monotone, base_kept, -math.inf)[0],
        hom_dominance_violations=int(np.count_nonzero(base_kept & (dominance > MONOTONE_TOL))),
        worst_hom_dominance_excess=worst_trial(dominance, base_kept, -math.inf)[0],
        definiteness_violations=int(np.count_nonzero((nT == 0.0) & nonzero)),
    )


@dataclass(frozen=True)
class PairingBoundReport:
    """Measured pairing ratios against the chained analytic constant."""

    N: int
    p: float
    p_prime: float
    q_prime: float
    s: float
    sign: int
    trials: int
    seed: int
    skipped: int
    max_ratio: float
    analytic_bound: float
    satisfied: bool


def pairing_analytic_bound(
    system: WeylSystem, p: float, s: float, weight: Weight, sign: int
) -> float:
    """Provable constant bounding |tr(T W_phi^*)| / (||T||_Sp * ||phi||_q').

    Chained from exact finite-model inequalities: the Schatten Hoelder pairing
    bound, the power-mean comparison of the p'-norm with the Hilbert-Schmidt
    norm of N singular values, Plancherel for the inverse transform, and an
    L^2 Hoelder split of the weighted generator:

        bound = N^(1/p' - 1/2) * || (1 + gamma^2)^(sign*s/2) ||_{L^r},
        1/r = 1/2 - 1/q'.
    """
    p_prime = conjugate_exponent(p)
    q_prime = conjugate_exponent(p_prime)
    r = 2.0 * q_prime / (q_prime - 2.0)
    multiplier = bessel_multiplier(weight, sign * s)
    mult_norm = lq_table_norm(multiplier, r, system.group.dual_mass)
    return system.N ** (1.0 / p_prime - 0.5) * mult_norm


def pairing_bound_estimate(
    system: WeylSystem,
    p: float,
    s: float,
    weight: Weight,
    signs: Sequence[int] = (-1,),
    trials: int = 100,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> tuple[PairingBoundReport, ...]:
    """Sample |tr(T W_phi^*)| / (||T||_Sp * ||phi||_q') against the analytic bound.

    Requires ``p > 2`` so the test elements live on the conjugate side
    (p' < 2, q' = p).  Returns one report per weight sign in ``signs``, all
    measured on the same draws of ``(T, phi)``.  Trials with a vanishing
    denominator are skipped and counted.
    """
    if not p > 2.0:
        raise ValueError(f"pairing estimate needs p > 2, got {p}")
    if weight.group != system.group:
        raise ValueError("weight lives on a different dual group than the system")
    p_prime = conjugate_exponent(p)
    q_prime = conjugate_exponent(p_prime)
    dual_spec = SobolevSpec(s=s, p=p_prime, weight=weight)
    bounds = [pairing_analytic_bound(system, p, s, weight, sign) for sign in signs]

    def measure(T, values):
        phi = PhaseFunction(system.group, values)
        elements = [make_test_element(system, dual_spec, phi, sign) for sign in signs]
        pairings = np.stack([trace_pairing(T, e.operator) for e in elements], axis=-1)
        # libm's hypot, as abs(complex); np.abs may differ from it in the last bit.
        moduli = np.hypot(pairings.real, pairings.imag)
        return moduli, schatten_norm(T, p) * elements[0].negative_norm

    draw = (partial(OperatorReads, system.N), partial(TableReads, system.group.size))
    moduli, denominators = run_trials(system.N, trials, seed, draw, measure)
    reports = []
    for j, (sign, bound) in enumerate(zip(signs, bounds)):
        ratios, kept = kept_ratios(moduli[:, j], denominators)
        worst = worst_trial(ratios, kept)[0]
        reports.append(
            PairingBoundReport(
                N=system.N,
                p=p,
                p_prime=p_prime,
                q_prime=q_prime,
                s=s,
                sign=sign,
                trials=trials,
                seed=seed,
                skipped=int(np.count_nonzero(~kept)),
                max_ratio=worst,
                analytic_bound=bound,
                satisfied=bool(worst <= bound * (1.0 + tolerance)),
            )
        )
    return tuple(reports)


@dataclass(frozen=True)
class NondegeneracyReport:
    """Rank of the Gram matrix of the delta-generated test family."""

    N: int
    sign: int
    dimension: int
    rank: int
    full_rank: bool
    deficiency: int
    min_eigenvalue: float


def nondegeneracy_check(
    system: WeylSystem, spec: SobolevSpec, sign: int = -1, rank_tol: float = 1e-10
) -> NondegeneracyReport:
    """Verify the trace pairing separates points via the delta-generated family.

    Builds W_phi for every dual delta generator and checks that their Gram
    matrix has full rank N^2: then the only operator orthogonal to the whole
    family is zero.  Limited to ``N <= NONDEGENERACY_MAX_N``.
    """
    if system.N > NONDEGENERACY_MAX_N:
        raise ValueError(
            f"nondegeneracy check is limited to N <= {NONDEGENERACY_MAX_N}, got {system.N}"
        )
    K = system.group.size
    deltas = PhaseFunction(system.group, np.eye(K))
    V = make_test_element(system, spec, deltas, sign).operator.reshape(K, K)
    gram = V.conj() @ V.T
    eigs = np.linalg.eigvalsh(gram)
    top = float(eigs[-1])
    rank = int(np.sum(eigs > rank_tol * max(top, 1.0)))
    return NondegeneracyReport(
        N=system.N,
        sign=sign,
        dimension=K,
        rank=rank,
        full_rank=rank == K,
        deficiency=K - rank,
        min_eigenvalue=float(eigs[0]),
    )
