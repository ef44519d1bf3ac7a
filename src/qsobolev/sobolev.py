"""Quantum Sobolev norms and their duality side.

A weight is a strictly positive table on the N^2-point dual; the Sobolev norm
of an operator is the weighted L^q norm of its phase-space transform, with
Bessel-style weight ``(1 + gamma^2)^(s/2)`` in the inhomogeneous case and
``gamma^s`` in the homogeneous one (``q`` conjugate to the space exponent
``p in (1, 2)``).  The negative-order side is generated by a test family of
operators built by inverse-transforming weighted generators; the weight-sign
of that construction is a parameter because both natural choices are useful,
and every call that builds the family requires it (``-1`` keeps the duality
chain sharp); :func:`verify_duality` runs both.  The test
family depends only on s, the weight and the generator, so the duality calls
read their N x N grid off the weight and take no Weyl system.
Each harness returns the dict its report holds, keys in report order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .groups import PhaseSpaceGrid, as_table, lq_table_norm
from .linalg import schatten_norm, trace_pairing
from .qft import conjugate_exponent, qft_forward, qft_inverse
from .streams import OperatorReads, ScalarReads, TableReads, kept_ratios, run_trials, worst_trial
from .weyl import EXHAUSTIVE_MAX_N, WeylSystem

#: Relative slack of the s-monotonicity and homogeneous-dominance counts.
MONOTONE_TOL = 1e-12
#: Default tolerances of :func:`verify_norm_axioms`, by ``--tol`` name.
NORM_TOLERANCES = MappingProxyType({"homogeneity": 1e-12, "triangle": 1e-10, "isometry": 1e-12})
#: Default tolerances of the duality harnesses, by ``--tol`` name.
DUALITY_TOLERANCES = MappingProxyType({"pairing_slack": 1e-10, "rank": 1e-10})


@dataclass(frozen=True, eq=False)
class Weight:
    """Real, strictly positive weight table gamma on the dual grid."""

    group: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        # Checked before the cast, which would drop an imaginary part silently.
        if np.iscomplexobj(self.values):
            raise ValueError("weight values must be real, got a complex table")
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
        _require_smoothness(self.s)

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)


def _require_smoothness(s: float) -> None:
    if not s >= 0.0:
        raise ValueError(f"smoothness s must be nonnegative, got {s}")


def _require_test_family(s: float, signs: Sequence[int]) -> None:
    if len(signs) == 0:
        raise ValueError("signs must hold at least one weight sign, got none")
    if bad := [sign for sign in signs if sign not in (-1, 1)]:
        raise ValueError(f"sign must be +1 or -1, got {bad[0]}")
    _require_smoothness(s)


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


def weighted_norm(values, weight: Weight, order: float, q: float, homogeneous: bool = False):
    """``||bessel_multiplier(weight, order, homogeneous) * values||_{L^q}`` under the dual mass 1/N.

    ``values`` is a table on the weight's grid (a transform), a stack of them
    (a stack of norms), or ``1.0`` for the multiplier alone.
    The multiplier is built per call: a table kept across transforms would
    add N^2 floats to the peak of every chunk, 8 MiB at N = 1024.
    """
    if np.shape(values)[-1:] not in ((), (weight.group.size,)):
        raise ValueError("weight lives on a different dual group than the transform")
    multiplied = bessel_multiplier(weight, order, homogeneous) * values
    return lq_table_norm(multiplied, q, weight.group.dual_mass)


def sobolev_norm(T, spec: SobolevSpec) -> float:
    """Weighted L^q norm of the phase-space transform of ``T``; zero iff T = 0."""
    return weighted_norm(qft_forward(T), spec.weight, spec.s, spec.q, spec.homogeneous)


def make_test_element(s: float, weight: Weight, phi, sign: int) -> np.ndarray:
    """The test operator W_phi = F^-1((1 + gamma^2)^(sign * s / 2) phi) of the negative-order space.

    ``phi`` is a table on the weight's N x N dual grid, checked by
    :func:`~qsobolev.groups.as_table`; a stack of them gives a stack of
    operators, each N x N, inverse-transformed by the standard system.
    W_phi's defining norm is ``lq_table_norm(phi, q', dual_mass)`` at the
    dual side's Fourier exponent q'.  The weight sign is +1 or -1.
    """
    _require_test_family(s, (sign,))
    N = weight.group.N
    phi = as_table(phi, N)
    return qft_inverse(WeylSystem(N), bessel_multiplier(weight, sign * s) * phi)


def verify_norm_axioms(
    system: WeylSystem,
    spec: SobolevSpec,
    trials: int,
    seed: int,
    tolerances: Mapping[str, float] = NORM_TOLERANCES,
) -> dict:
    """Measure the norm axioms and order relations on seeded random operator pairs.

    Per trial: absolute homogeneity of the norm under a random complex scalar,
    the triangle inequality on a random pair, monotonicity of the
    inhomogeneous norm in the smoothness parameter (the Bessel multiplier is
    >= 1 and increases with s), pointwise dominance of the homogeneous norm by
    the inhomogeneous one, and definiteness (no vanishing norm on a nonzero
    operator).  Violation counts use relative excess beyond ``tolerances["triangle"]``
    for the triangle inequality and beyond ``MONOTONE_TOL`` for the two order
    relations.  No isometry is checked: ``worst_isometry_abs`` is 0 by
    construction, since the weighted map's L^q norm is ``sobolev_norm``
    itself, until a second route to that norm gates it (ROADMAP item 2).
    The report ends in ``passed``: no violation of any kind, and the worst
    homogeneity and isometry deviations within ``tolerances["homogeneity"]``
    and ``tolerances["isometry"]``.
    Only ``system.N`` is read, and it must be the N of ``spec.weight``.
    """
    if spec.weight.group != system.group:
        raise ValueError("weight lives on a different dual group than the system")

    def measure(T, S, c):
        # One transform of T for the inhomogeneous norms at s and 2s and the
        # homogeneous one at s; the spec's norm is one of them.
        fT = qft_forward(T)
        orders = ((spec.s, False), (2.0 * spec.s, False), (spec.s, True))
        n_base, n_stronger, n_hom = (weighted_norm(fT, spec.weight, t, spec.q, h) for t, h in orders)
        del fT
        return (
            n_base,
            n_stronger,
            n_hom,
            sobolev_norm(S, spec),
            np.any(T != 0.0, axis=(-2, -1)),
            sobolev_norm(c[:, None, None] * T, spec),
            # libm's hypot, as abs(complex); np.abs may differ from it in the last bit.
            np.hypot(c.real, c.imag),
            sobolev_norm(T + S, spec),
        )

    draw = (partial(OperatorReads, system.N), partial(OperatorReads, system.N), ScalarReads)
    n_base, n_stronger, n_hom, nS, nonzero, scaled, modulus, n_sum = run_trials(
        system.N, trials, seed, draw, measure
    )
    nT = n_hom if spec.homogeneous else n_base
    worst_hom_rel = worst_trial(*kept_ratios(np.abs(scaled - modulus * nT), modulus * nT))[0]
    triangle, kept = kept_ratios(n_sum - (nT + nS), nT + nS)
    monotone, base_kept = kept_ratios(n_base - n_stronger, n_base)
    dominance = kept_ratios(n_hom - n_base, n_base)[0]
    report = {
        "N": system.N,
        "s": spec.s,
        "p": spec.p,
        "homogeneous": spec.homogeneous,
        "trials": trials,
        "seed": seed,
        "worst_homogeneity_rel": worst_hom_rel,
        "worst_triangle_excess": worst_trial(triangle, kept, -math.inf)[0],
        "triangle_violations": int(np.count_nonzero(kept & (triangle > tolerances["triangle"]))),
        # The weighted map's L^q norm is sobolev_norm itself, so this reads 0.0 by construction.
        "worst_isometry_abs": worst_trial(np.abs(nT - nT))[0],
        "s_monotonicity_violations": int(np.count_nonzero(base_kept & (monotone > MONOTONE_TOL))),
        "worst_s_monotonicity_excess": worst_trial(monotone, base_kept, -math.inf)[0],
        "hom_dominance_violations": int(np.count_nonzero(base_kept & (dominance > MONOTONE_TOL))),
        "worst_hom_dominance_excess": worst_trial(dominance, base_kept, -math.inf)[0],
        "definiteness_violations": int(np.count_nonzero((nT == 0.0) & nonzero)),
    }
    passed = (
        worst_hom_rel <= tolerances["homogeneity"]
        and report["worst_isometry_abs"] <= tolerances["isometry"]
        and not any(count for key, count in report.items() if key.endswith("_violations"))
    )
    return report | {"passed": passed}


def pairing_analytic_bound(p: float, s: float, weight: Weight, sign: int) -> float:
    """Provable constant bounding |tr(T W_phi^*)| / (||T||_Sp * ||phi||_q').

    Chained from exact finite-model inequalities: the Schatten Hoelder pairing
    bound, the power-mean comparison of the p'-norm with the Hilbert-Schmidt
    norm of N singular values, Plancherel for the inverse transform, and an
    L^2 Hoelder split of the weighted generator:

        bound = N^(1/p' - 1/2) * || (1 + gamma^2)^(sign*s/2) ||_{L^r},
        1/r = 1/2 - 1/q',

    with N the size of the weight's grid.  A ``p`` not above 2, a negative
    ``s`` or a sign other than +1 or -1 raises ``ValueError``;
    :func:`pairing_bound_estimate` checks its inputs through this call.
    """
    if not p > 2.0:
        raise ValueError(f"pairing estimate needs p > 2, got {p}")
    p_prime = conjugate_exponent(p)
    if not p_prime > 1.0:
        raise ValueError(f"pairing estimate needs p' = p/(p - 1) > 1, got p' = {p_prime} for p = {p}")
    _require_test_family(s, (sign,))
    q_prime = conjugate_exponent(p_prime)
    r = 2.0 * q_prime / (q_prime - 2.0)
    return weight.group.N ** (1.0 / p_prime - 0.5) * weighted_norm(1.0, weight, sign * s, r)


def pairing_bound_estimate(
    p: float,
    s: float,
    weight: Weight,
    signs: Sequence[int],
    trials: int,
    seed: int,
    tolerances: Mapping[str, float] = DUALITY_TOLERANCES,
) -> tuple[dict, ...]:
    """Sample |tr(T W_phi^*)| / (||T||_Sp * ||phi||_q') against the analytic bound.

    Requires ``p > 2`` so the test elements live on the conjugate side
    (p' < 2, q' = p).  The operators are N x N with N that of the weight's
    grid.  Returns one report per weight sign in ``signs``, all measured on
    the same draws of ``(T, phi)``.  Trials with a vanishing denominator are
    skipped and counted.  ``tolerances["pairing_slack"]`` is the bound's
    relative slack.  Every input is checked before the first draw.
    """
    bounds = [pairing_analytic_bound(p, s, weight, sign) for sign in signs]
    _require_test_family(s, signs)
    p_prime = conjugate_exponent(p)
    q_prime = conjugate_exponent(p_prime)
    grid = weight.group

    def measure(T, values):
        pairings = np.stack(
            [trace_pairing(T, make_test_element(s, weight, values, sign)) for sign in signs],
            axis=-1,
        )
        # libm's hypot, as abs(complex); np.abs may differ from it in the last bit.
        moduli = np.hypot(pairings.real, pairings.imag)
        return moduli, schatten_norm(T, p) * lq_table_norm(values, q_prime, grid.dual_mass)

    draw = (partial(OperatorReads, grid.N), partial(TableReads, grid.size))
    moduli, denominators = run_trials(grid.N, trials, seed, draw, measure)
    reports = []
    for j, (sign, bound) in enumerate(zip(signs, bounds)):
        ratios, kept = kept_ratios(moduli[:, j], denominators)
        worst = worst_trial(ratios, kept)[0]
        reports.append({
            "N": grid.N,
            "p": p,
            "p_prime": p_prime,
            "q_prime": q_prime,
            "s": s,
            "sign": sign,
            "trials": trials,
            "seed": seed,
            "skipped": int(np.count_nonzero(~kept)),
            "max_ratio": worst,
            "analytic_bound": bound,
            "satisfied": bool(worst <= bound * (1.0 + tolerances["pairing_slack"])),
        })
    return tuple(reports)


def nondegeneracy_check(
    s: float, weight: Weight, signs: Sequence[int], tolerances: Mapping[str, float] = DUALITY_TOLERANCES
) -> tuple[dict, ...]:
    """Verify the trace pairing separates points via the delta-generated family, per sign in ``signs``.

    Builds W_phi for every dual delta generator and checks that the family
    has full rank N^2: then the only operator orthogonal to it is zero.  The
    rank is decided on the Gram matrix S of the rows scaled to largest
    modulus 1, which keeps the rank whatever the multiplier's spread.  The
    unscaled Gram is D S D with D the diagonal of the row maxima, so
    ``min_eigenvalue = lambda_min(S) * min(D)^2`` is a lower bound on its
    least eigenvalue (Ostrowski; Horn & Johnson, *Matrix Analysis*,
    Thm 4.5.9), equal to ``N (min m / N)^2`` for this family, whose Gram is
    diagonal.  The rank counts the eigenvalues of S above ``tolerances["rank"]``
    times max(1, largest).  N is that of the weight's grid, limited to
    ``N <= EXHAUSTIVE_MAX_N``.
    """
    _require_test_family(s, signs)
    N = weight.group.N
    if N > EXHAUSTIVE_MAX_N:
        raise ValueError(f"nondegeneracy check is limited to N <= {EXHAUSTIVE_MAX_N}, got {N}")
    K = weight.group.size
    deltas = np.eye(K, dtype=np.complex128)
    reports = []
    for sign in signs:
        V = make_test_element(s, weight, deltas, sign).reshape(K, K)
        top = np.max(np.abs(V), axis=1, keepdims=True)
        # Real and imaginary parts divided as floats: numpy's complex division
        # overflows for a row maximum that is subnormal or near the float maximum.
        scaled = (V.view(np.float64) / np.where(top > 0.0, top, 1.0)).view(np.complex128)
        eigs = np.linalg.eigvalsh(scaled.conj() @ scaled.T)
        rank = int(np.sum(eigs > tolerances["rank"] * max(float(eigs[-1]), 1.0)))
        reports.append({
            "N": N,
            "sign": sign,
            "dimension": K,
            "rank": rank,
            "full_rank": rank == K,
            "deficiency": K - rank,
            "min_eigenvalue": float(eigs[0] * np.min(top) ** 2),
        })
    return tuple(reports)


def verify_duality(
    p: float, s: float, weight: Weight, trials: int, seed: int,
    tolerances: Mapping[str, float] = DUALITY_TOLERANCES,
) -> dict:
    """The pairing bound and the test family's rank, for both weight signs -1 and +1.

    ``pairing`` holds :func:`pairing_bound_estimate`'s reports, both signs on
    the same draws, and ``nondegeneracy`` those of :func:`nondegeneracy_check`,
    which runs only up to ``N = EXHAUSTIVE_MAX_N`` and is left empty above it.
    The report ends in ``passed``: every bound satisfied and every family of
    full rank.
    """
    signs = (-1, 1)
    bounds = pairing_bound_estimate(p, s, weight, signs, trials, seed, tolerances)
    ranks = nondegeneracy_check(s, weight, signs, tolerances) if weight.group.N <= EXHAUSTIVE_MAX_N else ()
    passed = all(b["satisfied"] for b in bounds) and all(nd["full_rank"] for nd in ranks)
    return {"pairing": list(bounds), "nondegeneracy": list(ranks), "passed": passed}
