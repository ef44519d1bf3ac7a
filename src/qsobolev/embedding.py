"""Exponent arithmetic, the weighted Hoelder + norm-inequality chain, and scaling runs.

The embedding machinery has two halves.  ``verify_embedding_chain`` measures
the two links of the Schatten-embedding argument separately on random
operators: the weighted Hoelder step (exact for finite sums) and the inverse
norm inequality at the intermediate exponent ``sigma``, then the composite
ratio against the multiplier constant.  Two candidate values of the final
Schatten exponent ``beta`` are carried side by side: ``beta_corrected``,
forced by the Hoelder identity ``1/sigma = 1/alpha + 1/q``, and
``beta_alternate = alpha q / (alpha (q - 1) - s)``, the closed form obtained
by substituting ``sigma = alpha q / (alpha + s)`` instead; assertions gate
only the corrected choice while both ratio distributions are recorded.  A
failed hypothesis raises ``ValueError``, like any other invalid input.
Each harness returns the dict its report holds, keys in report order, and
ends it in its verdict, ``passed``, under a ``tolerances`` mapping whose
default sits beside it: ``EXPONENT_TOLERANCES``, ``CHAIN_TOLERANCES`` or
``COUNTEREXAMPLE_TOLERANCES``.

``counterexample_run`` builds normalized indicator generators on shrinking
dual sets and tracks the growth of the conjugate Schatten norm of their
inverse transforms; the predicted log-log slope is ``1/rho - 1/q``.
"""

from __future__ import annotations

import math
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .groups import PhaseSpaceGrid, lq_table_norm
from .linalg import schatten_norm
from .qft import conjugate_exponent, qft_forward, qft_inverse
from .sobolev import SobolevSpec, weighted_norm
from .streams import OperatorReads, kept_ratios, run_trials, worst_trial
from .weyl import WeylSystem


#: Default tolerance of the Hoelder identity of :func:`compute_exponents`, by ``--tol`` name.
EXPONENT_TOLERANCES = MappingProxyType({"identity": 1e-15})
#: Default relative slack of each link and of the composite bound, by ``--tol`` name.
CHAIN_TOLERANCES = MappingProxyType({"link1": 1e-12, "link2": 1e-10, "composite": 1e-10})
#: The candidates for the final Schatten exponent beta, by ``--beta-choice``
#: word: the one forced by the Hoelder identity, then the alternate closed form.
BETA_CHOICES = ("corrected", "alternate")
#: Default tolerances of :func:`counterexample_run`: each generator's L^q norm
#: from 1 (absolute) and the fitted slope from the predicted one (relative).
COUNTEREXAMPLE_TOLERANCES = MappingProxyType({"normalization": 1e-12, "slope_rel": 0.10})


def compute_exponents(
    alpha: float, q: float, s: float, tolerances: Mapping[str, float] = EXPONENT_TOLERANCES
) -> dict:
    """sigma = alpha q/(alpha + q) and both beta candidates, with validity flags.

    sigma is evaluated as ``alpha / (1 + alpha/q)`` and ``beta_alternate`` as
    ``q / ((q - 1) - s/alpha)``, so no product ``alpha q`` is formed and
    neither overflows on the way to a finite value.
    ``beta_alternate`` is reported as undefined (not an error) when its
    denominator ``alpha (q - 1) - s`` is nonpositive: that is a hypothesis
    boundary of that formula.  The upper boundary of the range check
    ``1 < sigma <= 2`` carries a few ulps of slack because exponents usually
    arrive through conjugate-pair arithmetic (q = p/(p-1)) that does not hit
    integer endpoints exactly.  ``holder_identity_error`` is
    ``|sigma/alpha + sigma/q - 1|``: the identity ``1/sigma = 1/alpha + 1/q``
    multiplied through by sigma, so relative to its size and finite wherever
    sigma is.  ``passed`` is whether it is within ``tolerances["identity"]``.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not q > 1:
        raise ValueError(f"q must exceed 1, got {q}")
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    sigma = alpha / (1.0 + alpha / q)
    alternate_denominator = (q - 1.0) - s / alpha
    beta_alternate_defined = alternate_denominator > 0.0
    identity_error = abs(sigma / alpha + sigma / q - 1.0)
    return {
        "alpha": alpha,
        "q": q,
        "s": s,
        "sigma": sigma,
        "beta_corrected": conjugate_exponent(sigma) if sigma > 1.0 else None,
        "beta_alternate": q / alternate_denominator if beta_alternate_defined else None,
        "sigma_in_range": 1.0 < sigma <= 2.0 * (1.0 + 1e-12),
        "beta_alternate_defined": beta_alternate_defined,
        "holder_identity_error": identity_error,
        "passed": identity_error <= tolerances["identity"],
    }


def verify_embedding_chain(
    spec: SobolevSpec,
    alpha: float,
    beta_choice: str,
    trials: int,
    seed: int,
    tolerances: Mapping[str, float] = CHAIN_TOLERANCES,
) -> dict:
    """Check both links of the embedding chain separately on random operators.

    Link 1 (exact weighted Hoelder):   ||F(T)||_sigma <= ||m||_alpha * sobolev_norm(T);
    link 2 (norm inequality, sigma in (1,2]):  ||T||_{S_sigma'} <= ||F(T)||_sigma.
    The composite ratio ||T||_{S_beta} / sobolev_norm(T) is recorded against
    ||m||_alpha for the requested ``beta_choice``; the distribution for the
    other candidate is recorded alongside whenever it is defined.  A ratio
    counts as a violation beyond ``1 + tolerances[name]`` times its bound, with
    every key of ``CHAIN_TOLERANCES`` given.  ``passed`` is whether no link
    is violated and, for the corrected beta only, no composite ratio: the
    alternate candidate is measured, never gated.  The operators are N x N
    with N that of the spec's weight grid.
    """
    if beta_choice not in BETA_CHOICES:
        raise ValueError(f"beta_choice must be {' or '.join(map(repr, BETA_CHOICES))}, got {beta_choice!r}")
    exponents = compute_exponents(alpha, spec.q, spec.s)
    sigma = exponents["sigma"]
    if not exponents["sigma_in_range"]:
        raise ValueError(f"hypothesis 1 < sigma <= 2 fails: sigma = {sigma} "
                         f"for alpha={alpha}, q={spec.q} (p={spec.p})")
    # The Schatten exponents measured, indexed like BETA_CHOICES: the corrected
    # beta (defined once sigma > 1), then the alternate one where it is defined.
    betas = [beta for beta in (exponents[f"beta_{word}"] for word in BETA_CHOICES) if beta is not None]
    used = BETA_CHOICES.index(beta_choice)
    if used >= len(betas):
        raise ValueError(f"hypothesis alpha (q - 1) > s fails: alpha={alpha}, q={spec.q}, s={spec.s}")
    # The chain constant C1: the L^alpha norm of the reciprocal multiplier, order -s.
    m_norm = weighted_norm(1.0, spec.weight, -spec.s, alpha, spec.homogeneous)
    grid = spec.weight.group

    def measure(T):
        f = qft_forward(T)
        return (
            weighted_norm(f, spec.weight, spec.s, spec.q, spec.homogeneous),
            lq_table_norm(f, sigma, grid.dual_mass),
            schatten_norm(T, betas),
        )

    draw = (partial(OperatorReads, grid.N),)
    snorm, f_sigma, schatten = run_trials(grid.N, trials, seed, draw, measure)
    link1, kept = kept_ratios(f_sigma, m_norm * snorm)
    link2, link2_kept = kept_ratios(schatten[:, 0], f_sigma)
    ratios = [kept_ratios(schatten[:, j], snorm)[0] for j in range(len(betas))]
    report = {
        "N": grid.N,
        "s": spec.s,
        "p": spec.p,
        "q": spec.q,
        "alpha": alpha,
        "homogeneous": spec.homogeneous,
        "sigma": sigma,
        "beta_choice": beta_choice,
        "beta_used": betas[used],
        "beta_corrected": exponents["beta_corrected"],
        "beta_alternate": exponents["beta_alternate"],
        "multiplier_norm": m_norm,
        "trials": trials,
        "seed": seed,
        "skipped": int(np.count_nonzero(~kept)),
        "violations": int(np.count_nonzero(kept & (ratios[used] > m_norm * (1.0 + tolerances["composite"])))),
        "link1_violations": int(np.count_nonzero(kept & (link1 > 1.0 + tolerances["link1"]))),
        "link2_violations": int(np.count_nonzero(link2_kept & (link2 > 1.0 + tolerances["link2"]))),
        "max_ratio": worst_trial(ratios[used], kept)[0],
        "max_link1_ratio": worst_trial(link1, kept)[0],
        "max_link2_ratio": worst_trial(link2, link2_kept)[0],
        "ratios_corrected": tuple(ratios[0][kept].tolist()),
        "ratios_alternate": tuple(ratios[1][kept].tolist()) if len(ratios) > 1 else None,
    }
    gated = (report["link1_violations"], report["link2_violations"], report["violations"] if used == 0 else 0)
    return report | {"passed": not any(gated)}


def _require_set_size(group: PhaseSpaceGrid, k: int) -> None:
    if not 1 <= k <= group.size:
        raise ValueError(f"set size {k} out of range for a dual of {group.size} points")


def lex_first_points(group: PhaseSpaceGrid, k: int) -> np.ndarray:
    """Indices of the k lexicographically first dual points."""
    _require_set_size(group, k)
    return np.arange(k)


def ball_points(group: PhaseSpaceGrid, k: int) -> np.ndarray:
    """Indices of the k dual points nearest the origin in symmetric representatives.

    Ties in the squared radius are broken lexicographically by ``(a, b)``:
    points are stored in that order, so a stable sort by radius keeps it.
    Only the points within the k-th smallest radius are sorted.
    """
    _require_set_size(group, k)
    radii = group.squared_radii()
    within = np.flatnonzero(radii <= np.partition(radii, k - 1)[k - 1])
    return within[np.argsort(radii[within], kind="stable")[:k]]


def subgroup_points(group: PhaseSpaceGrid, k: int) -> np.ndarray:
    """Indices of the order-k subgroup {0} x H_k of the dual (requires k to divide N).

    Inverse transforms of these indicators have flat singular spectra, so the
    predicted scaling law holds exactly at every finite size; they are the
    shape of choice when measuring the law itself rather than shape effects.
    """
    if not 1 <= k <= group.N or group.N % k != 0:
        raise ValueError(f"subgroup selector needs k dividing {group.N}, got {k}")
    # The point (0, j * N/k) has index j * N/k.
    return np.arange(k) * (group.N // k)


#: Dual-set selectors by name; each returns the flat indices of k points.
SET_SELECTORS: dict[str, Callable[[PhaseSpaceGrid, int], np.ndarray]] = {
    "lex": lex_first_points,
    "ball": ball_points,
    "subgroup": subgroup_points,
}


def counterexample_run(
    systems: Sequence[WeylSystem],
    q: float,
    rho: float,
    set_selector: str,
    set_sizes: Sequence[int],
    tolerances: Mapping[str, float] = COUNTEREXAMPLE_TOLERANCES,
) -> dict:
    """Sweep generators a = eps^(-1/q) 1_E over shrinking sets E and fit the growth law.

    For each system, paired with its entry of ``set_sizes``, the set E holds
    that many points chosen by ``SET_SELECTORS[set_selector]``.  The
    generator is L^q-normalized by construction (``|E| = eps``), the operator
    is its inverse transform, and the conjugate Schatten norm
    ``||T||_{S_rho'}`` is recorded.  Points
    are reported sorted by decreasing ``eps`` and an ordinary least-squares
    fit of ``log ||T||`` against ``log eps`` is compared with the predicted
    slope ``1/rho - 1/q`` (negative: the norms diverge as eps -> 0).  The
    report ends in three flags and ``passed``, whether all three hold: every
    generator's L^q norm within ``tolerances["normalization"]`` of 1, norms
    strictly increasing as eps shrinks, and the fitted slope within
    ``tolerances["slope_rel"]`` of the predicted one, relative to it.
    """
    if not rho > q:
        raise ValueError(f"divergence exponent rho must exceed q, got rho={rho}, q={q}")
    if not q >= 1.0:
        raise ValueError(f"normalization exponent q must be >= 1, got {q}")
    if len(systems) == 0:
        raise ValueError("need at least one system")
    if len(set_sizes) != len(systems):
        raise ValueError(f"set sizes must list one size per system, got {len(set_sizes)} for {len(systems)}")
    if set_selector not in SET_SELECTORS:
        raise ValueError(
            f"set selector must be one of {tuple(SET_SELECTORS)}, got {set_selector!r}"
        )
    rho_prime = conjugate_exponent(rho)

    points = []
    for system, k in zip(systems, set_sizes):
        support = SET_SELECTORS[set_selector](system.group, k)
        eps = len(support) * system.group.dual_mass
        vals = np.zeros(system.group.size, dtype=np.complex128)
        vals[support] = eps ** (-1.0 / q)
        points.append({
            "N": system.N,
            "set_size": len(support),
            "epsilon": eps,
            "sobolev_norm": lq_table_norm(vals, q, system.group.dual_mass),
            "schatten_beta_norm": schatten_norm(qft_inverse(system, vals), rho_prime),
        })
    points.sort(key=lambda pt: -pt["epsilon"])
    eps_values = np.array([pt["epsilon"] for pt in points])
    norms = np.array([pt["schatten_beta_norm"] for pt in points])
    if len(set(eps_values.tolist())) < 2:
        raise ValueError(
            "sweep needs at least two distinct measures eps = sizes / N to fit a slope, "
            f"got only eps = {eps_values[0]}"
        )
    slope = float(np.polyfit(np.log(eps_values), np.log(norms), 1)[0])
    predicted = 1.0 / rho - 1.0 / q
    flags = {
        "normalization_ok": all(abs(pt["sobolev_norm"] - 1.0) <= tolerances["normalization"] for pt in points),
        "strictly_increasing": all(b > a for a, b in zip(norms, norms[1:])),
        "slope_within_tolerance": abs(slope - predicted) <= tolerances["slope_rel"] * abs(predicted),
    }
    return {
        "q": q,
        "rho": rho,
        "selector": set_selector,
        "points": tuple(points),
        "fitted_slope": slope,
        "predicted_slope": predicted,
        "decades_spanned": float(math.log10(eps_values.max() / eps_values.min())),
    } | flags | {"passed": all(flags.values())}
