"""The transform through explicitly built Weyl operators, as test oracles.

``qft_forward`` and ``qft_inverse`` work on index tables and never build a
Weyl operator.  The operator-sum forms here build all ``N^2`` of them: N^4
entries, so they are for small N.  ``tests/test_qft.py`` checks the transform
pair against the sums, and ``phi_isometry_check`` checks the weighted norm of
``sobolev_norm`` against the same trace pairings, trial by trial.
"""

from functools import partial

import numpy as np

from qsobolev.linalg import trace_pairing
from qsobolev.sobolev import SobolevSpec, sobolev_norm, weighted_norm
from qsobolev.streams import OperatorReads, run_trials, worst_trial
from qsobolev.weyl import WeylSystem, weyl_operator


def grid_points(N):
    """Row-major (a, b) tuples: the point at flat index a*N + b."""
    return [(a, b) for a in range(N) for b in range(N)]


def oracle_forward(system, T):
    """Operator-sum form of the forward transform: tr(T pi(xi)^*) point by point."""
    return np.array([np.vdot(weyl_operator(system, xi), T) for xi in grid_points(system.N)])


def oracle_inverse(system, values):
    """Operator-sum form of the inverse transform: sum_xi f(xi) pi(xi) / N."""
    T = np.zeros((system.N, system.N), dtype=np.complex128)
    for v, xi in zip(values, grid_points(system.N)):
        T += v * weyl_operator(system, xi)
    return T / system.N


def phi_isometry_check(system: WeylSystem, spec: SobolevSpec, trials: int, seed: int) -> float:
    """Worst | ||Phi(T)||_Lq - ||gamma_s * tr(T pi(.)^*)||_Lq | over random operators.

    Two independent routes to the same norm: ``sobolev_norm`` through the FFT
    transform, and the weighted per-point trace pairings against explicitly
    built Weyl operators.  Costs O(trials * N^4); meant for small N.
    """
    weyl = np.stack([weyl_operator(system, xi) for xi in system.group.coordinates.T.tolist()])

    def measure(T):
        via_fft = sobolev_norm(T, spec)
        pairings = trace_pairing(T[:, None], weyl)
        return (np.abs(weighted_norm(pairings, spec.weight, spec.s, spec.q, spec.homogeneous) - via_fft),)

    (deviations,) = run_trials(system.N, trials, seed, (partial(OperatorReads, system.N),), measure)
    return worst_trial(deviations)[0]
