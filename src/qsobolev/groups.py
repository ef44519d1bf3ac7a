"""The phase-space grid ``Z_N x Z_N``, tables on its dual, and weighted L^q norms.

Every Weyl system of this package lives on ``Z_N x Z_N``, whose dual is again
an ``N x N`` grid.  Its ``N^2`` points are stored flat in row-major order,
point ``(a, b)`` at index ``a*N + b``, and each carries the dual Haar mass
``1/N``, which pins the Plancherel constant of the transform to 1.  A function
on the dual is a plain complex array whose last axis is the length-``N^2``
table in that order (leading axes hold a stack), checked by :func:`as_table`
where it enters a kernel, as :func:`qsobolev.linalg.as_operator` checks
operators.  So norms reduce to weighted vector arithmetic, each through
:func:`lq_table_norm` at the grid's ``dual_mass``, and sums, negatives and
distances of points are integer array arithmetic on the coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def symmetric_representative(residues, order: int) -> np.ndarray:
    """Elementwise representatives of ``residues`` mod ``order`` in (-order/2, order/2]."""
    r = np.mod(residues, order)
    return np.where(2 * r <= order, r, r - order)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """The N x N phase-space grid: N^2 points in row-major order, each of dual mass 1/N."""

    N: int

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"grid size N must be a positive integer, got {self.N}")
        object.__setattr__(self, "N", int(self.N))

    @property
    def size(self) -> int:
        return self.N * self.N

    @property
    def dual_mass(self) -> float:
        return 1.0 / self.N

    @property
    def coordinates(self) -> np.ndarray:
        """The (2, N^2) array whose column ``a*N + b`` is the point ``(a, b)``."""
        return np.indices((self.N, self.N)).reshape(2, -1)

    def squared_radii(self) -> np.ndarray:
        """``a^2 + b^2`` per point, with ``a`` and ``b`` taken in the window (-N/2, N/2]."""
        squares = symmetric_representative(np.arange(self.N), self.N) ** 2
        return (squares[:, None] + squares).ravel()

    def sum_index(self) -> np.ndarray:
        """The (N^2, N^2) table whose entry ``(i, j)`` is the index of point i + point j."""
        N = self.N
        a, b = self.coordinates
        return (a[:, None] + a) % N * N + (b[:, None] + b) % N

    def neg_index(self) -> np.ndarray:
        """The index of ``-x`` for every point ``x``, in point order."""
        a, b = self.coordinates
        return (-a) % self.N * self.N + (-b) % self.N

    def require_point(self, point) -> tuple[int, int]:
        """``point`` as an int pair ``(a, b)``; ``ValueError`` unless ``0 <= a, b < N``."""
        if len(point) != 2 or not all(int(r) == r and 0 <= r < self.N for r in point):
            raise ValueError(f"{point!r} is not a point of the {self.N} x {self.N} grid")
        return int(point[0]), int(point[1])


def make_group(orders: Sequence[int]) -> PhaseSpaceGrid:
    """The grid ``Z_N x Z_N`` from the orders ``[N, N]``; other orders raise ``ValueError``."""
    if len(orders) != 2 or orders[0] != orders[1]:
        raise ValueError(f"the phase-space grid needs cyclic orders [N, N], got {list(orders)}")
    return PhaseSpaceGrid(orders[0])


def as_table(values, N: int) -> np.ndarray:
    """Validate a table of the N x N dual grid, or a stack of them (leading axes): finite, as complex128."""
    f = np.asarray(values, dtype=np.complex128)
    if f.shape[-1:] != (N * N,):
        raise ValueError(f"value table has shape {f.shape}, expected (..., {N * N})")
    if not np.all(np.isfinite(f)):
        raise ValueError("table values must be finite")
    return f


def exponent_list(q: float | Sequence[float]) -> list[float]:
    """``q``, one exponent or a sequence, as a nonempty list of floats each positive or inf."""
    exponents = [float(e) for e in np.ravel(q)]
    if not exponents:
        raise ValueError("exponent sequence must hold at least one exponent, got none")
    if any(math.isnan(e) or e <= 0 for e in exponents):
        raise ValueError(f"exponent must be positive or inf, got {q}")
    return exponents


def lq_table_norm(values: np.ndarray, q: float | Sequence[float], mass_per_point: float):
    """Weighted l^q norm (sum |v|^q * mass)^(1/q) along the last axis of a value table.

    A stack of tables gives a stack of norms; one table gives a scalar.  A
    sequence of exponents adds a trailing axis of norms, each equal to the
    norm at that exponent alone, from one pass over moduli, maximum and
    rescale.  ``q = inf`` gives the max modulus.  Uses numpy's pairwise
    summation and rescales by the max modulus so large exponents neither
    overflow nor lose accuracy.  Only the nonzero ratios are raised to the
    power, because numpy's vectorised power is several times slower on
    zeros; a zero adds an exact zero either way, so every sum is that of the
    unmasked form.  The final root is the scalar ``pow`` applied element by
    element: numpy's vectorised power can differ from it in the last bit,
    and a norm must not depend on whether its table was stacked.
    """
    single = np.ndim(q) == 0
    exponents = exponent_list(q)
    ratios = np.abs(np.asarray(values)).astype(float, copy=False)
    top = np.max(ratios, axis=-1)
    ratios /= np.where(top > 0.0, top, 1.0)[..., None]  # the moduli, rescaled in place
    nonzero = ratios != 0.0  # the same for every exponent
    powers = ratios if single else np.zeros_like(ratios)
    norms = []
    for e in exponents:
        if not math.isinf(e):
            np.power(ratios, e, out=powers, where=nonzero)
            total = np.sum(powers, axis=-1) * mass_per_point
            root = np.array([t ** (1.0 / e) for t in total.ravel().tolist()]).reshape(total.shape)
        norms.append(top if math.isinf(e) else top * root)
    return norms[0] if single else np.stack(norms, axis=-1)

