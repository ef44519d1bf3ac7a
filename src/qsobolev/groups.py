"""The phase-space grid ``Z_N x Z_N``, tables on its dual, and weighted L^q norms.

Every Weyl system of this package lives on ``Z_N x Z_N``, whose dual is again
an ``N x N`` grid.  Its ``N^2`` points are stored flat in row-major order,
point ``(a, b)`` at index ``a*N + b``, and each carries the dual Haar mass
``1/N``, which pins the Plancherel constant of the transform to 1.  A function
on the dual is a length-``N^2`` table in that order, so norms reduce to
weighted vector arithmetic, and sums, negatives and distances of points are
integer array arithmetic on the coordinates.
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
        return np.sum(symmetric_representative(self.coordinates, self.N) ** 2, axis=0)

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


@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Complex-valued function on the dual grid, stored as a row-major table.

    Leading axes of ``values`` hold a stack of functions, one table per row.
    """

    group: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape[-1:] != (self.group.size,):
            raise ValueError(f"value table has shape {vals.shape}, expected (..., {self.group.size})")
        if not np.all(np.isfinite(vals)):
            raise ValueError("phase function values must be finite")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "PhaseFunction":
        return PhaseFunction(self.group, values)

    @staticmethod
    def delta(group: PhaseSpaceGrid, point, amplitude: complex = 1.0) -> "PhaseFunction":
        a, b = group.require_point(point)
        vals = np.zeros(group.size, dtype=np.complex128)
        vals[a * group.N + b] = amplitude
        return PhaseFunction(group, vals)


def lq_table_norm(values: np.ndarray, q: float, mass_per_point: float):
    """Weighted l^q norm (sum |v|^q * mass)^(1/q) along the last axis of a value table.

    A stack of tables gives a stack of norms; one table gives a scalar.
    ``q = inf`` returns the max modulus.  Uses numpy's pairwise summation and
    rescales by the max modulus so large exponents neither overflow nor lose
    accuracy.  The final root is the scalar ``pow`` applied element by
    element: numpy's vectorised power can differ from it in the last bit, and
    a norm must not depend on whether its table was stacked.
    """
    if math.isnan(q) or q <= 0:
        raise ValueError(f"exponent must be positive or inf, got {q}")
    mods = np.abs(np.asarray(values))
    top = np.max(mods, axis=-1)
    if math.isinf(q):
        return top
    scale = np.where(top > 0.0, top, 1.0)[..., None]
    total = np.sum((mods / scale) ** q, axis=-1) * mass_per_point
    root = np.array([t ** (1.0 / q) for t in total.ravel().tolist()]).reshape(total.shape)
    return top * root


def l_q_norm(f: PhaseFunction, q: float):
    """L^q norm of a phase function (or of each in a stack) under the dual mass 1/N."""
    return lq_table_norm(f.values, q, f.group.dual_mass)
