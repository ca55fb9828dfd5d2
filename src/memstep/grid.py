"""Uniform rectangular grid on the unit square.

A field on it is an ``(n1-1, n2-1)`` array of values at the interior nodes;
homogeneous Dirichlet values on the boundary are implicit zeros and are never
stored.  The inner product is the mesh-weighted sum ``(w, u) = sum w*u*h1*h2``
so norms are discrete L2 norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["Grid2D", "GridMismatchError", "sample_function"]


class GridMismatchError(ValueError):
    """Raised when a field's shape is not the interior of its grid."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid with n1 x n2 cells on the unit square (mesh h = 1/n)."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError(f"need at least 2 cells per direction, got {self.n1}x{self.n2}")

    @classmethod
    def of(cls, values: np.ndarray) -> Grid2D:
        """The grid whose interior is the last two axes of ``values``' shape,
        one instance per shape."""
        n1, n2 = values.shape[-2:]
        return _interior_grid(cls, n1, n2)

    @property
    def h1(self) -> float:
        return 1.0 / self.n1

    @property
    def h2(self) -> float:
        return 1.0 / self.n2

    @property
    def shape(self) -> tuple[int, int]:
        """Interior node counts (n1-1, n2-1); axis 0 is x1, axis 1 is x2."""
        return (self.n1 - 1, self.n2 - 1)

    @cached_property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    @property
    def center_index(self) -> tuple[int, int]:
        """Interior node nearest (0.5, 0.5); the lower neighbour for odd n."""
        return (self.n1 // 2 - 1, self.n2 // 2 - 1)


@lru_cache(maxsize=16)
def _interior_grid(cls, m1: int, m2: int) -> Grid2D:
    return cls(m1 + 1, m2 + 1)


def sample_function(grid: Grid2D, f) -> np.ndarray:
    """Sample a pointwise function f(x1, x2) at the interior nodes.  f gets
    the open grid, x1 as a column and x2 as a row, and broadcasts them, so a
    separable f evaluates each factor once per coordinate; its result, or a
    scalar, is broadcast to the interior."""
    x1 = np.arange(1, grid.n1) * grid.h1
    x2 = np.arange(1, grid.n2) * grid.h2
    values = f(x1[:, None], x2[None, :])
    return np.array(np.broadcast_to(np.asarray(values, dtype=float), grid.shape))
