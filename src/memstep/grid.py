"""Uniform rectangular grid on the unit square and grid functions on it.

Grid functions carry values only at interior nodes; homogeneous Dirichlet
values on the boundary are implicit zeros and are never stored.  The inner
product is the mesh-weighted sum ``(w, u) = sum w*u*h1*h2`` so norms are
discrete L2 norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid2D",
    "GridFunction",
    "GridMismatchError",
    "sample_function",
    "inner_product",
    "l2_norm",
    "max_norm",
]


class GridMismatchError(ValueError):
    """Raised when two grid functions live on different grids."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid with n1 x n2 cells on the unit square (mesh h = 1/n)."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError(f"need at least 2 cells per direction, got {self.n1}x{self.n2}")

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

    @property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    @property
    def center_index(self) -> tuple[int, int]:
        """Interior node nearest (0.5, 0.5); the lower neighbour for odd n."""
        return (self.n1 // 2 - 1, self.n2 // 2 - 1)

    def interior_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (x1, x2) of interior node coordinates, shape ``self.shape``."""
        x1 = np.arange(1, self.n1) * self.h1
        x2 = np.arange(1, self.n2) * self.h2
        return np.meshgrid(x1, x2, indexing="ij")

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.shape))


class GridFunction:
    """Real-valued function on the interior nodes of a Grid2D.

    Treated as an immutable value: arithmetic returns new instances and the
    backing array is never written in place.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid2D, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise GridMismatchError(
                f"values shape {values.shape} does not match interior {grid.shape}"
            )
        self.grid = grid
        self.values = values

    def _check_same_grid(self, other: "GridFunction"):
        if self.grid != other.grid:
            raise GridMismatchError(f"grids differ: {self.grid} vs {other.grid}")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def center_value(self) -> float:
        """Value at the interior node nearest (0.5, 0.5), ``grid.center_index``."""
        return float(self.values[self.grid.center_index])


def sample_function(grid: Grid2D, f) -> GridFunction:
    """Sample a pointwise function f(x1, x2) at the interior nodes."""
    x1, x2 = grid.interior_coords()
    values = np.broadcast_to(np.asarray(f(x1, x2), dtype=float), grid.shape)
    return GridFunction(grid, np.array(values))


def inner_product(w: GridFunction, u: GridFunction) -> float:
    """Mesh-weighted dot product sum(w*u) * h1 * h2."""
    w._check_same_grid(u)
    return float(np.sum(w.values * u.values) * w.grid.cell_area)


def l2_norm(w: GridFunction) -> float:
    return float(np.sqrt(np.sum(w.values * w.values) * w.grid.cell_area))


def max_norm(w: GridFunction) -> float:
    return float(np.max(np.abs(w.values)))
