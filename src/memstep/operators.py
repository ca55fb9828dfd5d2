"""Symmetric positive (semi)definite operators on grid functions.

All operators are matrix-free: the five-point Laplacian applies its stencil
directly (implicit zero ghost values on the Dirichlet boundary) and the
per-step shifted systems are solved with unpreconditioned conjugate
gradients.  Application is deterministic: fixed sequential accumulation
order, no threading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, GridFunction, GridMismatchError, inner_product, l2_norm

__all__ = [
    "SpdOperator",
    "FivePointLaplacian",
    "IdentityOperator",
    "DiagonalScaling",
    "ScaledSum",
    "a_norm",
    "laplacian_min_eigenvalue",
    "cg_solve",
    "ConvergenceError",
    "NotSpdError",
]


class ConvergenceError(RuntimeError):
    """CG failed to reach the requested tolerance within max_iter."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NotSpdError(ValueError):
    """A quadratic form came out negative beyond rounding slack."""


class SpdOperator:
    """Abstract symmetric positive (semi)definite linear map.  A subclass
    defines :meth:`apply`, :meth:`apply_values` or both; each default uses the other."""

    def apply(self, w: GridFunction) -> GridFunction:
        return GridFunction(w.grid, self.apply_values(w.values, w.grid))

    def apply_values(self, v: np.ndarray, grid: Grid2D) -> np.ndarray:
        """Apply to interior values of shape ``(..., n1-1, n2-1)``, leading
        axes indexing separate fields; returns a new array."""
        fields = v.reshape((-1,) + grid.shape)
        return np.reshape([self.apply(GridFunction(grid, f)).values for f in fields], v.shape)

    def __call__(self, w: GridFunction) -> GridFunction:
        return self.apply(w)


@dataclass(frozen=True)
class FivePointLaplacian(SpdOperator):
    """Discrete -Laplace on the usual five-point stencil, Dirichlet boundary."""

    grid: Grid2D

    def apply_values(self, v: np.ndarray, grid: Grid2D) -> np.ndarray:
        if grid != self.grid:
            raise GridMismatchError(f"function grid {grid} != operator grid {self.grid}")
        inv1, inv2 = 1.0 / self.grid.h1**2, 1.0 / self.grid.h2**2
        out = (2.0 * inv1 + 2.0 * inv2) * v
        scaled = inv1 * v
        out[..., 1:, :] -= scaled[..., :-1, :]
        out[..., :-1, :] -= scaled[..., 1:, :]
        if inv2 != inv1:
            np.multiply(v, inv2, out=scaled)
        out[..., :, 1:] -= scaled[..., :, :-1]
        out[..., :, :-1] -= scaled[..., :, 1:]
        return out


@dataclass(frozen=True)
class IdentityOperator(SpdOperator):
    def apply(self, w: GridFunction) -> GridFunction:
        return w


class DiagonalScaling(SpdOperator):
    """Pointwise multiplication by a nonnegative coefficient (scalar or field)."""

    __slots__ = ("coefficient",)

    def __init__(self, coefficient):
        coefficient = np.asarray(coefficient, dtype=float)
        if np.any(coefficient < 0):
            raise NotSpdError("diagonal coefficient must be >= 0 everywhere")
        self.coefficient = coefficient

    def apply_values(self, v: np.ndarray, grid: Grid2D) -> np.ndarray:
        return self.coefficient * v


class ScaledSum(SpdOperator):
    """Nonnegative linear combination  sum_k  weight_k * op_k."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple((float(c), op) for c, op in terms)
        for c, _ in terms:
            if c < 0:
                raise NotSpdError(f"combination weight {c} must be >= 0")
        self.terms = terms

    def apply(self, w: GridFunction) -> GridFunction:
        out = np.zeros(w.grid.shape)
        for c, op in self.terms:
            if c == 0.0:
                continue
            out += c * op.apply(w).values
        return GridFunction(w.grid, out)


def a_norm(op: SpdOperator, w: GridFunction) -> float:
    """Energy norm (op w, w)**0.5 for a symmetric positive semidefinite op."""
    q = inner_product(op.apply(w), w)
    nrm2 = inner_product(w, w)
    if q < -1e-12 * max(nrm2, 1e-300):
        raise NotSpdError(f"quadratic form is negative: {q}")
    return float(np.sqrt(max(q, 0.0)))


def laplacian_min_eigenvalue(grid: Grid2D) -> float:
    """Smallest eigenvalue of the five-point Laplacian on ``grid``."""
    lam1 = (4.0 / grid.h1**2) * np.sin(np.pi * grid.h1 / 2) ** 2
    lam2 = (4.0 / grid.h2**2) * np.sin(np.pi * grid.h2 / 2) ** 2
    return float(lam1 + lam2)


def cg_solve(
    op: SpdOperator,
    rhs: GridFunction,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> GridFunction:
    """Conjugate gradients for op x = rhs, relative-residual stopping rule.

    The iterate, residual and search direction are arrays updated in place;
    ``op.apply`` runs once for the initial residual and once per iteration.
    Raises ConvergenceError when max_iter (default 10*(n1+n2)) is exhausted.
    """
    if tol <= 0:
        raise ValueError(f"tol={tol} must be > 0")
    grid = rhs.grid
    if max_iter is None:
        max_iter = 10 * (grid.n1 + grid.n2)
    rhs_norm = l2_norm(rhs)
    if rhs_norm == 0.0:
        return grid.zeros()
    scratch = np.empty(grid.shape)

    def dot(u, v):  # inner_product on arrays, into a reused buffer
        return float(np.multiply(u, v, out=scratch).sum()) * grid.cell_area

    x = np.zeros(grid.shape)
    r = rhs.values - op.apply(GridFunction(grid, x)).values
    p = r.copy()
    direction = GridFunction(grid, p)
    rr = dot(r, r)
    target = tol * rhs_norm
    for _ in range(max_iter):
        if np.sqrt(rr) <= target:
            return GridFunction(grid, x)
        ap = op.apply(direction).values
        pap = dot(p, ap)
        if pap <= 0:
            raise NotSpdError(f"CG detected a non-SPD operator: (p, Ap) = {pap}")
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        rr_new = dot(r, r)
        p *= rr_new / rr
        p += r
        rr = rr_new
    if np.sqrt(rr) <= target:
        return GridFunction(grid, x)
    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {np.sqrt(rr) / rhs_norm:.3e} > {tol:.3e})",
        residual=float(np.sqrt(rr)),
        iterations=max_iter,
    )
