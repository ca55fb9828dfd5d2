"""Symmetric positive (semi)definite operators on grid functions.

Each operator defines one method, ``apply_values``, on raw arrays of interior
values; ``apply`` wraps it for grid functions at the API edge.  All are
matrix-free: the five-point Laplacian applies its stencil directly (implicit
zero ghost values on the Dirichlet boundary) and the per-step shifted systems
are solved with conjugate gradients, preconditioned by the exact inverse in
the orthonormal sine basis when of the form alpha I + beta A.
Application is deterministic: fixed sequential accumulation order, no threading.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    defines only :meth:`apply_values`; :meth:`apply` wraps it for grid functions."""

    def apply(self, w: GridFunction) -> GridFunction:
        return GridFunction(w.grid, self.apply_values(w.values, w.grid))

    def apply_values(self, v: np.ndarray, grid: Grid2D) -> np.ndarray:
        """Apply to interior values of shape ``(..., n1-1, n2-1)``, leading
        axes indexing separate fields; returns a new array."""
        raise NotImplementedError(f"{type(self).__name__} does not define apply_values")

    def preconditioner(self, grid: Grid2D):
        """Approximate inverse ``(r, out) -> out`` on ``grid`` for :func:`cg_solve`, or None."""
        return None


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
    def apply_values(self, v: np.ndarray, grid: Grid2D) -> np.ndarray:
        return v.copy()


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

    def apply_values(self, v: np.ndarray, grid: Grid2D) -> np.ndarray:
        out = np.zeros(v.shape)
        for c, op in self.terms:
            if c == 0.0:
                continue
            term = op.apply_values(v, grid)  # a new array, so it is scaled in place
            term *= c
            out += term
        return out

    def preconditioner(self, grid: Grid2D):
        """Exact inverse of ``alpha I + beta A`` in the sine basis: alpha sums the
        identity weights and the diagonal weights times their scalar coefficient,
        beta the Laplacian weights.  None for any other term, a field among them."""
        alpha = beta = 0.0
        for c, op in self.terms:
            if isinstance(op, IdentityOperator):
                alpha += c
            elif isinstance(op, DiagonalScaling) and op.coefficient.ndim == 0:
                alpha += c * float(op.coefficient)
            elif isinstance(op, FivePointLaplacian) and op.grid == grid:
                beta += c
            else:
                return None
        if alpha == 0.0 and beta == 0.0:
            return None
        s1, s2 = _sine_matrix(grid.n1), _sine_matrix(grid.n2)
        lam1, lam2 = _sine_eigenvalues(grid.n1), _sine_eigenvalues(grid.n2)

        def solve(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            tmp = s1 @ r
            np.matmul(tmp, s2, out=out)
            out /= alpha + beta * np.add.outer(lam1, lam2)
            np.matmul(s1, out, out=tmp)
            return np.matmul(tmp, s2, out=out)

        return solve


@lru_cache(maxsize=8)
def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix for n cells: symmetric and its own inverse."""
    k = np.arange(1, n)
    s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
    s.flags.writeable = False
    return s


@lru_cache(maxsize=8)
def _sine_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues 4 n^2 sin^2(pi k / 2n), 0 < k < n, of the 1-D second difference."""
    lam = 4.0 * n * n * np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
    lam.flags.writeable = False
    return lam


def a_norm(op: SpdOperator, w: GridFunction) -> float:
    """Energy norm (op w, w)**0.5 for a symmetric positive semidefinite op."""
    q = float(np.sum(op.apply_values(w.values, w.grid) * w.values) * w.grid.cell_area)
    nrm2 = inner_product(w, w)
    if q < -1e-12 * max(nrm2, 1e-300):
        raise NotSpdError(f"quadratic form is negative: {q}")
    return float(np.sqrt(max(q, 0.0)))


def laplacian_min_eigenvalue(grid: Grid2D) -> float:
    """Smallest eigenvalue of the five-point Laplacian on ``grid``."""
    return float(_sine_eigenvalues(grid.n1)[0] + _sine_eigenvalues(grid.n2)[0])


def cg_solve(
    op: SpdOperator,
    rhs: GridFunction,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> GridFunction:
    """Conjugate gradients preconditioned by ``op.preconditioner(grid)`` (none
    when None) from x0 = M^-1 rhs, stopping once |rhs - op x| <= tol |rhs|.

    Arrays are updated in place; ``op.apply_values`` runs once for the initial
    residual and once per iteration, so an exact inverse needs one.  Raises
    ConvergenceError when max_iter (default 10*(n1+n2)) is exhausted.
    """
    if tol <= 0:
        raise ValueError(f"tol={tol} must be > 0")
    grid = rhs.grid
    max_iter = 10 * (grid.n1 + grid.n2) if max_iter is None else max_iter
    rhs_norm = l2_norm(rhs)
    if rhs_norm == 0.0:
        return grid.zeros()
    scratch = np.empty(grid.shape)

    def dot(u, v):  # inner_product on arrays, into a reused buffer
        return float(np.multiply(u, v, out=scratch).sum()) * grid.cell_area

    precondition = op.preconditioner(grid)
    x = np.zeros(grid.shape)
    if precondition is not None:
        precondition(rhs.values, x)
    r = rhs.values - op.apply_values(x, grid)
    rr = dot(r, r)
    target = tol * rhs_norm
    if np.sqrt(rr) <= target:
        return GridFunction(grid, x)
    z = r if precondition is None else precondition(r, np.empty(grid.shape))
    p = z.copy()
    rz = rr if z is r else dot(r, z)
    for _ in range(max_iter):
        ap = op.apply_values(p, grid)
        pap = dot(p, ap)
        if pap <= 0:
            raise NotSpdError(f"CG detected a non-SPD operator: (p, Ap) = {pap}")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rr = dot(r, r)
        if np.sqrt(rr) <= target:
            return GridFunction(grid, x)
        if precondition is not None:
            precondition(r, z)
        rz_new = rr if z is r else dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {np.sqrt(rr) / rhs_norm:.3e} > {tol:.3e})",
        residual=float(np.sqrt(rr)),
        iterations=max_iter,
    )
