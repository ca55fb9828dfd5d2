"""Symmetric positive (semi)definite operators on fields of interior values.

Operators, ``cg_solve``, ``a_norm`` and ``sine_transform`` take arrays of
interior values alone, whose shape fixes their grid (``Grid2D.of``); an
operator defines one method, ``apply_values(v)``.
All are matrix-free: the five-point Laplacian applies its stencil directly
(implicit zero ghost values on the Dirichlet boundary).  ``cg_solve`` solves
a per-step shifted system whose diagonal is positive everywhere, a sum of
pointwise terms, by the division ``rhs / diagonal`` alone, and any other
with conjugate gradients from zero.  In the orthonormal sine (DST-I) basis of
``sine_transform`` the Laplacian is the pointwise ``laplacian_eigenvalues``:
a problem built there needs no CG.  Application is deterministic: an
operator holds no mutable state and sums in a fixed order, so a field's
result is the same whether it is applied alone or in a stack of fields, as
the compressed stepper applies one to a block of memory fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid2D, GridMismatchError

__all__ = [
    "SpdOperator",
    "FivePointLaplacian",
    "IdentityOperator",
    "DiagonalScaling",
    "ScaledSum",
    "a_norm",
    "laplacian_eigenvalues",
    "sine_transform",
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

    def __reduce__(self):  # rebuilt from all three arguments, as pickling needs
        return type(self), (self.args[0], self.residual, self.iterations)


class NotSpdError(ValueError):
    """A quadratic form came out negative beyond rounding slack."""


class SpdOperator:
    """Abstract symmetric positive (semi)definite linear map.  A subclass
    defines only :meth:`apply_values`."""

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        """Apply to interior values of shape ``(..., n1-1, n2-1)``, leading
        axes indexing separate fields; returns a new array."""
        raise NotImplementedError(f"{type(self).__name__} does not define apply_values")

    def diagonal(self):
        """The operator's diagonal, a scalar or an interior field, when the
        operator is pointwise (then it is the whole operator); None otherwise."""
        return None


@dataclass(frozen=True)
class FivePointLaplacian(SpdOperator):
    """Discrete -Laplace on the usual five-point stencil, Dirichlet boundary."""

    grid: Grid2D

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        if v.shape[-2:] != self.grid.shape:
            raise GridMismatchError(f"values of shape {v.shape} off the interior {self.grid.shape}")
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
    def apply_values(self, v: np.ndarray) -> np.ndarray:
        return v.copy()

    def diagonal(self):
        return 1.0


class DiagonalScaling(SpdOperator):
    """Pointwise multiplication by a finite nonnegative coefficient (scalar or field),
    validated once: the coefficient is held read-only, copied only when the
    caller could still write to it, and ``positive`` records whether it is
    positive everywhere."""

    __slots__ = ("coefficient", "positive")

    def __init__(self, coefficient):
        values = np.asarray(coefficient, dtype=float)
        if not np.all((values >= 0) & (values < math.inf)):  # a NaN fails too
            raise NotSpdError("diagonal coefficient must be finite and >= 0 everywhere")
        # a read-only array that owns its data cannot change under the operator
        if np.may_share_memory(values, coefficient) and (
            values.flags.writeable or values.base is not None
        ):
            values = values.copy()
        values.flags.writeable = False
        self.coefficient = values
        self.positive = bool(np.all(values > 0))

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        return self.coefficient * v

    def diagonal(self):
        return self.coefficient


class ScaledSum(SpdOperator):
    """Linear combination  sum_k  weight_k * op_k  with finite nonnegative weights."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple((float(c), op) for c, op in terms)
        for c, _ in terms:
            if not 0 <= c < math.inf:  # a NaN fails too
                raise NotSpdError(f"combination weight {c} must be finite and >= 0")
        self.terms = terms

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape)
        for c, op in self.terms:
            if c == 0.0:
                continue
            term = op.apply_values(v)  # a new array, so it is scaled in place
            term *= c
            out += term
        return out

    def diagonal(self):
        """The weighted sum of the terms' diagonals; None when any term has none."""
        diag = 0.0
        for c, op in self.terms:
            term = op.diagonal()
            if term is None:
                return None
            diag = diag + c * term
        return diag


@lru_cache(maxsize=8)
def _sine_matrix(size: int) -> np.ndarray:
    """Orthonormal DST-I matrix of ``size`` interior nodes, n = size + 1 cells:
    symmetric and its own inverse."""
    n, k = size + 1, np.arange(1, size + 1)
    s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
    s.flags.writeable = False
    return s


@lru_cache(maxsize=8)
def _sine_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues 4 n^2 sin^2(pi k / 2n), 0 < k < n, of the 1-D second difference."""
    lam = 4.0 * n * n * np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=8)
def laplacian_eigenvalues(grid: Grid2D) -> np.ndarray:
    """Eigenvalues lam1_j + lam2_k of the five-point Laplacian on ``grid``, the
    field it becomes pointwise under :func:`sine_transform` (read-only)."""
    lam = np.add.outer(_sine_eigenvalues(grid.n1), _sine_eigenvalues(grid.n2))
    lam.flags.writeable = False
    return lam


def sine_transform(v: np.ndarray) -> np.ndarray:
    """``S1 v S2`` with the orthonormal DST-I matrices of v's last two axes: interior
    values to sine coefficients and, the matrices being symmetric and orthogonal, back."""
    return _sine_matrix(v.shape[-2]) @ v @ _sine_matrix(v.shape[-1])


def a_norm(op: SpdOperator, v: np.ndarray) -> float:
    """Energy norm (op v, v)**0.5 of interior values v, op symmetric positive semidefinite."""
    area = Grid2D.of(v).cell_area
    applied = v if type(op) is IdentityOperator else op.apply_values(v)  # the identity's is a copy
    q = float(np.vdot(applied, v)) * area
    if q < 0.0:  # rounding slack relative to |v|^2; a form within it counts as 0
        if q < -1e-12 * max(float(np.vdot(v, v)) * area, 1e-300):
            raise NotSpdError(f"quadratic form is negative: {q}")
        return 0.0
    return math.sqrt(q)


def cg_solve(
    op: SpdOperator,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve op x = rhs: ``rhs / op.diagonal()`` when the operator has a
    diagonal positive everywhere, which is then the whole operator; else
    conjugate gradients from x0 = 0, stopping once |rhs - op x| <= tol |rhs|.

    A pointwise solve is that one division, for any tol: it applies the
    operator 0 times and makes 0 iterations.  CG starts from r0 = p0 = rhs,
    applies the operator once per iteration, first to rhs, and updates its
    arrays in place.  The diagonal is read once; a DiagonalScaling's sign was
    checked when it was built (``positive``), any other's is checked here.
    Raises FloatingPointError, before any iteration, when |rhs| is not finite
    because rhs holds a NaN or an infinity (a finite rhs whose norm overflows
    is solved), GridMismatchError unless the diagonal and op p have rhs's
    shape, ConvergenceError when max_iter (default 10*(n1+n2)) is exhausted.
    """
    if tol <= 0:
        raise ValueError(f"tol={tol} must be > 0")
    rr = float(np.vdot(rhs, rhs))  # plain norms: the mesh weight cancels
    rhs_norm = math.sqrt(rr)
    if not rhs_norm < math.inf and not np.isfinite(rhs).all():  # not a finite rhs's overflow
        raise FloatingPointError(f"the right-hand side holds non-finite values (norm {rhs_norm})")
    diag = op.diagonal()
    shape = getattr(diag, "shape", ())  # a Python scalar's or None's is ()
    if shape not in ((), rhs.shape):
        raise GridMismatchError(f"rhs of shape {rhs.shape} against a diagonal of {shape}")
    if op.positive if type(op) is DiagonalScaling else \
            diag is not None and bool(np.all(diag > 0)):
        return rhs / diag
    target = tol * rhs_norm
    x = np.zeros(rhs.shape)
    if rhs_norm <= target:  # x0 already meets the tolerance
        return x
    grid = Grid2D.of(rhs)
    max_iter = 10 * (grid.n1 + grid.n2) if max_iter is None else max_iter
    r = rhs.astype(float)  # rhs - op x0
    p = r.copy()
    for _ in range(max_iter):
        ap = op.apply_values(p)
        if ap.shape != rhs.shape:
            raise GridMismatchError(f"rhs of shape {rhs.shape} against the operator's {ap.shape}")
        pap = float(np.vdot(p, ap))
        if pap <= 0:
            raise NotSpdError(f"CG detected a non-SPD operator: (p, Ap) = {pap}")
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        rr_old, rr = rr, float(np.vdot(r, r))
        if math.sqrt(rr) <= target:
            return x
        p *= rr / rr_old
        p += r
    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {math.sqrt(rr) / rhs_norm:.3e} > {tol:.3e})",
        residual=math.sqrt(rr * grid.cell_area),
        iterations=max_iter,
    )
