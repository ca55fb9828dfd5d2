"""Time integration for evolution equations with a convolution memory term.

Two steppers discretize the same problem
``B dv/dt + int_0^t ktil(t-s) A v(s) ds + C v = phi(t)``:

* the compressed stepper keeps one auxiliary field per exponential term of
  the kernel, all m of them in one ``(m, n1-1, n2-1)`` array, and advances
  everything with a two-level weighted scheme, solving a single shifted SPD
  system per step;
* the full-history baseline evaluates the memory integral with a
  trapezoidal product rule over all past levels, so its memory and per-step
  cost grow linearly with the step index.

The weighted scheme is unconditionally stable for weight sigma >= 0.5; the
composite energy ``(|y|_B^2 + sum_i a_i |y_i|_A^2)**0.5`` is then
non-increasing for zero forcing.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import GridFunction
from .kernels import PronySeries
from .operators import (
    IdentityOperator,
    NotSpdError,
    ScaledSum,
    SpdOperator,
    a_norm,
    cg_solve,
)

__all__ = [
    "SchemeConfig",
    "ProblemSpec",
    "SoeState",
    "HistoryState",
    "SchemeConfigError",
    "AuxiliaryResidualError",
    "NonFiniteError",
    "soe_init",
    "soe_step",
    "history_init",
    "quadrature_step",
    "energy",
    "scalar_ode_oracle",
]

class SchemeConfigError(ValueError):
    """Invalid scheme configuration (weight, step, counts)."""


class AuxiliaryResidualError(AssertionError):
    """The per-step auxiliary-equation residual exceeded rounding scale."""


class NonFiniteError(ArithmeticError):
    """A step or energy evaluation overflowed or produced a NaN."""


@dataclass(frozen=True)
class SchemeConfig:
    """Two-level weighted scheme parameters.

    sigma in (0, 1] is the implicitness weight (0.5 symmetric, 1 backward
    Euler); sigma >= 0.5 guarantees unconditional stability.
    """

    sigma: float
    tau: float
    cg_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1.0:
            raise SchemeConfigError(f"sigma={self.sigma} must lie in (0, 1]")
        if not self.tau > 0:
            raise SchemeConfigError(f"tau={self.tau} must be > 0")

    @property
    def stability_guaranteed(self) -> bool:
        return self.sigma >= 0.5


@dataclass(frozen=True)
class ProblemSpec:
    """Memory problem  mass * dv/dt + int ktil(t-s) A v ds + reaction*v = phi.

    ``operator`` is the positive definite spatial operator under the memory
    integral; ``mass`` (positive definite, default identity) multiplies the
    time derivative; ``reaction`` (positive semidefinite) is an optional
    zeroth-order term.  ``forcing`` maps a time to a grid function; None
    means zero forcing.
    """

    operator: SpdOperator
    kernel: PronySeries
    initial: GridFunction
    forcing: Optional[Callable[[float], GridFunction]] = None
    mass: SpdOperator = field(default_factory=IdentityOperator)
    reaction: Optional[SpdOperator] = None

    @property
    def is_plain(self) -> bool:
        """True when mass is the identity and there is no reaction term."""
        return isinstance(self.mass, IdentityOperator) and self.reaction is None


@dataclass(frozen=True)
class SoeState:
    """Compressed stepper state: the solution ``y``, an ``(n1-1, n2-1)`` array of
    interior values on the problem's grid, plus the m memory fields, held as
    one array ``aux`` of shape ``(m, n1-1, n2-1)``.  No step writes either."""

    y: np.ndarray
    aux: np.ndarray
    n: int
    t: float


@dataclass
class _Levels:
    data: np.ndarray  # rows 0..count-1 hold levels; grows by doubling
    count: int


@dataclass(frozen=True)
class HistoryState:
    """Baseline state: every past level (the linear growth is the point).

    ``ys`` holds levels 0..n and ``applied`` the operator applied to each, as
    rows of one array, so no step reapplies the stencil to or restacks the history.
    ``integral``, the memory integral to t_n, spares the next step a second sum.
    """

    ys: tuple[np.ndarray, ...]
    levels: _Levels
    n: int
    t: float
    integral: np.ndarray | float

    @property
    def applied(self) -> np.ndarray:
        return self.levels.data[: self.n + 1]


# Temporaries the size of the memory-field stack are built a block of fields
# at a time, each block holding about this many values (one 256x256 field),
# so that a step's peak memory stays close to that of its state.
_BLOCK_VALUES = 1 << 16


def _blocks(aux: np.ndarray) -> list[slice]:
    per = max(1, _BLOCK_VALUES // aux[0].size)
    return [slice(i, i + per) for i in range(0, len(aux), per)]


@contextmanager
def _finite(what: str, n: int, t: float):
    """Turn the first overflow or NaN inside the block into NonFiniteError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        message = f"non-finite values in the {what} of step {n} (t={t:.6g}): {exc}"
        raise NonFiniteError(message) from None


def soe_init(p: ProblemSpec) -> SoeState:
    """Initial state: y = u0, all compressed memory functions zero."""
    aux = np.zeros((p.kernel.n_terms,) + p.initial.grid.shape)
    return SoeState(y=p.initial.values, aux=aux, n=0, t=0.0)


def _check_aux_residual(cfg: SchemeConfig, grid, rates, y_new, y_old, aux_new, aux_old) -> None:
    """Raise AuxiliaryResidualError, naming the rate, unless every memory
    field meets its implicit equation to rounding: the residual
    (y_i' - y_i)/tau + b_i (sigma y_i' + (1-sigma) y_i) - (sigma y' + (1-sigma) y)
    must stay within 1e-12 (|y'| + |y_i'|)/tau in the L2 norm on ``grid``."""
    sig, tau = cfg.sigma, cfg.tau
    b = np.asarray(rates, dtype=float)[:, None, None]
    ybar = sig * y_new + (1.0 - sig) * y_old
    r2 = np.empty(len(b))
    for blk in _blocks(aux_new):
        res = (1.0 / tau + sig * b[blk]) * aux_new[blk]
        res -= (1.0 / tau - (1.0 - sig) * b[blk]) * aux_old[blk]
        res -= ybar
        r2[blk] = np.einsum("kij,kij->k", res, res)
    area = grid.cell_area
    norms = np.sqrt(np.einsum("kij,kij->k", aux_new, aux_new) * area)
    bounds = 1e-12 * (np.sqrt(np.sum(y_new * y_new) * area) + norms) / tau
    for b_i, r_i, bound in zip(rates, np.sqrt(r2 * area), bounds):
        if r_i > bound:
            raise AuxiliaryResidualError(
                f"auxiliary update residual {r_i:.3e} exceeds rounding bound {bound:.3e} "
                f"(rate b={b_i})"
            )


def soe_step(p: ProblemSpec, cfg: SchemeConfig, s: SoeState) -> SoeState:
    """One step of the compressed scheme, with the problem's mass, reaction
    and forcing.

    The implicit auxiliary equation solves to y_i' = decay_i y_i + (tau/d_i)
    ybar, with d_i = 1 + sigma b_i tau, decay_i = (1 - (1-sigma) b_i tau)/d_i
    and ybar = sigma y' + (1-sigma) y; in the memory term it leaves one
    shifted SPD solve for y'.  The first overflow or NaN raises NonFiniteError.
    """
    sig, tau = cfg.sigma, cfg.tau
    a, b = np.asarray(p.kernel.weights), np.asarray(p.kernel.rates)
    d = 1.0 + sig * b * tau
    decay = (1.0 - (1.0 - sig) * b * tau) / d
    gain = tau / d
    mu = math.fsum(sig * a * tau / d)
    grid, y = p.initial.grid, s.y
    with _finite("update", s.n + 1, s.t + tau):
        # sum_i a_i A((1-sigma) y_i + sigma y_i') less its implicit part sigma*mu*A y',
        # with the one operator application pulled outside the sum by linearity.
        mem = np.tensordot(a * ((1.0 - sig) + sig * decay), s.aux, axes=1)
        mem += (sig * (1.0 - sig) * float(a @ gain)) * y
        rhs = p.mass.apply_values(y, grid)
        rhs -= tau * p.operator.apply_values(mem, grid)
        terms = [(1.0, p.mass), (sig * tau * mu, p.operator)]
        if p.reaction is not None:
            rhs -= ((1.0 - sig) * tau) * p.reaction.apply_values(y, grid)
            terms.append((sig * tau, p.reaction))
        if p.forcing is not None:  # evaluated at the mid level t_n + sigma*tau
            rhs += tau * p.forcing(s.t + sig * tau).values
        y_new = cg_solve(ScaledSum(terms), rhs, grid, tol=cfg.cg_tol)
        ybar = sig * y_new + (1.0 - sig) * y
        aux = decay[:, None, None] * s.aux
        for blk in _blocks(aux):
            aux[blk] += gain[blk, None, None] * ybar
        _check_aux_residual(cfg, grid, b, y_new, y, aux, s.aux)
    return SoeState(y=y_new, aux=aux, n=s.n + 1, t=s.t + tau)


def history_init(p: ProblemSpec) -> HistoryState:
    """Initial state for the full-history baseline."""
    if not p.is_plain:
        raise SchemeConfigError("the full-history baseline handles only the plain problem")
    first = p.operator.apply_values(p.initial.values, p.initial.grid)[None].copy()
    return HistoryState((p.initial.values,), _Levels(first, 1), n=0, t=0.0, integral=0.0)


def _product_trapezoid_weights(
    kernel: PronySeries, tau: float, n_levels: int
) -> tuple[np.ndarray, float]:
    """Weights of the product trapezoidal rule for int_0^{n*tau} ktil(t-s) g(s) ds.

    Each exponential term of the kernel is integrated exactly against the
    piecewise-linear interpolant of g, which keeps the rule accurate even
    for stiff decay rates where plain node sampling of the kernel fails.
    Returns the weights for levels 0..n_levels-1 plus the endpoint weight
    for level n_levels (the implicit one).  All weights include the tau
    factor.
    """
    a = np.asarray(kernel.weights)
    c = tau * np.asarray(kernel.rates)
    small = c < 1e-8

    # Endpoint factors, written via expm1 to survive c -> 0; the c = 0 limits
    # are the plain trapezoid values 1/2, 1, 1/2.
    with np.errstate(divide="ignore", invalid="ignore"):
        start_factor = np.where(small, 0.5, (np.expm1(c) - c) / np.where(small, 1.0, c) ** 2)
        end_factor = np.where(small, 0.5, (c + np.expm1(-c)) / np.where(small, 1.0, c) ** 2)
        inner_factor = np.where(
            small, 1.0, 4.0 * np.sinh(c / 2.0) ** 2 / np.where(small, 1.0, c) ** 2
        )

    end_weight = tau * float(a @ end_factor)
    # decay[i, j] = exp(-c_i * (n_levels - j)) for levels j = 0..n_levels-1
    lags = np.arange(n_levels, 0, -1, dtype=float)
    decay = np.exp(-np.multiply.outer(c, lags))
    factors = np.tile(inner_factor[:, None], (1, n_levels))
    factors[:, 0] = start_factor  # level 0 has only a right half-hat
    weights = tau * (a @ (decay * factors))
    return weights, end_weight


def quadrature_step(p: ProblemSpec, cfg: SchemeConfig, h: HistoryState) -> HistoryState:
    """One step of the full-history baseline.

    The memory integral at each of the two time levels is evaluated with the
    product trapezoidal rule over the uniform time grid, and the two levels
    are blended with the scheme weight.  The new level enters implicitly
    through the endpoint weight, leaving one shifted SPD solve per step.
    """
    if not p.is_plain:
        raise SchemeConfigError("the full-history baseline handles only the plain problem")
    sig, tau = cfg.sigma, cfg.tau
    n = h.n

    # int_0^{t_{n+1}}: known part over levels 0..n plus the implicit
    # endpoint weight on A y_new; the endpoint weight does not depend on n,
    # and int_0^{t_n} is carried in the state.
    w_new, w_end = _product_trapezoid_weights(p.kernel, tau, n + 1)
    s_new = np.tensordot(w_new, h.applied, axes=1)

    rhs = h.ys[-1] - tau * (sig * s_new + (1.0 - sig) * h.integral)
    if p.forcing is not None:
        rhs += tau * p.forcing(h.t + sig * tau).values
    lhs = ScaledSum([(1.0, IdentityOperator()), (sig * tau * w_end, p.operator)])
    y_new = cg_solve(lhs, rhs, p.initial.grid, tol=cfg.cg_tol)

    levels = h.levels
    if levels.count != n + 1:  # h was stepped before: branch off a copy
        levels = _Levels(h.applied.copy(), n + 1)
    if levels.count == len(levels.data):
        levels.data = np.concatenate([levels.data, np.empty_like(levels.data)])
    applied = p.operator.apply_values(y_new, p.initial.grid)
    levels.data[levels.count] = applied
    levels.count += 1
    return HistoryState(h.ys + (y_new,), levels, n + 1, h.t + tau, s_new + w_end * applied)


def energy(p: ProblemSpec, s: SoeState) -> float:
    """Composite stability energy (|y|_mass^2 + sum_i a_i |y_i|_A^2)**0.5.

    The A-forms of the memory fields come from applying the operator to
    blocks of the stack; a form negative beyond rounding raises NotSpdError.
    """
    grid = p.initial.grid
    with _finite("energy", s.n, s.t):
        forms = np.empty(len(s.aux))
        for blk in _blocks(s.aux):
            applied = p.operator.apply_values(s.aux[blk], grid)
            forms[blk] = np.multiply(applied, s.aux[blk], out=applied).sum(axis=(1, 2))
        if np.any(forms < -1e-12 * np.maximum(np.einsum("kij,kij->k", s.aux, s.aux), 1e-300)):
            raise NotSpdError(f"quadratic form is negative: {forms.min() * grid.cell_area}")
        forms = np.maximum(forms, 0.0) * grid.cell_area
        total = a_norm(p.mass, s.y, grid) ** 2 + float(np.dot(p.kernel.weights, forms))
    return float(np.sqrt(total))


def scalar_ode_oracle(a1: float, b1: float, lam: float, u0: float, t) -> float:
    """Closed-form solution of u'' + b1 u' + a1*lam*u = 0, u(0)=u0, u'(0)=0.

    This is the single-exponential memory problem reduced to a local
    second-order ODE with a scalar spatial operator lam > 0; it serves as
    the independent convergence oracle for the m = 1 steppers.
    """
    if not (a1 > 0 and b1 >= 0 and lam > 0):
        raise ValueError("need a1 > 0, b1 >= 0, lam > 0")
    t = np.asarray(t, dtype=float)
    c = a1 * lam
    disc = b1 * b1 - 4.0 * c
    if disc > 0:
        root = np.sqrt(disc)
        r1 = 0.5 * (-b1 + root)
        r2 = 0.5 * (-b1 - root)
        out = u0 * (r2 * np.exp(r1 * t) - r1 * np.exp(r2 * t)) / (r2 - r1)
    elif disc < 0:
        omega = 0.5 * np.sqrt(-disc)
        decay = np.exp(-0.5 * b1 * t)
        out = u0 * decay * (np.cos(omega * t) + (0.5 * b1 / omega) * np.sin(omega * t))
    else:
        r = -0.5 * b1
        out = u0 * (1.0 - r * t) * np.exp(r * t)
    return out if out.ndim else float(out)
