"""Time integration for evolution equations with a convolution memory term.

Two steppers discretize the same problem
``B dv/dt + int_0^t ktil(t-s) A v(s) ds + C v = phi(t)``:

* the compressed stepper keeps one auxiliary field per exponential term of
  the kernel, all m of them in one ``(m, n1-1, n2-1)`` array, and advances
  everything with a two-level weighted scheme, solving a single shifted SPD
  system per step;
* the full-history baseline, ``history_levels``, runs a fixed number of
  steps and returns every level; it evaluates the memory integral with a
  trapezoidal product rule over all past levels, whose weights it builds once
  per run, so its memory and per-step cost grow linearly with the step index.

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
    DiagonalScaling,
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
    "SchemeConfigError",
    "AuxiliaryResidualError",
    "NonFiniteError",
    "soe_init",
    "soe_stepper",
    "history_levels",
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


def _aux_residual_guard(cfg: SchemeConfig, grid, rates) -> Callable[..., None]:
    """``guard(ybar, y_new, aux_new, aux_old)`` raises AuxiliaryResidualError,
    naming the first failing rate, unless every memory field meets its implicit
    equation to rounding: the residual (y_i' - y_i)/tau + b_i (sigma y_i' +
    (1-sigma) y_i) - ybar, with the step's ybar = sigma y' + (1-sigma) y, must
    stay within 1e-12 (|y'| + |y_i'|)/tau in the L2 norm on ``grid``."""
    sig, tau, area = cfg.sigma, cfg.tau, grid.cell_area
    b = np.asarray(rates, dtype=float)[:, None, None]
    new_coef, old_coef = 1.0 / tau + sig * b, 1.0 / tau - (1.0 - sig) * b

    def guard(ybar, y_new, aux_new, aux_old) -> None:
        r2 = np.empty(len(b))
        for blk in _blocks(aux_new):
            res = new_coef[blk] * aux_new[blk]
            res -= old_coef[blk] * aux_old[blk]
            res -= ybar
            r2[blk] = np.einsum("kij,kij->k", res, res)
        norms = np.sqrt(np.einsum("kij,kij->k", aux_new, aux_new) * area)
        bounds = 1e-12 * (np.sqrt(np.sum(y_new * y_new) * area) + norms) / tau
        residuals = np.sqrt(r2 * area)
        failing = np.flatnonzero(residuals > bounds)
        if failing.size:
            i = failing[0]
            raise AuxiliaryResidualError(
                f"auxiliary update residual {residuals[i]:.3e} exceeds rounding bound "
                f"{bounds[i]:.3e} (rate b={rates[i]})"
            )

    return guard


def soe_stepper(p: ProblemSpec, cfg: SchemeConfig) -> Callable[[SoeState], SoeState]:
    """The compressed step for ``p`` and ``cfg``, with the problem's mass,
    reaction and forcing; its coefficients, left-hand side and guard built once.

    The implicit auxiliary equation solves to y_i' = decay_i y_i + (tau/d_i)
    ybar, with d_i = 1 + sigma b_i tau, decay_i = (1 - (1-sigma) b_i tau)/d_i
    and ybar = sigma y' + (1-sigma) y; in the memory term it leaves one
    shifted SPD solve for y'.  A left-hand side of pointwise terms collapses
    into one DiagonalScaling.  The first overflow or NaN raises NonFiniteError.
    """
    sig, tau = cfg.sigma, cfg.tau
    a, b = np.asarray(p.kernel.weights), np.asarray(p.kernel.rates)
    d = 1.0 + sig * b * tau
    decay = (1.0 - (1.0 - sig) * b * tau) / d
    gain = tau / d
    mu = math.fsum(sig * a * tau / d)
    # sum_i a_i A((1-sigma) y_i + sigma y_i') less its implicit part sigma*mu*A y',
    # with the one operator application pulled outside the sum by linearity.
    mem_weights, mem_own = a * ((1.0 - sig) + sig * decay), sig * (1.0 - sig) * float(a @ gain)
    terms = [(1.0, p.mass), (sig * tau * mu, p.operator)]
    if p.reaction is not None:
        terms.append((sig * tau, p.reaction))
    lhs = ScaledSum(terms)
    lhs = lhs if lhs.diagonal() is None else DiagonalScaling(lhs.diagonal())
    decay, gain = decay[:, None, None], gain[:, None, None]
    grid = p.initial.grid
    guard = _aux_residual_guard(cfg, grid, b)

    def step(s: SoeState) -> SoeState:
        y = s.y
        with _finite("update", s.n + 1, s.t + tau):
            mem = np.tensordot(mem_weights, s.aux, axes=1)
            mem += mem_own * y
            rhs = p.mass.apply_values(y, grid)
            rhs -= tau * p.operator.apply_values(mem, grid)
            if p.reaction is not None:
                rhs -= ((1.0 - sig) * tau) * p.reaction.apply_values(y, grid)
            if p.forcing is not None:  # evaluated at the mid level t_n + sigma*tau
                rhs += tau * p.forcing(s.t + sig * tau).values
            y_new = cg_solve(lhs, rhs, grid, tol=cfg.cg_tol)
            ybar = sig * y_new + (1.0 - sig) * y
            aux = decay * s.aux
            for blk in _blocks(aux):
                aux[blk] += gain[blk] * ybar
            guard(ybar, y_new, aux, s.aux)
        return SoeState(y=y_new, aux=aux, n=s.n + 1, t=s.t + tau)

    return step


def _product_trapezoid_weights(
    kernel: PronySeries, tau: float, max_lag: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lag tables of the product trapezoidal rule for int_0^{n*tau} ktil(t-s) g(s) ds.

    Each exponential term of the kernel is integrated exactly against the
    piecewise-linear interpolant of g, which keeps the rule accurate even
    for stiff decay rates where plain node sampling of the kernel fails.
    Returns ``(start, inner, end)``: a level L steps before t_n weighs
    ``start[L]`` if it is level 0 (it has only a right half-hat) and
    ``inner[L]`` otherwise, for lags L = 0..max_lag; the level at t_n itself
    (the implicit one) weighs ``end``.  All weights include the tau factor.
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
    # decay[i, L] = exp(-c_i * L) for lags L = 0..max_lag
    decay = np.exp(-np.multiply.outer(c, np.arange(max_lag + 1, dtype=float)))
    start = tau * (a @ (decay * start_factor[:, None]))
    inner = tau * (a @ (decay * inner_factor[:, None]))
    return start, inner, end_weight


def history_levels(p: ProblemSpec, cfg: SchemeConfig, n_steps: int) -> np.ndarray:
    """Levels 0..n_steps of the full-history baseline, as one
    ``(n_steps+1, n1-1, n2-1)`` array allocated once.

    The memory integral at each of a step's two time levels is evaluated with
    the product trapezoidal rule over every past level, and the two are
    blended with the scheme weight.  The new level enters implicitly through
    the endpoint weight, leaving one shifted SPD solve per step.  The rule's
    weights are built once, as lag tables; the integral to t_n is carried
    from step to step, and the operator applies once per step, to the blend
    of the two integrals, by linearity.  Identity mass and no reaction only.
    """
    if not p.is_plain:
        raise SchemeConfigError("the full-history baseline handles only the plain problem")
    sig, tau = cfg.sigma, cfg.tau
    grid = p.initial.grid
    start, inner, w_end = _product_trapezoid_weights(p.kernel, tau, n_steps)
    lhs = ScaledSum([(1.0, IdentityOperator()), (sig * tau * w_end, p.operator)])
    levels = np.empty((n_steps + 1,) + grid.shape)
    levels[0] = p.initial.values
    weights = np.empty(n_steps)
    integral, t = 0.0, 0.0  # int_0^{t_n}, before the operator is applied
    for n in range(n_steps):
        # int_0^{t_{n+1}} over the known levels 0..n, at lags n+1..1 behind
        # t_{n+1}; the endpoint weight on the new level is implicit
        w = weights[: n + 1]
        w[0], w[1:] = start[n + 1], inner[n:0:-1]
        known = np.tensordot(w, levels[: n + 1], axes=1)
        rhs = levels[n] - tau * p.operator.apply_values(sig * known + (1.0 - sig) * integral, grid)
        if p.forcing is not None:
            rhs += tau * p.forcing(t + sig * tau).values
        levels[n + 1] = cg_solve(lhs, rhs, grid, tol=cfg.cg_tol)
        integral = known + w_end * levels[n + 1]
        t += tau
    return levels


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
