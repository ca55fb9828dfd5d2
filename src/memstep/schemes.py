"""Time integration for evolution equations with a convolution memory term.

Two steppers discretize the same problem
``B dv/dt + int_0^t ktil(t-s) A v(s) ds + C v = phi(t)``:

* the compressed stepper keeps one auxiliary field per exponential term of
  the kernel, all m of them in one ``(m, n1-1, n2-1)`` array, and advances
  everything with a two-level weighted scheme, solving a single shifted SPD
  system per step; on a large stack it deals the per-field work over the
  CPUs, a thread per share of fields, with the same results for any number
  of threads;
* the full-history baseline, ``history_levels``, runs a fixed number of
  steps and returns every level; it evaluates the memory integral with a
  trapezoidal product rule over all past levels, whose weights it builds once
  per run, so its memory and per-step cost grow linearly with the step index.

The weighted scheme is unconditionally stable for weight sigma >= 0.5; the
composite energy ``(|y|_B^2 + sum_i a_i |y_i|_A^2)**0.5`` is then
non-increasing for zero forcing.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import Grid2D, GridMismatchError
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


@dataclass(frozen=True)
class ProblemSpec:
    """Memory problem  mass * dv/dt + int ktil(t-s) A v ds + reaction*v = phi.

    ``operator`` is the positive definite spatial operator under the memory
    integral; ``mass`` (positive definite, default identity) multiplies the
    time derivative; ``reaction`` (positive semidefinite) is an optional
    zeroth-order term.  ``initial`` is the field of interior values at t = 0,
    an ``(n1-1, n2-1)`` array, whose shape fixes the problem's ``grid`` and is
    that of each operator's output and non-scalar diagonal; ``forcing`` maps
    a time to a field of that shape; None means zero forcing.
    """

    operator: SpdOperator
    kernel: PronySeries
    initial: np.ndarray
    forcing: Optional[Callable[[float], np.ndarray]] = None
    mass: SpdOperator = field(default_factory=IdentityOperator)
    reaction: Optional[SpdOperator] = None
    grid: Grid2D = field(init=False, repr=False, compare=False)  # ``Grid2D.of(initial)``

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=float)
        if initial.ndim != 2:
            raise GridMismatchError(
                f"initial values of shape {initial.shape} are not a 2-D interior field"
            )
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "grid", Grid2D.of(initial))  # an empty axis fails here
        zeros = np.zeros(initial.shape)
        for name in ("operator", "mass", "reaction"):  # a scalar diagonal fits any field
            op = getattr(self, name)
            shapes = () if op is None else (np.shape(op.diagonal()), op.apply_values(zeros).shape)
            for shape in shapes:
                if shape not in ((), initial.shape):
                    raise GridMismatchError(f"{name} of shape {shape} does not fit the "
                                            f"initial field's {initial.shape}")

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
    energy: Optional[float] = None  # the composite energy, from a stepper built ``with_energy``


# Temporaries the size of the memory-field stack are built a block of fields
# at a time, each block holding about this many values (one 256x256 field),
# so that a step's peak memory stays close to that of its state.
_BLOCK_VALUES = 1 << 16


# numpy's ufunc buffer, 8,192 values by default, while a block runs under
# ``_finite``.  Where a field row is shorter than the buffer, numpy copies a
# broadcast coefficient column into it chunk by chunk, which made a (k, N)
# block times a (k, 1) column 3-4x slower than times a scalar on grids up to
# about 90.  Buffering changes only how numpy walks the arrays, not one
# product or sum, so outputs keep their bits.  Of 16, 64, 256 and 1,024,
# swept on grids 16-256, 64 was within noise of the fastest on every grid.
_BUFFER_VALUES = 64


def _blocks(m: int, size: int) -> list[slice]:
    """Row slices of an ``(m, size)`` stack, each about ``_BLOCK_VALUES`` values."""
    per = max(1, _BLOCK_VALUES // size)
    return [slice(i, min(i + per, m)) for i in range(0, m, per)]


# A stepper whose memory-field stack holds at least this many values deals its
# blocks over threads (``_shares``).  Below it a thread's start and its share of
# contended numpy calls cost more than it saves: on two CPUs, with BLAS on one
# thread, steps with 6, 12 and 30 terms on grids 128-320 broke even between
# 310k values (12 terms on grid 160, 5% slower dealt) and 390k (6 terms on
# grid 256, 13% faster); 12 terms on grid 256 (780k) were 20% faster.
_THREAD_VALUES = 350_000

# True while ``experiments._map_runs`` runs tasks in forked processes, which
# already cover the CPUs: a stepper built then runs on one thread.  A context
# variable, so it is set for that call alone and a forked child inherits it.
_ONE_THREAD = contextvars.ContextVar("memstep_one_thread", default=False)


def _sweep_cpus() -> int:
    """The CPUs in this process's affinity set when the calling thread is the
    process's only one, else 1.  Another thread would compete with the sweep's
    threads for the CPUs: a multithreaded BLAS keeps a pool that splits each
    long inner product and spins between calls, and on two CPUs a grid-256
    step dealt over two threads beside it took 11 ms against 9 ms on one."""
    try:
        if len(os.listdir("/proc/self/task")) == 1:
            return len(os.sched_getaffinity(0))
    except (OSError, AttributeError):  # no /proc or no affinity: not Linux
        pass
    return 1


def _shares(m: int, size: int) -> list[list[slice]]:
    """The row blocks of an ``(m, size)`` stack, in order, in contiguous shares
    of about equal counts, one per thread: min(``_sweep_cpus()``, blocks) of
    them for a stack of at least ``_THREAD_VALUES`` values built outside
    ``_map_runs``' forked tasks, else one."""
    blocks = _blocks(m, size)
    k = 1
    if m * size >= _THREAD_VALUES and not _ONE_THREAD.get():
        k = min(_sweep_cpus(), len(blocks))
    return [blocks[i * len(blocks) // k : (i + 1) * len(blocks) // k] for i in range(k)]


def _sweep_in_thread(outcomes: list, k: int, sweep, share, args: tuple) -> None:
    """``outcomes[k] = sweep(share, *args)`` in a thread of its own, under its
    own ``_finite`` (numpy keeps its errstate and buffer size per context,
    which a new thread does not inherit); an exception the sweep does not
    return is stored as an update failure, for the stepping thread to raise."""
    try:
        with _finite("update"):
            outcomes[k] = sweep(share, *args)
    except Exception as exc:  # raised again by the stepping thread
        outcomes[k] = (0, exc)


def _sweep_shares(sweep, shares: list, args: tuple) -> list:
    """``[sweep(share, *args) for share in shares]``: the first share in this
    thread, each other in a thread of its own (``_sweep_in_thread``), every one
    joined before this returns or raises."""
    outcomes = [None] * len(shares)
    threads = [threading.Thread(target=_sweep_in_thread, args=(outcomes, k, sweep, shares[k], args))
               for k in range(1, len(shares))]
    for thread in threads:
        thread.start()
    try:
        outcomes[0] = sweep(shares[0], *args)
    finally:
        for thread in threads:
            thread.join()
    return outcomes


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-by-row inner products of two ``(k, n)`` stacks, a BLAS dot per row."""
    return (u[:, None, :] @ v[:, :, None]).reshape(len(u))


def _collapsed(terms) -> SpdOperator:
    """``ScaledSum(terms)``, or one DiagonalScaling when every term is pointwise."""
    lhs = ScaledSum(terms)
    return lhs if lhs.diagonal() is None else DiagonalScaling(lhs.diagonal())


class _finite:
    """Turn the first overflow or NaN inside the block into NonFiniteError, and run
    the block with numpy's ufunc buffer at ``_BUFFER_VALUES`` (the errstate restores it)."""

    __slots__ = ("what", "n", "t", "_errstate")

    def __init__(self, what: str, n: Optional[int] = None, t: float = 0.0):
        self.what, self.n, self.t = what, n, t

    def __enter__(self) -> None:
        self._errstate = np.errstate(over="raise", invalid="raise")
        self._errstate.__enter__()
        np.setbufsize(_BUFFER_VALUES)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._errstate.__exit__(exc_type, exc, tb)
        if exc_type is not None and issubclass(exc_type, FloatingPointError):
            where = "" if self.n is None else f" of step {self.n} (t={self.t:.6g})"
            message = f"non-finite values in the {self.what}{where}: {exc}"
            raise NonFiniteError(message) from None


def _forcing(p: ProblemSpec, t: float) -> np.ndarray:
    """``p.forcing(t)``, which must be a field of the problem's interior shape:
    any other would broadcast silently into the right-hand side."""
    values = p.forcing(t)
    if np.shape(values) != p.initial.shape:
        raise GridMismatchError(
            f"forcing of shape {np.shape(values)} at t={t:.6g} does not match "
            f"the interior {p.initial.shape}"
        )
    return values


def soe_init(p: ProblemSpec) -> SoeState:
    """Initial state: y = u0, all compressed memory functions zero."""
    aux = np.zeros((p.kernel.n_terms,) + p.initial.shape)
    return SoeState(y=p.initial, aux=aux, n=0, t=0.0)


def _block_workspace(blocks: list[slice], size: int) -> list[tuple[slice, np.ndarray, np.ndarray]]:
    """Each of ``blocks``, row slices of an ``(m, size)`` stack, with views of
    its shape into two work buffers of the largest block's size, which every
    block and every step reuses."""
    work, spare = np.empty((2, max(blk.stop - blk.start for blk in blocks), size))
    return [(blk, work[: blk.stop - blk.start], spare[: blk.stop - blk.start]) for blk in blocks]


def _residual_coefficients(cfg: SchemeConfig, rates) -> tuple[np.ndarray, np.ndarray]:
    """The guard's new_i = 1/tau + sigma b_i and old_i = 1/tau - (1-sigma) b_i."""
    b = np.asarray(rates, dtype=float)
    return 1.0 / cfg.tau + cfg.sigma * b, 1.0 / cfg.tau - (1.0 - cfg.sigma) * b


def _residual_plan(cfg: SchemeConfig, rates, workspace, r2: np.ndarray, n2: np.ndarray) -> list:
    """The per-block plan of ``_residual_sums`` over ``workspace`` (a
    ``_block_workspace``): the guard's coefficient columns, the work buffers,
    and views that take each row's inner product into its place in ``r2`` and
    ``n2``."""
    new_coef, old_coef = _residual_coefficients(cfg, rates)
    return [
        (blk, new_coef[blk, None], old_coef[blk, None], res, spare,
         res[:, None, :], res[:, :, None], r2[blk, None, None], n2[blk, None, None])
        for blk, res, spare in workspace
    ]


def _residual_sums(plan: list, new, old, yb, rows, cols) -> None:
    """For each block of ``plan`` (``_residual_plan``), the squared L2 norms of
    the residuals new_i y_i' - old_i y_i - ybar and of the fields y_i' into its
    rows of r2 and n2; ``new`` and ``old`` are the stacks as ``(m, size)``,
    ``rows`` and ``cols`` the new one as ``(m, 1, size)`` and ``(m, size, 1)``."""
    for blk, new_col, old_col, res, spare, res_rows, res_cols, r2_blk, n2_blk in plan:
        np.multiply(new_col, new[blk], out=res)
        np.multiply(old_col, old[blk], out=spare)
        res -= spare
        res -= yb
        np.matmul(res_rows, res_cols, out=r2_blk)
        np.matmul(rows[blk], cols[blk], out=n2_blk)


def _aux_residual_guard(cfg: SchemeConfig, grid, rates, sums=None) -> Callable[..., None]:
    """``guard(ybar, aux_new, aux_old)`` raises AuxiliaryResidualError,
    naming the first failing rate, unless every memory field meets its implicit
    equation to rounding: the residual new_i y_i' - old_i y_i - ybar (new_i =
    1/tau + sigma b_i, old_i = 1/tau - (1-sigma) b_i) must stay within 1e-12
    (new_i |y_i'| + |ybar|) in the L2 norm, which bounds |old_i y_i| too by the
    update identity, at any b_i tau.

    The guard takes the squared norms with ``_residual_sums`` in a block
    workspace of its own, so a call allocates no field-sized temporary; given
    ``sums``, the ``(r2, n2)`` arrays a caller fills with ``_residual_sums``
    before each call (the stepper, a share of blocks per thread), it only
    judges them."""
    new_coef, _ = _residual_coefficients(cfg, rates)
    m, size = len(new_coef), grid.shape[0] * grid.shape[1]
    root_area = math.sqrt(grid.cell_area)
    plan = []
    if sums is None:
        sums = np.empty(m), np.empty(m)  # squared norms, one per field
        plan = _residual_plan(cfg, rates, _block_workspace(_blocks(m, size), size), *sums)
    r2, n2 = sums

    def guard(ybar, aux_new, aux_old) -> None:
        yb = ybar.reshape(size)
        if plan:
            _residual_sums(plan, aux_new.reshape(m, size), aux_old.reshape(m, size), yb,
                           aux_new.reshape(m, 1, size), aux_new.reshape(m, size, 1))
        residuals = np.sqrt(r2)
        bounds = 1e-12 * (new_coef * np.sqrt(n2) + math.sqrt(np.vdot(yb, yb)))
        passed = residuals <= bounds  # a NaN fails
        if not passed.all():
            i = int(np.argmin(passed))
            raise AuxiliaryResidualError(
                f"auxiliary update residual {residuals[i] * root_area:.3e} exceeds rounding "
                f"bound {bounds[i] * root_area:.3e} (rate b={rates[i]})"
            )

    return guard


def soe_stepper(
    p: ProblemSpec, cfg: SchemeConfig, with_energy: bool = False
) -> Callable[[SoeState], SoeState]:
    """The compressed step for ``p`` and ``cfg``, with the problem's mass,
    reaction and forcing; its coefficients, left-hand side and guard built once.

    The implicit auxiliary equation solves to y_i' = decay_i y_i + (tau/d_i)
    ybar, with d_i = 1 + sigma b_i tau, decay_i = (1 - (1-sigma) b_i tau)/d_i
    and ybar = sigma y' + (1-sigma) y; in the memory term it leaves one
    shifted SPD solve for y'.  A left-hand side of pointwise terms collapses
    into one DiagonalScaling.  The first overflow or NaN, in the coefficients
    or in a step, raises NonFiniteError.

    After the solve, one sweep over the memory-field blocks updates each
    field, takes the guard's squared norms and, ``with_energy``, the field's
    energy form.  On a stack of at least ``_THREAD_VALUES`` values the blocks
    are dealt in contiguous shares over the CPUs in the affinity set, one
    thread each, every share with its own work buffers and joined before the
    step goes on (``_sweep_shares``); each field is still swept by one thread
    in the same order, so states and energies keep their bits for any number
    of threads.  After the join the guard judges every field from the shared
    norms, and an error is the one a sweep on one thread raises: an update
    failure, in the lowest failing block, before the guard's verdict, an
    energy failure after it.

    ``with_energy`` makes each step also take the new state's ``energy``,
    bit for bit as :func:`energy`, and raise NotSpdError as it does.
    """
    sig, tau = cfg.sigma, cfg.tau
    a, b = np.asarray(p.kernel.weights), np.asarray(p.kernel.rates)
    grid = p.grid
    m, size = len(b), grid.shape[0] * grid.shape[1]
    with _finite("scheme coefficients"):
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
        lhs = _collapsed(terms)
        sums = np.empty(m), np.empty(m)
        shares = []
        for blocks in _shares(m, size):
            workspace = _block_workspace(blocks, size)
            update = [(blk, decay[blk, None], gain[blk, None], work) for blk, work, _ in workspace]
            shares.append((update, _residual_plan(cfg, b, workspace, *sums), blocks))
        guard = _aux_residual_guard(cfg, grid, b, sums)
        one_share = len(shares) == 1

    def sweep(share, old, new, yb, rows, cols, aux, forms):
        """One share's part of a step: ``None``, or the phase (0 update, 1
        energy) and FloatingPointError of its first failure."""
        update, plan, blocks = share
        phase = 0
        try:
            for blk, decay_col, gain_col, work in update:
                np.multiply(decay_col, old[blk], out=new[blk])
                np.multiply(gain_col, yb, out=work)
                new[blk] += work
            _residual_sums(plan, new, old, yb, rows, cols)
            if forms is not None:
                phase = 1
                for blk in blocks:
                    forms[blk] = _memory_forms(p.operator, aux[blk], new[blk])
        except FloatingPointError as exc:
            return phase, exc
        return None

    def step(s: SoeState) -> SoeState:
        y, old = s.y, s.aux.reshape(m, size)
        block = _finite("update", s.n + 1, s.t + tau)
        with block:
            mem = (mem_weights @ old).reshape(grid.shape)
            mem += mem_own * y
            rhs = p.mass.apply_values(y)
            rhs -= tau * p.operator.apply_values(mem)
            if p.reaction is not None:
                rhs -= ((1.0 - sig) * tau) * p.reaction.apply_values(y)
            if p.forcing is not None:  # evaluated at the mid level t_n + sigma*tau
                rhs += tau * _forcing(p, s.t + sig * tau)
            del mem  # with rhs, freed before the sweep: room for a second share's buffers
            y_new = cg_solve(lhs, rhs, tol=cfg.cg_tol)
            del rhs
            ybar = sig * y_new + (1.0 - sig) * y
            aux = np.empty(s.aux.shape)
            new = aux.reshape(m, size)
            forms = np.empty(m) if with_energy else None
            args = (old, new, ybar.reshape(size), aux.reshape(m, 1, size),
                    aux.reshape(m, size, 1), aux, forms)
            outcomes = (sweep(shares[0], *args),) if one_share else _sweep_shares(sweep, shares, args)
            failure = None
            if any(outcomes):  # the first share's of the earliest phase
                failure = min((outcome for outcome in outcomes if outcome), key=lambda f: f[0])
                if failure[0] == 0:
                    raise failure[1]
            guard(ybar, aux, s.aux)
            e = None
            if with_energy:
                block.what = "energy"
                if failure:
                    raise failure[1]
                e = _composite_energy(p, y_new, new, forms, a)
        return SoeState(y=y_new, aux=aux, n=s.n + 1, t=s.t + tau, energy=e)

    return step


# Below this c = tau*b the product rule's start and end factors come from
# their series: the subtractions that define them cancel about log10(2/c)
# digits there.  The series' 20 terms leave a remainder under 1e-21.
_SERIES_CUTOFF = 1.0
_SERIES_COEFFICIENTS = tuple(1.0 / math.factorial(k + 2) for k in range(20))


def _edge_factors(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and end factors ``(expm1(c) - c)/c**2`` and
    ``(c + expm1(-c))/c**2`` for c = tau*b >= 0, the series
    sum_k (+-c)**k / (k+2)! = 1/2 +- c/6 + c**2/24 +- ... in Horner form below
    ``_SERIES_CUTOFF``, the closed forms above it (the start factor's
    overflows past c = 709)."""
    series = c < _SERIES_CUTOFF
    cs = np.where(series, _SERIES_CUTOFF, c)
    start, end = (np.expm1(cs) - cs) / cs**2, (cs + np.expm1(-cs)) / cs**2
    start_series, end_series = np.zeros_like(c), np.zeros_like(c)
    for coefficient in reversed(_SERIES_COEFFICIENTS):
        start_series = start_series * c + coefficient
        end_series = end_series * -c + coefficient
    return np.where(series, start_series, start), np.where(series, end_series, end)


def _product_trapezoid_weights(
    kernel: PronySeries, tau: float, max_lag: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lag tables of the product trapezoidal rule for int_0^{n*tau} ktil(t-s) g(s) ds.

    Each exponential term of the kernel is integrated exactly against the
    piecewise-linear interpolant of g, which keeps the rule accurate even
    for stiff decay rates where plain node sampling of the kernel fails.
    Returns ``(start, inner, end)``: a level L steps before t_n weighs
    ``start[L]`` if it is level 0 (it has only a right half-hat) and
    ``inner[L]`` otherwise, for lags L = 1..max_lag (lag 0 is unused and 0);
    the level at t_n itself (the implicit one) weighs ``end``; all include tau.
    """
    a = np.asarray(kernel.weights)
    c = tau * np.asarray(kernel.rates)
    big = c > 700.0

    # A term's lag-L weight is a factor times exp(-c L); the factors tend to
    # 1/2, 1, 1/2 as c -> 0, the edge ones from their series (_edge_factors).
    # An inner level's hat is a right and a left half-hat, so its factor,
    # 4 sinh(c/2)**2 / c**2, is the start factor plus the end factor.  Past
    # c = 700, where expm1(c) overflows, the start and inner factors carry one
    # exp(-c), which makes both 1/c**2 to rounding, and the table exp(-c (L-1));
    # there expm1(-c) is -1, so the end factor is (1 - 1/c)/c, which never overflows.
    start_factor, end_factor = _edge_factors(np.where(big, 1.0, c))
    inner_factor = start_factor + end_factor
    end_factor[big] = (1.0 - 1.0 / c[big]) / c[big]
    start_factor[big] = inner_factor[big] = c[big] ** -2.0

    end_weight = tau * float(a @ end_factor)
    # decay[i, L] = exp(-c_i * L) for lags L = 0..max_lag, exp(-c_i * (L-1)) past c = 700
    lags = np.arange(max_lag + 1, dtype=float)
    decay = np.exp(-c[:, None] * np.where(big[:, None], np.maximum(lags - 1.0, 0.0), lags))
    start = tau * (a @ (decay * start_factor[:, None]))
    inner = tau * (a @ (decay * inner_factor[:, None]))
    start[0] = inner[0] = 0.0
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
    of the two integrals, by linearity.  Identity mass and no reaction only;
    the first overflow or NaN, in the tables or in a step, raises NonFiniteError.
    """
    if not p.is_plain:
        raise SchemeConfigError("the full-history baseline handles only the plain problem")
    sig, tau = cfg.sigma, cfg.tau
    with _finite("scheme coefficients"):
        start, inner, w_end = _product_trapezoid_weights(p.kernel, tau, n_steps)
        lhs = _collapsed([(1.0, IdentityOperator()), (sig * tau * w_end, p.operator)])
    levels = np.empty((n_steps + 1,) + p.initial.shape)
    levels[0] = p.initial
    flat = levels.reshape(n_steps + 1, -1)
    weights = np.empty(n_steps)
    integral, t = 0.0, 0.0  # int_0^{t_n}, before the operator is applied
    steps = _finite("history update")  # one block for the run, naming the step in progress
    with steps:
        for n in range(n_steps):
            steps.n, steps.t = n + 1, t + tau
            # int_0^{t_{n+1}} over the known levels 0..n, at lags n+1..1 behind
            # t_{n+1}; the endpoint weight on the new level is implicit
            w = weights[: n + 1]
            w[0], w[1:] = start[n + 1], inner[n:0:-1]
            known = (w @ flat[: n + 1]).reshape(p.initial.shape)
            blend = sig * known + (1.0 - sig) * integral
            rhs = levels[n] - tau * p.operator.apply_values(blend)
            if p.forcing is not None:
                rhs += tau * _forcing(p, t + sig * tau)
            levels[n + 1] = cg_solve(lhs, rhs, tol=cfg.cg_tol)
            integral = known + w_end * levels[n + 1]
            t += tau
    return levels


def _memory_forms(operator: SpdOperator, fields: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The forms (A y_i, y_i) of a block of memory fields, without the cell
    area: ``fields`` the ``(k, n1-1, n2-1)`` block, ``rows`` the same as ``(k, size)``."""
    applied = operator.apply_values(fields)
    return _row_dots(applied.reshape(len(applied), -1), rows)


def _composite_energy(
    p: ProblemSpec, y: np.ndarray, rows: np.ndarray, forms: np.ndarray, weights: np.ndarray
) -> float:
    """(|y|_mass^2 + sum_i a_i area*forms_i)**0.5 from the ``_memory_forms`` of
    every memory field (``rows``, ``(m, size)``, in the stack's order); a form
    negative beyond rounding raises NotSpdError, one within it counts as 0."""
    if forms.min() < 0.0:  # else the check and the clamp change nothing
        if np.any(forms < -1e-12 * np.maximum(_row_dots(rows, rows), 1e-300)):
            raise NotSpdError(f"quadratic form is negative: {forms.min() * p.grid.cell_area}")
        forms = np.maximum(forms, 0.0)
    total = a_norm(p.mass, y) ** 2 + float(np.dot(weights, forms * p.grid.cell_area))
    return math.sqrt(total)


def energy(p: ProblemSpec, s: SoeState) -> float:
    """Composite stability energy (|y|_mass^2 + sum_i a_i |y_i|_A^2)**0.5.

    The A-forms of the memory fields come from applying the operator to
    blocks of the stack; a form negative beyond rounding raises NotSpdError.
    This is the reference for the energies of a stepper built ``with_energy``.
    """
    m = len(s.aux)
    with _finite("energy", s.n, s.t):
        rows, forms = s.aux.reshape(m, -1), np.empty(m)
        for blk in _blocks(m, rows.shape[1]):
            forms[blk] = _memory_forms(p.operator, s.aux[blk], rows[blk])
        return _composite_energy(p, s.y, rows, forms, np.asarray(p.kernel.weights))
