"""Time integration for evolution equations with a convolution memory term.

Two steppers discretize the same problem
``B dv/dt + int_0^t ktil(t-s) A v(s) ds + C v = phi(t)``:

* the compressed stepper keeps one auxiliary field per exponential term of
  the kernel, all m of them in one ``(m, n1-1, n2-1)`` array, and advances
  everything with a two-level weighted scheme, solving a single shifted SPD
  system per step; it sweeps the fields a cache-sized tile at a time and,
  deals the per-field work over the threads its caller gives it, a thread
  per share of fields, with the same results for any number of threads;
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
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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
        for key, value in (("tau", self.tau), ("cg_tol", self.cg_tol)):
            if not 0 < value < math.inf:  # a NaN fails too
                raise SchemeConfigError(f"{key}={value} must be > 0 and finite")


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
        if not np.isfinite(initial).all():
            raise ValueError("initial values must be finite")
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


class SoeState(NamedTuple):
    """Compressed stepper state: the solution ``y``, an ``(n1-1, n2-1)`` array of
    interior values on the problem's grid, plus the m memory fields, held as
    one array ``aux`` of shape ``(m, n1-1, n2-1)``.  No step writes either.
    A named tuple, so its fields are read-only and building one, on every
    step, costs about half what a frozen dataclass's ``__init__`` does."""

    y: np.ndarray
    aux: np.ndarray
    n: int
    t: float
    energy: Optional[float] = None  # the composite energy: ``soe_init``'s, or a stepper's ``with_energy``


# Temporaries the size of the memory-field stack are built a block at a time,
# each holding at most this many values: a run of whole fields or, where one
# field is larger, one field's tile (``_tiles``).  A step sweeps each tile's
# update, guard sums and energy forms in turn, so the tile, its old values
# and its share's work buffer, 256 kB at 32,768, stay in a core's
# 2 MB L2 cache.  Step times of ``run`` steps (12 terms, with energy, BLAS on
# one thread) as a ratio to those at 32,768, whose own time is in brackets:
# the mean of two sweeps on a 2-CPU host, the three sizes stepped in turn in
# one process.  On two CPUs, ``run`` deals steps from grid 172 up over threads.
#
#   grid   one CPU: 16k  32k [us]  64k    two CPUs: 16k  32k [us]  64k
#     64            1.05    [473]  0.99             1.05    [463]  1.01
#     96            1.03    [906]  1.07             1.01    [799]  1.07
#    128            0.96   [1558]  1.10             0.97   [1576]  1.10
#    160            1.02   [2762]  1.10             1.00   [2258]  1.10
#    192            1.00   [3640]  1.04             1.20   [4146]  0.83
#    224            1.00   [4981]  1.12             1.33   [5280]  0.91
#    256            0.95   [7608]  1.17             1.23   [6498]  0.99
#
# Smaller tiles make a dealt step hand the interpreter lock between its
# threads more often than they save.  At 65,536 a grid-256 field is one block
# that leaves L2; that size is faster only for dealt steps on grids 192-224,
# whose fields 32,768 splits into tiles of 18-25k values.
_BLOCK_VALUES = 1 << 15


# numpy's ufunc buffer, 8,192 values by default, while a block runs under
# ``_finite`` or a step in its stepper's ``_numpy_context``.  Where a field
# row is shorter than the buffer, numpy copies a broadcast coefficient column
# into it chunk by chunk, which made a (k, N) block times a (k, 1) column
# 3-4x slower than times a scalar on grids up to about 90.  Buffering
# changes only how numpy walks the arrays, not one product or sum, so outputs
# keep their bits.  Of 16, 64, 256 and 1,024, swept on grids 16-256, 64 was
# within noise of the fastest on every grid.
_BUFFER_VALUES = 64


def _blocks(m: int, size: int) -> list[slice]:
    """Row slices of an ``(m, size)`` stack: runs of whole fields of at most
    ``_BLOCK_VALUES`` values, or single fields where one field is larger,
    which ``_tiles`` then splits."""
    per = max(1, _BLOCK_VALUES // size)
    return [slice(i, min(i + per, m)) for i in range(0, m, per)]


def _tiles(size: int) -> list[slice]:
    """Column slices of a block of ``size``-value fields: the whole row when
    it fits in ``_BLOCK_VALUES`` values, else the fewest contiguous tiles
    that do, of lengths that differ by at most one."""
    k = -(-size // _BLOCK_VALUES)
    return [slice(j * size // k, (j + 1) * size // k) for j in range(k)]


def _shares(m: int, size: int, threads: int) -> list[list[slice]]:
    """The row blocks of an ``(m, size)`` stack, in order, in min(``threads``,
    blocks) contiguous shares of about equal counts, one per thread."""
    blocks = _blocks(m, size)
    k = min(threads, len(blocks))
    return [blocks[i * len(blocks) // k : (i + 1) * len(blocks) // k] for i in range(k)]


def _numpy_context() -> contextvars.Context:
    """A copy of the calling context in which numpy raises FloatingPointError
    on overflow and invalid operations and runs its ufuncs with the
    ``_BUFFER_VALUES`` buffer.  numpy keeps its errstate and buffer size in a
    context variable, so code run in the copy (``Context.run``) takes that
    state and leaves the caller's as it was; a context runs in one thread at
    a time, so each thread needs its own."""
    context = contextvars.copy_context()
    context.run(np.seterr, over="raise", invalid="raise")
    context.run(np.setbufsize, _BUFFER_VALUES)
    return context


def _sweep_in_thread(outcomes: list, k: int, context: contextvars.Context, sweep, share,
                     args: tuple) -> None:
    """``outcomes[k] = sweep(share, *args)`` in a thread of its own, run in
    ``context`` (``_numpy_context``: a new thread does not inherit the
    stepping thread's numpy state); an exception the sweep does not return
    is stored as an update failure, for the stepping thread to raise."""
    try:
        outcomes[k] = context.run(sweep, share, *args)
    except Exception as exc:  # raised again by the stepping thread
        outcomes[k] = (0, exc)


def _sweep_shares(sweep, shares: list, contexts: list, args: tuple):
    """``sweep(share, *args)`` for each share, the first in this thread, each
    other in a thread of its own run in its context of ``contexts``
    (``_sweep_in_thread``), every one joined before this returns or raises:
    the failure, ``(phase, error)`` or None, of the earliest phase in the
    lowest share."""
    outcomes = [None] * len(shares)
    threads = [threading.Thread(target=_sweep_in_thread,
                                args=(outcomes, k, contexts[k], sweep, shares[k], args))
               for k in range(1, len(shares))]
    for thread in threads:
        thread.start()
    try:
        outcomes[0] = sweep(shares[0], *args)
    finally:
        for thread in threads:
            thread.join()
    return min(filter(None, outcomes), key=lambda failure: failure[0], default=None)


def _collapsed(terms) -> SpdOperator:
    """``ScaledSum(terms)``, or one DiagonalScaling when every term is pointwise."""
    lhs = ScaledSum(terms)
    return lhs if lhs.diagonal() is None else DiagonalScaling(lhs.diagonal())


def _non_finite(what: str, n: Optional[int], t: float, exc: FloatingPointError) -> NonFiniteError:
    """The NonFiniteError for numpy's FloatingPointError ``exc`` in ``what``,
    of step n at time t unless n is None."""
    where = "" if n is None else f" of step {n} (t={t:.6g})"
    return NonFiniteError(f"non-finite values in the {what}{where}: {exc}")


class _finite:
    """Turn the first overflow or NaN inside the block into NonFiniteError, and run
    the block with numpy's ufunc buffer at ``_BUFFER_VALUES`` (the errstate restores it).
    For one-off blocks: a step runs in its stepper's ``_numpy_context`` instead,
    which costs far less to enter than this block's errstate and buffer switch."""

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
            raise _non_finite(self.what, self.n, self.t, exc) from None


def _forcing(p: ProblemSpec, n: int, t: float) -> np.ndarray:
    """``p.forcing(t)`` for step n, which must be a finite field of the
    problem's interior shape: any other shape would broadcast silently into
    the right-hand side, and a NaN would reach the solve."""
    values = p.forcing(t)
    if np.shape(values) != p.initial.shape:
        raise GridMismatchError(
            f"forcing of shape {np.shape(values)} at t={t:.6g} does not match "
            f"the interior {p.initial.shape}"
        )
    if not np.isfinite(values).all():
        raise NonFiniteError(f"non-finite values in the forcing of step {n} (at t={t:.6g})")
    return values


def soe_init(p: ProblemSpec) -> SoeState:
    """Initial state: y = u0, all compressed memory functions zero, with its
    energy |u0|_mass: every memory form is 0 there, so this is the arithmetic
    of :func:`energy`, bit for bit, with no sweep of the zero stack."""
    aux = np.zeros((p.kernel.n_terms,) + p.initial.shape)
    with _finite("energy", 0, 0.0):
        e = math.sqrt(a_norm(p.mass, p.initial) ** 2 + 0.0)
    return SoeState(y=p.initial, aux=aux, n=0, t=0.0, energy=e)


def _residual_coefficients(cfg: SchemeConfig, rates) -> tuple[np.ndarray, np.ndarray]:
    """The guard's new_i = 1/tau + sigma b_i and old_i = 1/tau - (1-sigma) b_i."""
    b = np.asarray(rates, dtype=float)
    return 1.0 / cfg.tau + cfg.sigma * b, 1.0 / cfg.tau - (1.0 - cfg.sigma) * b


class _Tile:
    """One tile of a share's sweep plan (``_plan``): ``at`` indexes its values
    in an ``(m, size)`` memory stack, rows ``rows`` (a block of several
    fields, as a 2-D view; ``...`` when that block is the whole stack) or
    columns ``cols`` of field ``rows.start`` (as a 1-D view).  Its work
    buffer ``work`` is a view of that shape into the share's,
    ``decay`` and ``gain`` its rows' update coefficients, shaped to
    broadcast against its view, ``sums`` a view of its fields' places in
    each row of the guard's sums, and ``forms`` one in the energy forms."""

    __slots__ = ("at", "rows", "cols", "add", "work", "coef", "forms", "decay", "gain", "sums")


def _pointwise(operator: SpdOperator):
    """The coefficient, a field flattened or a scalar, of a DiagonalScaling whose
    application is its own, the product by the coefficient: a sweep writes that
    product into a work buffer for the energy forms, with the same bits.  None
    for any other operator, whose forms come from ``apply_values``."""
    if isinstance(operator, DiagonalScaling) and \
            type(operator).apply_values is DiagonalScaling.apply_values:
        coef = operator.coefficient
        return coef.reshape(-1) if coef.ndim else coef
    return None


def _column(values: np.ndarray, t: _Tile) -> np.ndarray:
    """Per-field ``values`` for tile t's rows, shaped to broadcast against its view."""
    return values[t.rows, None] if t.work.ndim == 2 else values[t.rows]


def _plan(blocks: list[slice], m: int, size: int, forms: Optional[np.ndarray] = None,
          coef=None) -> list[_Tile]:
    """The tiles (``_tiles``) of ``blocks``, row slices of an ``(m, size)``
    stack, in order: a block of several fields is one tile, a single field
    one per column slice.  Each has a view of its shape, ``work``, into a
    work buffer of the largest tile's size, which every tile and every step
    reuses, for the update and then the forms; ``add`` marks a tile past its field's first, which
    adds its sums to the field's, in order.  ``forms``, when given, takes
    the energy forms (``_tile_forms``) of each tile for a pointwise
    operator, whose coefficient ``coef`` (``_pointwise``) a tile holds its
    part of, and of each block's last tile, from whole fields, for any other."""
    cuts = _tiles(size)
    width = max(cut.stop - cut.start for cut in cuts)
    work = np.empty(max(blk.stop - blk.start for blk in blocks) * width)
    plan = []
    for blk in blocks:
        k = blk.stop - blk.start
        for j, cut in enumerate(cuts):
            t = _Tile()
            t.rows, t.cols, t.add = blk, cut, j > 0
            values = k * (cut.stop - cut.start)
            t.work = work[:values]
            if k > 1:  # never tiled
                t.at, t.work = blk, t.work.reshape(k, -1)
                if k == m:
                    t.at = ...
            else:
                t.at = (blk.start, cut)
            t.coef = None if coef is None else coef[cut] if coef.ndim else coef
            with_forms = forms is not None and (coef is not None or j == len(cuts) - 1)
            t.forms = forms[blk] if with_forms else None
            plan.append(t)
    return plan


# The rows of the guard's ``(5, m)`` sums, a place per field in each: y_i'.y_i,
# y_i.ybar, |y_i'|^2, y_i'.ybar and |ybar|^2.  The projection r_i.y_i' is new_i,
# -old_i and -1 times rows _SQUARE, _CROSS and _NEW_BAR, and r_i.ybar the same
# times the row after each, so the guard forms both from three runs of 2m values.
_CROSS, _OLD_BAR, _SQUARE, _NEW_BAR, _BAR_SQUARE = range(5)


def _residual_plan(cfg: SchemeConfig, rates, blocks: list[slice], size: int, sums: np.ndarray,
                   decay: np.ndarray, gain: np.ndarray, forms: Optional[np.ndarray] = None,
                   coef=None) -> list[_Tile]:
    """``_plan(blocks, len(rates), size, forms, coef)``, each tile with its
    rows' columns of the update's ``decay`` and ``gain`` and, as ``sums``,
    views of its fields' places in the rows of the guard's ``(5, m)`` sums.
    The columns must meet new_i decay_i = old_i and new_i gain_i = 1 to 1e-12
    relative, with the guard's new_i and old_i (``_residual_coefficients``,
    derived apart), or AuxiliaryResidualError names the first rate that
    breaks them: a column from the wrong rows fails when the stepper is built."""
    new, old = _residual_coefficients(cfg, rates)
    plan = _plan(blocks, len(rates), size, forms, coef)
    for t in plan:
        t.decay, t.gain, t.sums = _column(decay, t), _column(gain, t), tuple(sums[:, t.rows])
        n, o = new[t.rows], old[t.rows]
        errors = np.maximum(abs(n * t.decay.ravel() - o) / (n + abs(o)), abs(n * t.gain.ravel() - 1))
        if not errors.max() <= 1e-12:  # a NaN fails
            j = t.rows.start + int(np.argmax(~(errors <= 1e-12)))
            raise AuxiliaryResidualError(f"update coefficients break new*decay = old or new*gain = 1"
                                         f" by {errors.max():.3e} (rate b={rates[j]})")
    return plan


def _dots(u: np.ndarray, v: np.ndarray, out: np.ndarray, add: bool) -> None:
    """The row-by-row inner products of ``u``, a view of one tile, with ``v``,
    another view of it or its columns of ybar, into ``out``, the plan's view
    of its fields' places, or added to them: np.vecdot, or with ybar a BLAS
    gemv, for a block of fields, np.dot for a single field (1-D), which
    unlike vecdot lets another sweep thread run."""
    if u.ndim == 2:
        (np.vecdot if v.ndim == 2 else np.dot)(u, v, out=out)
    elif add:
        out[0] += np.dot(u, v)
    else:
        out[0] = np.dot(u, v)


def _residual_sums(t: _Tile, new: np.ndarray, old: np.ndarray, yb: np.ndarray) -> None:
    """Tile t's part of its fields' |y_i'|^2, y_i'.y_i, y_i'.ybar and y_i.ybar
    into its views of the guard's sums, from its views ``new`` and ``old`` of
    the two stacks and its columns ``yb`` of ybar: four row reductions."""
    sums = t.sums
    _dots(new, new, sums[_SQUARE], t.add)
    _dots(new, old, sums[_CROSS], t.add)
    _dots(new, yb, sums[_NEW_BAR], t.add)
    _dots(old, yb, sums[_OLD_BAR], t.add)


def _aux_residual_guard(cfg: SchemeConfig, grid, rates,
                        sums: np.ndarray) -> Callable[[np.ndarray], None]:
    """``guard(ybar)`` raises AuxiliaryResidualError, naming the first failing
    rate, unless every memory field meets its implicit equation to rounding.
    The residual r_i = new_i y_i' - old_i y_i - ybar (``_residual_coefficients``)
    is judged by its projections r_i.y_i' = new_i |y_i'|^2 - old_i y_i'.y_i -
    y_i'.ybar and r_i.ybar = new_i y_i'.ybar - old_i y_i.ybar - |ybar|^2, each
    divided by c_i, the power of two above new_i + |old_i| + 1 (exactly, and
    then no product exceeds its sum, so the verdict overflows only where a
    sum does).  Each must lie within (1e-12 + g) (new_i |y_i'| + |ybar|) / c_i
    times its direction's norm, plus (N + 4) 2^-1074 for underflow, with N
    values a field and g = 2 (N + 6) 2^-53.

    1e-12 (new_i |y_i'| + |ybar|) allows for |r_i|, which an honest update
    keeps to about 1e-15 of it while its coefficients meet the identities
    ``_residual_plan`` checks to a few ulps (the built-in kernels' do to
    4.4e-16).  g allows for the worst-case rounding of the sums, of N
    products in any order, and of the verdict: (N + 4) 2^-53 of
    new_i |y_i'|^2 + |old_i y_i'.y_i| + |y_i'.ybar|, or of its ybar
    counterpart, which is at most 2 (new_i |y_i'| + |ybar|) times the
    direction's norm as |old_i y_i| <= new_i |y_i'| + |ybar| + |r_i|.  So an
    honest step passes at any scale, a zero field or ybar too.  g is 8.8e-13
    on grid 64 and 1.4e-11 on grid 256, where constant honest fields came to
    1.9e-14.  A perturbation nearly orthogonal to both directions passes: of
    100 random ones of size 1e-9 |y_i'|, 0-3 did on grid 32 and all on grid
    256 (11-19 of 1e-8, 1-3 of 3e-8); so does one entry off by 1e-9 of
    itself where it is small in its field.

    The caller fills the sweep's rows of ``sums`` with ``_residual_sums``;
    the guard puts |ybar|^2 in row ``_BAR_SQUARE`` and works on rows of m or
    2m values, with no Python scalar operand, which costs numpy more."""
    new, old = _residual_coefficients(cfg, rates)
    m, area, size = len(new), grid.cell_area, math.prod(grid.shape)
    scale = np.ldexp(1.0, np.frexp(new + abs(old) + 1.0)[1])  # c_i
    weights = np.tile(np.array([new, old, np.ones(m)]) / scale, 2)
    flat = sums.reshape(-1)
    runs = [flat[row * m:(row + 2) * m] for row in (_SQUARE, _CROSS, _NEW_BAR)]
    (new_weights, old_weights, bar_weights), (squares, crosses, bars) = weights, runs
    scales = (1e-12 + 2 * (size + 6) * 2.0**-53) * weights[::2, :m]
    floors = np.full((2, m), (size + 4) * 2.0**-1074)
    roots, terms, limits = np.empty((3, 2, m))  # roots: |y_i'| and |ybar|
    (field_root, bar_root), (field_term, bar_term) = roots, terms
    bounds, (products, spare), passed = np.empty(m), np.empty((2, 2 * m)), np.empty(2 * m, bool)
    square, bar_square, flat_limits = sums[_SQUARE], sums[_BAR_SQUARE], limits.reshape(-1)

    def guard(ybar) -> None:
        norm2 = np.vdot(ybar, ybar)
        bar_square.fill(norm2)
        bar_root.fill(math.sqrt(norm2))
        np.sqrt(square, field_root)
        np.multiply(scales, roots, terms)
        np.add(field_term, bar_term, bounds)
        np.multiply(bounds, roots, limits)
        np.add(limits, floors, limits)
        np.multiply(new_weights, squares, products)
        np.multiply(old_weights, crosses, spare)
        np.subtract(products, spare, products)
        np.multiply(bar_weights, bars, spare)
        np.subtract(products, spare, products)
        np.abs(products, products)
        if np.count_nonzero(np.less_equal(products, flat_limits, passed)) < 2 * m:  # a NaN fails
            i = int(np.argmin(passed.reshape(2, m).all(axis=0)))
            k, onto = (i, "the new field") if not passed[i] else (m + i, "ybar")
            c = float(scale[i]) * area
            raise AuxiliaryResidualError(
                f"auxiliary update residual's projection onto {onto} {float(products[k]) * c:.3e} "
                f"exceeds rounding bound {float(flat_limits[k]) * c:.3e} (rate b={rates[i]})")

    return guard


def soe_stepper(
    p: ProblemSpec, cfg: SchemeConfig, with_energy: bool = False, threads: int = 1
) -> Callable[[SoeState], SoeState]:
    """The compressed step for ``p`` and ``cfg``, with the problem's mass,
    reaction and forcing; its coefficients, left-hand side and guard built
    once, each tile's update coefficients checked against the guard's.

    The implicit auxiliary equation solves to y_i' = decay_i y_i + (tau/d_i)
    ybar, with d_i = 1 + sigma b_i tau, decay_i = (1 - (1-sigma) b_i tau)/d_i
    and ybar = sigma y' + (1-sigma) y; in the memory term it leaves one
    shifted SPD solve for y'.  A left-hand side of pointwise terms collapses
    into one DiagonalScaling.  The first overflow or NaN, in the coefficients
    or in a step, raises NonFiniteError.

    The stepper sets up numpy's state for its steps once: it copies the
    context it is built in and sets numpy there to raise on overflow and
    invalid values and to the ``_BUFFER_VALUES`` ufunc buffer
    (``_numpy_context``), and runs each step in that context, which costs far less than
    switching the errstate and buffer size on every step.  So a step takes
    the caller's numpy state as it was when the stepper was built, not as it
    is at each call, leaves the caller's as it is, and runs the same in any
    thread, one at a time.

    After the solve, one sweep over the memory-field blocks, the only code
    that reads or writes a step's memory fields, takes them a tile at a time
    (a block, or a field's ``_tiles`` where one field is larger than a
    block) and updates each, takes the guard's four row sums
    (``_residual_sums``) and, ``with_energy``, the energy forms, while the
    tile and its share's work buffer stay in cache; a field's sums are
    added over its tiles in order.  A tile makes 3 update passes, 4 guard
    reductions and 2 passes for its forms.
    The blocks are dealt in min(``threads``, blocks) contiguous shares
    (``_shares``), each with the work buffer of its ``_residual_plan``.  A
    single share the step sweeps itself; of several, ``_sweep_shares`` runs
    the first in the stepping thread and each other in a thread of its own,
    in a context of its own built with its plan, joined before the step goes
    on.  The stepper takes ``threads`` as given: whether dealing pays on this
    host is the caller's choice (``experiments._sweep_threads``).
    Each field is swept by one thread in the same order, so states and
    energies keep their bits for any number of threads.  After the join the
    guard judges every field from the sums the sweep took, and an error is
    the one a sweep on one thread raises: an update failure, in the lowest
    failing tile, before the guard's verdict, an energy failure after it.

    ``with_energy`` makes each step also take the new state's ``energy``,
    bit for bit as :func:`energy`, and raise NotSpdError as it does.
    """
    if threads < 1:
        raise SchemeConfigError(f"threads={threads} must be >= 1")
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
        # the guard's sums and the energy forms, one per field
        sums, forms = np.empty((5, m)), np.empty(m)
        coef = _pointwise(p.operator)
        shares = [_residual_plan(cfg, b, blocks, size, sums, decay, gain,
                                 forms if with_energy else None, coef)
                  for blocks in _shares(m, size, threads)]
        guard = _aux_residual_guard(cfg, grid, b, sums)
    # the step's numpy state, and one context of its own for each other share's thread
    contexts = [_numpy_context() for _ in shares]
    context = contexts[0]
    operator, mass, reaction = p.operator, p.mass, p.reaction
    plain_mass = type(mass) is IdentityOperator  # its application is a copy of y
    single = shares[0] if len(shares) == 1 else None

    def sweep(plan, old, new, yb, aux):
        """One share's part of a step, a tile at a time: ``None``, or the phase
        (0 update, 1 energy) and FloatingPointError of its first failure.  An
        energy failure stops the share's forms, not its updates, which may
        still fail first."""
        failure = None
        for t in plan:
            try:
                if t.at is ...:  # the tile is the whole stack
                    new_t, old_t, yb_t = new, old, yb
                else:
                    new_t, old_t, yb_t = new[t.at], old[t.at], yb[t.cols]
                np.multiply(t.decay, old_t, out=new_t)
                np.multiply(t.gain, yb_t, out=t.work)
                new_t += t.work
                _residual_sums(t, new_t, old_t, yb_t)
            except FloatingPointError as exc:
                return 0, exc
            if t.forms is not None and failure is None:
                try:
                    _tile_forms(operator, t, new_t, aux)
                except FloatingPointError as exc:
                    failure = 1, exc
        return failure

    def advance(s: SoeState) -> SoeState:
        """The step from ``s``, run in ``context``; a FloatingPointError it
        raises comes from the update."""
        y, old = s.y, s.aux.reshape(m, size)
        mem = np.dot(mem_weights, old).reshape(grid.shape)  # matmul's BLAS gemv, with less dispatch
        mem += mem_own * y
        # rhs = mass y - tau A(mem), with tau A(mem) built in place: -tau x
        # is -(tau x), and adding it subtracts, bit for bit
        rhs = operator.apply_values(mem)
        del mem  # freed before the sweep (ybar reuses rhs): room for a second share's buffers
        rhs *= -tau
        rhs += y if plain_mass else mass.apply_values(y)
        if reaction is not None:
            rhs -= ((1.0 - sig) * tau) * reaction.apply_values(y)
        if p.forcing is not None:  # evaluated at the mid level t_n + sigma*tau
            rhs += tau * _forcing(p, s.n + 1, s.t + sig * tau)
        y_new = cg_solve(lhs, rhs, tol=cfg.cg_tol)
        ybar = np.multiply(sig, y_new, out=rhs)  # in the spent rhs
        ybar += (1.0 - sig) * y
        aux = np.empty(s.aux.shape)
        new = aux.reshape(m, size)
        args = (old, new, ybar.reshape(size), aux)
        failure = sweep(single, *args) if single else _sweep_shares(sweep, shares, contexts, args)
        if failure and failure[0] == 0:
            raise failure[1]
        guard(ybar)
        e = None
        if with_energy:
            try:
                if failure:
                    raise failure[1]
                e = _composite_energy(p, y_new, new, forms, a)
            except FloatingPointError as exc:
                raise _non_finite("energy", s.n + 1, s.t + tau, exc) from None
        return SoeState(y=y_new, aux=aux, n=s.n + 1, t=s.t + tau, energy=e)

    def step(s: SoeState) -> SoeState:
        try:
            return context.run(advance, s)
        except FloatingPointError as exc:
            raise _non_finite("update", s.n + 1, s.t + tau, exc) from None

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
                rhs += tau * _forcing(p, n + 1, t + sig * tau)
            levels[n + 1] = cg_solve(lhs, rhs, tol=cfg.cg_tol)
            integral = known + w_end * levels[n + 1]
            t += tau
    return levels


def _tile_forms(operator: SpdOperator, t: _Tile, new: np.ndarray, fields: np.ndarray) -> None:
    """Tile t's part of the forms (A y_i, y_i), without the cell area, of the
    memory fields ``fields``, ``(m, n1-1, n2-1)``, into its fields' places in
    the plan's forms; ``new`` is the tile's view of the same stack.  A
    pointwise operator's product with the tile is written into the ``work``
    buffer, and a field's forms are added over its tiles in order; any other
    operator is applied to the tile's whole fields."""
    if t.coef is None:
        block = fields[t.rows]
        whole = block.reshape(len(block), -1) if len(block) > 1 else block.reshape(-1)
        _dots(operator.apply_values(block).reshape(whole.shape), whole, t.forms, False)
    else:
        np.multiply(t.coef, new, out=t.work)
        _dots(t.work, new, t.forms, t.add)


def _composite_energy(
    p: ProblemSpec, y: np.ndarray, rows: np.ndarray, forms: np.ndarray, weights: np.ndarray
) -> float:
    """(|y|_mass^2 + sum_i a_i area*forms_i)**0.5 from the forms (A y_i, y_i)
    of every memory field (``rows``, ``(m, size)``, in the stack's order),
    taken by ``_tile_forms``; a form negative beyond rounding raises
    NotSpdError, one within it counts as 0."""
    area = p.grid.cell_area
    if forms.min() < 0.0:  # else the check and the clamp change nothing
        if np.any(forms < -1e-12 * np.maximum(np.vecdot(rows, rows), 1e-300)):
            raise NotSpdError(f"quadratic form is negative: {forms.min() * area}")
        forms = np.maximum(forms, 0.0)
    return math.sqrt(a_norm(p.mass, y) ** 2 + float(np.dot(weights, forms * area)))


def energy(p: ProblemSpec, s: SoeState) -> float:
    """Composite stability energy (|y|_mass^2 + sum_i a_i |y_i|_A^2)**0.5.

    The A-forms of the memory fields are taken a tile at a time
    (``_tile_forms``, over a ``_plan`` of the stack); a form negative beyond
    rounding raises NotSpdError.  This is the reference for the energies of a
    stepper built ``with_energy``.
    """
    m = len(s.aux)
    with _finite("energy", s.n, s.t):
        rows, forms = s.aux.reshape(m, -1), np.empty(m)
        size = rows.shape[1]
        for t in _plan(_blocks(m, size), m, size, forms, _pointwise(p.operator)):
            if t.forms is not None:
                _tile_forms(p.operator, t, rows[t.at], s.aux)
        return _composite_energy(p, s.y, rows, forms, np.asarray(p.kernel.weights))
