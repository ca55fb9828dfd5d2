"""Time integration for evolution equations with a convolution memory term.

Two steppers discretize the same problem
``B dv/dt + int_0^t ktil(t-s) A v(s) ds + C v = phi(t)``:

* the compressed stepper keeps one auxiliary field per exponential term of
  the kernel, all m of them in one ``(m, n1-1, n2-1)`` array, and advances
  everything with a two-level weighted scheme, solving a single shifted SPD
  system per step; it sweeps the fields a cache-sized tile at a time, on
  the thread that steps;
* the full-history baseline, ``history_levels``, runs a fixed number of
  steps and returns every level; it evaluates the memory integral with a
  trapezoidal product rule over all past levels, whose weights it builds once
  per run, so its memory and per-step cost grow linearly with the step index.
  It takes a block of steps' sums over the levels known at the block's start
  as matrix products, and each step's sum over the levels made since by one
  gemv, so that the O(n**2) work runs at BLAS-3 speed.

The weighted scheme is unconditionally stable for weight sigma >= 0.5; the
composite energy ``(|y|_B^2 + sum_i a_i |y_i|_A^2)**0.5`` is then
non-increasing for zero forcing.
"""

from __future__ import annotations

import contextvars
import math
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
# and the plan's work buffer, 256 kB at 32,768, stay in a core's 2 MB L2
# cache.  Step times of ``run`` steps (12 terms, with energy, BLAS on one
# thread, one CPU) as a ratio to those at 32,768, whose own time is in
# brackets: the mean of two sweeps on a 2-CPU host, the three sizes stepped
# in turn in one process.
#
#   grid    16k  32k [us]  64k
#     64   1.05    [473]  0.99
#     96   1.03    [906]  1.07
#    128   0.96   [1558]  1.10
#    160   1.02   [2762]  1.10
#    192   1.00   [3640]  1.04
#    224   1.00   [4981]  1.12
#    256   0.95   [7608]  1.17
#
# At 65,536 a grid-256 field is one block that leaves L2.
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


def _numpy_context() -> contextvars.Context:
    """A copy of the calling context in which numpy raises FloatingPointError
    on overflow and invalid operations and runs its ufuncs with the
    ``_BUFFER_VALUES`` buffer.  numpy keeps its errstate and buffer size in a
    context variable, so code run in the copy (``Context.run``) takes that
    state, in whatever thread it runs, and leaves the caller's as it was."""
    context = contextvars.copy_context()
    context.run(np.seterr, over="raise", invalid="raise")
    context.run(np.setbufsize, _BUFFER_VALUES)
    return context


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
    m = p.kernel.n_terms
    aux = np.zeros((m,) + p.initial.shape)
    with _finite("energy", 0, 0.0):
        e = _composite_energy(p, p.initial, aux.reshape(m, -1), np.zeros(m),
                              np.asarray(p.kernel.weights))
    return SoeState(y=p.initial, aux=aux, n=0, t=0.0, energy=e)


def _residual_coefficients(cfg: SchemeConfig, rates) -> tuple[np.ndarray, np.ndarray]:
    """The guard's new_i = 1/tau + sigma b_i and old_i = 1/tau - (1-sigma) b_i."""
    b = np.asarray(rates, dtype=float)
    return 1.0 / cfg.tau + cfg.sigma * b, 1.0 / cfg.tau - (1.0 - cfg.sigma) * b


class _Tile:
    """One tile of a stepper's sweep plan (``_plan``): ``at`` indexes its values
    in an ``(m, size)`` memory stack, rows ``rows`` (a block of several
    fields, as a 2-D view; ``...`` when that block is the whole stack) or
    columns ``cols`` of field ``rows.start`` (as a 1-D view).  Its work
    buffer ``work`` is a view of that shape into the plan's,
    ``decay`` and ``gain`` its rows' update coefficients, shaped to
    broadcast against its view, ``sums`` a view of its fields' places in
    each row of the guard's sums, ``forms`` one in the energy forms, and
    ``coef`` its part of a pointwise operator's coefficient field, from
    which it takes its forms (``_tile_forms``)."""

    __slots__ = ("at", "rows", "cols", "add", "work", "coef", "forms", "decay", "gain", "sums")


def _pointwise(operator: SpdOperator, size: int):
    """The coefficient, flattened, of a DiagonalScaling whose application is
    its own, the product by the coefficient, as a field of ``size`` values,
    a scalar's too: a sweep takes the energy forms from it and a tile's
    squares, with no product by the operator.  None for any other operator,
    whose forms come from ``apply_values``."""
    if isinstance(operator, DiagonalScaling) and \
            type(operator).apply_values is DiagonalScaling.apply_values:
        coef = operator.coefficient
        return coef.reshape(-1) if coef.ndim else np.full(size, float(coef))
    return None


def _column(values: np.ndarray, t: _Tile) -> np.ndarray:
    """Per-field ``values`` for tile t's rows, shaped to broadcast against its view."""
    return values[t.rows, None] if t.work.ndim == 2 else values[t.rows]


def _plan(m: int, size: int, forms: Optional[np.ndarray] = None, coef=None) -> list[_Tile]:
    """The tiles (``_tiles``) of the ``_blocks`` of an ``(m, size)`` stack,
    in order: a block of several fields is one tile, a single field one per
    column slice.  Each has a view of its shape, ``work``, into a
    work buffer of the largest tile's size, which every tile and every step
    reuses, for the update and then the forms; ``add`` marks a tile past its field's first, which
    adds its sums to the field's, in order.  ``forms``, when given, takes
    the energy forms (``_tile_forms``) of each tile for a pointwise
    operator, whose coefficient field ``coef`` (``_pointwise``) a tile holds
    its part of, and of each block's last tile, from whole fields, for any
    other."""
    blocks, cuts = _blocks(m, size), _tiles(size)
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
            t.coef = None if coef is None else coef[cut]
            with_forms = forms is not None and (coef is not None or j == len(cuts) - 1)
            t.forms = forms[blk] if with_forms else None
            plan.append(t)
    return plan


# The rows of the guard's ``(5, m)`` sums, a place per field in each: y_i'.y_i,
# y_i.ybar, |y_i'|^2, y_i'.ybar and |ybar|^2.  The projection r_i.y_i' is new_i,
# -old_i and -1 times rows _SQUARE, _CROSS and _NEW_BAR, and r_i.ybar the same
# times the row after each, so the guard forms both from three runs of 2m values.
_CROSS, _OLD_BAR, _SQUARE, _NEW_BAR, _BAR_SQUARE = range(5)


def _residual_plan(cfg: SchemeConfig, rates, size: int, sums: np.ndarray, decay: np.ndarray,
                   gain: np.ndarray, forms: Optional[np.ndarray] = None, coef=None) -> list[_Tile]:
    """``_plan(len(rates), size, forms, coef)``, each tile with its
    rows' columns of the update's ``decay`` and ``gain`` and, as ``sums``,
    views of its fields' places in the rows of the guard's ``(5, m)`` sums.
    The columns must meet new_i decay_i = old_i and new_i gain_i = 1 to 1e-12
    relative, with the guard's new_i and old_i (``_residual_coefficients``,
    derived apart), or AuxiliaryResidualError names the first rate that
    breaks them: a column from the wrong rows fails when the stepper is built."""
    new, old = _residual_coefficients(cfg, rates)
    plan = _plan(len(rates), size, forms, coef)
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
    gemv, for a block of fields, np.dot for a single field (1-D), a scalar
    that a tile past the field's first adds to the field's sum, in order."""
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

    Its fault model: the update coefficients are checked once, when the
    stepper is built (``_residual_plan``), the plan is fixed then, and an
    overflow or NaN raises through the step's errstate; the tests' oracles
    check the code's own arithmetic.  So at run time the guard catches what
    none of these can: a view that reads or writes the wrong memory, a numpy
    or BLAS path that misbehaves for some size or alignment, and memory
    corruption.  Its blind spot is the perturbation above, nearly orthogonal
    to both y_i' and ybar.

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
    p: ProblemSpec, cfg: SchemeConfig, with_energy: bool = False
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
    tile and the work buffer of its ``_residual_plan`` stay in cache; a
    field's sums are added over its tiles in order.  A tile makes 3 update
    passes and 4 guard reductions; with the energy and a pointwise operator
    its forms take one squares pass and one reduction of the squares with
    the coefficient field (``_tile_forms``).  The sweep runs on the thread
    that steps, and starts no other.  Then the guard judges every field from
    the sums the sweep took.  An update failure, in the first failing tile,
    raises before the guard's verdict; an energy failure, which stops the
    forms but not the updates, raises after it.

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
        # the guard's sums and the energy forms, one per field
        sums, forms = np.empty((5, m)), np.empty(m)
        plan = _residual_plan(cfg, b, size, sums, decay, gain, forms if with_energy else None,
                              _pointwise(p.operator, size))
        guard = _aux_residual_guard(cfg, grid, b, sums)
    context = _numpy_context()  # the step's numpy state
    operator, mass, reaction = p.operator, p.mass, p.reaction
    plain_mass = type(mass) is IdentityOperator  # its application is a copy of y

    def sweep(old, new, yb, aux) -> Optional[FloatingPointError]:
        """The step's memory fields, a tile at a time: None, or the
        FloatingPointError of the first energy failure, which stops the
        forms, not the updates; an update failure raises."""
        failure = None
        for t in plan:
            if t.at is ...:  # the tile is the whole stack
                new_t, old_t, yb_t = new, old, yb
            else:
                new_t, old_t, yb_t = new[t.at], old[t.at], yb[t.cols]
            np.multiply(t.decay, old_t, out=new_t)
            np.multiply(t.gain, yb_t, out=t.work)
            new_t += t.work
            _residual_sums(t, new_t, old_t, yb_t)
            if t.forms is not None and failure is None:
                try:
                    _tile_forms(operator, t, new_t, aux)
                except FloatingPointError as exc:
                    failure = exc
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
        del mem  # freed before the new stack is made (ybar reuses rhs)
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
        failure = sweep(old, new, ybar.reshape(size), aux)
        guard(ybar)
        e = None
        if with_energy:
            try:
                if failure is not None:
                    raise failure
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


# Below this c = tau*b a term's first moment over a step interval comes from
# its series: the subtraction that defines it cancels about log10(2/c) digits
# there.  The series' 20 terms leave a remainder under 1e-19.
_SERIES_CUTOFF = 1.0
_SERIES_COEFFICIENTS = tuple(1.0 / (math.factorial(k) * (k + 2)) for k in range(20))


def _product_trapezoid_weights(
    kernel: PronySeries, tau: float, max_lag: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lag tables of the product trapezoidal rule for int_0^{n*tau} ktil(t-s) g(s) ds.

    The kernel is integrated exactly against the piecewise-linear interpolant
    of g, which keeps the rule accurate even for stiff decay rates where plain
    node sampling of the kernel fails.  So the rule needs only the kernel's two
    moments over each step interval l back from t_n, where t_n - s = (l-1+x) tau
    for x in [0, 1]: A_l = int k ds and B_l = int k x ds.  A term with c = tau b
    gives them as tau a exp(-c (l-1)) times mean(c) = int_0^1 exp(-cx) dx =
    -expm1(-c)/c (1 at c = 0) and first(c) = int_0^1 x exp(-cx) dx =
    (mean(c) - exp(-c))/c, which below ``_SERIES_CUTOFF`` comes from its series
    sum_k (-c)**k / (k! (k+2)); neither overflows for any c >= 0.  The
    interval's far level, at lag l, weighs B_l and its near one A_l - B_l.

    Returns ``(start, inner, end)``: a level L steps before t_n weighs
    ``start[L]`` = B_L if it is level 0 (it has only a right half-hat) and
    ``inner[L]`` = B_L + A_{L+1} - B_{L+1} otherwise, for lags L = 1..max_lag
    (lag 0 is unused and 0); the level at t_n itself (the implicit one) weighs
    ``end`` = A_1 - B_1; all include tau.
    """
    a, c = np.asarray(kernel.weights), tau * np.asarray(kernel.rates)
    positive = np.where(c > 0.0, c, 1.0)
    mean = np.where(c > 0.0, -np.expm1(-positive) / positive, 1.0)
    series, small = np.zeros_like(c), np.minimum(c, _SERIES_CUTOFF)
    for coefficient in reversed(_SERIES_COEFFICIENTS):
        series = series * -small + coefficient
    closed = (mean - np.exp(-c)) / np.maximum(c, _SERIES_CUTOFF)
    first = np.where(c < _SERIES_CUTOFF, series, closed)
    # decay[i, j] = exp(-c_i j), for the intervals l = j + 1 = 1..max_lag+1
    decay = np.exp(-c[:, None] * np.arange(max_lag + 1, dtype=float))
    far = tau * (a @ (decay * first[:, None]))  # B_l
    near = tau * (a @ (decay * (mean - first)[:, None]))  # A_l - B_l
    start, inner = np.zeros((2, max_lag + 1))
    start[1:] = far[:-1]
    inner[1:] = far[:-1] + near[1:]
    return start, inner, float(near[0])


# Steps per block of the full-history baseline (``history_levels``), and past
# levels per far product: a block's memory terms over the levels known when
# it starts are (block x chunk) @ (chunk x field) products, each step adding
# the levels made within its block by one gemv.  Median times of
# ``history_levels`` on the model problem in ms, two sweeps on a 2-CPU host,
# one CPU, BLAS on one thread, against the one gemv a step of before:
#
#   grid, steps      16, 192   16, 768   64, 384   64, 768
#   gemv per step        3.1        19       110       416
#   block 16, 128    2.1-2.7     10-14     29-31    95-106
#   block 32, 64         2.1        10     27-28     84-88
#   block 32, 128        2.0     10-12     25-27     79-98
#   block 32, 256    2.1-3.3     10-16        29     75-79
#   block 48, 128        2.1        10        26     74-80
#
# Larger blocks gain little on grid 64 and lengthen the gemvs and the two
# (block x field) buffers; the chunk bounds the weight gathers and BLAS's
# packing of them, so no temporary grows with the step count.
_HISTORY_BLOCK = 32
_HISTORY_CHUNK = 128


def _history_weights(kernel: PronySeries, sigma: float, tau: float,
                     n_steps: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The weights of the full-history step from t_n to t_{n+1}, for n = 0..n_steps-1.

    Its memory term ``-tau (sigma I_{n+1} + (1-sigma) I_n)`` blends the product
    rule's integrals to t_{n+1} and to t_n (I_0 = 0) and is, the new level's
    endpoint part aside, one weighted sum over the known levels 0..n.  Returns
    ``(lags, first, end)``.  ``lags[n_steps-1-L]`` weighs a level L steps
    before t_n, for L = 0..n_steps-1: the longest lag first, so that step n's
    weights over levels 1..n are the run ``lags[n_steps-n : n_steps]``; then
    ``_HISTORY_CHUNK`` zeros, so that a window of that width from any lag is
    in bounds.  ``first[n]`` weighs level 0 in step n, and ``end`` is the
    product rule's weight of the new level.
    """
    start, inner, end = _product_trapezoid_weights(kernel, tau, n_steps)
    by_lag = sigma * inner[1:] + (1.0 - sigma) * inner[:-1]
    by_lag[:1] += (1.0 - sigma) * end  # the level at t_n closes I_n (inner[0] is 0)
    lags = np.zeros(n_steps + _HISTORY_CHUNK)
    np.multiply(-tau, by_lag[::-1], out=lags[:n_steps])
    first = -tau * (sigma * start[1:] + (1.0 - sigma) * start[:-1])  # start[0] is 0
    return lags, first, end


def _far_terms(windows: np.ndarray, first: np.ndarray, flat: np.ndarray, n0: int,
               gather: np.ndarray, out: np.ndarray, part: np.ndarray) -> None:
    """Into row b of ``out``, the memory term of step n0+b over the levels
    0..n0 of ``flat``, those known when the block of steps from n0 starts:
    ``(rows x chunk) @ (chunk x field)`` products of ``_HISTORY_CHUNK`` levels
    at most, each chunk's weights gathered into ``gather`` from ``windows``,
    the ``_HISTORY_CHUNK``-wide windows of ``_history_weights``' lags, and
    each chunk past the first summed through ``part``.  An overflow here is
    left in the sums, for the step that reads the row to raise: a later row
    may overflow where the block's first steps do not."""
    n_steps, rows = len(first), len(out)
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, n0 + 1, _HISTORY_CHUNK):
            j1 = min(j0 + _HISTORY_CHUNK, n0 + 1)
            # row b's weights of levels j0..j1-1 sit at lags n0+b-j0 down to n0+b-j1+1
            top = n_steps - 1 - n0 + j0
            w = gather[:rows, : j1 - j0]
            np.copyto(w, windows[top - rows + 1 : top + 1][::-1, : j1 - j0])
            if j0 == 0:
                w[:, 0] = first[n0 : n0 + rows]
                np.matmul(w, flat[:j1], out=out)
            else:
                np.matmul(w, flat[j0:j1], out=part[:rows])
                out += part[:rows]


def history_levels(p: ProblemSpec, cfg: SchemeConfig, n_steps: int) -> np.ndarray:
    """Levels 0..n_steps of the full-history baseline, as one
    ``(n_steps+1, n1-1, n2-1)`` array allocated once.

    The memory integral at each of a step's two time levels is evaluated with
    the product trapezoidal rule over every past level, and the two are
    blended with the scheme weight.  The new level enters implicitly through
    the endpoint weight, leaving one shifted SPD solve per step.  The blend
    over the known levels is one weighted sum, whose weights are built once
    (``_history_weights``); the operator applies once per step, to that sum,
    by linearity.  The steps run in blocks of ``_HISTORY_BLOCK``: the levels
    known when a block starts enter its steps' sums as matrix products
    (``_far_terms``), and each step adds the levels made within its block by
    one gemv.  So every step still reads every level before it: O(n**2) work
    and O(n) memory.  Identity mass and no reaction only; the first overflow
    or NaN, in the weights or in a step, raises NonFiniteError naming where.
    """
    if not p.is_plain:
        raise SchemeConfigError("the full-history baseline handles only the plain problem")
    sig, tau = cfg.sigma, cfg.tau
    with _finite("scheme coefficients"):
        lags, first, w_end = _history_weights(p.kernel, sig, tau, n_steps)
        lhs = _collapsed([(1.0, IdentityOperator()), (sig * tau * w_end, p.operator)])
    levels = np.empty((n_steps + 1,) + p.initial.shape)
    levels[0] = p.initial
    flat = levels.reshape(n_steps + 1, -1)
    windows = np.lib.stride_tricks.sliding_window_view(lags, _HISTORY_CHUNK)
    block = min(_HISTORY_BLOCK, n_steps)
    memory, part = np.empty((2, block, flat.shape[1]))  # memory[b]: step n0+b's term
    gather = np.empty((block, _HISTORY_CHUNK))
    t = 0.0
    steps = _finite("history update")  # one block for the run, naming the step in progress
    with steps:
        for n0 in range(0, n_steps, _HISTORY_BLOCK):
            rows = min(_HISTORY_BLOCK, n_steps - n0)
            _far_terms(windows, first, flat, n0, gather, memory[:rows], part)
            for b in range(rows):
                n = n0 + b
                steps.n, steps.t = n + 1, t + tau
                term = memory[b]
                if b:  # levels n0+1..n, at lags b-1..0
                    term += lags[n_steps - b : n_steps] @ flat[n0 + 1 : n + 1]
                rhs = p.operator.apply_values(term.reshape(p.initial.shape))
                rhs += levels[n]
                if p.forcing is not None:
                    rhs += tau * _forcing(p, n + 1, t + sig * tau)
                levels[n + 1] = cg_solve(lhs, rhs, tol=cfg.cg_tol)
                t += tau
    return levels


def _tile_forms(operator: SpdOperator, t: _Tile, new: np.ndarray, fields: np.ndarray) -> None:
    """Tile t's part of the forms (A y_i, y_i), without the cell area, of the
    memory fields ``fields``, ``(m, n1-1, n2-1)``, into its fields' places in
    the plan's forms; ``new`` is the tile's view of the same stack.  A
    pointwise operator's tile writes its squares into the ``work`` buffer
    and takes their row dots with its coefficient field, np.vecdot for a
    block of fields, np.dot added over a field's tiles in order for a single
    field, each field's as np.dot's, bit for bit.  Any other operator is
    applied to the tile's whole fields."""
    if t.coef is None:
        block = fields[t.rows]
        whole = block.reshape(len(block), -1) if len(block) > 1 else block.reshape(-1)
        _dots(operator.apply_values(block).reshape(whole.shape), whole, t.forms, False)
    elif new.ndim == 2:
        np.vecdot(np.multiply(new, new, out=t.work), t.coef, out=t.forms)
    else:
        _dots(np.multiply(new, new, out=t.work), t.coef, t.forms, t.add)


def _composite_energy(
    p: ProblemSpec, y: np.ndarray, rows: np.ndarray, forms: np.ndarray, weights: np.ndarray
) -> float:
    """(|y|_mass^2 + sum_i a_i area*forms_i)**0.5 from the forms (A y_i, y_i)
    of every memory field (``rows``, ``(m, size)``, in the stack's order),
    taken by ``_tile_forms``: with an identity mass area (y.y + a.forms), two
    BLAS dots.  A form negative beyond rounding raises NotSpdError, one
    within it counts as 0."""
    area = p.grid.cell_area
    if forms.min() < 0.0:  # else the check and the clamp change nothing
        if np.any(forms < -1e-12 * np.maximum(np.vecdot(rows, rows), 1e-300)):
            raise NotSpdError(f"quadratic form is negative: {forms.min() * area}")
        forms = np.maximum(forms, 0.0)
    memory = np.dot(weights, forms)
    if type(p.mass) is IdentityOperator:
        return math.sqrt(area * (np.vdot(y, y) + memory))
    return math.sqrt(a_norm(p.mass, y) ** 2 + area * memory)


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
        for t in _plan(m, size, forms, _pointwise(p.operator, size)):
            if t.forms is not None:
                _tile_forms(p.operator, t, rows[t.at], s.aux)
        return _composite_energy(p, s.y, rows, forms, np.asarray(p.kernel.weights))
