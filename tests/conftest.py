import errno
import math
import os

import numpy as np
import pytest

from memstep import experiments, schemes
from memstep.kernels import PronySeries
from memstep.operators import DiagonalScaling, IdentityOperator, cg_solve
from memstep.schemes import ProblemSpec


def scalar_problem(a1, b1, lam, u0, forcing=None):
    """m = 1 memory problem on a single-node grid; the spatial operator is
    multiplication by lam."""
    return ProblemSpec(
        operator=DiagonalScaling(lam),
        kernel=PronySeries((a1,), (b1,)),
        initial=np.array([[u0]]),
        forcing=forcing,
    )


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


def product_rule_tables(kernel, tau, max_lag):
    """The product rule's lag tables ``(start, inner, end)`` from the interval
    moments (``_interval_moments``), apart from the stepper's blend: a level L
    steps before t_n weighs ``start[L]`` = far[L-1] if it is level 0 and
    ``inner[L]`` = far[L-1] + near[L] otherwise, for lags L = 1..max_lag
    (lag 0 is unused and 0), and the level at t_n weighs ``end`` = near[0]."""
    far, near = schemes._interval_moments(kernel, tau, max_lag + 1)
    start, inner = np.zeros((2, max_lag + 1))
    start[1:] = far[:-1]
    inner[1:] = far[:-1] + near[1:]
    return start, inner, float(near[0])


def per_step_history_levels(p, cfg, n_steps):
    """The full-history baseline stepped as ``history_levels`` once did, the
    oracle for its blocks: each step takes the product rule's integral to
    t_{n+1} over the known levels by one gemv, blends it with the integral to
    t_n carried from the step before, and applies the operator to the blend."""
    if not p.is_plain:
        raise schemes.SchemeConfigError("the full-history baseline handles only the plain problem")
    sig, tau = cfg.sigma, cfg.tau
    with schemes._finite("scheme coefficients"):
        start, inner, w_end = product_rule_tables(p.kernel, tau, n_steps)
        lhs = schemes._collapsed([(1.0, IdentityOperator()), (sig * tau * w_end, p.operator)])
    levels = np.empty((n_steps + 1,) + p.initial.shape)
    levels[0] = p.initial
    flat = levels.reshape(n_steps + 1, -1)
    weights = np.empty(n_steps)
    integral, t = 0.0, 0.0  # int_0^{t_n}, before the operator is applied
    steps = schemes._finite("history update")
    with steps:
        for n in range(n_steps):
            steps.n, steps.t = n + 1, t + tau
            w = weights[: n + 1]
            w[0], w[1:] = start[n + 1], inner[n:0:-1]
            known = (w @ flat[: n + 1]).reshape(p.initial.shape)
            blend = sig * known + (1.0 - sig) * integral
            rhs = levels[n] - tau * p.operator.apply_values(blend)
            if p.forcing is not None:
                rhs += tau * schemes._forcing(p, n + 1, t + sig * tau)
            levels[n + 1] = cg_solve(lhs, rhs, tol=cfg.cg_tol)
            integral = known + w_end * levels[n + 1]
            t += tau
    return levels


# os.sched_getaffinity as the OS gives it, before any test patches it
REAL_GETAFFINITY = getattr(os, "sched_getaffinity", None)


def set_cpus(monkeypatch, count: int) -> None:
    """Make ``os.sched_getaffinity`` report ``count`` CPUs, so a convergence
    study runs in order (1) or forks (2 or more) on any machine.  Its workers
    then place themselves on CPUs 0, 1, ... where the machine has them,
    whatever the BLAS; the test process itself is never placed, so its real
    mask stays as it is."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(experiments, "_PLACE_WORKERS", True)


def failing_fork():
    """``os.fork`` under a process limit."""
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def no_thread(thread) -> None:
    """``threading.Thread.start`` where a test lets no thread start."""
    raise AssertionError(f"{thread!r} was started")


def update_coefficients(cfg, rates):
    """The update's ``(decay, gain)`` for ``rates``, as the stepper derives them."""
    b = np.asarray(rates, dtype=float)
    d = 1.0 + cfg.sigma * b * cfg.tau
    return (1.0 - (1.0 - cfg.sigma) * b * cfg.tau) / d, cfg.tau / d


def _judge(m, size, plan, sums, guard):
    """``judge(ybar, aux_new, aux_old)``: the plan's tiles take their sums in
    order, as a step's sweep does, with ``sums(tile, new, old, yb)``, then
    ``guard(ybar)`` judges them."""

    def judge(ybar, aux_new, aux_old) -> None:
        new, old, yb = aux_new.reshape(m, size), aux_old.reshape(m, size), ybar.reshape(size)
        for tile in plan:
            sums(tile, new[tile.at], old[tile.at], yb[tile.cols])
        guard(ybar)

    return judge


def residual_guard(cfg, grid, rates):
    """The stepper's auxiliary-residual guard for ``rates`` on ``grid`` as
    ``judge(ybar, aux_new, aux_old)``: each call takes the sums with
    ``_residual_sums`` over the tiles of the ``_residual_plan`` of every
    block, as a step's sweep does, then lets the guard judge them."""
    m, size = len(rates), grid.shape[0] * grid.shape[1]
    sums = np.empty((5, m))
    decay, gain = update_coefficients(cfg, rates)
    plan = schemes._residual_plan(cfg, rates, size, sums, decay, gain)
    guard = schemes._aux_residual_guard(cfg, grid, rates, sums)
    return _judge(m, size, plan, schemes._residual_sums, guard)


def oracle_residual_sums(cfg, rates, t, r2, n2, new, old, yb) -> None:
    """Tile t's part of the squared L2 norms of the residuals new_i y_i' -
    old_i y_i - ybar and of the fields y_i', into its fields' places in r2
    and n2: the residual written out, four passes, then two row dots."""
    new_coef, old_coef = (schemes._column(c, t) for c in schemes._residual_coefficients(cfg, rates))
    res = np.multiply(new_coef, new)
    res -= old_coef * old
    res -= yb
    schemes._dots(res, res, r2[t.rows], t.add)
    schemes._dots(new, new, n2[t.rows], t.add)


def oracle_guard_verdict(cfg, grid, rates, norms):
    """``guard(ybar)``: the verdict an earlier guard gave from the rows r2 and
    n2 of ``norms``, the squared norms of each field's residual and of the
    field, taking both rows' roots in one call and counting the passes:
    |r_i| <= 1e-12 (new_i |y_i'| + |ybar|) in the L2 norm."""
    new_coef, _ = schemes._residual_coefficients(cfg, rates)
    root_area = math.sqrt(grid.cell_area)
    m = len(new_coef)
    roots, bounds, passed = np.empty((2, m)), np.empty(m), np.empty(m, dtype=bool)
    residuals, field_norms = roots

    def guard(ybar) -> None:
        np.sqrt(norms, out=roots)
        np.multiply(new_coef, field_norms, out=bounds)
        np.add(bounds, math.sqrt(np.vdot(ybar, ybar)), out=bounds)
        np.multiply(1e-12, bounds, out=bounds)
        if np.count_nonzero(np.less_equal(residuals, bounds, out=passed)) < m:  # a NaN fails
            i = int(np.argmin(passed))
            raise schemes.AuxiliaryResidualError(
                f"auxiliary update residual {residuals[i] * root_area:.3e} exceeds rounding "
                f"bound {bounds[i] * root_area:.3e} (rate b={rates[i]})"
            )

    return guard


def oracle_residual_guard(cfg, grid, rates):
    """The earlier auxiliary-residual guard, the oracle for the stepper's,
    as ``judge(ybar, aux_new, aux_old)`` (``residual_guard``): it writes each
    field's residual out, takes its norm and the field's, and bounds the
    residual's norm (``oracle_guard_verdict``)."""
    m, size = len(rates), grid.shape[0] * grid.shape[1]
    norms = np.empty((2, m))
    plan = schemes._plan(m, size)
    return _judge(m, size, plan, lambda t, new, old, yb: oracle_residual_sums(
        cfg, rates, t, *norms, new, old, yb), oracle_guard_verdict(cfg, grid, rates, norms))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
