import os
import threading

import numpy as np
import pytest

from memstep import schemes
from memstep.kernels import PronySeries
from memstep.operators import DiagonalScaling
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


def set_cpus(monkeypatch, count: int) -> None:
    """Make ``os.sched_getaffinity`` report ``count`` CPUs, so a convergence
    study runs in order (1) or forks (2 or more) on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class OverflowInAThread(DiagonalScaling):
    """A DiagonalScaling whose application overflows in any thread but the main one."""

    __slots__ = ()

    def apply_values(self, v):
        if threading.current_thread() is not threading.main_thread():
            np.float64(1e308) * 10.0
        return super().apply_values(v)


def deal_over_threads(monkeypatch, cpus: int = 2, block_values=None) -> None:
    """Make every stepper built from here on deal its memory-field blocks over
    ``cpus`` threads, however small its stack, as on a host where this test
    is the process's only thread; ``block_values`` sets the block size."""
    monkeypatch.setattr(schemes, "_THREAD_VALUES", 0)
    monkeypatch.setattr(schemes, "_sweep_cpus", lambda: cpus)
    if block_values is not None:
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", block_values)


def residual_guard(cfg, grid, rates, shares=None):
    """The stepper's auxiliary-residual guard for ``rates`` on ``grid`` as
    ``judge(ybar, aux_new, aux_old)``: each call takes the squared norms with
    ``_residual_sums`` over the tiles of the ``_residual_plan`` of each of
    ``shares`` (by default one share of every block), each share past the
    first in a thread of its own, as a step's sweep does, then lets the guard
    judge them."""
    m, size = len(rates), grid.shape[0] * grid.shape[1]
    norms = np.empty((2, m))
    plans = [schemes._residual_plan(cfg, rates, blocks, size, *norms)
             for blocks in shares or [schemes._blocks(m, size)]]
    contexts = [schemes._numpy_context() for _ in plans]
    guard = schemes._aux_residual_guard(cfg, grid, rates, norms)

    def sums(plan, new, old, yb) -> None:
        for tile in plan:
            schemes._residual_sums(tile, new[tile.at], old[tile.at], yb[tile.cols])

    def judge(ybar, aux_new, aux_old) -> None:
        schemes._sweep_shares(sums, plans, contexts, (
            aux_new.reshape(m, size), aux_old.reshape(m, size), ybar.reshape(size)))
        guard(ybar)

    return judge


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
