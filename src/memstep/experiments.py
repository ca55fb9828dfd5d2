"""Model-problem experiments: relaxation runs, the exact reference, error
series against it, and convergence studies.

The model problem relaxes the initial state
``u0 = x1*x2*sin(pi*x1)*sin(pi*x2)`` on the unit square with zero forcing,
the memory kernel being a compressed stretched exponential.  It is stepped in
sine coordinates, where the Laplacian is pointwise, and transformed back only
for nodal outputs; the energy is the same in either basis.  There each mode
is a small linear system of ODEs, so the reference is the exact solution,
a matrix exponential per mode, compared at a small set of shared sample times.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from .grid import Grid2D, GridMismatchError, sample_function
from .kernels import PronySeries
from .operators import DiagonalScaling, _sine_matrix, laplacian_eigenvalues, sine_transform
from .schemes import (
    ProblemSpec,
    SchemeConfig,
    SoeState,
    _finite,
    history_levels,
    soe_init,
    soe_stepper,
)

__all__ = [
    "ExperimentSpec",
    "Trajectory",
    "ErrorSeries",
    "ConvergenceRow",
    "ConvergenceResult",
    "BaselineRow",
    "AlignmentError",
    "HISTORY_BYTES_LIMIT",
    "history_bytes",
    "model_initial_condition",
    "build_model_problem",
    "run_model_problem",
    "error_series",
    "fit_slope",
    "check_convergence_ladder",
    "convergence_study",
    "check_baseline_ladder",
    "compare_baseline",
]


class AlignmentError(ValueError):
    """Sample times do not land on the time grid of a run."""


# The budget of the full-history baselines alive at once: compare-baseline
# refuses a ladder whose longest history alone would pass it, and runs no more
# entries at once than it holds.
HISTORY_BYTES_LIMIT = 256 * 2**20


def history_bytes(grid_n: int, n_steps: int) -> int:
    """Bytes the full-history baseline stores for ``n_steps`` steps on a grid
    of ``grid_n`` cells per direction: n+1 interior levels of 8-byte values."""
    return (n_steps + 1) * (grid_n - 1) ** 2 * 8


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved configuration of one model-problem experiment."""

    kernel: PronySeries
    grid_n: int = 32
    final_time: float = 4.0
    sigma: float = 0.5
    n_steps: int = 400
    sample_count: int = 8
    cg_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.final_time < math.inf:  # a NaN fails too
            raise ValueError(f"final_time={self.final_time} must be > 0 and finite")
        SchemeConfig(self.sigma, self.final_time, self.cg_tol)  # checks sigma and cg_tol (tau = T)
        Grid2D(self.grid_n, self.grid_n)
        if self.n_steps < 1:
            raise ValueError(f"n_steps={self.n_steps} must be >= 1")
        if self.sample_count < 1:
            raise ValueError("need at least one sample time")

    @property
    def tau(self) -> float:
        return self.final_time / self.n_steps

    def sample_times(self) -> np.ndarray:
        """Evenly spaced comparison times in (0, T]."""
        return self.final_time * np.arange(1, self.sample_count + 1) / self.sample_count


@dataclass(frozen=True)
class Trajectory:
    """Per-step scalars of a run."""

    steps: np.ndarray
    times: np.ndarray
    energies: np.ndarray
    center_values: np.ndarray


@dataclass(frozen=True)
class ErrorSeries:
    """Discrepancies against a reference, one per sample time."""

    eps2: np.ndarray
    epsinf: np.ndarray


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    max_eps2: float
    max_epsinf: float
    errors: ErrorSeries


@dataclass(frozen=True)
class ConvergenceResult:
    rows: tuple[ConvergenceRow, ...]
    slope_eps2: Optional[float]
    slope_epsinf: Optional[float]


@dataclass(frozen=True)
class BaselineRow:
    """One tau of the compressed-vs-full-history comparison."""

    tau: float
    max_diff: float
    soe_seconds: float
    history_seconds: float
    soe_fields: int
    history_fields: int


def model_initial_condition(grid: Grid2D) -> np.ndarray:
    return sample_function(
        grid, lambda x1, x2: x1 * x2 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
    )


def build_model_problem(
    spec: ExperimentSpec, initial: Optional[np.ndarray] = None
) -> ProblemSpec:
    """The model problem in sine coordinates, from nodal ``initial`` values."""
    grid = Grid2D(spec.grid_n, spec.grid_n)
    if initial is None:
        initial = model_initial_condition(grid)
    return ProblemSpec(
        operator=DiagonalScaling(laplacian_eigenvalues(grid)),
        kernel=spec.kernel,
        initial=sine_transform(initial),
    )


def _snapshot_stride(n_steps: int, sample_count: int) -> int:
    if n_steps % sample_count != 0:
        raise AlignmentError(
            f"n_steps={n_steps} is not divisible by sample_count={sample_count}; "
            "sample times would fall between time levels"
        )
    return n_steps // sample_count


def _scheme(spec: ExperimentSpec, n_steps: int) -> SchemeConfig:
    return SchemeConfig(sigma=spec.sigma, tau=spec.final_time / n_steps, cg_tol=spec.cg_tol)


def _states(
    problem: ProblemSpec, cfg: SchemeConfig, n_steps: int, with_energy: bool = False
) -> Iterator[SoeState]:
    """States t_0..t_n of one prebuilt stepper: the one loop stepping the model
    problem; ``with_energy`` gives each stepped state its energy."""
    step = soe_stepper(problem, cfg, with_energy=with_energy)
    state = soe_init(problem)
    yield state
    for _ in range(n_steps):
        state = step(state)
        yield state


def _affinity() -> set[int]:
    """The CPUs in this process's affinity set; empty on a platform without
    CPU affinity (no ``os.sched_getaffinity``, as on macOS and Windows)."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


# Whether forked workers are placed, each on one CPU: only if this process runs
# one thread once numpy is loaded, as when BLAS runs on one thread (False where
# /proc cannot be read).  A multithreaded BLAS starts its pool then; the pool
# ends at a fork, and a worker starts it again at its first threaded product
# with the thread count it was loaded with, so in a placed worker those threads
# would share one CPU.
try:
    _PLACE_WORKERS = len(os.listdir("/proc/self/task")) == 1
except OSError:
    _PLACE_WORKERS = False


def _current_cpu() -> Optional[int]:
    """The CPU this process last ran on; None where ``/proc`` cannot be read."""
    try:
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        return None


def _place(cpu: int) -> None:
    """Confine this process to ``cpu``.  A CPU this process may not use, or a
    system that refuses affinity, leaves it where it is."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


def run_model_problem(spec: ExperimentSpec, initial: Optional[np.ndarray] = None) -> Trajectory:
    """Run the relaxation problem and collect its per-step scalars, at any step
    count; repeated calls produce identical output.  It steps on the calling
    thread and starts no other."""
    problem = build_model_problem(spec, initial=initial)
    grid = problem.grid
    i, j = grid.center_index
    row, col = _sine_matrix(grid.shape[0])[i], _sine_matrix(grid.shape[1])[:, j]  # the centre's
    times, energies, centers = [], [], []
    for state in _states(problem, _scheme(spec, spec.n_steps), spec.n_steps, with_energy=True):
        times.append(state.t)
        energies.append(state.energy)
        centers.append(float(row @ state.y @ col))
    return Trajectory(
        steps=np.arange(spec.n_steps + 1),
        times=np.array(times),
        energies=np.array(energies),
        center_values=np.array(centers),
    )


def _sample_run(spec: ExperimentSpec, n_steps: int) -> np.ndarray:
    """Run the relaxation problem, keeping only its nodal fields at the sample
    times, stacked in time order (no per-step energy or centre value)."""
    stride = _snapshot_stride(n_steps, spec.sample_count)
    stack = np.empty((spec.sample_count, spec.grid_n - 1, spec.grid_n - 1))
    for state in _states(build_model_problem(spec), _scheme(spec, n_steps), n_steps):
        if state.n and state.n % stride == 0:
            stack[state.n // stride - 1] = sine_transform(state.y)
    return stack


_MODE_CHUNK = 32  # modes whose maps are built at once: a few tens of kB at any grid


def _expm(a: np.ndarray) -> np.ndarray:
    """``exp`` of each matrix of a ``(k, d, d)`` stack: the degree-18 Taylor
    polynomial (remainder under 1/19!) of a / 2**s, s per matrix so that its
    1-norm is at most 1, in Horner form, squared s times."""
    norms = np.abs(a).sum(axis=-2).max(axis=-1)  # each matrix's 1-norm
    s = np.ceil(np.log2(np.maximum(norms, 1.0))).astype(int)
    scaled, eye = a / np.ldexp(1.0, s)[:, None, None], np.eye(a.shape[-1])
    g = eye + scaled / 18
    for k in range(17, 0, -1):
        g = eye + scaled @ g / k
    for j in range(s.max()):
        more = s > j  # only the matrices still to square: a finished one could overflow
        g[more] = g[more] @ g[more]
    return g


def _mode_maps(lam: np.ndarray, kernel: PronySeries, dt: float) -> np.ndarray:
    """``expm(M dt)`` per eigenvalue in ``lam``: the exact map over dt of the
    local system x' = M x, x = (y, z_1..z_m), of one sine mode, with
    M = [[0, -lam a^T], [1, -diag(b)]] (y' = -lam sum_i a_i z_i, z_i' = y - b_i z_i)."""
    a, b = np.asarray(kernel.weights), np.asarray(kernel.rates)
    mats = np.zeros((len(lam), len(a) + 1, len(a) + 1))
    mats[:, 0, 1:], mats[:, 1:, 0], mats[:, 1:, 1:] = -np.outer(lam, a), 1.0, -np.diag(b)
    return _expm(mats * dt)


def _exact_snapshots(spec: ExperimentSpec) -> np.ndarray:
    """The model problem's exact nodal fields at the sample times, stacked as
    ``_sample_run``'s: a sine mode starts at (y0, 0..0), so after i sample
    intervals it is y0 (G**i)[0, 0], G its exact map (``_mode_maps``), built once
    per distinct eigenvalue (lam(j, k) = lam(k, j)).  The first overflow or NaN
    raises NonFiniteError."""
    grid = Grid2D(spec.grid_n, spec.grid_n)
    lam, inverse = np.unique(laplacian_eigenvalues(grid).ravel(), return_inverse=True)
    responses = np.empty((spec.sample_count, lam.size))
    with _finite("exact reference"):
        for start in range(0, lam.size, _MODE_CHUNK):
            chunk = slice(start, start + _MODE_CHUNK)
            maps = _mode_maps(lam[chunk], spec.kernel, spec.final_time / spec.sample_count)
            x = maps[:, :, 0]  # G e_0
            for i in range(spec.sample_count):
                responses[i, chunk] = x[:, 0]
                x = (maps @ x[:, :, None])[:, :, 0]
        y0 = sine_transform(model_initial_condition(grid))
        coefficients = y0 * responses[:, inverse].reshape((-1,) + grid.shape)
    return sine_transform(coefficients)


def error_series(coarse: np.ndarray, reference: np.ndarray) -> ErrorSeries:
    """eps2 (mesh-weighted L2) and epsinf (max nodal) discrepancy series of
    two ``(sample_count, n1-1, n2-1)`` stacks of nodal fields."""
    if len(coarse) != len(reference):
        raise AlignmentError(f"snapshot counts differ: {len(coarse)} vs {len(reference)}")
    if coarse.shape != reference.shape:
        raise GridMismatchError(f"snapshots of shape {coarse.shape[1:]} compared with "
                                f"reference snapshots of shape {reference.shape[1:]}")
    diff = coarse - reference
    return ErrorSeries(
        eps2=np.sqrt(np.sum(diff * diff, axis=(-2, -1)) * Grid2D.of(diff).cell_area),
        epsinf=np.max(np.abs(diff), axis=(-2, -1)),
    )


def fit_slope(taus, errors) -> Optional[float]:
    """Least-squares slope of log(error) vs log(tau); None when degenerate:
    fewer than 2 distinct taus, or an error that is not positive."""
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(set(taus.tolist())) < 2 or np.any(errors <= 0):
        return None
    slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
    return float(slope)


def _deal(costs: list[int], k: int) -> list[list[int]]:
    """Task indices in ``k`` groups: longest task first, each to the group
    with the least total cost so far; each group in task order."""
    groups, loads = [[] for _ in range(k)], [0] * k
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        g = loads.index(min(loads))
        groups[g].append(i)
        loads[g] += costs[i]
    return [sorted(group) for group in groups]


# A task runs ``call()`` and costs ``cost`` steps (a run's step count, or other
# work's cost in step equivalents); ``name`` is what a message calls it.
_Task = tuple[int, str, Callable[[], object]]


def _run_group(tasks: list[_Task], group: list[int]):
    """``{i: call()}`` over the tasks of ``group`` in order, and the ``(i, exception)``
    of the first task that raised, which ends the group (None if none did)."""
    results = {}
    for i in group:
        try:
            results[i] = tasks[i][2]()
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fork_group(tasks: list[_Task], group: list[int], cpu: Optional[int]) -> tuple[int, int]:
    """Fork a child that places itself on ``cpu`` if one is given (``_place``),
    runs ``group`` and writes the pickled outcome of ``_run_group`` to a
    pipe; the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            if cpu is not None:
                _place(cpu)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run_group(tasks, group)))
            code = 0
        finally:
            os._exit(code)  # no exit handlers, no flush of the parent's buffers
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int, what: str):
    """The outcome a forked child writes, read to the end before the child is reaped."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"the worker process running {what} ended without a result "
                           f"(wait status {status})")
    return pickle.loads(data)  # bytes our own child wrote


def _kill(pid: int, read_fd: int) -> None:
    import signal  # only on a failure path; signal is not loaded otherwise

    os.kill(pid, signal.SIGKILL)
    os.close(read_fd)
    os.waitpid(pid, 0)


def _map_runs(tasks: list[_Task], max_procs: Optional[int] = None) -> list:
    """``[call() for _, _, call in tasks]``, split across the CPUs this process may use.

    With k = min(len(tasks), CPUs in the affinity set, ``max_procs`` if
    given) >= 2 the tasks are dealt into k groups by cost (``_deal``);
    forked children run all but the last group, each group in task order,
    and this process runs the last, so at most k processes, this one
    included, run a task at once.  When the k processes fill the affinity
    set, each child places itself on a CPU of its own before its first task,
    in order from the set without the CPU this process runs on at the fork
    (``_current_cpu``), and this process, left where it is, keeps that one:
    a child the scheduler leaves on this process's CPU would share it.  So
    two commands at once on two CPUs place their children apart.  With fewer
    processes than CPUs, nothing is placed, so that two commands at once do
    not stack on the same few CPUs; nor is anything placed where a
    multithreaded BLAS would crowd its threads onto a worker's one CPU
    (``_PLACE_WORKERS``).  A child that cannot be placed (``_place``) runs
    where it is, with the same results.  A group whose fork fails (EAGAIN or
    ENOMEM under a process or memory limit) joins this process's group, in
    task order.  If any task raises, the exception raised here is that of
    the first failing task in task order, as running in order would raise: a
    child is read to its end unless every task it holds comes after a known
    failure, in which case it is killed.  Every child is reaped before this
    returns or raises.  With k < 2, as on a platform without CPU affinity
    (``_affinity``), the tasks run here in order; a task steps on one thread
    wherever it runs.
    """
    entry = _affinity()
    k = min(len(tasks), len(entry), max_procs or len(entry))
    if k < 2:
        return [call() for _, _, call in tasks]
    *forked, own = _deal([cost for cost, _, _ in tasks], k)
    placed = _PLACE_WORKERS and k == len(entry)
    cpus = sorted(entry - {_current_cpu()}) if placed else [None] * k
    pending = []  # (pid, read end, group) of each child not yet reaped
    try:
        for group, cpu in zip(forked, cpus):
            try:
                pending.append((*_fork_group(tasks, group, cpu), group))
            except OSError:  # no process or pipe to spare: run the group here
                own = sorted(own + group)
        results, failure = _run_group(tasks, own)
        for child in list(pending):
            pid, read_fd, group = child
            if failure is not None and group[0] > failure[0]:
                continue  # killed below; its outcome cannot change what is raised
            pending.remove(child)
            got, got_failure = _collect(pid, read_fd, ", ".join(tasks[i][1] for i in group))
            results.update(got)
            if got_failure is not None and (failure is None or got_failure[0] < failure[0]):
                failure = got_failure
    finally:
        for pid, read_fd, _ in pending:
            _kill(pid, read_fd)
    if failure is not None:
        raise failure[1]
    return [results[i] for i in range(len(tasks))]


def _run_task(n_steps: int, call: Callable[[], object]) -> _Task:
    """The task of a run of ``n_steps`` steps."""
    return n_steps, f"the run of {n_steps} steps", call


# The exact reference's cost in steps of the same problem, per kernel term.
# One CPU, BLAS on one thread: on grids 32-128 it took 110-210 steps' time
# with 6 terms, 116-183 with 12 and 293-382 with 30.  At the default 12 terms
# this puts it with the 96- and 192-step runs, the 48- and 384-step ones in
# the other process.
_REFERENCE_STEPS_PER_TERM = 10


def _check_ladder_steps(spec: ExperimentSpec, step_ladder: tuple[int, ...]) -> None:
    """Raise ValueError unless every step count of the ladder is at least 1
    and gives a step ``spec.final_time / n`` that is not 0."""
    if min(step_ladder, default=1) < 1:
        raise ValueError(f"ladder_steps={list(step_ladder)} must all be >= 1")
    for n_steps in step_ladder:  # T/n can underflow to 0
        if not spec.final_time / n_steps > 0:
            raise ValueError(f"T={spec.final_time} over ladder_steps {n_steps} gives tau=0.0, "
                             "which must be > 0")


def check_convergence_ladder(spec: ExperimentSpec, step_ladder: tuple[int, ...]) -> None:
    """Raise ValueError unless the ladder holds at least 3 distinct step
    counts, each at least 1 with a step that is not 0 (``_check_ladder_steps``)
    and a multiple of ``spec.sample_count`` (else AlignmentError)."""
    _check_ladder_steps(spec, step_ladder)
    if len(set(step_ladder)) < 3:
        raise ValueError(f"a convergence ladder needs at least 3 distinct step counts, "
                         f"got {list(step_ladder)}")
    for n_steps in step_ladder:
        _snapshot_stride(n_steps, spec.sample_count)


def convergence_study(spec: ExperimentSpec, step_ladder: tuple[int, ...]) -> ConvergenceResult:
    """Run the ladder of step counts at ``spec.sigma`` against the exact
    reference (``_exact_snapshots``) and fit slopes.  The ladder is checked
    (``check_convergence_ladder``) before any step; the reference and the
    runs, which keep only snapshots, are split across the CPUs this process
    may use (``_map_runs``), with results identical to computing them in
    order.  The reference is the first task, so its failure is raised before
    any run's, as when it was computed before them."""
    check_convergence_ladder(spec, step_ladder)
    reference_cost = _REFERENCE_STEPS_PER_TERM * spec.kernel.n_terms
    reference, *sampled = _map_runs(
        [(reference_cost, "the exact reference", partial(_exact_snapshots, spec))]
        + [_run_task(n, partial(_sample_run, spec, n)) for n in step_ladder]
    )
    rows = []
    for n_steps, stack in zip(step_ladder, sampled):
        errs = error_series(stack, reference)
        rows.append(ConvergenceRow(tau=spec.final_time / n_steps, max_eps2=float(np.max(errs.eps2)),
                                   max_epsinf=float(np.max(errs.epsinf)), errors=errs))
    taus = [r.tau for r in rows]
    return ConvergenceResult(rows=tuple(rows), slope_eps2=fit_slope(taus, [r.max_eps2 for r in rows]),
                             slope_epsinf=fit_slope(taus, [r.max_epsinf for r in rows]))


def check_baseline_ladder(spec: ExperimentSpec, step_ladder: tuple[int, ...]) -> None:
    """Raise ValueError for an empty ladder, one with a step count below 1 or
    a step of 0 (``_check_ladder_steps``), or one whose longest entry's
    history alone would pass ``HISTORY_BYTES_LIMIT``."""
    _check_ladder_steps(spec, step_ladder)
    if not step_ladder:
        raise ValueError("ladder_steps is empty: the comparison needs at least one step count")
    longest = history_bytes(spec.grid_n, max(step_ladder))
    if longest > HISTORY_BYTES_LIMIT:
        raise ValueError(
            f"the full-history baseline would store {longest} bytes "
            f"({max(step_ladder) + 1} levels on grid {spec.grid_n}), over its budget "
            f"of {HISTORY_BYTES_LIMIT} bytes"
        )


def compare_baseline(
    spec: ExperimentSpec, step_ladder: tuple[int, ...]
) -> tuple[BaselineRow, ...]:
    """Run the full-history baseline, then check the compressed stepper against
    its levels as it steps, per ladder tau.

    Reports the max nodal difference over the whole run, wall-clock timings
    (informative only; ``soe_seconds`` times the compressed run, from its
    initial state and stepper to its last step, as it is checked), and
    the field counts that make the memory saving concrete: m+1 fields for the
    compressed state vs n+1 for the history.

    The entries are split across the CPUs this process may use
    (``_map_runs``), each process holding one history at a time, and no
    more processes than ``HISTORY_BYTES_LIMIT`` holds histories of the
    longest entry; so the histories alive at once stay within that budget.
    An entry's two timings are taken back to back in the process that runs
    it, but the processes still share the machine's caches and memory, and
    a multithreaded BLAS's threads compete with the other processes; run on
    one CPU with BLAS on one thread to compare the steppers' times.
    All other fields are identical to running the entries in order.  The
    ladder is checked (``check_baseline_ladder``) before any allocation.
    """
    check_baseline_ladder(spec, step_ladder)
    problem = build_model_problem(spec)
    largest = history_bytes(spec.grid_n, max(step_ladder))
    return tuple(_map_runs(
        [_run_task(n, partial(_compare_one, problem, spec, n)) for n in step_ladder],
        max_procs=max(1, HISTORY_BYTES_LIMIT // largest),
    ))


# Levels taken to nodal values at once, each turned into its difference from
# the compressed run in place, in one batched sine_transform: on grid 64 the
# transform makes two temporaries of (64, 63, 63) doubles, 2.0 MB each.
_CHECK_CHUNK = 64


def _compare_one(problem: ProblemSpec, spec: ExperimentSpec, n_steps: int) -> BaselineRow:
    """One ladder entry; no view of its history outlives the call.  Each
    history level becomes its difference from the compressed run in place,
    and the differences are taken to nodal values ``_CHECK_CHUNK`` levels at
    a time."""
    cfg = _scheme(spec, n_steps)
    t0 = time.perf_counter()
    levels = history_levels(problem, cfg, n_steps)
    history_seconds = time.perf_counter() - t0

    states = _states(problem, cfg, n_steps)
    soe_seconds = max_diff = 0.0
    for level in levels:  # level 0 is u0 in both
        t0 = time.perf_counter()
        state = next(states)
        soe_seconds += time.perf_counter() - t0
        level -= state.y
    for start in range(0, len(levels), _CHECK_CHUNK):
        nodal = sine_transform(levels[start : start + _CHECK_CHUNK])
        max_diff = max(max_diff, float(np.max(np.abs(nodal))))
    return BaselineRow(
        tau=cfg.tau,
        max_diff=max_diff,
        soe_seconds=soe_seconds,
        history_seconds=history_seconds,
        soe_fields=problem.kernel.n_terms + 1,
        history_fields=len(levels),
    )
