"""Model-problem experiments: relaxation runs, reference solutions,
error series against the reference, and convergence studies.

The model problem relaxes the initial state
``u0 = x1*x2*sin(pi*x1)*sin(pi*x2)`` on the unit square with zero forcing,
the memory kernel being a compressed stretched exponential.  It is stepped in
sine coordinates, where the Laplacian is pointwise, and transformed back only
for nodal outputs; the energy is the same in either basis.  References are
computed with the symmetric (sigma = 0.5) compressed scheme on a fine time
grid and compared at a small set of shared sample times.
"""

from __future__ import annotations

import csv
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .grid import Grid2D, sample_function
from .kernels import PronySeries
from .operators import DiagonalScaling, _sine_matrix, laplacian_eigenvalues, sine_transform
from .schemes import (
    ProblemSpec,
    SchemeConfig,
    SoeState,
    energy,
    history_levels,
    soe_init,
    soe_stepper,
)

__all__ = [
    "ExperimentSpec",
    "Snapshots",
    "Trajectory",
    "ErrorSeries",
    "ConvergenceRow",
    "ConvergenceResult",
    "BaselineRow",
    "AlignmentError",
    "model_initial_condition",
    "build_model_problem",
    "run_model_problem",
    "error_series",
    "fit_slope",
    "convergence_study",
    "compare_baseline",
    "write_csv",
    "write_trajectory_csv",
    "write_errors_csv",
    "write_convergence_csv",
]


class AlignmentError(ValueError):
    """Sample times do not land on the time grid of a run."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved configuration of one model-problem experiment."""

    kernel: PronySeries
    grid_n: int = 32
    final_time: float = 4.0
    sigma: float = 0.5
    n_steps: int = 400
    n_ref: int = 1000
    sample_count: int = 8
    cg_tol: float = 1e-10

    def __post_init__(self):
        if self.final_time <= 0:
            raise ValueError(f"final_time={self.final_time} must be > 0")
        if self.sample_count < 1:
            raise ValueError("need at least one sample time")

    @property
    def tau(self) -> float:
        return self.final_time / self.n_steps

    def sample_times(self) -> np.ndarray:
        """Evenly spaced comparison times in (0, T]."""
        return self.final_time * np.arange(1, self.sample_count + 1) / self.sample_count


@dataclass(frozen=True)
class Snapshots:
    """Nodal field snapshots, interior arrays, at the sample times: all an
    error series reads."""

    snapshots: tuple[np.ndarray, ...]
    snapshot_times: np.ndarray


@dataclass(frozen=True, kw_only=True)
class Trajectory(Snapshots):
    """Per-step scalars plus field snapshots at the sample times."""

    steps: np.ndarray
    times: np.ndarray
    energies: np.ndarray
    center_values: np.ndarray


@dataclass(frozen=True)
class ErrorSeries:
    """Discrepancies against a reference at shared sample times."""

    times: np.ndarray
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
        initial=sine_transform(initial, grid),
    )


def _snapshot_stride(n_steps: int, sample_count: int) -> int:
    if n_steps % sample_count != 0:
        raise AlignmentError(
            f"n_steps={n_steps} is not divisible by sample_count={sample_count}; "
            "sample times would fall between time levels"
        )
    return n_steps // sample_count


def _scheme(spec: ExperimentSpec, sigma: Optional[float], n_steps: int) -> SchemeConfig:
    sigma = spec.sigma if sigma is None else sigma
    return SchemeConfig(sigma=sigma, tau=spec.final_time / n_steps, cg_tol=spec.cg_tol)


def _states(problem: ProblemSpec, cfg: SchemeConfig, n_steps: int) -> Iterator[SoeState]:
    """States t_0..t_n of one prebuilt stepper: the one loop stepping the model problem."""
    step = soe_stepper(problem, cfg)
    state = soe_init(problem)
    yield state
    for _ in range(n_steps):
        state = step(state)
        yield state


def run_model_problem(
    spec: ExperimentSpec,
    sigma: Optional[float] = None,
    n_steps: Optional[int] = None,
    initial: Optional[np.ndarray] = None,
) -> Trajectory:
    """Run the relaxation problem and collect the trajectory log.

    ``sigma`` and ``n_steps`` override the spec values.  Deterministic:
    repeated calls produce identical output.
    """
    n_steps = spec.n_steps if n_steps is None else n_steps
    stride = _snapshot_stride(n_steps, spec.sample_count)
    problem = build_model_problem(spec, initial=initial)
    grid = problem.grid
    i, j = grid.center_index
    row, col = _sine_matrix(grid.n1)[i], _sine_matrix(grid.n2)[:, j]  # the centre node's
    times, energies, centers, snapshots = [], [], [], []
    for state in _states(problem, _scheme(spec, sigma, n_steps), n_steps):
        times.append(state.t)
        energies.append(energy(problem, state))
        centers.append(float(row @ state.y @ col))
        if state.n and state.n % stride == 0:
            snapshots.append(sine_transform(state.y, grid))
    return Trajectory(
        steps=np.arange(n_steps + 1),
        times=np.array(times),
        energies=np.array(energies),
        center_values=np.array(centers),
        snapshots=tuple(snapshots),
        snapshot_times=spec.sample_times(),
    )


def _sample_run(spec: ExperimentSpec, sigma: Optional[float], n_steps: int) -> Snapshots:
    """Run the relaxation problem, keeping only the snapshots (no per-step
    energy or centre value): the ladder and reference runs of a study."""
    stride = _snapshot_stride(n_steps, spec.sample_count)
    problem = build_model_problem(spec)
    grid = problem.grid
    snapshots = tuple(
        sine_transform(s.y, grid)
        for s in _states(problem, _scheme(spec, sigma, n_steps), n_steps)
        if s.n and s.n % stride == 0
    )
    return Snapshots(snapshots=snapshots, snapshot_times=spec.sample_times())


def error_series(coarse: Snapshots, reference: Snapshots) -> ErrorSeries:
    """eps2 (mesh-weighted L2) and epsinf (max nodal) discrepancy series."""
    if len(coarse.snapshots) != len(reference.snapshots):
        raise AlignmentError(
            f"snapshot counts differ: {len(coarse.snapshots)} vs "
            f"{len(reference.snapshots)}"
        )
    if not np.allclose(coarse.snapshot_times, reference.snapshot_times, rtol=0, atol=1e-12):
        raise AlignmentError("snapshot times differ between runs")
    eps2, epsinf = [], []
    for w, ref in zip(coarse.snapshots, reference.snapshots):
        diff = w - ref
        cell_area = Grid2D(diff.shape[0] + 1, diff.shape[1] + 1).cell_area
        eps2.append(float(np.sqrt(np.sum(diff * diff) * cell_area)))
        epsinf.append(float(np.max(np.abs(diff))))
    return ErrorSeries(
        times=np.array(coarse.snapshot_times),
        eps2=np.array(eps2),
        epsinf=np.array(epsinf),
    )


def fit_slope(taus, errors) -> Optional[float]:
    """Least-squares slope of log(error) vs log(tau); None when degenerate."""
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0):
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


def _run_group(fn, tasks: list[tuple], group: list[int]):
    """``{i: fn(*tasks[i])}`` over ``group`` in order, and the ``(i, exception)``
    of the first task that raised, which ends the group (None if none did)."""
    results = {}
    for i in group:
        try:
            results[i] = fn(*tasks[i])
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fork_group(fn, tasks: list[tuple], group: list[int]) -> tuple[int, int]:
    """Fork a child that runs ``group`` and writes the pickled outcome of
    ``_run_group`` to a pipe; the child's pid and the pipe's read end."""
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
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run_group(fn, tasks, group)))
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


def _map_runs(fn, tasks: list[tuple]) -> list:
    """``[fn(*task) for task in tasks]``, split across the CPUs this process may use.

    Each task's last argument is its step count, taken as its cost.  With k =
    min(len(tasks), CPUs in the affinity set) >= 2 the tasks are dealt into k
    groups (``_deal``); forked children run all but the last group, each group
    in task order, and this process runs the last.  If any task raises, the
    exception raised here is that of the first failing task in task order, as
    running in order would raise: a child is read to its end unless every task
    it holds comes after a known failure, in which case it is killed.  Every
    child is reaped before this returns or raises.  With one CPU, or on a
    platform without CPU affinity (no ``os.sched_getaffinity``, as on macOS
    and Windows), the tasks run here in order.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(len(tasks), cpus)
    if k < 2:
        return [fn(*task) for task in tasks]
    *forked, own = _deal([task[-1] for task in tasks], k)
    pending = []  # (pid, read end, group) of each child not yet reaped
    try:
        for group in forked:
            pending.append((*_fork_group(fn, tasks, group), group))
        results, failure = _run_group(fn, tasks, own)
        for child in list(pending):
            pid, read_fd, group = child
            if failure is not None and group[0] > failure[0]:
                continue  # killed below; its outcome cannot change what is raised
            pending.remove(child)
            what = "the runs of " + ", ".join(str(tasks[i][-1]) for i in group) + " steps"
            got, got_failure = _collect(pid, read_fd, what)
            results.update(got)
            if got_failure is not None and (failure is None or got_failure[0] < failure[0]):
                failure = got_failure
    finally:
        for pid, read_fd, _ in pending:
            _kill(pid, read_fd)
    if failure is not None:
        raise failure[1]
    return [results[i] for i in range(len(tasks))]


def convergence_study(
    spec: ExperimentSpec,
    step_ladder: tuple[int, ...],
    sigma: Optional[float] = None,
    reference: Optional[Snapshots] = None,
) -> ConvergenceResult:
    """Run the ladder of step counts against the reference and fit slopes;
    the reference, unless given, has ``spec.n_ref`` steps, above every entry.
    Every entry is checked before any step; the runs keep only snapshots and
    are split across the CPUs this process may use (``_map_runs``), with
    results identical to running them in order."""
    if len(step_ladder) < 3:
        raise ValueError("a convergence ladder needs at least 3 step counts")
    for n_steps in step_ladder:
        _snapshot_stride(n_steps, spec.sample_count)
    runs = [(sigma, n_steps) for n_steps in step_ladder]
    if reference is None:
        if max(step_ladder) >= spec.n_ref:  # at sigma = 0.5, n_ref steps reproduce it
            raise ValueError(
                f"ladder entry {max(step_ladder)} must be below the reference's {spec.n_ref} steps"
            )
        _snapshot_stride(spec.n_ref, spec.sample_count)
        runs.insert(0, (0.5, spec.n_ref))  # the symmetric reference
    sampled = _map_runs(lambda sig, n: _sample_run(spec, sigma=sig, n_steps=n), runs)
    if reference is None:
        reference, *sampled = sampled
    rows = []
    for n_steps, snapshots in zip(step_ladder, sampled):
        errs = error_series(snapshots, reference)
        rows.append(
            ConvergenceRow(
                tau=spec.final_time / n_steps,
                max_eps2=float(np.max(errs.eps2)),
                max_epsinf=float(np.max(errs.epsinf)),
                errors=errs,
            )
        )
    taus = [r.tau for r in rows]
    return ConvergenceResult(
        rows=tuple(rows),
        slope_eps2=fit_slope(taus, [r.max_eps2 for r in rows]),
        slope_epsinf=fit_slope(taus, [r.max_epsinf for r in rows]),
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
    """
    problem = build_model_problem(spec)
    return tuple(_compare_one(problem, spec, n_steps) for n_steps in step_ladder)


def _compare_one(problem: ProblemSpec, spec: ExperimentSpec, n_steps: int) -> BaselineRow:
    """One ladder entry; no view of its history outlives the call."""
    grid = problem.grid
    cfg = _scheme(spec, None, n_steps)
    t0 = time.perf_counter()
    levels = history_levels(problem, cfg, n_steps)
    history_seconds = time.perf_counter() - t0

    states = _states(problem, cfg, n_steps)
    soe_seconds = max_diff = 0.0
    for level in levels:  # level 0 is u0 in both
        t0 = time.perf_counter()
        state = next(states)
        soe_seconds += time.perf_counter() - t0
        max_diff = max(max_diff, float(np.max(np.abs(sine_transform(state.y - level, grid)))))
    return BaselineRow(
        tau=cfg.tau,
        max_diff=max_diff,
        soe_seconds=soe_seconds,
        history_seconds=history_seconds,
        soe_fields=problem.kernel.n_terms + 1,
        history_fields=len(levels),
    )


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows; floats get 17 significant digits (exact on reading back)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    rows = zip(traj.steps, traj.times, traj.energies, traj.center_values)
    write_csv(path, ["n", "t", "energy", "center_value"], rows)


def write_errors_csv(errs: ErrorSeries, path) -> None:
    write_csv(path, ["t", "eps2", "epsinf"], zip(errs.times, errs.eps2, errs.epsinf))


def write_convergence_csv(result: ConvergenceResult, path) -> None:
    rows = [(row.tau, row.max_eps2, row.max_epsinf) for row in result.rows]
    write_csv(path, ["tau", "max_eps2", "max_epsinf"], rows)
