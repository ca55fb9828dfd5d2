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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .grid import Grid2D, GridFunction, sample_function
from .kernels import PronySeries
from .operators import DiagonalScaling, _sine_matrix, laplacian_eigenvalues, sine_transform
from .schemes import (
    ProblemSpec,
    SchemeConfig,
    energy,
    history_init,
    quadrature_step,
    soe_init,
    soe_step,
)

__all__ = [
    "ExperimentSpec",
    "Trajectory",
    "ErrorSeries",
    "ConvergenceRow",
    "ConvergenceResult",
    "BaselineRow",
    "AlignmentError",
    "model_initial_condition",
    "build_model_problem",
    "run_model_problem",
    "compute_reference",
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
class Trajectory:
    """Per-step scalars plus field snapshots at the sample times."""

    steps: np.ndarray
    times: np.ndarray
    energies: np.ndarray
    center_values: np.ndarray
    snapshots: tuple[GridFunction, ...]
    snapshot_times: np.ndarray


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


def model_initial_condition(grid: Grid2D) -> GridFunction:
    return sample_function(
        grid, lambda x1, x2: x1 * x2 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
    )


def build_model_problem(
    spec: ExperimentSpec, initial: Optional[GridFunction] = None
) -> ProblemSpec:
    """The model problem in sine coordinates, from nodal ``initial`` values."""
    grid = Grid2D(spec.grid_n, spec.grid_n)
    if initial is None:
        initial = model_initial_condition(grid)
    return ProblemSpec(
        operator=DiagonalScaling(laplacian_eigenvalues(grid)),
        kernel=spec.kernel,
        initial=GridFunction(grid, sine_transform(initial.values, grid)),
    )


def _snapshot_stride(n_steps: int, sample_count: int) -> int:
    if n_steps % sample_count != 0:
        raise AlignmentError(
            f"n_steps={n_steps} is not divisible by sample_count={sample_count}; "
            "sample times would fall between time levels"
        )
    return n_steps // sample_count


def run_model_problem(
    spec: ExperimentSpec,
    sigma: Optional[float] = None,
    n_steps: Optional[int] = None,
    initial: Optional[GridFunction] = None,
) -> Trajectory:
    """Run the relaxation problem and collect the trajectory log.

    ``sigma`` and ``n_steps`` override the spec values (used by ladder and
    reference runs).  Deterministic: repeated calls produce identical output.
    """
    sigma = spec.sigma if sigma is None else sigma
    n_steps = spec.n_steps if n_steps is None else n_steps
    stride = _snapshot_stride(n_steps, spec.sample_count)

    problem = build_model_problem(spec, initial=initial)
    cfg = SchemeConfig(sigma=sigma, tau=spec.final_time / n_steps, cg_tol=spec.cg_tol)
    state = soe_init(problem)
    grid = problem.initial.grid
    i, j = grid.center_index
    row, col = _sine_matrix(grid.n1)[i], _sine_matrix(grid.n2)[:, j]  # the centre node's
    times = [0.0]
    energies = [energy(problem, state)]
    centers = [float(row @ state.y @ col)]
    snapshots: list[GridFunction] = []
    for n in range(1, n_steps + 1):
        state = soe_step(problem, cfg, state)
        times.append(state.t)
        energies.append(energy(problem, state))
        centers.append(float(row @ state.y @ col))
        if n % stride == 0:
            snapshots.append(GridFunction(grid, sine_transform(state.y, grid)))
    return Trajectory(
        steps=np.arange(n_steps + 1),
        times=np.array(times),
        energies=np.array(energies),
        center_values=np.array(centers),
        snapshots=tuple(snapshots),
        snapshot_times=spec.sample_times(),
    )


def compute_reference(spec: ExperimentSpec) -> Trajectory:
    """Fine-time-grid symmetric-scheme run used as the comparison reference."""
    return run_model_problem(spec, sigma=0.5, n_steps=spec.n_ref)


def error_series(coarse: Trajectory, reference: Trajectory) -> ErrorSeries:
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
        diff = w.values - ref.values
        eps2.append(float(np.sqrt(np.sum(diff * diff) * w.grid.cell_area)))
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


def convergence_study(
    spec: ExperimentSpec,
    step_ladder: tuple[int, ...],
    sigma: Optional[float] = None,
    reference: Optional[Trajectory] = None,
) -> ConvergenceResult:
    """Run the ladder of step counts against the reference and fit slopes."""
    if len(step_ladder) < 3:
        raise ValueError("a convergence ladder needs at least 3 step counts")
    if reference is None:
        reference = compute_reference(spec)
    rows = []
    for n_steps in step_ladder:
        traj = run_model_problem(spec, sigma=sigma, n_steps=n_steps)
        errs = error_series(traj, reference)
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
    """Run compressed and full-history steppers side by side per ladder tau.

    Reports the max nodal difference over the whole run, wall-clock timings
    (informative only), and the field counts that make the memory saving
    concrete: m+1 fields for the compressed state vs n+1 for the history.
    """
    problem = build_model_problem(spec)
    grid = problem.initial.grid
    rows = []
    for n_steps in step_ladder:
        tau = spec.final_time / n_steps
        cfg = SchemeConfig(sigma=spec.sigma, tau=tau, cg_tol=spec.cg_tol)

        t0 = time.perf_counter()
        soe_state = soe_init(problem)
        soe_path = [soe_state.y]
        for _ in range(n_steps):
            soe_state = soe_step(problem, cfg, soe_state)
            soe_path.append(soe_state.y)
        soe_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        hist_state = history_init(problem)
        for _ in range(n_steps):
            hist_state = quadrature_step(problem, cfg, hist_state)
        history_seconds = time.perf_counter() - t0

        nodal = (sine_transform(a - b, grid) for a, b in zip(soe_path, hist_state.ys))
        max_diff = max(float(np.max(np.abs(d))) for d in nodal)
        rows.append(
            BaselineRow(
                tau=tau,
                max_diff=max_diff,
                soe_seconds=soe_seconds,
                history_seconds=history_seconds,
                soe_fields=problem.kernel.n_terms + 1,
                history_fields=hist_state.n + 1,
            )
        )
    return tuple(rows)


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
