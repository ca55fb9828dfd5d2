"""Command-line front door for the memory-stepping experiments.

Subcommands: ``run`` (model relaxation problem), ``converge`` (tau-ladder
convergence study), ``kernel-error`` (Prony-vs-analytic error report) and
``compare-baseline`` (compressed vs full-history steppers).  Configuration
comes from defaults, then an optional JSON config file, then flags; the
fully resolved configuration is echoed to ``manifest.json`` in the run
directory and can be fed back as a config file to reproduce the run.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__
from .kernels import (
    BUILTIN_BETAS,
    StretchedExponential,
    kernel_sup_error,
    load_builtin_prony,
    prony_from_file,
)
from .experiments import (
    HISTORY_BYTES_LIMIT,
    ExperimentSpec,
    compare_baseline,
    convergence_study,
    history_bytes,
    run_model_problem,
    write_convergence_csv,
    write_csv,
    write_errors_csv,
    write_trajectory_csv,
)
from .operators import ConvergenceError, NotSpdError
from .schemes import AuxiliaryResidualError, NonFiniteError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Fully resolved, flat run configuration (every field has a default)."""

    beta: Optional[str | float] = "1/2"
    kernel_file: Optional[str] = None
    sigma: float = 0.5
    tau: Optional[float] = None
    steps: Optional[int] = None
    T: float = 4.0
    grid: int = 32
    out: Optional[str] = None
    reference_steps: int = 1000
    # Each ladder entry and reference_steps must be divisible by sample_count
    # so the comparison times land on every time grid; only converge samples.
    ladder_steps: tuple[int, ...] = (48, 96, 192, 384)
    sample_count: int = 8
    window_t_min: float = 0.1
    window_t_max: float = 10.0
    window_samples: int = 1000
    cg_tol: float = 1e-10

    def resolved_steps(self) -> int:
        """Step count from ``steps`` or ``tau`` (tau must divide T evenly);
        when both are set, T/tau must equal steps."""
        if self.steps is not None and self.steps < 1:
            raise ConfigError(f"steps={self.steps} must be >= 1")
        if self.tau is None:
            return 400 if self.steps is None else self.steps
        n = self.T / self.tau
        if self.steps is not None and abs(n - self.steps) > 1e-9 * max(n, 1.0):
            raise ConfigError(f"steps={self.steps} disagrees with T/tau={n:.10g} (tau={self.tau})")
        if abs(n - round(n)) > 1e-9 * max(n, 1.0) or round(n) < 1:
            raise ConfigError(
                f"tau={self.tau} does not divide T={self.T} into whole steps"
            )
        return int(round(n))

    def validate(self):
        if not 0.0 < self.sigma <= 1.0:
            raise ConfigError(f"sigma={self.sigma} must lie in (0, 1]")
        if self.T <= 0:
            raise ConfigError(f"T={self.T} must be > 0")
        if self.grid < 2:
            raise ConfigError(f"grid={self.grid} must be >= 2")
        if self.tau is not None and self.tau <= 0:
            raise ConfigError(f"tau={self.tau} must be > 0")
        if self.reference_steps < 1:
            raise ConfigError(f"reference_steps={self.reference_steps} must be >= 1")
        if not self.cg_tol > 0:
            raise ConfigError(f"cg_tol={self.cg_tol} must be > 0")
        if min(self.ladder_steps, default=1) < 1:
            raise ConfigError(f"ladder_steps={list(self.ladder_steps)} must all be >= 1")
        self.resolved_steps()

    def kernel(self):
        if self.kernel_file is not None:
            try:
                return prony_from_file(self.kernel_file)
            except OSError as exc:
                raise ConfigError(f"cannot read kernel file: {exc}") from exc
        try:
            return load_builtin_prony(self._beta_value())
        except KeyError as exc:
            raise ConfigError(
                f"beta={self.beta} has no built-in kernel (supported: 3/7, 1/2, "
                "3/5); pass --kernel-file for other kernels"
            ) from exc

    def _beta_value(self) -> float:
        if self.beta is None:
            raise ConfigError("either beta or kernel_file is required")
        text = str(self.beta)
        if text in BUILTIN_BETAS:
            return BUILTIN_BETAS[text]
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"beta={self.beta!r} is not a number") from exc

    def experiment_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            kernel=self.kernel(),
            grid_n=self.grid,
            final_time=self.T,
            sigma=self.sigma,
            n_steps=self.resolved_steps(),
            n_ref=self.reference_steps,
            sample_count=self.sample_count,
            cg_tol=self.cg_tol,
        )


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}  # name -> annotation
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "str | float": (str, int, float)}


def _fits(annotation: str, value) -> bool:
    """Whether a JSON value fits a RunConfig annotation; a bool is no number."""
    if annotation.startswith("Optional["):
        return value is None or _fits(annotation[len("Optional["):-1], value)
    if annotation == "tuple[int, ...]":
        return isinstance(value, list) and all(_fits("int", v) for v in value)
    return isinstance(value, _JSON_TYPES[annotation]) and not isinstance(value, bool)


def load_config(path) -> dict:
    """Read a JSON config file, unwrapping a manifest's "config" block, and
    check each value's type against its RunConfig field."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    unknown = data.keys() - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        if not _fits(_CONFIG_FIELDS[key], value):
            raise ConfigError(f"{path}: {key}={value!r} is not of type {_CONFIG_FIELDS[key]}")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    values: dict = {}
    if args.config is not None:
        values.update(load_config(args.config))
    for key in _CONFIG_FIELDS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    if "ladder_steps" in values:
        values["ladder_steps"] = tuple(values["ladder_steps"])
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def make_run_dir(cfg: RunConfig, command: str) -> Path:
    run_dir = Path(cfg.out or os.environ.get("MEMSTEP_OUT") or "runs") / command
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the run directory: {exc}") from exc
    return run_dir


def write_manifest(cfg: RunConfig, run_dir: Path, started_at: str) -> None:
    payload = {
        "config": dataclasses.asdict(cfg),
        "package_version": __version__,
        "started_at": started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(),
    }
    payload["config"]["ladder_steps"] = list(cfg.ladder_steps)
    with (run_dir / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_run(cfg: RunConfig) -> int:
    started = datetime.now(timezone.utc).isoformat()
    spec = cfg.experiment_spec()
    traj = run_model_problem(spec)
    run_dir = make_run_dir(cfg, "run")
    write_trajectory_csv(traj, run_dir / "trajectory.csv")
    write_manifest(cfg, run_dir, started)
    print(f"run complete: {spec.n_steps} steps, output in {run_dir}")
    return EXIT_OK


def cmd_converge(cfg: RunConfig) -> int:
    started = datetime.now(timezone.utc).isoformat()
    spec = cfg.experiment_spec()
    result = convergence_study(spec, cfg.ladder_steps)  # checks the ladder first
    finest = min(result.rows, key=lambda row: row.tau)
    run_dir = make_run_dir(cfg, "converge")
    write_convergence_csv(result, run_dir / "convergence.csv")
    write_errors_csv(finest.errors, run_dir / "errors.csv")
    write_manifest(cfg, run_dir, started)
    print(f"slope eps2 = {result.slope_eps2:.3f}")
    print(f"slope epsinf = {result.slope_epsinf:.3f}")
    print(f"output in {run_dir}")
    return EXIT_OK


def cmd_kernel_error(cfg: RunConfig) -> int:
    started = datetime.now(timezone.utc).isoformat()
    if cfg.kernel_file is not None:
        raise ConfigError("kernel-error compares a built-in kernel with its analytic "
                          "form; a custom kernel file has no analytic target")
    prony = cfg.kernel()
    analytic = StretchedExponential(cfg._beta_value())
    report = kernel_sup_error(
        analytic,
        prony,
        window=(cfg.window_t_min, cfg.window_t_max),
        samples=cfg.window_samples,
    )
    run_dir = make_run_dir(cfg, "kernel-error")
    write_csv(run_dir / "kernel_error.csv", ["t", "error"], zip(report.times, report.errors))
    write_manifest(cfg, run_dir, started)
    print(f"sup error = {report.sup_error:.6e}")
    print(f"output in {run_dir}")
    return EXIT_OK


def cmd_compare_baseline(cfg: RunConfig) -> int:
    started = datetime.now(timezone.utc).isoformat()
    if not cfg.ladder_steps:
        raise ConfigError("ladder_steps is empty: compare-baseline needs at least one step count")
    longest = history_bytes(cfg.grid, max(cfg.ladder_steps))
    if longest > HISTORY_BYTES_LIMIT:
        raise ConfigError(
            f"the full-history baseline would store {longest} bytes "
            f"({max(cfg.ladder_steps) + 1} levels on grid {cfg.grid}), over its budget "
            f"of {HISTORY_BYTES_LIMIT} bytes"
        )
    spec = cfg.experiment_spec()
    rows = compare_baseline(spec, cfg.ladder_steps)
    run_dir = make_run_dir(cfg, "compare-baseline")
    write_csv(
        run_dir / "baseline.csv",
        ["tau", "max_diff", "soe_seconds", "history_seconds", "soe_fields", "history_fields"],
        [(row.tau, row.max_diff, f"{row.soe_seconds:.6f}", f"{row.history_seconds:.6f}",
          row.soe_fields, row.history_fields) for row in rows],
    )
    write_manifest(cfg, run_dir, started)
    for row in rows:
        print(
            f"tau={row.tau:g}: max diff {row.max_diff:.6e} "
            f"(fields: {row.soe_fields} compressed vs {row.history_fields} history)"
        )
    print(f"output in {run_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memstep",
        description="Memory-term evolution solver via sum-of-exponentials compression",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--beta", type=str, default=None,
                        help="stretched-exponential exponent (3/7, 1/2 or 3/5)")
    common.add_argument("--kernel-file", dest="kernel_file", type=str, default=None,
                        help="CSV of 'a,b' Prony coefficients")
    common.add_argument("--sigma", type=float, default=None, help="scheme weight in (0, 1]")
    common.add_argument("--tau", type=float, default=None, help="time step (must divide T)")
    common.add_argument("--steps", type=int, default=None, help="number of time steps")
    common.add_argument("--T", type=float, default=None, help="final time")
    common.add_argument("--grid", type=int, default=None, help="cells per direction")
    common.add_argument("--out", type=str, default=None,
                        help="output root (default $MEMSTEP_OUT or ./runs)")
    common.add_argument("--reference-steps", dest="reference_steps", type=int,
                        default=None, help="time steps of the reference run")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="run the model relaxation problem")
    sub.add_parser("converge", parents=[common], help="tau-ladder convergence study")
    sub.add_parser("kernel-error", parents=[common],
                   help="Prony-vs-analytic kernel error report")
    sub.add_parser("compare-baseline", parents=[common],
                   help="compressed stepper vs full-history baseline")
    return parser


_COMMANDS = {
    "run": cmd_run,
    "converge": cmd_converge,
    "kernel-error": cmd_kernel_error,
    "compare-baseline": cmd_compare_baseline,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    # NotSpdError is a ValueError, so the numerical clause must come first.
    except (ConvergenceError, NotSpdError, AuxiliaryResidualError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # every configuration error subclasses ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
