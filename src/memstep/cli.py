"""Command-line front door for the memory-stepping experiments.

Subcommands: ``run`` (model relaxation problem), ``converge`` (tau-ladder
convergence study), ``kernel-error`` (Prony-vs-analytic error report) and
``compare-baseline`` (compressed vs full-history steppers).  Configuration
comes from defaults, then an optional JSON config file, then flags; the
fully resolved configuration is echoed to ``manifest.json`` in the run
directory and can be fed back as a config file to reproduce the run.

``main`` drives every command: the command checks its configuration and
returns its work, then ``main`` makes the run directory, runs the work and
writes its tables and the manifest.  Exit codes: 0 success, 2 configuration
error (the command's checks run before the run directory is made, and its
output paths are checked once it is, before the work), 3 numerical failure
(which leaves the run directory without outputs).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .kernels import (
    BUILTIN_BETAS,
    StretchedExponential,
    builtin_beta,
    kernel_sup_error,
    load_builtin_prony,
    prony_from_file,
)
from .experiments import (
    ExperimentSpec,
    check_baseline_ladder,
    check_convergence_ladder,
    compare_baseline,
    convergence_study,
    run_model_problem,
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
    # converge measures each entry, at sigma, against the exact solution; each must
    # be divisible by sample_count so the sample times land on its time grid.
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
        for key in ("T", "tau", "cg_tol", "window_t_min", "window_t_max"):
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:  # a NaN fails too
                raise ConfigError(f"{key}={value} must be > 0 and finite")
        if self.grid < 2:
            raise ConfigError(f"grid={self.grid} must be >= 2")
        n = self.resolved_steps()
        if not self.T / n > 0:  # T/n can underflow to 0
            raise ConfigError(f"T={self.T} over steps {n} gives tau=0.0, which must be > 0")

    def kernel(self):
        if self.kernel_file is not None:
            try:
                return prony_from_file(self.kernel_file)
            except OSError as exc:
                raise ConfigError(f"cannot read kernel file: {exc}") from exc
        try:
            return load_builtin_prony(self.beta)
        except KeyError as exc:
            raise ConfigError(f"{exc.args[0]}; pass --kernel-file for other kernels") from exc

    def experiment_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            kernel=self.kernel(),
            grid_n=self.grid,
            final_time=self.T,
            sigma=self.sigma,
            n_steps=self.resolved_steps(),
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


def check_outputs(run_dir: Path, names) -> None:
    """Raise ConfigError, before any work and without creating a file, naming
    the first output in ``run_dir`` that could not be written: any output when
    the directory takes no new files, or one of ``names`` that is a directory
    or a file without write permission."""
    if not os.access(run_dir, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write in {run_dir}: {os.strerror(errno.EACCES)}")
    for name in names:
        path = run_dir / name
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        if path.exists() and not os.access(path, os.W_OK):
            raise ConfigError(f"cannot write {path}: {os.strerror(errno.EACCES)}")


@contextlib.contextmanager
def _output(path):
    """The file ``path`` open for writing, with no newline translation; an
    OSError from opening or writing it becomes a ConfigError (exit 2) naming
    the file."""
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_manifest(cfg: RunConfig, run_dir: Path, started_at: str) -> None:
    """The config, which ``--config`` replays, and the state its bits depend
    on: the versions and numpy's BLAS with its thread settings, whose count
    changes the bits of long inner products."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    payload = {
        "config": dataclasses.asdict(cfg),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            **{key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "started_at": started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(),
    }
    with _output(run_dir / "manifest.json") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows; floats get 17 significant digits (exact on reading back)."""
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


# Each command checks its configuration and returns its work: a callable that
# returns the tables to write, {file name: (header, rows)}, and the lines to
# print.  ``_COMMANDS`` names the tables each command writes.


def cmd_run(cfg: RunConfig):
    spec = cfg.experiment_spec()

    def work():
        traj = run_model_problem(spec)
        # Python numbers, which csv.writer takes faster than numpy scalars, with the same bytes
        rows = zip(traj.steps.tolist(), traj.times.tolist(), traj.energies.tolist(),
                   traj.center_values.tolist())
        return ({"trajectory.csv": (["n", "t", "energy", "center_value"], rows)},
                [f"run complete: {spec.n_steps} steps"])

    return work


def cmd_converge(cfg: RunConfig):
    spec = cfg.experiment_spec()
    check_convergence_ladder(spec, cfg.ladder_steps)

    def work():
        result = convergence_study(spec, cfg.ladder_steps)
        errs = min(result.rows, key=lambda row: row.tau).errors  # the finest entry's
        return {
            "convergence.csv": (["tau", "max_eps2", "max_epsinf"],
                                [(row.tau, row.max_eps2, row.max_epsinf) for row in result.rows]),
            "errors.csv": (["t", "eps2", "epsinf"], zip(spec.sample_times(), errs.eps2, errs.epsinf)),
        }, [f"slope {name} = " + ("undefined" if slope is None else f"{slope:.3f}")
            for name, slope in (("eps2", result.slope_eps2), ("epsinf", result.slope_epsinf))]

    return work


def cmd_kernel_error(cfg: RunConfig):
    if cfg.kernel_file is not None:
        raise ConfigError("kernel-error compares a built-in kernel with its analytic "
                          "form; a custom kernel file has no analytic target")
    prony = cfg.kernel()  # a beta with no built-in fit fails here
    report = kernel_sup_error(StretchedExponential(builtin_beta(cfg.beta)), prony,
                              (cfg.window_t_min, cfg.window_t_max), cfg.window_samples)
    return lambda: ({"kernel_error.csv": (["t", "error"], zip(report.times, report.errors))},
                    [f"sup error = {report.sup_error:.6e}"])


def cmd_compare_baseline(cfg: RunConfig):
    spec = cfg.experiment_spec()
    check_baseline_ladder(spec, cfg.ladder_steps)

    def work():
        rows = compare_baseline(spec, cfg.ladder_steps)
        header = ["tau", "max_diff", "soe_seconds", "history_seconds", "soe_fields", "history_fields"]
        table = [(row.tau, row.max_diff, f"{row.soe_seconds:.6f}", f"{row.history_seconds:.6f}",
                  row.soe_fields, row.history_fields) for row in rows]
        lines = [f"tau={row.tau:g}: max diff {row.max_diff:.6e} "
                 f"(fields: {row.soe_fields} compressed vs {row.history_fields} history)"
                 for row in rows]
        return {"baseline.csv": (header, table)}, lines

    return work


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memstep",
        description="Memory-term evolution solver via sum-of-exponentials compression",
    )
    # each subcommand takes the flags it reads: every one reads --config, --beta and --out
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--beta", type=str, default=None,
                        help=f"stretched-exponential exponent ({', '.join(BUILTIN_BETAS)})")
    common.add_argument("--out", type=str, default=None,
                        help="output root (default $MEMSTEP_OUT or ./runs)")
    model = argparse.ArgumentParser(add_help=False, parents=[common])  # the model problem's
    model.add_argument("--kernel-file", dest="kernel_file", type=str, default=None,
                       help="CSV of 'a,b' Prony coefficients")
    model.add_argument("--sigma", type=float, default=None, help="scheme weight in (0, 1]")
    model.add_argument("--T", type=float, default=None, help="final time")
    model.add_argument("--grid", type=int, default=None, help="cells per direction")
    run = argparse.ArgumentParser(add_help=False, parents=[model])
    run.add_argument("--tau", type=float, default=None, help="time step (must divide T)")
    run.add_argument("--steps", type=int, default=None, help="number of time steps")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[run], help="run the model relaxation problem")
    sub.add_parser("converge", parents=[model], help="tau-ladder convergence study")
    sub.add_parser("kernel-error", parents=[common],
                   help="Prony-vs-analytic kernel error report")
    sub.add_parser("compare-baseline", parents=[model],
                   help="compressed stepper vs full-history baseline")
    return parser


_COMMANDS = {
    "run": (cmd_run, ("trajectory.csv",)),
    "converge": (cmd_converge, ("convergence.csv", "errors.csv")),
    "kernel-error": (cmd_kernel_error, ("kernel_error.csv",)),
    "compare-baseline": (cmd_compare_baseline, ("baseline.csv",)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        started = datetime.now(timezone.utc).isoformat()
        command, outputs = _COMMANDS[args.command]
        work = command(cfg)
        run_dir = make_run_dir(cfg, args.command)
        check_outputs(run_dir, (*outputs, "manifest.json"))
        tables, lines = work()
        for name, (header, rows) in tables.items():
            write_csv(run_dir / name, header, rows)
        write_manifest(cfg, run_dir, started)
    # NotSpdError is a ValueError, so the numerical clause must come first.
    except (ConvergenceError, NotSpdError, AuxiliaryResidualError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # every configuration error subclasses ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(*lines, f"output in {run_dir}", sep="\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
