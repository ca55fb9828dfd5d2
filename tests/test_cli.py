import dataclasses
import errno
import json
import math
import os
import platform
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import no_thread, set_cpus
from memstep import cli, experiments, schemes
from memstep.kernels import (
    BUILTIN_BETAS,
    StretchedExponential,
    kernel_sup_error,
    load_builtin_prony,
)
from memstep.operators import ConvergenceError, FivePointLaplacian, NotSpdError, SpdOperator
from memstep.schemes import NonFiniteError

# fast settings shared by most invocations: coarse grid, short horizon
FAST = ["--grid", "16", "--T", "2", "--steps", "64"]


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("MEMSTEP_OUT", str(tmp_path))
    return tmp_path


def counted_steps(monkeypatch) -> list:
    """One entry per compressed step, and per full-history run, taken in this process."""
    steps = []
    build, levels = experiments.soe_stepper, experiments.history_levels

    def counting_stepper(problem, cfg, **options):
        step = build(problem, cfg, **options)
        return lambda s: steps.append(1) or step(s)

    monkeypatch.setattr(experiments, "soe_stepper", counting_stepper)
    monkeypatch.setattr(experiments, "history_levels", lambda *args: steps.append(1) or levels(*args))
    return steps


class TestRunCommand:
    def test_writes_trajectory_and_manifest(self, out_root):
        assert cli.main(["run", *FAST]) == cli.EXIT_OK
        run_dir = out_root / "run"
        lines = (run_dir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "n,t,energy,center_value"
        assert len(lines) == 66  # header + 65 time levels
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["grid"] == 16
        assert manifest["config"]["sigma"] == 0.5

    def test_manifest_reproduces_run_byte_identically(self, out_root, tmp_path):
        assert cli.main(["run", *FAST]) == cli.EXIT_OK
        first = (out_root / "run" / "trajectory.csv").read_bytes()
        manifest = out_root / "run" / "manifest.json"
        # the BLAS state is recorded beside the config, which alone is replayed
        assert {"python_version", "numpy_version", "blas"} <= json.loads(manifest.read_text()).keys()
        rerun_root = tmp_path / "rerun"
        assert (
            cli.main(["run", "--config", str(manifest), "--out", str(rerun_root)])
            == cli.EXIT_OK
        )
        second = (rerun_root / "run" / "trajectory.csv").read_bytes()
        assert first == second

    def test_manifest_records_the_blas_state(self, out_root, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert cli.main(["run", *FAST]) == cli.EXIT_OK
        manifest = json.loads((out_root / "run" / "manifest.json").read_text())
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"],
                                    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}

    def test_steps_start_no_thread(self, out_root, monkeypatch):
        # a grid-256 run's stack of 12 fields, 780k values, swept on this thread
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        stepped, build = [], experiments.soe_stepper

        def recording_stepper(problem, cfg, **options):
            step = build(problem, cfg, **options)

            def recorded(s):
                stepped.append((problem, step(s)))
                return stepped[-1][1]

            return recorded

        monkeypatch.setattr(experiments, "soe_stepper", recording_stepper)
        assert cli.main(["run", "--grid", "256", "--T", "0.5", "--steps", "2"]) == cli.EXIT_OK
        rows = (out_root / "run" / "trajectory.csv").read_text().splitlines()[2:]
        assert len(stepped) == len(rows) == 2
        assert stepped[0][1].aux.size == 12 * 255**2
        for (problem, state), row in zip(stepped, rows):
            assert state.energy == schemes.energy(problem, state) == float(row.split(",")[2])

    def test_tau_flag_equivalent_to_steps(self, out_root, tmp_path):
        assert cli.main(["run", *FAST]) == cli.EXIT_OK
        by_steps = (out_root / "run" / "trajectory.csv").read_bytes()
        other = tmp_path / "by_tau"
        assert (
            cli.main(
                ["run", "--grid", "16", "--T", "2", "--tau", "0.03125", "--out", str(other)]
            )
            == cli.EXIT_OK
        )
        assert (other / "run" / "trajectory.csv").read_bytes() == by_steps

    def test_any_step_count_runs(self, out_root):
        # a run samples no snapshots, so sample_count (8) need not divide 401
        assert cli.main(["run", "--steps", "401"]) == cli.EXIT_OK
        lines = (out_root / "run" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 402

    def test_default_run_applies_no_stencil(self, monkeypatch):
        calls = []
        apply = FivePointLaplacian.apply_values
        monkeypatch.setattr(
            FivePointLaplacian,
            "apply_values",
            lambda lap, v: calls.append(1) or apply(lap, v),
        )
        assert cli.main(["run"]) == cli.EXIT_OK
        assert calls == []  # the model problem is stepped in sine coordinates

    @pytest.mark.filterwarnings("error")
    def test_stiff_run_passes_the_residual_guard(self, out_root):
        # sigma = 1/2 with b * tau up to about 1e4: an honest stiff update
        argv = ["run", "--grid", "2", "--T", "1e5", "--steps", "1000"]
        assert cli.main(argv) == cli.EXIT_OK
        assert (out_root / "run" / "trajectory.csv").exists()

    def test_flag_overrides_config_file(self, out_root, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 16, "T": 2.0, "steps": 64, "sigma": 1.0}))
        assert (
            cli.main(["run", "--config", str(config), "--sigma", "0.5"])
            == cli.EXIT_OK
        )
        manifest = json.loads((out_root / "run" / "manifest.json").read_text())
        assert manifest["config"]["sigma"] == 0.5


class TestConfigErrors:
    def test_sigma_out_of_range(self, capsys):
        assert cli.main(["run", *FAST, "--sigma", "1.5"]) == cli.EXIT_CONFIG
        assert "(0, 1]" in capsys.readouterr().err

    def test_unsupported_beta_mentions_alternatives(self, capsys):
        assert cli.main(["run", *FAST, "--beta", "0.4"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(key in err for key in BUILTIN_BETAS) and "kernel-file" in err
        with pytest.raises(SystemExit):
            cli.main(["kernel-error", "--help"])
        help_text = capsys.readouterr().out
        assert all(key in help_text for key in BUILTIN_BETAS)

    @pytest.mark.parametrize("argv", [
        ["converge", "--steps", "7"],
        ["converge", "--tau", "0.3"],
        ["compare-baseline", "--steps", "7"],
        ["kernel-error", "--grid", "1"],
        ["kernel-error", "--sigma", "0.5"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, out_root, capsys, argv):
        # only run reads --tau and --steps; kernel-error reads --config, --beta and --out
        with pytest.raises(SystemExit) as raised:
            cli.main(argv)
        assert raised.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (out_root / argv[0]).exists()

    def test_tau_not_dividing_horizon(self, capsys):
        assert cli.main(["run", "--T", "2", "--tau", "0.3"]) == cli.EXIT_CONFIG
        assert "whole steps" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 16, "stepz": 10}))
        assert cli.main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "stepz" in capsys.readouterr().err

    def test_short_ladder_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"grid": 16, "T": 2.0, "ladder_steps": [64]})
        )
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "at least 3" in capsys.readouterr().err

    def test_repeated_ladder_entries_rejected(self, out_root, tmp_path, capsys):
        # two distinct taus, or one, leave no slope to fit
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 8, "ladder_steps": [48, 48, 48]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["converge", "--config", str(config)])
        assert code == cli.EXIT_CONFIG and caught == []
        assert "at least 3 distinct step counts, got [48, 48, 48]" in capsys.readouterr().err
        assert not (out_root / "converge").exists()

    def test_manifest_with_reference_steps_rejected(self, out_root, tmp_path, capsys):
        # a converge manifest from when the study stepped its own reference
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"config": {"grid": 8, "reference_steps": 1000}}))
        assert cli.main(["converge", "--config", str(manifest)]) == cli.EXIT_CONFIG
        assert "unknown config keys: ['reference_steps']" in capsys.readouterr().err
        assert not (out_root / "converge").exists()

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("run", {"steps": 8.0, "sample_count": 8}, "steps"),
            ("run", {"grid": 16.0}, "grid"),
            ("run", {"steps": "100"}, "steps"),
            ("run", {"T": "4"}, "T"),
            ("run", {"sigma": True}, "sigma"),
            ("converge", {"ladder_steps": [48, 96.5, 192, 384]}, "ladder_steps"),
        ],
    )
    def test_config_value_of_wrong_type(self, out_root, tmp_path, capsys, command, config, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert f" {key}=" in capsys.readouterr().err
        assert not (out_root / command).exists()

    def test_steps_and_tau_must_agree(self, out_root, tmp_path, capsys):
        assert cli.main(["run", "--steps", "8", "--tau", "0.3"]) == cli.EXIT_CONFIG
        assert "steps=8 disagrees" in capsys.readouterr().err
        assert not (out_root / "run").exists()
        assert cli.main(["run", *FAST]) == cli.EXIT_OK
        by_steps = (out_root / "run" / "trajectory.csv").read_bytes()
        manifest = out_root / "run" / "manifest.json"
        rerun = tmp_path / "rerun"
        args = ["run", "--config", str(manifest), "--out", str(rerun)]
        assert cli.main([*args, "--tau", "0.25"]) == cli.EXIT_CONFIG
        assert "steps=64 disagrees" in capsys.readouterr().err
        assert cli.main([*args, "--tau", "0.03125"]) == cli.EXIT_OK  # a consistent pair
        assert (rerun / "run" / "trajectory.csv").read_bytes() == by_steps

    @pytest.mark.parametrize("command, flags, config, message", [
        pytest.param("run", ["--steps", "0"], None, "steps=0 must be >= 1", id="steps"),
        pytest.param("run", [], {"grid": 1}, "grid=1 must be >= 2", id="grid"),
        pytest.param("run", [], [{"grid": 8}], "config must be a JSON object", id="json-array"),
        pytest.param("run", [], {"sample_count": 0}, "need at least one sample time",
                     id="sample_count"),
        pytest.param("kernel-error", [], {"window_samples": 1}, "need at least 2 samples, got 1",
                     id="window_samples"),
    ])
    def test_value_below_its_floor_rejected(self, out_root, tmp_path, capsys, command, flags,
                                            config, message):
        argv = [command, *flags]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not (out_root / command).exists()

    @pytest.mark.parametrize("entry", [0, -8])
    def test_ladder_entry_below_one_rejected(self, tmp_path, capsys, entry):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 8, "T": 1.0, "ladder_steps": [entry, 8, 16]}))
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "must all be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--T", "5e-324", "--steps", "2"],
        ["converge", "--T", "5e-324"],
        ["compare-baseline", "--T", "5e-324", "--grid", "8"],
    ])
    def test_step_size_underflowing_to_zero_rejected(self, out_root, capsys, argv):
        # T/n rounds to 0 although T > 0: rejected before the run directory is made
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "gives tau=0.0, which must be > 0" in capsys.readouterr().err
        assert not (out_root / argv[0]).exists()

    def test_run_takes_no_ladder(self, out_root, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 8, "steps": 8, "ladder_steps": [0, 8, 16]}))
        assert cli.main(["run", "--config", str(config)]) == cli.EXIT_OK
        assert (out_root / "run" / "trajectory.csv").exists()

    def test_ladder_entry_with_zero_step_size_rejected(self, out_root, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"T": 1e-322, "steps": 1, "ladder_steps": [8, 16, 10**4]}))
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "over ladder_steps 10000 gives tau=0.0" in capsys.readouterr().err
        assert not (out_root / "converge").exists()

    @pytest.mark.parametrize("tol", [0, -1e-10])
    def test_cg_tol_must_be_positive(self, out_root, tmp_path, capsys, tol):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cg_tol": tol}))
        assert cli.main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert f"cg_tol={tol} must be > 0" in capsys.readouterr().err
        assert not (out_root / "run").exists()

    def test_missing_config_file(self, out_root, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["run", "--config", str(missing)]) == cli.EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err
        assert not (out_root / "run").exists()

    @pytest.mark.parametrize("command", ["run", "kernel-error", "converge", "compare-baseline"])
    def test_out_that_is_a_file(self, tmp_path, monkeypatch, capsys, command):
        # found before any step: the run directory is made before the work
        set_cpus(monkeypatch, 1)  # every run in this process, where the steps are counted
        steps = counted_steps(monkeypatch)
        blocker = tmp_path / "a-file"
        blocker.write_text("kept")
        small = [] if command == "kernel-error" else ["--grid", "8"]  # which takes no --grid
        argv = [command, *small, "--out", str(blocker)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"{blocker}/{command}" in capsys.readouterr().err
        assert blocker.read_text() == "kept"
        assert steps == []

    @pytest.mark.parametrize("name", ["trajectory.csv", "manifest.json"])
    def test_output_file_that_cannot_be_written(self, tmp_path, monkeypatch, capsys, name):
        # found once the run directory is made, before any step: exit 2 naming the file
        steps = counted_steps(monkeypatch)
        blocked = tmp_path / "run" / name
        blocked.mkdir(parents=True)
        assert cli.main(["run", "--grid", "8", "--steps", "8", "--out", str(tmp_path)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {blocked}: ")
        assert "Traceback" not in err and blocked.is_dir()
        assert steps == []
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [name]

    def test_output_that_fails_after_its_check_exits_2(self, tmp_path, monkeypatch, capsys):
        # the file becomes a directory once the checks have passed: the write's
        # own OSError becomes the ConfigError naming it
        check = cli.check_outputs

        def check_then_block(run_dir, names):
            check(run_dir, names)
            (run_dir / "trajectory.csv").mkdir()

        monkeypatch.setattr(cli, "check_outputs", check_then_block)
        argv = ["run", "--grid", "8", "--steps", "8", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        blocked = tmp_path / "run" / "trajectory.csv"
        assert err.startswith(f"configuration error: cannot write {blocked}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, (_, tables) in cli._COMMANDS.items()
        for name in (*tables, "manifest.json")])
    def test_each_output_checked_before_the_work(self, tmp_path, monkeypatch, capsys,
                                                  command, name):
        set_cpus(monkeypatch, 1)  # every run in this process, where the steps are counted
        steps = counted_steps(monkeypatch)
        blocked = tmp_path / command / name
        blocked.mkdir(parents=True)
        small = [] if command == "kernel-error" else ["--grid", "8"]
        assert cli.main([command, *small, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: cannot write {blocked}: ")
        assert steps == []
        assert [p.name for p in (tmp_path / command).iterdir()] == [name]

    def test_read_only_output_file_rejected_before_the_work(self, tmp_path, monkeypatch, capsys):
        steps = counted_steps(monkeypatch)
        kept = tmp_path / "run" / "trajectory.csv"
        kept.parent.mkdir()
        kept.write_text("kept")
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: path != kept and access(path, mode))
        assert cli.main(["run", "--grid", "8", "--steps", "8", "--out", str(tmp_path)]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: cannot write {kept}: Permission denied\n")
        assert steps == [] and kept.read_text() == "kept"

    def test_run_directory_that_takes_no_files_rejected_before_the_work(
            self, tmp_path, monkeypatch, capsys):
        # as a directory without write permission reads to any user but root
        steps = counted_steps(monkeypatch)
        run_dir = tmp_path / "run"
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: path != run_dir and access(path, mode))
        assert cli.main(["run", "--grid", "8", "--steps", "8", "--out", str(tmp_path)]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: cannot write in {run_dir}: Permission denied\n")
        assert steps == [] and list(run_dir.iterdir()) == []

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_the_outputs_checked_are_those_written(self, tmp_path, monkeypatch, command):
        set_cpus(monkeypatch, 1)
        small = {"kernel-error": [], "run": ["--grid", "8", "--steps", "8"]}.get(
            command, ["--grid", "8", "--T", "0.5"])
        assert cli.main([command, *small, "--out", str(tmp_path)]) == cli.EXIT_OK
        _, tables = cli._COMMANDS[command]
        assert sorted(p.name for p in (tmp_path / command).iterdir()) \
            == sorted((*tables, "manifest.json"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, key, value", [
        ("run", "T", math.inf),
        ("run", "T", math.nan),
        ("run", "tau", math.nan),
        ("run", "tau", math.inf),
        ("run", "cg_tol", math.nan),
        ("kernel-error", "window_t_max", math.inf),
        ("kernel-error", "window_t_min", math.nan),
        ("converge", "T", math.inf),
    ])
    def test_non_finite_value_rejected(self, out_root, tmp_path, capsys, command, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))  # Infinity or NaN, as Python's json reads
        assert cli.main([command, "--config", str(config)]) == cli.EXIT_CONFIG
        assert f"configuration error: {key}={value} must be > 0 and finite" in capsys.readouterr().err
        assert not (out_root / command).exists()

    @pytest.mark.parametrize("flag", ["--T", "--tau"])
    def test_non_finite_flag_rejected(self, out_root, capsys, flag):
        assert cli.main(["run", flag, "inf"]) == cli.EXIT_CONFIG
        assert f"{flag[2:]}=inf must be > 0 and finite" in capsys.readouterr().err
        assert not (out_root / "run").exists()

    @pytest.mark.parametrize("beta", ["1/2", "0.5"])
    def test_beta_as_fraction_or_decimal_text(self, out_root, tmp_path, beta):
        out = tmp_path / beta.replace("/", "-")
        assert cli.main(["kernel-error", "--beta", beta, "--out", str(out)]) == cli.EXIT_OK
        expected = kernel_sup_error(StretchedExponential(0.5), load_builtin_prony(0.5))
        data = np.genfromtxt(out / "kernel-error" / "kernel_error.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(data["error"], expected.errors)

    def test_missing_kernel_file(self, capsys):
        assert (
            cli.main(["run", *FAST, "--kernel-file", "/nonexistent/k.csv"])
            == cli.EXIT_CONFIG
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("inf,1.0", "weight a=inf must be finite and > 0"),
            ("1.0,inf", "rate b=inf must be finite and >= 0"),
            ("nan,1.0", "weight a=nan must be finite and > 0"),
        ],
    )
    def test_non_finite_kernel_coefficient_rejected(
        self, out_root, tmp_path, capsys, row, message
    ):
        kernel = tmp_path / "k.csv"
        kernel.write_text(f"1.0,0.5\n{row}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", *FAST, "--kernel-file", str(kernel)])
        assert code == cli.EXIT_CONFIG and caught == []
        assert f"k.csv:2: {message}" in capsys.readouterr().err
        assert not (out_root / "run").exists()


class TestNumericalFailures:
    def test_not_spd_maps_to_numerical_exit(self, monkeypatch, capsys):
        # NotSpdError is a ValueError; it must not be reported as a config error
        def failing_run(spec):
            raise NotSpdError("quadratic form is negative: -1")

        monkeypatch.setattr(cli, "run_model_problem", failing_run)
        assert cli.main(["run", *FAST]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_negative_energy_form_exits_numerical(self, out_root, monkeypatch, capsys):
        # an operator that is negative on the memory fields: level 0's fields are
        # zero, so the first negative form is the one the first step takes
        class Negation(SpdOperator):
            def apply_values(self, v):
                return -1.0 * v

        build = experiments.build_model_problem

        def negated_problem(spec, initial=None):
            problem = build(spec, initial)
            return dataclasses.replace(problem, operator=Negation())

        monkeypatch.setattr(experiments, "build_model_problem", negated_problem)
        assert cli.main(["run", *FAST]) == cli.EXIT_NUMERICAL
        assert "numerical failure: quadratic form is negative" in capsys.readouterr().err
        assert not (out_root / "run" / "trajectory.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_scheme_coefficients(self, out_root, capsys):
        # tau = 1e308: sigma * b * tau overflows while the coefficients are built
        assert cli.main(["run", "--T", "1e308", "--steps", "1", "--grid", "8"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite values in the scheme coefficients")
        assert list((out_root / "run").iterdir()) == []  # made before the steps, left empty

    @pytest.mark.filterwarnings("error")
    def test_unstable_run_names_step_without_warnings(self, out_root, capsys):
        argv = ["run", "--sigma", "0.1", "--tau", "0.5", "--T", "200"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "non-finite values" in err and "of step" in err and "(t=" in err
        assert not (out_root / "run" / "trajectory.csv").exists()


# three short runs; on two CPUs a worker runs the first, 256-step, entry alone,
# and this process the exact reference and the other two
SMALL_STUDY = {"grid": 8, "T": 1.0, "ladder_steps": [256, 8, 16]}


def failing_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


class TestConvergeCommand:
    def test_misaligned_entry_rejected_before_any_step(self, out_root, tmp_path, monkeypatch, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ladder_steps": [48, 96, 100, 384]}))
        steps = counted_steps(monkeypatch)
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "n_steps=100 is not divisible by sample_count=8" in capsys.readouterr().err
        assert not (out_root / "converge").exists()
        assert steps == []

    def test_reports_slopes_near_two(self, out_root, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"grid": 16, "T": 2.0, "ladder_steps": [16, 32, 64]}
            )
        )
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        slope = float(out.splitlines()[0].split("=")[1])
        assert slope == pytest.approx(2.0, abs=0.35)
        run_dir = out_root / "converge"
        assert (run_dir / "convergence.csv").exists()
        assert (run_dir / "errors.csv").exists()
        assert (run_dir / "manifest.json").exists()

    def test_zero_errors_leave_the_slopes_undefined(self, out_root, tmp_path, capsys):
        # over T = 1e-12 every ladder entry matches the exact solution to the bit
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ladder_steps": [8, 16, 32]}))
        assert cli.main(["converge", "--T", "1e-12", "--config", str(config)]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["slope eps2 = undefined", "slope epsinf = undefined"]
        run_dir = out_root / "converge"
        rows = (run_dir / "convergence.csv").read_text().splitlines()
        assert rows[0] == "tau,max_eps2,max_epsinf" and len(rows) == 4
        assert all(row.endswith(",0,0") for row in rows[1:])
        errors = (run_dir / "errors.csv").read_text().splitlines()
        assert errors[0] == "t,eps2,epsinf" and len(errors) == 9
        assert all(row.endswith(",0,0") for row in errors[1:])
        assert json.loads((run_dir / "manifest.json").read_text())["config"]["T"] == 1e-12

    def test_finest_entry_runs_once_and_feeds_errors_csv(self, out_root, tmp_path, monkeypatch):
        set_cpus(monkeypatch, 1)  # every run in this process, where the calls are counted
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 8, "T": 1.0, "ladder_steps": [16, 8, 32]}))
        calls = []
        sample_run = experiments._sample_run

        def counting_run(spec, n_steps):
            calls.append(n_steps)
            return sample_run(spec, n_steps)

        monkeypatch.setattr(experiments, "_sample_run", counting_run)
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_OK
        assert sorted(calls) == [8, 16, 32]  # the ladder, and no stepped reference

        spec = cli.resolve_config(
            cli.build_parser().parse_args(["converge", "--config", str(config)])
        ).experiment_spec()
        errs = experiments.error_series(sample_run(spec, 32), experiments._exact_snapshots(spec))
        expected = tmp_path / "expected.csv"
        cli.write_csv(expected, ["t", "eps2", "epsinf"], zip(spec.sample_times(), errs.eps2, errs.epsinf))
        assert (out_root / "converge" / "errors.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_outputs_match_a_one_cpu_run(self, tmp_path, monkeypatch, cpus):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_STUDY))
        calls = []
        sample_run = experiments._sample_run
        monkeypatch.setattr(
            experiments, "_sample_run", lambda *a, **kw: calls.append(1) or sample_run(*a, **kw)
        )
        outputs = {}
        for count in (1, cpus):
            set_cpus(monkeypatch, count)
            calls.clear()
            out = tmp_path / f"cpus-{count}"
            assert cli.main(["converge", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
            outputs[count] = [(out / "converge" / name).read_bytes()
                              for name in ("convergence.csv", "errors.csv")]
        assert len(calls) < 3  # the last pass forked: this process ran only some of the 3 runs
        assert outputs[cpus] == outputs[1]

    def test_failed_fork_runs_the_group_here(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_STUDY))
        monkeypatch.setattr(os, "fork", failing_fork)  # as under a process limit
        outputs = {}
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            out = tmp_path / f"cpus-{count}"
            assert cli.main(["converge", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
            outputs[count] = [(out / "converge" / name).read_bytes()
                              for name in ("convergence.csv", "errors.csv")]
        assert outputs[2] == outputs[1]

    @pytest.mark.parametrize("error", [
        lambda: NonFiniteError("non-finite values in the update of step 3 (t=0.046875): overflow"),
        lambda: ConvergenceError("CG did not converge: residual 1.5e-03 after 7 iterations",
                                 1.5e-3, 7),
    ], ids=["non-finite", "cg"])
    def test_failure_in_a_worker_reads_as_in_order(self, tmp_path, monkeypatch, capsys, error):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_STUDY))
        sample_run = experiments._sample_run

        def failing_run(spec, n_steps):
            if n_steps == 256:  # the entry a worker runs alone
                raise error()
            return sample_run(spec, n_steps)

        monkeypatch.setattr(experiments, "_sample_run", failing_run)
        errs = []
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_NUMERICAL
            errs.append(capsys.readouterr().err)
        assert errs[1] == errs[0] == f"numerical failure: {error()}\n"
        with pytest.raises(ChildProcessError):  # no child is left behind
            os.waitpid(-1, os.WNOHANG)

    def test_first_failure_in_order_is_reported(self, tmp_path, monkeypatch, capsys):
        # every run fails; this process's own first run fails before the
        # worker's 256-step entry, whose failure is the one an in-order study meets
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_STUDY))

        def failing_run(spec, n_steps):
            raise NonFiniteError(f"run of {n_steps} steps")

        monkeypatch.setattr(experiments, "_sample_run", failing_run)
        errs = []
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_NUMERICAL
            errs.append(capsys.readouterr().err)
        assert errs[1] == errs[0] == "numerical failure: run of 256 steps\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    @pytest.mark.filterwarnings("error")
    def test_overflowing_exact_reference_is_a_numerical_failure(self, out_root, tmp_path, capsys):
        kernel = tmp_path / "k.csv"
        kernel.write_text("1e300,1.0\n")
        argv = ["converge", "--grid", "8", "--kernel-file", str(kernel)]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        assert "non-finite values in the exact reference" in capsys.readouterr().err
        assert list((out_root / "converge").iterdir()) == []  # made before the steps, left empty


class TestKernelErrorCommand:
    def test_csv_and_sup_match_direct_call(self, out_root, capsys):
        assert cli.main(["kernel-error", "--beta", "1/2"]) == cli.EXIT_OK
        data = np.genfromtxt(
            out_root / "kernel-error" / "kernel_error.csv",
            delimiter=",", names=True,
        )
        assert len(data) == 1000
        expected = kernel_sup_error(
            StretchedExponential(0.5), load_builtin_prony("1/2"),
            window=(0.1, 10.0), samples=1000,
        ).sup_error
        assert np.max(np.abs(data["error"])) == pytest.approx(expected, abs=1e-12)
        assert f"{expected:.6e}" in capsys.readouterr().out

    def test_kernel_file_has_no_analytic_target(self, out_root, tmp_path, capsys):
        kernel, config = tmp_path / "k.csv", tmp_path / "cfg.json"
        kernel.write_text("1,2\n")
        with pytest.raises(SystemExit) as raised:  # kernel-error takes no such flag
            cli.main(["kernel-error", "--kernel-file", str(kernel)])
        assert raised.value.code == 2
        config.write_text(json.dumps({"kernel_file": str(kernel)}))
        assert cli.main(["kernel-error", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "no analytic target" in capsys.readouterr().err
        assert not (out_root / "kernel-error").exists()


# four short entries; on two CPUs a worker runs the 64-step one alone
BASELINE_LADDER = {"grid": 8, "T": 1.0, "ladder_steps": [8, 16, 32, 64]}


def counted_entries(monkeypatch) -> list:
    """The step counts of the ladder entries run in this process, in order."""
    calls = []
    compare_one = experiments._compare_one
    monkeypatch.setattr(
        experiments, "_compare_one",
        lambda problem, spec, n_steps: calls.append(n_steps) or compare_one(problem, spec, n_steps),
    )
    return calls


def deterministic_columns(out) -> bytes:
    """``baseline.csv`` under ``out`` without its wall-clock columns: tau,
    max_diff, soe_fields and history_fields."""
    lines = (out / "compare-baseline" / "baseline.csv").read_text().splitlines()
    rows = (line.split(",") for line in lines)
    return "".join(",".join(row[i] for i in (0, 1, 4, 5)) + "\n" for row in rows).encode()


class TestCompareBaselineCommand:
    def test_quick_comparison(self, out_root, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"grid": 8, "T": 1.0, "ladder_steps": [8, 16]}
            )
        )
        assert cli.main(["compare-baseline", "--config", str(config)]) == cli.EXIT_OK
        lines = (out_root / "compare-baseline" / "baseline.csv").read_text().splitlines()
        assert lines[0].startswith("tau,max_diff")
        assert len(lines) == 3
        assert "13 compressed" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_long_horizon_keeps_the_weights_finite(self, out_root):
        # at the coarsest entry tau * b_max is about 800, past exp's overflow
        assert cli.main(["compare-baseline", "--grid", "8", "--T", "200"]) == cli.EXIT_OK
        lines = (out_root / "compare-baseline" / "baseline.csv").read_text().splitlines()
        diffs = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(diffs) == 4 and all(math.isfinite(d) for d in diffs)

    @pytest.mark.filterwarnings("error")
    def test_huge_steps_keep_the_weights_finite(self, out_root):
        # tau * b reaches about 4e300: the end factor's closed form would square it
        assert cli.main(["compare-baseline", "--grid", "8", "--T", "1e300"]) == cli.EXIT_OK
        lines = (out_root / "compare-baseline" / "baseline.csv").read_text().splitlines()
        assert len(lines) == 5 and all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])

    def test_empty_ladder_rejected(self, out_root, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 8, "T": 1.0, "ladder_steps": []}))
        assert cli.main(["compare-baseline", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "ladder_steps is empty" in capsys.readouterr().err
        assert not (out_root / "compare-baseline").exists()

    def test_large_grid_rejected(self, out_root, tmp_path, capsys, monkeypatch):
        # 4097 levels of 255x255 values: 2,131,259,400 bytes, over the budget
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 256, "T": 1.0, "ladder_steps": [4096]}))
        monkeypatch.setattr(cli, "compare_baseline", lambda *args: pytest.fail("ran"))
        assert cli.main(["compare-baseline", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "2131259400 bytes" in err and f"budget of {experiments.HISTORY_BYTES_LIMIT} bytes" in err
        assert not (out_root / "compare-baseline").exists()

    def test_grid_64_within_the_budget_runs(self, out_root, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 64, "T": 0.25, "ladder_steps": [8, 16]}))
        assert cli.main(["compare-baseline", "--config", str(config)]) == cli.EXIT_OK
        lines = (out_root / "compare-baseline" / "baseline.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[2].endswith(",13,17")

    def test_columns_match_a_one_cpu_run(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(BASELINE_LADDER))
        calls = counted_entries(monkeypatch)
        columns = {}
        for count in (1, 2, 3):
            set_cpus(monkeypatch, count)
            calls.clear()
            out = tmp_path / f"cpus-{count}"
            argv = ["compare-baseline", "--config", str(config), "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            columns[count] = deterministic_columns(out)
            assert len(calls) == 4 if count == 1 else len(calls) < 4  # the others forked
        assert columns[3] == columns[2] == columns[1]

    def test_failure_in_a_worker_reads_as_in_order(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(BASELINE_LADDER))
        compare_one = experiments._compare_one

        def failing_entry(problem, spec, n_steps):
            if n_steps == 64:  # the longest entry, which a worker runs alone
                raise NonFiniteError("non-finite values in the update of step 9 (t=0.140625)")
            return compare_one(problem, spec, n_steps)

        monkeypatch.setattr(experiments, "_compare_one", failing_entry)
        errs = []
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            assert cli.main(["compare-baseline", "--config", str(config)]) == cli.EXIT_NUMERICAL
            errs.append(capsys.readouterr().err)
        assert errs[1] == errs[0] == (
            "numerical failure: non-finite values in the update of step 9 (t=0.140625)\n"
        )
        with pytest.raises(ChildProcessError):  # no child is left behind
            os.waitpid(-1, os.WNOHANG)

    def test_budget_of_one_history_runs_in_order(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(BASELINE_LADDER))
        largest = experiments.history_bytes(8, 64)
        monkeypatch.setattr(experiments, "HISTORY_BYTES_LIMIT", 2 * largest - 1)
        calls = counted_entries(monkeypatch)
        set_cpus(monkeypatch, 2)
        assert cli.main(["compare-baseline", "--config", str(config)]) == cli.EXIT_OK
        assert sorted(calls) == [8, 16, 32, 64]

    def test_histories_in_flight_stay_within_the_budget(self, tmp_path, monkeypatch):
        # a budget of two of the longest histories on three CPUs: two processes
        # run the entries, and the histories alive at any instant fit the budget
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**BASELINE_LADDER, "ladder_steps": [64, 56, 48, 40]}))
        limit = 2 * experiments.history_bytes(8, 64)
        monkeypatch.setattr(experiments, "HISTORY_BYTES_LIMIT", limit)
        log = tmp_path / "entries.log"
        compare_one = experiments._compare_one

        def logged_entry(problem, spec, n_steps):
            start = time.monotonic()
            row = compare_one(problem, spec, n_steps)
            with log.open("a") as fh:  # one short appended line per entry
                fh.write(f"{os.getpid()} {start} {time.monotonic()} {n_steps}\n")
            return row

        monkeypatch.setattr(experiments, "_compare_one", logged_entry)
        set_cpus(monkeypatch, 3)
        assert cli.main(["compare-baseline", "--config", str(config)]) == cli.EXIT_OK
        entries = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(n) for *_, n in entries) == [40, 48, 56, 64]
        assert len({pid for pid, *_ in entries}) == 2
        for _, start, _, _ in entries:
            alive = sum(experiments.history_bytes(8, int(n)) for _, s, e, n in entries
                        if float(s) <= float(start) < float(e))
            assert alive <= limit

    def test_failed_fork_runs_the_entries_here(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(BASELINE_LADDER))
        calls = counted_entries(monkeypatch)
        monkeypatch.setattr(os, "fork", failing_fork)  # as under a process limit
        columns = {}
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            calls.clear()
            out = tmp_path / f"cpus-{count}"
            argv = ["compare-baseline", "--config", str(config), "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            columns[count] = deterministic_columns(out)
            assert calls == [8, 16, 32, 64]  # every entry, in order, in this process
        assert columns[2] == columns[1]


EDGE_FLOATS = [-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0, -2.5, math.pi, 2.0**53 + 2, 1e-300]


class TestWriteCsv:
    """``run`` hands ``write_csv`` its trajectory as Python numbers, from one
    ``tolist`` a column, with the bytes that the arrays' numpy scalars give."""

    def test_python_numbers_write_the_bytes_of_numpy_scalars(self, tmp_path):
        columns = (np.arange(-2, 8, dtype=np.int64), np.array(EDGE_FLOATS),
                   np.array(EDGE_FLOATS[::-1]))
        cli.write_csv(tmp_path / "numpy.csv", ["n", "a", "b"], zip(*columns))
        cli.write_csv(tmp_path / "python.csv", ["n", "a", "b"], zip(*(c.tolist() for c in columns)))
        assert (tmp_path / "python.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
        assert (tmp_path / "python.csv").read_text().splitlines()[1:4] == [
            "-2,-0,1e-300", "-1,4.9406564584124654e-324,9007199254740994",
            "0,1e+308,3.1415926535897931"]
