import json
import math
import os
import warnings

import numpy as np
import pytest

from conftest import set_cpus
from memstep import cli, experiments
from memstep.kernels import StretchedExponential, kernel_sup_error, load_builtin_prony
from memstep.operators import ConvergenceError, FivePointLaplacian, NotSpdError
from memstep.schemes import NonFiniteError

# fast settings shared by most invocations: coarse grid, short horizon
FAST = [
    "--grid", "16", "--T", "2", "--steps", "64", "--reference-steps", "320",
]


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("MEMSTEP_OUT", str(tmp_path))
    return tmp_path


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
        rerun_root = tmp_path / "rerun"
        assert (
            cli.main(["run", "--config", str(manifest), "--out", str(rerun_root)])
            == cli.EXIT_OK
        )
        second = (rerun_root / "run" / "trajectory.csv").read_bytes()
        assert first == second

    def test_tau_flag_equivalent_to_steps(self, out_root, tmp_path):
        assert cli.main(["run", *FAST]) == cli.EXIT_OK
        by_steps = (out_root / "run" / "trajectory.csv").read_bytes()
        other = tmp_path / "by_tau"
        assert (
            cli.main(
                ["run", "--grid", "16", "--T", "2", "--tau", "0.03125",
                 "--reference-steps", "320", "--out", str(other)]
            )
            == cli.EXIT_OK
        )
        assert (other / "run" / "trajectory.csv").read_bytes() == by_steps

    def test_default_run_applies_no_stencil(self, monkeypatch):
        calls = []
        apply = FivePointLaplacian.apply_values
        monkeypatch.setattr(
            FivePointLaplacian,
            "apply_values",
            lambda lap, v, grid: calls.append(1) or apply(lap, v, grid),
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
            cli.main(["run", "--config", str(config), "--sigma", "0.5",
                      "--reference-steps", "320"])
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
        assert "3/7" in err and "kernel-file" in err

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

    @pytest.mark.parametrize("entry", [0, -8])
    def test_ladder_entry_below_one_rejected(self, tmp_path, capsys, entry):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 8, "T": 1.0, "ladder_steps": [entry, 8, 16]}))
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "must all be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [0, -1e-10])
    def test_cg_tol_must_be_positive(self, out_root, tmp_path, capsys, tol):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cg_tol": tol}))
        assert cli.main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert f"cg_tol={tol} must be > 0" in capsys.readouterr().err
        assert not (out_root / "run").exists()

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

    @pytest.mark.filterwarnings("error")
    def test_unstable_run_names_step_without_warnings(self, out_root, capsys):
        argv = ["run", "--sigma", "0.1", "--tau", "0.5", "--T", "200"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "non-finite values" in err and "of step" in err and "(t=" in err
        assert not (out_root / "run" / "trajectory.csv").exists()


# a study of four short runs: a 64-step reference and three ladder entries
SMALL_STUDY = {"grid": 8, "T": 1.0, "reference_steps": 64, "ladder_steps": [16, 8, 32]}


class TestConvergeCommand:
    @pytest.mark.parametrize("reference_steps", ["384", "300"])
    def test_ladder_entry_at_or_above_reference_rejected(self, out_root, capsys, reference_steps):
        # at sigma = 0.5 an entry of reference_steps reproduces the reference,
        # and its zero errors leave no slope to fit
        argv = ["converge", "--grid", "8", "--reference-steps", reference_steps]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"ladder entry 384 must be below the reference's {reference_steps} steps" in err
        assert not (out_root / "converge").exists()

    def test_misaligned_entry_rejected_before_any_step(self, out_root, tmp_path, monkeypatch, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ladder_steps": [48, 96, 100, 384]}))
        steps = []
        build = experiments.soe_stepper

        def counting_stepper(problem, cfg):
            step = build(problem, cfg)
            return lambda s: steps.append(1) or step(s)

        monkeypatch.setattr(experiments, "soe_stepper", counting_stepper)
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "n_steps=100 is not divisible by sample_count=8" in capsys.readouterr().err
        assert not (out_root / "converge").exists()
        assert steps == []

    def test_misaligned_reference_rejected(self, out_root, capsys):
        argv = ["converge", "--grid", "8", "--reference-steps", "1001"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "n_steps=1001 is not divisible by sample_count=8" in capsys.readouterr().err
        assert not (out_root / "converge").exists()

    def test_reports_slopes_near_two(self, out_root, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"grid": 16, "T": 2.0, "reference_steps": 320,
                 "ladder_steps": [16, 32, 64]}
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

    def test_finest_entry_runs_once_and_feeds_errors_csv(self, out_root, tmp_path, monkeypatch):
        set_cpus(monkeypatch, 1)  # every run in this process, where the calls are counted
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"grid": 8, "T": 1.0, "reference_steps": 64, "ladder_steps": [16, 8, 32]}
            )
        )
        calls = []
        sample_run = experiments._sample_run

        def counting_run(spec, *args, **kwargs):
            calls.append(kwargs.get("n_steps"))
            return sample_run(spec, *args, **kwargs)

        monkeypatch.setattr(experiments, "_sample_run", counting_run)
        assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_OK
        assert sorted(calls) == [8, 16, 32, 64]  # the ladder plus the reference

        spec = cli.resolve_config(
            cli.build_parser().parse_args(["converge", "--config", str(config)])
        ).experiment_spec()
        run = experiments.run_model_problem
        errs = experiments.error_series(
            run(spec, n_steps=32), run(spec, sigma=0.5, n_steps=64)
        )
        expected = tmp_path / "expected.csv"
        experiments.write_errors_csv(errs, expected)
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
        assert len(calls) < 4  # the last pass forked: this process ran only some of the 4 runs
        assert outputs[cpus] == outputs[1]

    @pytest.mark.parametrize("error", [
        lambda: NonFiniteError("non-finite values in the update of step 3 (t=0.046875): overflow"),
        lambda: ConvergenceError("CG did not converge: residual 1.5e-03 after 7 iterations",
                                 1.5e-3, 7),
    ], ids=["non-finite", "cg"])
    def test_reference_failure_in_a_worker_reads_as_in_order(
        self, tmp_path, monkeypatch, capsys, error
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_STUDY))
        sample_run = experiments._sample_run

        def failing_run(spec, sigma, n_steps):
            if n_steps == spec.n_ref:  # the reference, which a worker runs alone
                raise error()
            return sample_run(spec, sigma=sigma, n_steps=n_steps)

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
        # worker's reference, whose failure is the one an in-order study meets
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_STUDY))

        def failing_run(spec, sigma, n_steps):
            raise NonFiniteError(f"run of {n_steps} steps")

        monkeypatch.setattr(experiments, "_sample_run", failing_run)
        errs = []
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            assert cli.main(["converge", "--config", str(config)]) == cli.EXIT_NUMERICAL
            errs.append(capsys.readouterr().err)
        assert errs[1] == errs[0] == "numerical failure: run of 64 steps\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
        kernel = tmp_path / "k.csv"
        kernel.write_text("1,2\n")
        assert cli.main(["kernel-error", "--kernel-file", str(kernel)]) == cli.EXIT_CONFIG
        assert "no analytic target" in capsys.readouterr().err
        assert not (out_root / "kernel-error" / "kernel_error.csv").exists()


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
        assert "2131259400 bytes" in err and f"budget of {cli.HISTORY_BYTES_LIMIT} bytes" in err
        assert not (out_root / "compare-baseline").exists()

    def test_grid_64_within_the_budget_runs(self, out_root, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 64, "T": 0.25, "ladder_steps": [8, 16]}))
        assert cli.main(["compare-baseline", "--config", str(config)]) == cli.EXIT_OK
        lines = (out_root / "compare-baseline" / "baseline.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[2].endswith(",13,17")
