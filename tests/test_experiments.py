import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from conftest import REAL_GETAFFINITY, failing_fork, no_thread, set_cpus
from memstep import cli, experiments, schemes
from memstep.experiments import (
    AlignmentError,
    ExperimentSpec,
    build_model_problem,
    compare_baseline,
    convergence_study,
    error_series,
    fit_slope,
    model_initial_condition,
    run_model_problem,
)
from memstep.grid import Grid2D, GridMismatchError
from memstep.kernels import PronySeries, load_builtin_prony
from memstep.operators import (
    DiagonalScaling,
    FivePointLaplacian,
    laplacian_eigenvalues,
    sine_transform,
)
from memstep.schemes import (
    NonFiniteError,
    ProblemSpec,
    SchemeConfig,
    energy,
    history_levels,
    soe_init,
    soe_stepper,
)


@pytest.fixture(scope="module")
def small_spec():
    # small and fast: 16x16 grid, T = 2
    return ExperimentSpec(
        kernel=load_builtin_prony("1/2"),
        grid_n=16,
        final_time=2.0,
        sigma=0.5,
        n_steps=64,
        sample_count=8,
    )


@pytest.fixture(scope="module")
def small_run(small_spec):
    return run_model_problem(small_spec)


@pytest.fixture(scope="module")
def small_samples(small_spec):
    return experiments._sample_run(small_spec, small_spec.n_steps)


class TestExperimentSpec:
    def test_tau(self, small_spec):
        assert small_spec.tau == pytest.approx(2.0 / 64)

    def test_sample_times_evenly_partition(self, small_spec):
        np.testing.assert_allclose(
            small_spec.sample_times(), 2.0 * np.arange(1, 9) / 8
        )

    def test_bad_final_time(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kernel=load_builtin_prony("1/2"), final_time=-1.0)

    @pytest.mark.parametrize("change, message", [
        pytest.param({"final_time": math.inf}, r"final_time=inf must be > 0 and finite", id="inf"),
        pytest.param({"final_time": math.nan}, r"final_time=nan must be > 0 and finite", id="nan"),
        pytest.param({"sigma": 1.5}, r"sigma=1.5 must lie in \(0, 1\]", id="sigma"),
        pytest.param({"cg_tol": 0.0}, r"cg_tol=0.0 must be > 0 and finite", id="cg_tol"),
        pytest.param({"grid_n": 1}, r"need at least 2 cells per direction, got 1x1", id="grid_n"),
        pytest.param({"sample_count": 0}, r"need at least one sample time", id="sample_count"),
    ])
    def test_final_time_must_be_finite_before_any_fork(self, small_spec, monkeypatch, change,
                                                       message):
        # a configuration error, raised with the spec, not a numerical failure in a task
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with pytest.raises(ValueError, match=message):
            convergence_study(dataclasses.replace(small_spec, **change), (8, 16, 32))
        with pytest.raises(ValueError, match=message):
            compare_baseline(dataclasses.replace(small_spec, **change), (8, 16))

    @pytest.mark.parametrize("n_steps", [0, -8])
    def test_step_count_below_one_rejected(self, n_steps):
        with pytest.raises(ValueError, match=f"n_steps={n_steps} must be >= 1"):
            ExperimentSpec(kernel=load_builtin_prony("1/2"), n_steps=n_steps)


class TestLadderSteps:
    """A ladder entry below 1, or one whose step underflows to 0, fails in the
    ladder's check, before any task runs."""

    @pytest.fixture(autouse=True)
    def no_tasks(self, monkeypatch):
        monkeypatch.setattr(experiments, "_map_runs", lambda *args, **kw: pytest.fail("ran"))

    @pytest.mark.parametrize("entry", [0, -8])
    def test_entry_below_one(self, small_spec, entry):
        with pytest.raises(ValueError, match=r"ladder_steps=\[.*\] must all be >= 1"):
            convergence_study(small_spec, (entry, 8, 16))
        with pytest.raises(ValueError, match=r"ladder_steps=\[.*\] must all be >= 1"):
            compare_baseline(small_spec, (entry, 8))

    def test_entry_whose_step_underflows(self, small_spec):
        spec = dataclasses.replace(small_spec, final_time=1e-322)
        message = "T=1e-322 over ladder_steps 10000 gives tau=0.0, which must be > 0"
        with pytest.raises(ValueError, match=message):
            convergence_study(spec, (8, 16, 10**4))
        with pytest.raises(ValueError, match=message):
            compare_baseline(spec, (8, 10**4))


class TestRunModelProblem:
    def test_trajectory_shapes(self, small_spec, small_run, small_samples):
        assert len(small_run.times) == small_spec.n_steps + 1
        assert len(small_run.energies) == len(small_run.times)
        grid = Grid2D(small_spec.grid_n, small_spec.grid_n)
        assert small_samples.shape == (small_spec.sample_count,) + grid.shape

    def test_initial_center_value(self, small_run):
        assert small_run.center_values[0] == pytest.approx(0.25, rel=1e-14)

    def test_energy_monotone(self, small_run):
        diffs = np.diff(small_run.energies)
        assert np.all(diffs <= 1e-8 * small_run.energies[0])

    def test_deterministic_bitwise(self, small_spec, small_run, small_samples):
        again = run_model_problem(small_spec)
        np.testing.assert_array_equal(again.energies, small_run.energies)
        np.testing.assert_array_equal(again.center_values, small_run.center_values)
        sampled = experiments._sample_run(small_spec, small_spec.n_steps)
        np.testing.assert_array_equal(sampled, small_samples)

    def test_zero_initial_stays_zero(self, small_spec, monkeypatch):
        grid = Grid2D(small_spec.grid_n, small_spec.grid_n)
        traj = run_model_problem(small_spec, initial=np.zeros(grid.shape))
        assert np.all(traj.energies == 0.0)
        monkeypatch.setattr(experiments, "model_initial_condition", lambda g: np.zeros(g.shape))
        sampled = experiments._sample_run(small_spec, small_spec.n_steps)
        assert sampled.shape == (small_spec.sample_count,) + grid.shape and np.all(sampled == 0.0)

    def test_misaligned_steps_raise(self, small_spec):
        with pytest.raises(AlignmentError, match="divisible"):
            experiments._sample_run(small_spec, 50)


class TestErrorSeries:
    def test_self_comparison_is_zero(self, small_samples):
        errs = error_series(small_samples, small_samples)
        assert np.all(errs.eps2 == 0.0)
        assert np.all(errs.epsinf == 0.0)

    def test_constant_offset(self, small_spec, small_samples):
        c = 0.125
        errs = error_series(small_samples + c, small_samples)
        np.testing.assert_allclose(errs.epsinf, c, rtol=1e-14)
        # mesh-weighted L2 of a constant on the (n-1)^2 interior nodes
        n = small_spec.grid_n
        expected = c * np.sqrt((n - 1) ** 2 / n**2)
        np.testing.assert_allclose(errs.eps2, expected, rtol=1e-13)

    def test_mismatched_snapshot_counts(self, small_spec, small_samples):
        other = experiments._sample_run(small_spec, 32)
        with pytest.raises(AlignmentError):
            error_series(other[:4], small_samples)

    def test_snapshots_of_different_grids_raise(self):
        coarse, reference = np.ones((1, 1, 7)), np.zeros((1, 7, 7))
        with pytest.raises(GridMismatchError, match=r"shape \(1, 7\).*shape \(7, 7\)"):
            error_series(coarse, reference)

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_stack_reduction_matches_per_snapshot_oracle(self, n):
        rng = np.random.default_rng(n)
        coarse, reference = rng.standard_normal((2, 3, n - 1, n - 1))
        errs = error_series(coarse, reference)
        area = Grid2D(n, n).cell_area
        for k, (w, ref) in enumerate(zip(coarse, reference)):
            d = w - ref
            assert errs.eps2[k] == np.sqrt(np.sum(d * d) * area)
            assert errs.epsinf[k] == np.max(np.abs(d))


class TestFitSlope:
    def test_exact_power_law(self):
        taus = np.array([0.1, 0.05, 0.025])
        assert fit_slope(taus, 3.0 * taus**2) == pytest.approx(2.0, abs=1e-12)

    def test_zero_error_degenerates_to_none(self):
        assert fit_slope([0.1, 0.05, 0.025], [1e-3, 0.0, 1e-5]) is None

    @pytest.mark.filterwarnings("error")  # no RankWarning from a one-point fit
    @pytest.mark.parametrize("taus", [[0.1] * 3, [0.1]])
    def test_one_distinct_tau_degenerates_to_none(self, taus):
        errors = [1e-3, 2e-3, 3e-3][: len(taus)]
        assert fit_slope(taus, errors) is None


class TestConvergenceStudy:
    def test_second_order_for_symmetric_weight(self, small_spec):
        result = convergence_study(small_spec, (16, 32, 64))
        assert result.slope_eps2 == pytest.approx(2.0, abs=0.35)
        assert result.slope_epsinf == pytest.approx(2.0, abs=0.35)
        taus = [r.tau for r in result.rows]
        errs = [r.max_eps2 for r in result.rows]
        assert taus[0] > taus[-1] and errs[0] > errs[-1]

    def test_backward_euler_errors_dominate(self, small_spec):
        # soft ordering check: full weighting should be less accurate than
        # symmetric weighting at the same tau
        symmetric = convergence_study(small_spec, (16, 32, 64))
        full = convergence_study(dataclasses.replace(small_spec, sigma=1.0), (16, 32, 64))
        for s_row, f_row in zip(symmetric.rows, full.rows):
            if f_row.max_eps2 <= s_row.max_eps2:
                warnings.warn(
                    "full weighting not dominated at tau="
                    f"{s_row.tau}: {f_row.max_eps2} <= {s_row.max_eps2}"
                )

    def test_short_ladder_rejected(self, small_spec, monkeypatch):
        # fewer than 3 distinct taus leave no slope to fit
        monkeypatch.setattr(experiments, "_exact_snapshots", lambda spec: pytest.fail("ran"))
        for ladder in [(16, 32), (48, 48, 48), (48, 96, 48)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="at least 3 distinct step counts"):
                    convergence_study(small_spec, ladder)


def mpmath_map(lam: float, kernel, dt: float) -> np.ndarray:
    """expm(M dt) of one mode's local system, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        m = kernel.n_terms
        mat = mpmath.zeros(m + 1, m + 1)
        for i, (a, b) in enumerate(zip(kernel.weights, kernel.rates), start=1):
            mat[0, i] = -mpmath.mpf(lam) * mpmath.mpf(a)
            mat[i, 0] = 1
            mat[i, i] = -mpmath.mpf(b)
        return np.array(mpmath.expm(mat * mpmath.mpf(dt)).tolist(), dtype=float)


class TestExactReference:
    @pytest.mark.parametrize(
        "kernel",
        [load_builtin_prony("3/7"), load_builtin_prony("1/2"), load_builtin_prony("3/5"),
         PronySeries((0.4, 0.6), (2.0, 2.0))],
        ids=["3/7", "1/2", "3/5", "equal-rates"],
    )
    def test_mode_maps_match_mpmath(self, kernel):
        # the smallest and largest eigenvalue on grid 256, over one of the
        # default study's sample intervals; the larger the matrix, the more
        # its rounded entries move the exponential
        lam = laplacian_eigenvalues(Grid2D(256, 256))
        lams, dt = np.array([lam.min(), lam.max()]), 0.5
        maps = experiments._mode_maps(lams, kernel, dt)
        for lam_k, got in zip(lams, maps):
            exact = mpmath_map(lam_k, kernel, dt)
            norm = dt * max(lam_k * sum(kernel.weights), kernel.n_terms + max(kernel.rates))
            assert np.max(np.abs(got - exact)) <= (1e-13 + 1e-16 * norm) * np.max(np.abs(exact))

    def test_symmetric_runs_converge_to_it_at_second_order(self):
        spec = ExperimentSpec(kernel=load_builtin_prony("1/2"))  # the default study
        # 250 steps need a sample count that divides them: t = 2 and 4
        halves = dataclasses.replace(spec, sample_count=2)
        reference = experiments._exact_snapshots(halves)
        errors = [
            np.max(error_series(experiments._sample_run(halves, n), reference).eps2)
            for n in (250, 500, 1000)
        ]
        np.testing.assert_allclose([errors[0] / errors[1], errors[1] / errors[2]], 4.0, rtol=0.05)
        # the 1000-step run that served as the study's reference, at its 8 sample times
        stepped = experiments._sample_run(spec, 1000)
        off = np.max(error_series(stepped, experiments._exact_snapshots(spec)).eps2)
        assert off == pytest.approx(8.3e-6, rel=0.02)

    def test_overflow_raises_non_finite(self, small_spec):
        spec = dataclasses.replace(small_spec, kernel=PronySeries((1e300,), (1.0,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="non-finite values in the exact reference"):
                experiments._exact_snapshots(spec)


# a thread that outlives the import after it
THREAD = "import threading, time; threading.Thread(target=time.sleep, args=(5,), daemon=True).start(); "


class TestStudyWorkers:
    def test_default_ladder_runs_its_longest_entry_apart(self):
        # the last group is this process's
        assert experiments._deal([48, 96, 192, 384], 2) == [[3], [0, 1, 2]]

    def test_default_study_deals_its_reference_beside_the_middle_runs(self):
        # the reference is task 0; on two CPUs a worker runs the 48- and
        # 384-step entries while this process runs the rest
        cost = experiments._REFERENCE_STEPS_PER_TERM * load_builtin_prony("1/2").n_terms
        assert experiments._deal([cost, 48, 96, 192, 384], 2) == [[1, 4], [0, 2, 3]]

    def test_without_cpu_affinity_tasks_run_in_order(self, monkeypatch):
        # as on macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        pids = []
        tasks = [(n, f"task {n}", lambda n=n: pids.append(os.getpid()) or n) for n in (3, 1, 2)]
        assert experiments._map_runs(tasks) == [3, 1, 2]
        assert pids == [os.getpid()] * 3

    def test_reference_failure_comes_first(self, small_spec, monkeypatch):
        # every task fails: the reference's error is the one an in-order study
        # meets first, wherever the deal puts it
        def failing_reference(spec):
            raise NonFiniteError("exact reference")

        def failing_run(spec, n_steps):
            raise NonFiniteError(f"run of {n_steps} steps")

        monkeypatch.setattr(experiments, "_exact_snapshots", failing_reference)
        monkeypatch.setattr(experiments, "_sample_run", failing_run)
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            with pytest.raises(NonFiniteError, match="exact reference"):
                convergence_study(small_spec, (16, 32, 256))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forked_study_steps_on_one_thread_and_matches_a_one_cpu_run(
        self, small_spec, monkeypatch
    ):
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 450)  # a step sweeps 6 blocks of two fields
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        results = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            results.append(convergence_study(small_spec, (16, 32, 64)))
        for one, forked in zip(*(result.rows for result in results)):
            assert forked.tau == one.tau
            np.testing.assert_array_equal(forked.errors.eps2, one.errors.eps2)
            np.testing.assert_array_equal(forked.errors.epsinf, one.errors.epsinf)
        assert (results[1].slope_eps2, results[1].slope_epsinf) == \
            (results[0].slope_eps2, results[0].slope_epsinf)

    def test_worker_holding_only_later_runs_is_killed(self, small_spec, monkeypatch):
        set_cpus(monkeypatch, 2)

        def failing_run(spec, n_steps):
            if n_steps == 256:  # the worker's only run; this process has the reference
                time.sleep(60)
            raise NonFiniteError(f"run of {n_steps} steps")

        monkeypatch.setattr(experiments, "_sample_run", failing_run)
        start = time.monotonic()
        with pytest.raises(NonFiniteError, match="run of 16 steps"):
            convergence_study(small_spec, (16, 32, 256))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):  # killed and reaped
            os.waitpid(-1, os.WNOHANG)

    def test_worker_without_a_result_names_its_runs(self, small_spec, small_samples, monkeypatch):
        set_cpus(monkeypatch, 2)

        parent = os.getpid()

        def exiting_run(spec, n_steps):
            if n_steps == 256 and os.getpid() != parent:  # the worker's only run
                os._exit(7)
            return small_samples

        monkeypatch.setattr(experiments, "_sample_run", exiting_run)
        message = r"running the run of 256 steps ended without a result \(wait status 1792\)"
        with pytest.raises(RuntimeError, match=message):  # 1792: exit code 7
            convergence_study(small_spec, (16, 32, 256))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def record_placements(monkeypatch, passed_on: bool = False) -> list:
        """The CPU sets asked of ``os.sched_setaffinity`` in this process, in
        order; a forked child appends to its own copy.  ``passed_on`` also
        makes each call."""
        placements, setaffinity = [], os.sched_setaffinity

        def recording(pid, cpus):
            placements.append(set(cpus))
            if passed_on:
                setaffinity(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", recording)
        return placements

    @pytest.mark.parametrize("place, here, max_procs, cpus", [
        (True, 9, None, [3, 5]), (True, 3, None, [5, 9]), (True, None, None, [3, 5]),
        (True, 9, 2, [None]), (False, 9, None, [None, None])])
    def test_each_group_runs_on_its_own_cpu(self, monkeypatch, place, here, max_procs, cpus):
        # three processes on three CPUs: the children take the two CPUs of the
        # sorted set that this process is not on (the first two if its CPU is
        # unknown); two processes on three CPUs, or any beside a multithreaded
        # BLAS, are left to the scheduler
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {9, 3, 5})
        monkeypatch.setattr(experiments, "_current_cpu", lambda: here)
        monkeypatch.setattr(experiments, "_PLACE_WORKERS", place)
        placements = self.record_placements(monkeypatch)
        costs = [5, 1, 4, 2, 3, 6]
        report = lambda: (os.getpid(), list(placements))  # noqa: E731
        results = experiments._map_runs(
            [(cost, f"task {i}", report) for i, cost in enumerate(costs)], max_procs=max_procs)
        *forked, own = experiments._deal(costs, len(cpus) + 1)
        for group, cpu in zip(forked, cpus):
            assert [results[i] for i in group] == [results[group[0]]] * len(group)  # one process
            assert results[group[0]][0] != os.getpid()
            assert results[group[0]][1] == ([{cpu}] if cpu else [])  # before its first task
        assert [results[i] for i in own] == [(os.getpid(), [])] * len(own)
        assert placements == []  # this process is never placed

    def test_a_refused_placement_leaves_the_process_where_it_is(self, monkeypatch):
        # as for a CPU the machine does not have, or a container that refuses affinity
        set_cpus(monkeypatch, 3)

        def refusing(pid, cpus):
            raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refusing)
        tasks = [(n, f"task {n}", lambda n=n: (n * n, os.getpid())) for n in (3, 1, 2, 5)]
        results = experiments._map_runs(tasks)
        assert [square for square, _ in results] == [9, 1, 4, 25]
        assert len({pid for _, pid in results}) == 3

    @pytest.mark.parametrize("started, place", [("", True), (THREAD, False)],
                             ids=["one thread", "another thread"])
    def test_workers_are_placed_only_beside_no_other_thread(self, started, place):
        # as the pool a multithreaded BLAS starts when numpy is loaded
        code = started + "from memstep import experiments; print(experiments._PLACE_WORKERS)"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == f"{place}\n"

    def test_current_cpu_is_the_one_a_process_runs_on(self):
        mask = REAL_GETAFFINITY(0) if REAL_GETAFFINITY else None
        if mask is None or not os.path.exists("/proc/self/stat"):
            pytest.skip("no CPU affinity or no /proc")
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pytest.skip("this system refuses CPU affinity")
        assert experiments._current_cpu() in mask
        for cpu in sorted(mask)[:2]:
            code = (f"import os; os.sched_setaffinity(0, {{{cpu}}}); "
                    "from memstep import experiments; print(experiments._current_cpu())")
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            assert out == f"{cpu}\n"

    @pytest.mark.parametrize("outcome", ["success", "failing task", "killed worker", "failed fork"])
    def test_the_real_mask_is_unchanged(self, monkeypatch, outcome):
        mask = REAL_GETAFFINITY(0) if REAL_GETAFFINITY else None
        if mask is None or len(mask) < 2:
            pytest.skip("fewer than 2 CPUs to place a worker on")
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pytest.skip("this system refuses CPU affinity")
        first, second = sorted(mask)[:2]
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {first, second})
        monkeypatch.setattr(experiments, "_current_cpu", lambda: second)
        placements = self.record_placements(monkeypatch, passed_on=True)

        def where():  # the calling thread's real mask
            return REAL_GETAFFINITY(0)

        def failing():
            raise NonFiniteError("task failed")

        # the deal gives the costlier task 1 to a worker, task 0 to this process
        own, forked = {"success": (where, where), "failing task": (where, failing),
                       "killed worker": (failing, lambda: time.sleep(60)),
                       "failed fork": (where, where)}[outcome]
        if outcome == "failed fork":
            monkeypatch.setattr(os, "fork", failing_fork)
        tasks = [(1, "task 0", own), (5, "task 1", forked)]
        start = time.monotonic()
        if outcome in ("success", "failed fork"):
            worker = mask if outcome == "failed fork" else {first}
            assert experiments._map_runs(tasks) == [mask, worker]
        else:
            with pytest.raises(NonFiniteError):
                experiments._map_runs(tasks)
        assert time.monotonic() - start < 30
        assert placements == []
        assert REAL_GETAFFINITY(0) == mask
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestRecordsOnlyWhatIsWritten:
    @staticmethod
    def count_energies(monkeypatch):
        """The memory fields whose energy forms the model problem's runs take:
        the fields of each 3-D stack its operator is applied to, which only an
        energy does (a step applies it to one field, the memory sum)."""
        fields = []

        class Recording(DiagonalScaling):
            def apply_values(self, v):
                if v.ndim == 3:
                    fields.append(len(v))
                return super().apply_values(v)

        def recording_problem(spec, initial=None):
            problem = build(spec, initial)
            return dataclasses.replace(problem, operator=Recording(problem.operator.coefficient))

        build = experiments.build_model_problem
        monkeypatch.setattr(experiments, "build_model_problem", recording_problem)
        return fields

    def test_convergence_study_takes_no_energy(self, small_spec, monkeypatch):
        set_cpus(monkeypatch, 1)  # every run in this process, where the fields are counted
        fields = self.count_energies(monkeypatch)
        result = convergence_study(small_spec, (16, 32, 64))
        assert fields == [] and len(result.rows) == 3

    def test_compare_baseline_takes_no_energy(self, small_spec, monkeypatch):
        set_cpus(monkeypatch, 1)
        fields = self.count_energies(monkeypatch)
        rows = compare_baseline(small_spec, (16, 32))
        assert fields == [] and len(rows) == 2

    def test_run_takes_one_energy_per_level(self, small_spec, monkeypatch):
        fields = self.count_energies(monkeypatch)
        run_model_problem(small_spec)
        # every memory field once per stepped level, one block of fields at a
        # time; level 0's fields are zero, and its energy takes no forms
        blocks = len(schemes._blocks(small_spec.kernel.n_terms, (small_spec.grid_n - 1) ** 2))
        assert len(fields) == small_spec.n_steps * blocks
        assert sum(fields) == small_spec.n_steps * small_spec.kernel.n_terms

    def test_run_energies_are_the_reference_energies(self, small_spec, small_run):
        # the step's energies, bit for bit those energy() gives the plain step's states
        n, problem = small_spec.n_steps, build_model_problem(small_spec)
        states = experiments._states(problem, experiments._scheme(small_spec, n), n)
        assert small_run.energies.tolist() == [energy(problem, s) for s in states]

    def test_snapshots_match_the_recorded_run(self, small_spec, small_samples):
        n = small_spec.n_steps
        assert not hasattr(small_samples, "energies")
        assert not hasattr(run_model_problem(dataclasses.replace(small_spec, n_steps=1)), "snapshots")
        problem = build_model_problem(small_spec)
        states = list(experiments._states(problem, experiments._scheme(small_spec, n), n))
        at_samples = states[n // small_spec.sample_count :: n // small_spec.sample_count]
        assert len(at_samples) == len(small_samples)
        for a, s in zip(small_samples, at_samples):
            np.testing.assert_array_equal(a, sine_transform(s.y))
        np.testing.assert_allclose(
            small_spec.sample_times(), [s.t for s in at_samples], rtol=1e-14
        )


def test_ufunc_buffer_changes_speed_never_bits(monkeypatch):
    # the same runs on numpy's default buffer: every product and sum is the same
    kernel = load_builtin_prony("1/2")

    def outputs():
        traj = run_model_problem(ExperimentSpec(kernel=kernel, grid_n=16))
        study = convergence_study(ExperimentSpec(kernel=kernel, grid_n=8), (48, 96, 192, 384))
        errors = [a for row in study.rows for a in (row.errors.eps2, row.errors.epsinf)]
        return [traj.times, traj.energies, traj.center_values, *errors]

    short = outputs()
    monkeypatch.setattr(schemes, "_BUFFER_VALUES", 8192)
    for a, b in zip(short, outputs(), strict=True):
        np.testing.assert_array_equal(a, b)


class TestCompareBaseline:
    def test_steppers_agree_and_field_counts(self, small_spec):
        rows = compare_baseline(small_spec, (16, 32))
        assert [r.soe_fields for r in rows] == [13, 13]
        assert [r.history_fields for r in rows] == [17, 33]
        # both discretize the same problem; differences shrink with tau
        assert rows[1].max_diff < rows[0].max_diff
        assert rows[0].max_diff < 1e-2

    @pytest.mark.parametrize("n_steps", [8, 63, 64, 150])  # 1, 1, 2 and 3 chunks of levels
    def test_max_diff_matches_a_transform_per_level(self, small_spec, n_steps):
        assert experiments._CHECK_CHUNK == 64
        problem = build_model_problem(small_spec)
        row = experiments._compare_one(problem, small_spec, n_steps)
        cfg = experiments._scheme(small_spec, n_steps)
        states = experiments._states(problem, cfg, n_steps)
        per_level = [float(np.max(np.abs(sine_transform(next(states).y - level))))
                     for level in history_levels(problem, cfg, n_steps)]
        assert row.max_diff == max(per_level) > 0.0
        assert row.history_fields == n_steps + 1

    def test_holds_each_field_once(self, small_spec):
        # one level store, no stored compressed path and no history kept past
        # its entry: 769 levels of 15x15 take 1.3 MiB, in one store allocated once
        compare_baseline(small_spec, (8,))  # fill the caches of the sine basis
        tracemalloc.start()
        try:
            compare_baseline(small_spec, (768,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20


def test_sine_coordinates_match_physical_oracle(small_spec, small_run, small_samples):
    """The model problem stepped in physical space (stencil and CG) agrees with
    the sine-coordinate runs of run_model_problem, _sample_run and compare_baseline."""
    grid = Grid2D(small_spec.grid_n, small_spec.grid_n)
    physical = ProblemSpec(FivePointLaplacian(grid), small_spec.kernel, model_initial_condition(grid))
    cfg = SchemeConfig(sigma=small_spec.sigma, tau=small_spec.tau, cg_tol=1e-13)
    scale = np.abs(physical.initial).max()
    stride = small_spec.n_steps // small_spec.sample_count

    step, state = soe_stepper(physical, cfg), soe_init(physical)
    path, energies = [state.y], [energy(physical, state)]
    for _ in range(small_spec.n_steps):
        state = step(state)
        path.append(state.y)
        energies.append(energy(physical, state))
    np.testing.assert_allclose(energies, small_run.energies, rtol=1e-12)
    centers = [y[grid.center_index] for y in path]
    np.testing.assert_allclose(centers, small_run.center_values, rtol=0, atol=1e-12 * scale)
    for y, snap in zip(path[stride::stride], small_samples):
        np.testing.assert_allclose(snap, y, rtol=0, atol=1e-12 * scale)

    modal = build_model_problem(small_spec)
    phys_hist = history_levels(physical, cfg, small_spec.n_steps)
    modal_hist = history_levels(modal, cfg, small_spec.n_steps)
    for y, y_modal in zip(phys_hist, modal_hist):
        np.testing.assert_allclose(sine_transform(y_modal), y, rtol=0, atol=1e-12 * scale)
    (row,) = compare_baseline(small_spec, (small_spec.n_steps,))
    max_diff = max(float(np.max(np.abs(a - b))) for a, b in zip(path, phys_hist))
    assert abs(row.max_diff - max_diff) <= 1e-12 * scale


def test_baseline_over_the_budget_raises_before_any_allocation(monkeypatch):
    # 4097 levels of 255x255 values: 2,131,259,400 bytes, over the budget
    monkeypatch.setattr(experiments, "build_model_problem", lambda spec: pytest.fail("built"))
    spec = ExperimentSpec(kernel=load_builtin_prony("1/2"), grid_n=256, final_time=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2131259400 bytes \(4097 levels on grid 256\)"):
            compare_baseline(spec, (8, 4096))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestCsvWriters:
    """The tables the commands write, from small_spec's settings."""

    def test_trajectory_roundtrip_values(self, small_run, tmp_path):
        argv = ["run", "--grid", "16", "--T", "2", "--steps", "64", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        data = np.genfromtxt(tmp_path / "run" / "trajectory.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(data["n"], small_run.steps)
        np.testing.assert_array_equal(data["energy"], small_run.energies)
        np.testing.assert_array_equal(data["center_value"], small_run.center_values)

    def test_errors_and_convergence_headers(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 16, "T": 2.0, "ladder_steps": [16, 32, 64]}))
        argv = ["converge", "--config", str(config), "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        errors = (tmp_path / "converge" / "errors.csv").read_text().splitlines()
        assert errors[0] == "t,eps2,epsinf" and len(errors) == 9  # the 8 sample times
        lines = (tmp_path / "converge" / "convergence.csv").read_text().splitlines()
        assert lines[0] == "tau,max_eps2,max_epsinf"
        assert len(lines) == 4


def test_model_initial_condition_symmetry():
    grid = Grid2D(16, 16)
    w = model_initial_condition(grid)
    # u0(x1, x2) = u0(x2, x1)
    np.testing.assert_allclose(w, w.T, rtol=1e-14)
