"""End-to-end and per-layer benchmark of the ``memstep`` subcommands.

One workload, one process, a closed loop of ``cli.main`` calls:

    python3 perfbench/run.py --workload run-32 --seed 1 --seconds 24 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``op_s``,
``peak_rss_mib``); ``--trace 1`` installs the wrappers of ``tracing.py`` and
reports the per-layer metrics.  Every operation's output is checked (see
``checks.py``) and the first one is replayed from its ``manifest.json``.
The last line of standard output is the result as JSON; the line before it
holds the details (samples, check figures, library versions).

All workloads, untraced and traced, with a table of every metric:

    python3 perfbench/run.py --workload all --seconds 24 [--json results.json]

The workloads are fixed inputs; ``--seed`` is recorded but changes nothing.
Program outputs go to a temporary directory under ``.bench_out/`` in the
checkout, removed at the end; the trace spans stay in ``.bench_out/``.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out"
SETUP_PROBES = 10
TRACE_MIN_OPS = 2  # traced and untraced warm ops, at least, in a traced run
CALIB_REF_S = 0.1  # the unit of the reported times; see calibrate()
# Calibration loops, as (array side, stencil updates) per part.  MIXED
# exercises per-call overhead and cache traffic alike and tracks the 16- and
# 32-grid workloads, whose ops are mostly per-call overhead; LARGE tracks
# run-256, whose op is CG on 256x256 arrays and slows less than MIXED when
# the host is busy.
MIXED = ((31, 4000), (255, 100))
LARGE = ((255, 300),)
LAYERS = ("cli", "experiments", "schemes", "operators", "grid", "kernels")


@dataclass(frozen=True)
class Workload:
    command: str
    config: str | None  # file under perfbench/workloads/
    outputs: tuple[str, ...]
    calib: tuple = MIXED

    def argv(self, out: Path) -> list[str]:
        cfg = ["--config", str(BENCH / "workloads" / self.config)] if self.config else []
        return [self.command, *cfg, "--out", str(out)]


WORKLOADS = {
    "run-32": Workload("run", None, ("trajectory.csv",)),
    "run-256": Workload("run", "run-256.json", ("trajectory.csv",), LARGE),
    "converge-32": Workload("converge", None, ("convergence.csv", "errors.csv")),
    "baseline-16": Workload("compare-baseline", "baseline-16.json", ("baseline.csv",)),
}


@dataclass
class Op:
    seconds: float
    code: int | None
    stdout: str
    error: str
    files: dict = field(default_factory=dict)


def import_memstep() -> dict:
    """The package modules from this checkout's ``src``, or SystemExit."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"memstep.{name}") for name in LAYERS}
    except ImportError as exc:
        raise SystemExit(f"cannot import memstep from {src}: {exc}")
    if Path(modules["cli"].__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"memstep imported from {modules['cli'].__file__}, not {src}")
    return modules


def calibrate(loop=MIXED, reps: int = 1) -> float:
    """Seconds per pass of a fixed loop of five-point stencil updates (MIXED
    or LARGE), the mean over ``reps`` passes.

    The loop is the benchmark's own and never changes.  Its time moves with
    the machine's speed (other tenants on a shared host slow both it and
    ``memstep``, for stretches from under a second to tens of seconds), so
    dividing an op's time by the loop's time next to it cancels that drift.
    One pass takes about CALIB_REF_S on the reference machine when it is
    quiet.
    """
    arrays = [np.cos(np.arange(n * n, dtype=float)).reshape(n, n) for n, _ in loop]
    start = time.perf_counter()
    for _ in range(reps):
        for a, (_, count) in zip(arrays, loop):
            for _ in range(count):
                c = 4.0 * a
                c[1:] -= a[:-1]
                c[:-1] -= a[1:]
                c[:, 1:] -= a[:, :-1]
                c[:, :-1] -= a[:, 1:]
                a = a + 1e-3 * c
                float(np.sum(a * a))
    return (time.perf_counter() - start) / reps


def scaled(times: list[float], calib: list[tuple[float, float]]) -> list[float]:
    """The times in reference seconds, where ``calibrate`` takes CALIB_REF_S;
    ``calib`` holds the loop's time just before and just after each one."""
    return [t * CALIB_REF_S / ((before + after) / 2) for t, (before, after) in zip(times, calib)]


def probe_setup(argv: list[str]) -> float:
    """Seconds from starting a fresh interpreter to being ready for step one."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), *argv],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def run_op(main, w: Workload, argv: list[str], out: Path) -> Op:
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code, error = main(argv), ""
        except Exception as exc:  # an operation that raises counts as failed
            code, error = None, repr(exc)
        seconds = time.perf_counter() - start
    op = Op(seconds, code, stdout.getvalue(), error or stderr.getvalue().strip())
    for name in w.outputs:
        path = out / w.command / name
        if path.exists():
            op.files[name] = path.read_bytes()
    return op


def make_checker(w: Workload, cfg):
    """The output check of one op, for the workload's resolved ``RunConfig``."""
    kernel = cfg.kernel()
    if w.command == "run":
        oracle = checks.RunOracle(kernel, cfg.grid, cfg.sigma, cfg.T, cfg.resolved_steps(), cfg.cg_tol)
        return lambda op: oracle.check(op.files)
    if w.command == "converge":
        return lambda op: checks.check_converge(
            op.files, op.stdout, cfg.T, cfg.ladder_steps, cfg.sample_count)
    return lambda op: checks.check_baseline(op.files, cfg.T, cfg.ladder_steps, kernel.n_terms)


def replay_problems(w: Workload, first: Op, replay: Op) -> list[str]:
    if replay.code != 0:
        return [f"replay exited {replay.code}: {replay.error}"]
    problems = []
    for name in w.outputs:
        a, b = first.files.get(name), replay.files.get(name)
        if name == "baseline.csv" and a is not None and b is not None:
            a, b = checks.baseline_deterministic_part(a), checks.baseline_deterministic_part(b)
        if a is None or a != b:
            problems.append(f"replayed {name} differs from the first run")
    return problems


def timed_loop(main, w: Workload, work: Path, seconds: float):
    """Untraced closed loop of ops, with set-up probes spread over the run.

    Every op runs between two passes of the workload's calibration loop, and
    every probe between two passes of MIXED; ``scaled`` uses them.  The
    probes go between ops, SETUP_PROBES in step with the elapsed time, so
    that one busy stretch of a shared host moves only some of them.
    """
    ops, op_calib, setup, setup_calib = [], [], [], []

    def probe():
        before = calibrate()
        setup.append(probe_setup(w.argv(work / "probe")))
        setup_calib.append((before, calibrate()))

    after, reps = None, 1
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(ops) >= 2 and elapsed >= seconds:
            break
        due = SETUP_PROBES * min(1.0, elapsed / seconds)
        if len(setup) < due:
            while len(setup) < due:
                probe()
            after = None  # the last op's pass no longer adjoins the next op
        before = calibrate(w.calib, reps) if after is None else after
        out = work / ("ops" if ops else "first")
        ops.append(run_op(main, w, w.argv(out), out))
        # Calibrate for about a tenth of an op, so that the loop samples the
        # machine over a stretch comparable to the op it scales.
        reps = max(1, round(0.1 * ops[0].seconds / CALIB_REF_S))
        after = calibrate(w.calib, reps)
        op_calib.append((before, after))
    while len(setup) < SETUP_PROBES:
        probe()
    return ops, op_calib, setup, setup_calib


def traced_loop(main, tracer: Tracer, w: Workload, work: Path, seconds: float):
    """Closed loop that alternates traced and untraced ops after a cold first op.

    Each traced op is followed by an untraced one under about the same host
    conditions, so their difference is the tracer's cost.  The first op
    (imports warm up, caches fill) belongs to neither.
    """
    traced_main = tracer.wrap("cli.main", main)
    start = time.perf_counter()
    ops = [run_op(main, w, w.argv(work / "first"), work / "first")]
    traced, untraced = [], []
    while min(len(traced), len(untraced)) < TRACE_MIN_OPS or time.perf_counter() - start < seconds:
        if len(traced) <= len(untraced):
            tracer.op = len(ops)
            tracer.install()
            op = run_op(traced_main, w, w.argv(work / "ops"), work / "ops")
            tracer.uninstall()
            traced.append(op.seconds)
        else:
            op = run_op(main, w, w.argv(work / "ops"), work / "ops")
            untraced.append(op.seconds)
        ops.append(op)
    return ops, traced, untraced


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    w = WORKLOADS[name]
    modules = import_memstep()
    cli = modules["cli"]
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        # The inputs as memstep itself resolves them: its defaults, then the
        # workload's config file.
        cfg = cli.resolve_config(cli.build_parser().parse_args(w.argv(work / "ops")))
        if trace:
            tracer = Tracer(modules)
            ops, traced, untraced = traced_loop(cli.main, tracer, w, work, seconds)
        else:
            ops, op_calib, setup, setup_calib = timed_loop(cli.main, w, work, seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        first = ops[0]
        manifest = work / "first" / w.command / "manifest.json"
        replay = run_op(cli.main, w, [w.command, "--config", str(manifest),
                                      "--out", str(work / "replay")], work / "replay")
        replay_issues = replay_problems(w, first, replay)
        check = make_checker(w, cfg)
        failures, figures = [], {}
        for k, op in enumerate(ops):
            problems, figs = check(op) if op.code == 0 else ([f"exit {op.code}: {op.error}"], {})
            if problems:
                failures.append(f"op {k}: " + "; ".join(problems))
            figures = figures or figs
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = [op.seconds for op in ops]
    inputs = dataclasses.asdict(cfg)
    inputs.pop("out")
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "argv": [a.replace(f"{ROOT}{os.sep}", "") for a in w.argv(Path("<out>"))],
        "inputs": inputs,
        "op_seconds": times, "op_samples": len(times),
        "replay": replay_issues or "identical",
        "failures": failures[:5], "checks": figures,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__,
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "machine": platform.machine()},
    }
    if trace:
        metrics = tracer.derive(len(traced))
        metrics["trace.op_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
        spans = SCRATCH / f"spans-{name}.csv"
        tracer.write(spans)
        detail.update(traced_op_seconds=traced, untraced_op_seconds=untraced,
                      spans_file=str(spans.relative_to(ROOT)), missing_wrappers=tracer.missing)
    else:
        detail.update(op_calib_seconds=op_calib, op_s_raw=statistics.median(times),
                      setup_seconds=setup, setup_calib_seconds=setup_calib,
                      setup_s_raw=statistics.median(setup))
        metrics = {"setup_s": statistics.median(scaled(setup, setup_calib)),
                   "op_s": statistics.median(scaled(times, op_calib)),
                   "peak_rss_mib": peak_rss_mib}
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    result = {
        "correct": not replay_issues,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return detail, result


def run_all(seed: int, seconds: float, json_path: str | None) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    rows = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            rows[name, trace] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
    names = list(WORKLOADS)
    print(f"{'workload':<44}" + "".join(f"{n:>14}" for n in names))
    for label, get in (("attempted", lambda r: r["attempted"]), ("failed", lambda r: r["failed"]),
                       ("correct", lambda r: r["correct"])):
        for trace in (0, 1):
            print(f"{label + (' (traced)' if trace else ''):<44}"
                  + "".join(f"{str(get(rows[n, trace][1])):>14}" for n in names))
    for trace in (0, 1):
        for metric, entry in rows[names[0], trace][1]["metrics"].items():
            label = f"{metric} [{entry['unit']}]"
            print(f"{label:<44}" + "".join(
                f"{rows[n, trace][1]['metrics'][metric]['value']:>14.6g}" for n in names))
        if not trace:
            for key in ("op_s_raw", "setup_s_raw", "op_samples"):
                print(f"{key:<44}" + "".join(f"{rows[n, 0][0][key]:>14.6g}" for n in names))
    if json_path:
        record = {f"{n}/{'traced' if t else 'untraced'}": {"detail": d, "result": r}
                  for (n, t), (d, r) in rows.items()}
        Path(json_path).write_text(json.dumps(record, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write the details here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.json)
    detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.json:
        Path(args.json).write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
