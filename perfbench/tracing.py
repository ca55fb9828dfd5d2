"""Per-layer tracing of ``memstep`` from outside the package.

Wrappers are installed on the names each caller looks up (``schemes`` calls
its own imported ``cg_solve``, ``cli`` its own ``run_model_problem``, and so
on), so no source under ``src/memstep`` changes.  Every wrapped call records
a span ``(op, name, start, end, parent)`` in memory; ``GridFunction``
construction is only counted.  ``derive`` turns the spans into the per-layer
metrics of ``BENCHMARK.json``, per operation.

A wrapped name that no longer exists is skipped and listed in ``missing``;
its metrics then read 0.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (span name, [(owner, attribute)]): every place a caller looks the function
# up.  An owner is a memstep module or "module.Class".
TARGETS = [
    ("cli.resolve_config", [("cli", "resolve_config")]),
    ("cli.write_manifest", [("cli", "write_manifest")]),
    ("kernels.load", [("cli", "load_builtin_prony"), ("cli", "prony_from_file")]),
    ("experiments.run_model_problem",
     [("cli", "run_model_problem"), ("experiments", "run_model_problem")]),
    ("experiments.compute_reference", [("cli", "compute_reference")]),
    ("experiments.convergence_study", [("cli", "convergence_study")]),
    ("experiments.error_series", [("cli", "error_series"), ("experiments", "error_series")]),
    ("experiments.compare_baseline", [("cli", "compare_baseline")]),
    ("experiments.write_csv",
     [("cli", "write_trajectory_csv"), ("cli", "write_convergence_csv"),
      ("cli", "write_errors_csv")]),
    ("schemes.soe_step", [("experiments", "soe_step")]),
    ("schemes.energy", [("experiments", "energy")]),
    ("schemes.quadrature_step", [("experiments", "quadrature_step")]),
    ("operators.cg_solve", [("schemes", "cg_solve")]),
    ("operators.laplacian_apply", [("operators.FivePointLaplacian", "apply")]),
]

# Array traffic of one FivePointLaplacian.apply, in units of one interior
# field, computed from the expressions in the stencil (not measured): the
# scaled copy reads and writes a field (2), and each of the four shifted
# updates makes a divided temporary (read 1, write 1) and subtracts it in
# place (read 2, write 1).
LAPLACIAN_FIELD_TRAFFIC = 2 + 4 * 5


class Tracer:
    def __init__(self, memstep_modules: dict):
        self.modules = memstep_modules
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.allocs = 0
        self.csv_bytes = 0
        self.history_levels_max = 0
        self.laplacian_nodes = 0
        self.missing: list[str] = []
        self._restore: list = []

    def _owner(self, path: str):
        mod, _, cls = path.partition(".")
        owner = self.modules[mod]
        return getattr(owner, cls, None) if cls else owner

    def wrap(self, name, fn):
        """Return ``fn`` recording a span named ``name`` around each call."""
        spans, stack = self.spans, self.stack
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_write_csv(self, args, result):
        self.csv_bytes += Path(args[1]).stat().st_size

    def _after_quadrature_step(self, args, result):
        self.history_levels_max = max(self.history_levels_max, len(result.ys))

    def _after_laplacian_apply(self, args, result):
        self.laplacian_nodes += result.values.size

    def install(self):
        """Wrap every target; ``uninstall`` restores them.  May be repeated."""
        self.missing = []
        for name, sites in TARGETS:
            wrapped = {}
            for path, attr in sites:
                owner = self._owner(path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{path}.{attr}")
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn)
                setattr(owner, attr, wrapped[id(fn)])
                self._restore.append((owner, attr, fn))
        gf = getattr(self.modules["grid"], "GridFunction", None)
        if gf is None:
            self.missing.append("grid.GridFunction")
            return
        init = gf.__init__

        def counting_init(obj, *args, **kwargs):
            self.allocs += 1
            init(obj, *args, **kwargs)

        gf.__init__ = counting_init
        self._restore.append((gf, "__init__", init))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("op,name,start,end,parent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")

    def derive(self, n_ops: int) -> dict[str, float]:
        """Per-operation metrics from the recorded spans and counters."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)  # time covered by direct children
        lap_per_cg = defaultdict(int)
        for _, name, start, end, parent in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += dur
                if name == "operators.laplacian_apply" and self.spans[parent][1] == "operators.cg_solve":
                    lap_per_cg[parent] += 1
        self_time = defaultdict(float)
        for idx, (_, name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[idx]

        # CG applies the operator once for the initial residual and once per
        # iteration; a zero right-hand side returns before either.
        cg_iters = sum(max(n - 1, 0) for n in lap_per_cg.values())
        cg_calls = calls["operators.cg_solve"]
        soe_calls, soe_s = calls["schemes.soe_step"], total["schemes.soe_step"]
        per = 1.0 / n_ops
        return {
            "kernels.load_s": total["kernels.load"] * per,
            "cli.resolve_config_s": total["cli.resolve_config"] * per,
            "cli.write_manifest_s": total["cli.write_manifest"] * per,
            "experiments.run_model_problem_calls": calls["experiments.run_model_problem"] * per,
            "experiments.run_model_problem_s": total["experiments.run_model_problem"] * per,
            "experiments.error_series_s": total["experiments.error_series"] * per,
            "experiments.compare_baseline_s": total["experiments.compare_baseline"] * per,
            "experiments.write_csv_s": total["experiments.write_csv"] * per,
            "experiments.write_csv_bytes": self.csv_bytes * per,
            "schemes.soe_step_calls": soe_calls * per,
            "schemes.soe_step_s": soe_s * per,
            "schemes.soe_step_self_s": self_time["schemes.soe_step"] * per,
            "schemes.steps_per_s": soe_calls / soe_s if soe_s > 0 else 0.0,
            "schemes.energy_calls": calls["schemes.energy"] * per,
            "schemes.energy_s": total["schemes.energy"] * per,
            "schemes.quadrature_step_calls": calls["schemes.quadrature_step"] * per,
            "schemes.quadrature_step_s": total["schemes.quadrature_step"] * per,
            "schemes.quadrature_step_self_s": self_time["schemes.quadrature_step"] * per,
            "schemes.history_levels_max": self.history_levels_max,
            "operators.cg_solve_calls": cg_calls * per,
            "operators.cg_solve_s": total["operators.cg_solve"] * per,
            "operators.cg_solve_self_s": self_time["operators.cg_solve"] * per,
            "operators.cg_iterations": cg_iters * per,
            "operators.cg_iterations_per_solve": cg_iters / cg_calls if cg_calls else 0.0,
            "operators.laplacian_apply_calls": calls["operators.laplacian_apply"] * per,
            "operators.laplacian_apply_s": total["operators.laplacian_apply"] * per,
            "operators.laplacian_bytes_computed":
                8 * LAPLACIAN_FIELD_TRAFFIC * self.laplacian_nodes * per,
            "grid.gridfunction_allocs": self.allocs * per,
        }

