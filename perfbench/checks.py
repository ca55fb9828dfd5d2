"""Output checks for the benchmark workloads.

Each check reads the CSV files one ``memstep`` subcommand wrote and returns a
list of problems (empty when the output is right) plus a few figures worth
recording.  None of them compares against a stored copy of earlier output:

* ``run``: the ``energy`` and ``center_value`` columns are compared with a
  modal evaluation of the same sigma-scheme.  The five-point Dirichlet
  Laplacian is diagonal in the orthonormal DST-I basis, so every mode obeys a
  scalar recurrence that is solved exactly, without CG or grid functions.
  The energy must also be non-increasing (sigma >= 1/2, zero forcing).
* ``converge``: both fitted slopes must lie near 2, the order at sigma = 1/2.
* ``compare-baseline``: ``max_diff`` must fall about fourfold per halving of
  tau, and the field counts must be exactly m+1 and N+1.
"""

from __future__ import annotations

import csv
import io

import numpy as np

SLOPE_TARGET = 2.0
SLOPE_SLACK = 0.25
BASELINE_RATIO = (3.5, 4.5)


def read_csv(data: bytes) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


# -- modal oracle for ``run`` -------------------------------------------------


def _dst1(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix for n cells (n-1 interior nodes); symmetric."""
    k = np.arange(1, n)
    return np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)


def modal_trajectory(weights, rates, grid: int, sigma: float, T: float, steps: int):
    """Energy and center value at every time level of the sigma-scheme

        (y' - y)/tau + sum_i a_i A (sigma y_i' + (1-sigma) y_i) = 0,
        (y_i' - y_i)/tau + b_i (sigma y_i' + (1-sigma) y_i) = sigma y' + (1-sigma) y,

    for the model initial state u0 = x1 x2 sin(pi x1) sin(pi x2), evaluated
    mode by mode in the sine basis.
    """
    a = np.asarray(weights, dtype=float)[:, None, None]
    b = np.asarray(rates, dtype=float)[:, None, None]
    h = 1.0 / grid
    tau = T / steps
    s = _dst1(grid)
    x = np.arange(1, grid) * h
    u0 = np.outer(x * np.sin(np.pi * x), x * np.sin(np.pi * x))
    lam1 = (4.0 / h**2) * np.sin(np.pi * np.arange(1, grid) * h / 2.0) ** 2
    lam = lam1[:, None] + lam1[None, :]
    c = grid // 2 - 1  # the node nearest (0.5, 0.5), as GridFunction.center_value
    probe = np.outer(s[c], s[c])

    # Solve the auxiliary equation for y_i':  y_i' = p_i y_i + q_i y + r_i y'.
    d = 1.0 + sigma * b * tau
    p = (1.0 - (1.0 - sigma) * b * tau) / d
    q = (1.0 - sigma) * tau / d
    r = sigma * tau / d
    # Substituting into the first equation leaves one scalar solve per mode.
    lhs = 1.0 + tau * lam * np.sum(a * sigma * r, axis=0)

    y = s @ u0 @ s
    aux = np.zeros((len(a),) + y.shape)
    energies, centers = [], []
    for n in range(steps + 1):
        e2 = np.sum(y * y) + np.sum(a * lam * aux * aux)
        energies.append(h * np.sqrt(e2))
        centers.append(np.sum(probe * y))
        if n == steps:
            break
        mem = np.sum(a * ((1.0 - sigma) * aux + sigma * (p * aux + q * y)), axis=0)
        y_new = (y - tau * lam * mem) / lhs
        aux = p * aux + q * y + r * y_new
        y = y_new
    return np.array(energies), np.array(centers), float(np.sqrt(np.sum(u0 * u0)))


class RunOracle:
    """Expected ``trajectory.csv`` columns for one ``run`` configuration."""

    def __init__(self, kernel, grid, sigma, T, steps, cg_tol):
        self.steps = steps
        self.tau = T / steps
        self.energy, self.center, u0_norm = modal_trajectory(
            kernel.weights, kernel.rates, grid, sigma, T, steps
        )
        # CG stops at relative residual cg_tol, and (I + cA)^-1 has norm <= 1,
        # so each step adds at most about cg_tol relative error; the scheme
        # does not amplify it (sigma >= 1/2).  Allow the sum over all steps.
        self.energy_tol = steps * cg_tol * self.energy[0]
        self.center_tol = steps * cg_tol * u0_norm
        # One step's solver error is all an energy increase may amount to.
        self.monotone_slack = cg_tol * self.energy[0]

    def check(self, files: dict[str, bytes]) -> tuple[list[str], dict]:
        header, rows = read_csv(files["trajectory.csv"])
        if header != ["n", "t", "energy", "center_value"]:
            return [f"trajectory.csv header {header}"], {}
        problems = []
        if rows.shape[0] != self.steps + 1:
            return [f"trajectory.csv has {rows.shape[0]} rows, want {self.steps + 1}"], {}
        n = rows[:, 0]
        if not np.array_equal(n, np.arange(self.steps + 1)):
            problems.append("step column is not 0..N")
        if np.max(np.abs(rows[:, 1] - n * self.tau)) > 1e-9 * self.tau * self.steps:
            problems.append("time column is not n*tau")
        e_err = float(np.max(np.abs(rows[:, 2] - self.energy)))
        c_err = float(np.max(np.abs(rows[:, 3] - self.center)))
        if not e_err <= self.energy_tol:
            problems.append(f"energy differs from modal oracle by {e_err:.3e} > {self.energy_tol:.3e}")
        if not c_err <= self.center_tol:
            problems.append(f"center_value differs from modal oracle by {c_err:.3e} > {self.center_tol:.3e}")
        rise = float(np.max(np.diff(rows[:, 2])))
        if rise > self.monotone_slack:
            problems.append(f"energy rises by {rise:.3e} in one step")
        figures = {
            "oracle_energy_err_rel": e_err / self.energy[0],
            "oracle_center_err_abs": c_err,
            "energy_max_step_change": rise,
        }
        return problems, figures


# -- ``converge`` -------------------------------------------------------------


def check_converge(files: dict[str, bytes], stdout: str, T: float, ladder, sample_count):
    header, rows = read_csv(files["convergence.csv"])
    if header != ["tau", "max_eps2", "max_epsinf"] or rows.shape[0] != len(ladder):
        return [f"convergence.csv: header {header}, {rows.shape[0]} rows"], {}
    problems = []
    if not np.allclose(rows[:, 0], [T / n for n in ladder], rtol=1e-12, atol=0):
        problems.append("convergence.csv tau column does not match the ladder")
    if np.any(rows[:, 1:] <= 0):
        return problems + ["convergence.csv has non-positive errors"], {}
    slopes = [float(np.polyfit(np.log(rows[:, 0]), np.log(rows[:, k]), 1)[0]) for k in (1, 2)]
    for name, slope in zip(("eps2", "epsinf"), slopes):
        if abs(slope - SLOPE_TARGET) > SLOPE_SLACK:
            problems.append(f"slope {name} = {slope:.3f}, want {SLOPE_TARGET} +- {SLOPE_SLACK}")
        if f"slope {name} = {slope:.3f}" not in stdout:
            problems.append(f"printed slope {name} disagrees with convergence.csv ({slope:.3f})")
    # errors.csv is the error series of the finest ladder entry, whose maxima
    # are the last convergence row.
    eh, errs = read_csv(files["errors.csv"])
    if eh != ["t", "eps2", "epsinf"] or errs.shape[0] != sample_count:
        problems.append(f"errors.csv: header {eh}, {errs.shape[0]} rows")
    else:
        finest = int(np.argmax(ladder))
        if not np.array_equal(errs[:, 1:].max(axis=0), rows[finest, 1:]):
            problems.append("errors.csv maxima differ from the finest convergence row")
    return problems, {"slope_eps2": slopes[0], "slope_epsinf": slopes[1]}


# -- ``compare-baseline`` -----------------------------------------------------

BASELINE_HEADER = ["tau", "max_diff", "soe_seconds", "history_seconds",
                   "soe_fields", "history_fields"]


def check_baseline(files: dict[str, bytes], T: float, ladder, n_terms: int):
    header, rows = read_csv(files["baseline.csv"])
    if header != BASELINE_HEADER or rows.shape[0] != len(ladder):
        return [f"baseline.csv: header {header}, {rows.shape[0]} rows"], {}
    problems = []
    if not np.allclose(rows[:, 0], [T / n for n in ladder], rtol=1e-12, atol=0):
        problems.append("baseline.csv tau column does not match the ladder")
    if not np.all(rows[:, 4] == n_terms + 1):
        problems.append(f"soe_fields {rows[:, 4].tolist()} != m+1 = {n_terms + 1}")
    if not np.array_equal(rows[:, 5], np.array(ladder, dtype=float) + 1):
        problems.append(f"history_fields {rows[:, 5].tolist()} != N+1")
    diffs = rows[:, 1]
    ratios = diffs[:-1] / diffs[1:]
    lo, hi = BASELINE_RATIO
    if not np.all((ratios >= lo) & (ratios <= hi)):
        problems.append(f"max_diff ratios per halving {np.round(ratios, 3).tolist()} outside [{lo}, {hi}]")
    figures = {
        "max_diff_ratios": ratios.tolist(),
        "soe_seconds": rows[:, 2].tolist(),
        "history_seconds": rows[:, 3].tolist(),
    }
    return problems, figures


def baseline_deterministic_part(data: bytes) -> bytes:
    """baseline.csv without its wall-clock columns, which differ run to run."""
    keep = [0, 1, 4, 5]
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return "\n".join(",".join(row[k] for k in keep) for row in rows).encode()
