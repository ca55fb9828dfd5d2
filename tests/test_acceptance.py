"""End-to-end acceptance suite.

Each test checks one headline guarantee of the package and prints a single
PASS/FAIL line (run with ``pytest -s`` or ``-v`` to see them).  The shared
setting is the model relaxation problem on a 32x32 grid with T = 4 and its
exact solution at the sample times as the reference.
"""

import dataclasses
import math

import numpy as np
import pytest

from memstep import experiments
from memstep.experiments import (
    ExperimentSpec,
    compare_baseline,
    convergence_study,
    error_series,
    run_model_problem,
)
from memstep.grid import Grid2D, sample_function
from memstep.kernels import (
    StretchedExponential,
    kernel_sup_error,
    load_builtin_prony,
)
from memstep.operators import (
    FivePointLaplacian,
    IdentityOperator,
    ScaledSum,
    cg_solve,
    laplacian_eigenvalues,
)
from memstep.schemes import (
    ProblemSpec,
    SchemeConfig,
    energy,
    soe_init,
    soe_stepper,
)
from conftest import scalar_ode_oracle, scalar_problem


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} | {name} | {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_spec():
    return ExperimentSpec(
        kernel=load_builtin_prony("1/2"),
        grid_n=32,
        final_time=4.0,
        sigma=0.5,
        n_steps=400,
        sample_count=8,
    )


@pytest.fixture(scope="module")
def desk_reference(desk_spec):
    return experiments._exact_snapshots(desk_spec)


def test_builtin_kernel_table_fidelity():
    """Built-in fits carry unit mass and small sup error."""
    details = []
    ok = True
    for beta_key, beta in (("3/7", 3 / 7), ("1/2", 0.5), ("3/5", 0.6)):
        k = load_builtin_prony(beta_key)
        mass_err = abs(k.total_weight - 1.0)
        sup = kernel_sup_error(StretchedExponential(beta), k).sup_error
        ok = ok and k.n_terms == 12 and mass_err < 1e-4 and sup < 1e-3
        details.append(f"beta={beta_key}: mass err {mass_err:.1e}, sup {sup:.1e}")
    report("kernel table fidelity", ok, "; ".join(details))


def test_unconditional_energy_stability():
    """Energy never grows without forcing, for any tau once
    sigma >= 1/2."""
    grid_n = 32
    spec_kernel = load_builtin_prony("1/2")
    grid = Grid2D(grid_n, grid_n)
    problem = ProblemSpec(
        operator=FivePointLaplacian(grid),
        kernel=spec_kernel,
        initial=sample_function(
            grid, lambda x1, x2: x1 * x2 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
        ),
    )
    worst = 0.0
    for sigma in (0.5, 0.75, 1.0):
        for tau in (1e-3, 1e-1, 1.0, 10.0):
            step = soe_stepper(problem, SchemeConfig(sigma=sigma, tau=tau))
            state = soe_init(problem)
            e_prev = energy(problem, state)
            slack = 1e-8 * e_prev
            for _ in range(40):
                state = step(state)
                e = energy(problem, state)
                worst = max(worst, e - e_prev)
                assert e <= e_prev + slack
                e_prev = e
    report(
        "unconditional energy stability",
        worst <= slack,
        f"max energy increment {worst:.2e} over sigma in {{0.5,0.75,1}}, "
        "tau in {1e-3,0.1,1,10}",
    )


def test_temporal_convergence_orders(desk_spec):
    """First order for full weighting, second for symmetric, against the
    exact solution."""
    sym = convergence_study(desk_spec, (48, 96, 192, 384))
    # full weighting needs finer rungs to reach its asymptotic range on this
    # oscillatory problem
    full = convergence_study(dataclasses.replace(desk_spec, sigma=1.0), (192, 384, 768, 1536))
    ok = (
        abs(sym.slope_eps2 - 2.0) <= 0.2
        and abs(sym.slope_epsinf - 2.0) <= 0.2
        and abs(full.slope_eps2 - 1.0) <= 0.2
        and abs(full.slope_epsinf - 1.0) <= 0.2
    )
    report(
        "temporal convergence orders",
        ok,
        f"sigma=0.5 slopes ({sym.slope_eps2:.2f}, {sym.slope_epsinf:.2f}) ~ 2; "
        f"sigma=1 slopes ({full.slope_eps2:.2f}, {full.slope_epsinf:.2f}) ~ 1",
    )


def test_scalar_closed_form_convergence():
    """The stepper converges at the expected orders to the
    closed-form solution of the single-exponential scalar problem."""
    a1, b1, lam, u0, T = 1.0, 1.0, 4.0, 1.0, 10.0
    slopes = {}
    for sigma in (1.0, 0.5):
        errors, taus = [], []
        for n in (100, 200, 400, 800):
            problem = scalar_problem(a1, b1, lam, u0)
            step = soe_stepper(problem, SchemeConfig(sigma=sigma, tau=T / n))
            state = soe_init(problem)
            worst = 0.0
            for _ in range(n):
                state = step(state)
                exact = scalar_ode_oracle(a1, b1, lam, u0, state.t)
                worst = max(worst, abs(state.y[0, 0] - exact))
            errors.append(worst)
            taus.append(T / n)
        slopes[sigma] = np.polyfit(np.log(taus), np.log(errors), 1)[0]
    ok = abs(slopes[1.0] - 1.0) <= 0.2 and abs(slopes[0.5] - 2.0) <= 0.2
    report(
        "scalar closed-form convergence",
        ok,
        f"sigma=1 slope {slopes[1.0]:.2f} ~ 1; sigma=0.5 slope {slopes[0.5]:.2f} ~ 2",
    )


def test_compressed_matches_full_history(desk_spec, desk_reference):
    """The compressed stepper agrees with the full-history
    baseline to below its own discretization error, with O(tau^2) decay."""
    rows = compare_baseline(desk_spec, (96, 192, 384))
    diffs = [r.max_diff for r in rows]
    taus = [r.tau for r in rows]
    slope = np.polyfit(np.log(taus), np.log(diffs), 1)[0]
    finest = experiments._sample_run(desk_spec, 384)
    scheme_err = float(np.max(error_series(finest, desk_reference).epsinf))
    ok = abs(slope - 2.0) <= 0.35 and diffs[-1] < scheme_err
    report(
        "compressed vs full-history baseline",
        ok,
        f"diff slope {slope:.2f} ~ 2; finest diff {diffs[-1]:.2e} < "
        f"scheme error {scheme_err:.2e}",
    )


def test_spatial_operator_correctness(rng):
    """Five-point operator is symmetric positive definite with
    the known lowest eigenpair, and the linear solver honors its tolerance."""
    grid = Grid2D(32, 32)
    lap = FivePointLaplacian(grid)
    w = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    lam = laplacian_eigenvalues(grid).min()
    eig_err = float(np.max(np.abs(lap.apply_values(w) - lam * w)))
    eig_ok = eig_err <= 1e-10 * lam * float(np.max(np.abs(w)))

    def dot(a, b):  # the mesh-weighted inner product
        return float(np.vdot(a, b)) * grid.cell_area

    u, v = rng.standard_normal((2,) + grid.shape)
    sym_gap = abs(dot(lap.apply_values(u), v) - dot(u, lap.apply_values(v)))
    pd_ok = dot(lap.apply_values(u), u) >= (1 - 1e-10) * lam * dot(u, u)

    tol = 1e-10
    op = ScaledSum([(1.0, IdentityOperator()), (0.5, lap)])
    rhs = rng.standard_normal(grid.shape)
    x = cg_solve(op, rhs, tol=tol)
    r = op.apply_values(x) - rhs
    res = math.sqrt(dot(r, r) / dot(rhs, rhs))

    ok = eig_ok and sym_gap < 1e-10 and pd_ok and res <= tol
    report(
        "spatial operator correctness",
        ok,
        f"eigenpair residual {eig_err:.1e}, symmetry gap {sym_gap:.1e}, "
        f"PD bound ok={pd_ok}, CG rel residual {res:.1e} <= {tol:g}",
    )


def test_qualitative_relaxation_dynamics():
    """On a longer horizon the center value oscillates with
    decaying amplitude while the energy decays monotonically."""
    spec = ExperimentSpec(
        kernel=load_builtin_prony("1/2"),
        grid_n=64,
        final_time=10.0,
        sigma=0.5,
        n_steps=1000,
    )
    traj = run_model_problem(spec)
    signs = np.sign(traj.center_values)
    sign_changes = int(np.sum(signs[1:] * signs[:-1] < 0))
    # peak amplitudes between consecutive zero crossings must decrease
    crossings = np.flatnonzero(signs[1:] * signs[:-1] < 0)
    peaks = [
        float(np.max(np.abs(traj.center_values[a:b])))
        for a, b in zip(np.concatenate(([0], crossings)), np.append(crossings, len(signs)))
    ]
    peaks_decreasing = all(p2 < p1 for p1, p2 in zip(peaks, peaks[1:]))
    energy_ok = np.all(np.diff(traj.energies) <= 1e-8 * traj.energies[0])
    ok = sign_changes >= 4 and peaks_decreasing and energy_ok
    report(
        "qualitative relaxation dynamics",
        ok,
        f"{sign_changes} sign changes of the center value, peak amplitudes "
        f"{'decreasing' if peaks_decreasing else 'NOT decreasing'}, "
        f"energy monotone={bool(energy_ok)}",
    )


def test_auxiliary_residual_guard_active():
    """Every step verifies the auxiliary update equations, and the
    guard rejects an update that violates them."""
    from memstep import schemes
    from memstep.schemes import AuxiliaryResidualError, _aux_residual_guard

    problem = scalar_problem(1.0, 2.0, 3.0, 1.0)
    cfg = SchemeConfig(sigma=0.75, tau=0.1)

    def tripwire(*args):
        raise AuxiliaryResidualError("guard called")

    with pytest.MonkeyPatch.context() as mp:  # the step always runs the guard
        mp.setattr(schemes, "_aux_residual_guard", lambda *args: tripwire)
        with pytest.raises(AuxiliaryResidualError, match="guard called"):
            soe_stepper(problem, cfg)(soe_init(problem))
    step, state = soe_stepper(problem, cfg), soe_init(problem)
    for _ in range(50):
        state = step(state)  # never raises on honest states

    # the guard itself must reject an update that violates the auxiliary
    # equation (e.g. a mis-derived update formula)
    wrong = state.aux + 1e-3
    tripped = False
    try:
        _aux_residual_guard(cfg, problem.grid, [2.0])(
            ybar=state.y, aux_new=wrong, aux_old=state.aux,
        )
    except AuxiliaryResidualError:
        tripped = True
    report(
        "auxiliary residual guard",
        tripped,
        "50 honest steps verified silently; inconsistent update detected",
    )
