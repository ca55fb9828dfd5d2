import contextlib
import dataclasses
import math
import re
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_guard_verdict,
    oracle_residual_guard,
    per_step_history_levels,
    product_rule_tables,
    residual_guard,
    scalar_ode_oracle,
    scalar_problem,
    update_coefficients,
)
from memstep import experiments, schemes
from memstep.experiments import ExperimentSpec, build_model_problem
from memstep.grid import Grid2D, GridMismatchError, sample_function
from memstep.kernels import BUILTIN_BETAS, PronySeries, load_builtin_prony
from memstep.operators import (
    DiagonalScaling,
    FivePointLaplacian,
    IdentityOperator,
    NotSpdError,
    ScaledSum,
    SpdOperator,
    a_norm,
    cg_solve,
    laplacian_eigenvalues,
    sine_transform,
)
from memstep.schemes import (
    AuxiliaryResidualError,
    NonFiniteError,
    ProblemSpec,
    SchemeConfig,
    SchemeConfigError,
    SoeState,
    energy,
    history_levels,
    soe_init,
    soe_stepper,
)


def scalar_value(state):
    return state.y[0, 0]


def l2_norm(w, grid):
    """Mesh-weighted L2 norm (sum w**2 * h1 * h2)**0.5."""
    return math.sqrt(float(np.vdot(w, w)) * grid.cell_area)


def run_soe(problem, cfg, n_steps):
    step, state = soe_stepper(problem, cfg), soe_init(problem)
    for _ in range(n_steps):
        state = step(state)
    return state


class TestSchemeConfig:
    def test_sigma_out_of_range(self):
        with pytest.raises(SchemeConfigError, match=r"\(0, 1\]"):
            SchemeConfig(sigma=1.5, tau=0.1)
        with pytest.raises(SchemeConfigError):
            SchemeConfig(sigma=0.0, tau=0.1)

    @pytest.mark.parametrize("key, value", [
        ("tau", math.inf), ("tau", math.nan), ("tau", 0.0),
        ("cg_tol", math.nan), ("cg_tol", math.inf), ("cg_tol", 0.0), ("cg_tol", -1e-10),
    ])
    def test_step_and_tolerance_must_be_finite_and_positive(self, key, value):
        with pytest.raises(SchemeConfigError, match=rf"{key}={value} must be > 0 and finite"):
            SchemeConfig(**{"sigma": 0.5, "tau": 0.1, key: value})

    def test_infinite_final_time_fails_as_configuration(self):
        # when the spec is built, not as a non-finite value in the scheme coefficients
        with pytest.raises(ValueError, match="final_time=inf must be > 0 and finite"):
            ExperimentSpec(kernel=load_builtin_prony("1/2"), grid_n=8, final_time=math.inf)


class TestSoeInit:
    def test_auxiliaries_zero_and_counted(self):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=sample_function(grid, lambda x1, x2: x1 * x2),
        )
        s = soe_init(p)
        assert len(s.aux) == 12
        assert all(np.all(a == 0.0) for a in s.aux)
        assert s.n == 0 and s.t == 0.0

    def test_zero_initial_gives_zero_state(self):
        grid = Grid2D(4, 4)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=PronySeries((1.0,), (1.0,)),
            initial=np.zeros(grid.shape),
        )
        s = soe_init(p)
        assert np.all(s.y == 0.0)


class TestSoeState:
    def test_keyword_built_with_no_energy_by_default(self):
        y, aux = np.ones((2, 2)), np.zeros((3, 2, 2))
        s = SoeState(y=y, aux=aux, n=4, t=0.5)
        assert (s.y, s.aux, s.n, s.t, s.energy) == (y, aux, 4, 0.5, None)
        assert SoeState(y=y, aux=aux, n=4, t=0.5, energy=2.0).energy == 2.0

    @pytest.mark.parametrize("name", ["y", "aux", "n", "t", "energy", "other"])
    def test_every_field_is_read_only(self, name):
        s = SoeState(y=np.ones((2, 2)), aux=np.zeros((3, 2, 2)), n=4, t=0.5, energy=1.0)
        with pytest.raises(AttributeError):
            setattr(s, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(s, name)
        assert (s.n, s.t, s.energy) == (4, 0.5, 1.0)


class TestSoeStep:
    def test_zero_problem_stays_zero(self):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=np.zeros(grid.shape),
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        s = run_soe(p, cfg, 5)
        assert np.all(s.y == 0.0)
        assert all(np.all(a == 0.0) for a in s.aux)

    def test_hand_evaluated_single_step(self):
        # sigma=1, m=1, a=1, b=0, lam=1, tau=1, u0=1:
        # chi = 0, mu = 1, solve 2*y1 = 1 -> y1 = 0.5, aux = 0.5
        p = scalar_problem(1.0, 0.0, 1.0, 1.0)
        cfg = SchemeConfig(sigma=1.0, tau=1.0)
        s = soe_stepper(p, cfg)(soe_init(p))
        assert scalar_value(s) == pytest.approx(0.5, abs=1e-12)
        assert s.aux[0][0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("sigma,expected_order", [(1.0, 1.0), (0.5, 2.0)])
    def test_convergence_to_scalar_oracle(self, sigma, expected_order):
        a1, b1, lam, u0, T = 1.0, 1.0, 4.0, 1.0, 10.0
        errors, taus = [], []
        for n in (100, 200, 400, 800):
            p = scalar_problem(a1, b1, lam, u0)
            cfg = SchemeConfig(sigma=sigma, tau=T / n)
            step, state = soe_stepper(p, cfg), soe_init(p)
            worst = 0.0
            for _ in range(n):
                state = step(state)
                exact = scalar_ode_oracle(a1, b1, lam, u0, state.t)
                worst = max(worst, abs(scalar_value(state) - exact))
            errors.append(worst)
            taus.append(T / n)
        slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
        assert slope == pytest.approx(expected_order, abs=0.2)


class TestGeneralStep:
    def test_reduces_to_soe_step_bitwise(self):
        # unit mass and zero reaction as explicit operators reproduce the
        # identity-mass step bit for bit
        grid = Grid2D(12, 12)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=sample_function(
                grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2)
            ),
        )
        general = ProblemSpec(
            operator=p.operator, kernel=p.kernel, initial=p.initial,
            mass=DiagonalScaling(1.0), reaction=DiagonalScaling(0.0),
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.05)
        step1, step2 = soe_stepper(p, cfg), soe_stepper(general, cfg)
        s1, s2 = soe_init(p), soe_init(general)
        for _ in range(10):
            s1 = step1(s1)
            s2 = step2(s2)
            np.testing.assert_array_equal(s1.y, s2.y)
            for a1, a2 in zip(s1.aux, s2.aux):
                np.testing.assert_array_equal(a1, a2)

    def test_doubled_mass_with_zero_operator_freezes_solution(self):
        # 2*(y1 - y0)/tau = 0 when the spatial and reaction terms vanish
        p = ProblemSpec(
            operator=DiagonalScaling(0.0),
            kernel=PronySeries((1.0,), (1.0,)),
            initial=np.array([[3.0]]),
            mass=DiagonalScaling(2.0),
        )
        s = soe_stepper(p, SchemeConfig(sigma=1.0, tau=1.0))(soe_init(p))
        assert scalar_value(s) == pytest.approx(3.0, rel=1e-12)

    def test_reaction_dominated_decay(self):
        # negligible memory weights turn the scheme into a theta scheme for
        # dy/dt + y = 0, whose solution is exp(-t)
        p = ProblemSpec(
            operator=DiagonalScaling(1.0),
            kernel=PronySeries((1e-14,), (1.0,)),
            initial=np.array([[1.0]]),
            reaction=DiagonalScaling(1.0),
        )
        step, s = soe_stepper(p, SchemeConfig(sigma=0.5, tau=0.01)), soe_init(p)
        for _ in range(100):
            s = step(s)
        assert scalar_value(s) == pytest.approx(math.exp(-1.0), abs=1e-5)


def unbuilt_step(p, cfg, s):
    """The compressed step as written before the per-run stepper: every
    coefficient and the left-hand side rebuilt on each call, no guard."""
    sig, tau = cfg.sigma, cfg.tau
    a, b = np.asarray(p.kernel.weights), np.asarray(p.kernel.rates)
    d = 1.0 + sig * b * tau
    decay = (1.0 - (1.0 - sig) * b * tau) / d
    gain = tau / d
    mu = math.fsum(sig * a * tau / d)
    grid, y = p.grid, s.y
    mem = np.tensordot(a * ((1.0 - sig) + sig * decay), s.aux, axes=1)
    mem += (sig * (1.0 - sig) * float(a @ gain)) * y
    rhs = p.mass.apply_values(y)
    rhs -= tau * p.operator.apply_values(mem)
    terms = [(1.0, p.mass), (sig * tau * mu, p.operator)]
    if p.reaction is not None:
        rhs -= ((1.0 - sig) * tau) * p.reaction.apply_values(y)
        terms.append((sig * tau, p.reaction))
    if p.forcing is not None:
        rhs += tau * p.forcing(s.t + sig * tau)
    y_new = cg_solve(ScaledSum(terms), rhs, tol=cfg.cg_tol)
    ybar = sig * y_new + (1.0 - sig) * y
    aux = decay[:, None, None] * s.aux
    for k in range(len(aux)):
        aux[k] += gain[k] * ybar
    return y_new, aux


class TestSoeStepper:
    def test_matches_the_unbuilt_step_bitwise(self, rng):
        grid = Grid2D(10, 10)
        bump = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=rng.standard_normal(grid.shape),
            forcing=lambda t: math.cos(t) * bump,
            mass=DiagonalScaling(rng.uniform(1.0, 2.0, grid.shape)),
            reaction=DiagonalScaling(rng.uniform(0.0, 0.5, grid.shape)),
        )
        cfg = SchemeConfig(sigma=0.75, tau=0.05)
        step, s = soe_stepper(p, cfg), soe_init(p)
        for _ in range(6):
            y_new, aux = unbuilt_step(p, cfg, s)
            s = step(s)
            np.testing.assert_array_equal(s.y, y_new)
            np.testing.assert_array_equal(s.aux, aux)

    def test_pointwise_solve_applies_one_collapsed_operator(self, monkeypatch):
        grid = Grid2D(12, 12)
        v = sample_function(grid, lambda x1, x2: x1 * x2 * np.sin(np.pi * x1) * np.sin(np.pi * x2))
        p = ProblemSpec(  # the model problem in sine coordinates
            operator=DiagonalScaling(laplacian_eigenvalues(grid)),
            kernel=load_builtin_prony("1/2"),
            initial=sine_transform(v),
        )
        solved, applied = [], []
        solve, apply = schemes.cg_solve, DiagonalScaling.apply_values

        def recording_solve(op, rhs, **kwargs):
            solved.append(op)
            return solve(op, rhs, **kwargs)

        def counting_apply(op, v):
            applied.append(op)
            return apply(op, v)

        monkeypatch.setattr(schemes, "cg_solve", recording_solve)
        monkeypatch.setattr(DiagonalScaling, "apply_values", counting_apply)
        monkeypatch.setattr(ScaledSum, "apply_values", lambda *args: pytest.fail("summed"))
        step, s = soe_stepper(p, SchemeConfig(sigma=0.5, tau=0.01)), soe_init(p)
        for _ in range(5):
            s = step(s)
        lhs = solved[0]
        assert isinstance(lhs, DiagonalScaling) and all(op is lhs for op in solved)
        assert len(solved) == 5 and not any(op is lhs for op in applied)  # solved by division


def level_weights(kernel, tau, n):
    """The product rule's weights on levels 0..n-1 of int_0^{t_n}, assembled
    from the lag tables (level 0 at lag n, levels 1..n-1 at lags n-1..1), and
    the endpoint weight on level n."""
    start, inner, end = product_rule_tables(kernel, tau, n)
    return np.append(start[n], inner[n - 1 : 0 : -1]), end


def edge_series(c, sign):
    """sum_k (sign*c)**k / (k+2)! to 40 terms, summed exactly by fsum: the start
    factor (expm1(c) - c)/c**2 for sign +1, the end factor (c + expm1(-c))/c**2
    for sign -1, free of the cancellation of their closed forms at small c."""
    return math.fsum((sign * c) ** k / math.factorial(k + 2) for k in range(40))


def first_moment_series(c):
    """int_0^1 x exp(-cx) dx = sum_k (-c)**k / (k! (k+2)) to 40 terms, summed
    exactly by fsum, free of the cancellation of its closed form at small c."""
    return math.fsum((-c) ** k / (math.factorial(k) * (k + 2)) for k in range(40))


def unshifted_tables(kernel, tau, max_lag):
    """The start and inner lag tables as first written, each factor times
    exp(-c L) with c = tau b: the factors expm1(c) and sinh(c/2)**2 overflow
    once c passes about 710, and 0 * inf then makes a table NaN.  Below c = 1
    the start factor is the series, whose closed form loses digits there."""
    a, c = np.asarray(kernel.weights), tau * np.asarray(kernel.rates)
    small = c < 1e-8
    with np.errstate(over="ignore", invalid="ignore"):
        cs = np.where(small, 1.0, c)
        series = np.array([edge_series(ci, 1.0) for ci in np.minimum(c, 1.0)])
        start = np.where(c < 1.0, series, (np.expm1(c) - c) / cs**2)
        inner = np.where(small, 1.0, 4.0 * np.sinh(c / 2.0) ** 2 / cs**2)
        decay = np.exp(-np.multiply.outer(c, np.arange(max_lag + 1, dtype=float)))
        return tau * (a @ (decay * start[:, None])), tau * (a @ (decay * inner[:, None]))


def recursion_steps(p, cfg, levels):
    """Each level 1..n of ``levels`` as the product rule's per-term recursion
    takes it from the levels before it, for a problem with a pointwise
    operator, and the largest memory term tau A int_0^{t_n} it met.  With
    c_i = tau b_i the rule's integral to t_n is sum_i a_i z_i(t_n), where
    z_i(t_{n+1}) = e^{-c_i} z_i(t_n) + tau (l_i y_n + r_i y_{n+1}), and l_i =
    (1 - e^{-c_i} (1 + c_i))/c_i**2 and r_i = (c_i - 1 + e^{-c_i})/c_i**2 weigh
    the two ends of the linear interpolant, here in 60-digit arithmetic.
    Each step starts from the given past, not from the recursion's own, so
    the comparison sees one step's rounding: an undamped run (sigma = 1/2,
    a near-constant kernel) carries float rounding from step to step, and
    over 1,000 steps that alone puts ``history_levels`` 1e-13 off exact
    arithmetic.  O(m) work a step, for the tests alone."""
    sig, tau = cfg.sigma, cfg.tau
    a, lam = np.asarray(p.kernel.weights), p.operator.diagonal()
    with mpmath.workdps(60):
        factors = []
        for b in p.kernel.rates:
            c = mpmath.mpf(tau) * mpmath.mpf(b)
            decay = mpmath.exp(-c)
            factors.append([float(f) for f in (decay, (1 - decay * (1 + c)) / c**2,
                                                   (c - 1 + decay) / c**2)])
    decay, left, right = np.array(factors).T[:, :, None, None]
    end = tau * float(a @ right[:, 0, 0])
    z = np.zeros((len(a),) + p.initial.shape)
    steps, memory = np.empty_like(levels[1:]), 0.0
    for n, (y, new) in enumerate(zip(levels[:-1], levels[1:])):
        known = decay * z + tau * left * y  # each term's integral to t_{n+1} but y_{n+1}'s part
        integral = np.tensordot(a, z, 1)
        memory = max(memory, np.max(np.abs(tau * lam * integral)))
        blend = sig * np.tensordot(a, known, 1) + (1.0 - sig) * integral
        steps[n] = (y - tau * lam * blend) / (1.0 + sig * tau * end * lam)
        z = known + tau * right * new
    return steps, memory


def recursion_difference(kernel, sigma, tau, n_steps, seed):
    """The largest difference between a level of ``history_levels`` and the
    ``recursion_steps`` step from its levels before it, on a 3x3 interior in
    sine coordinates, relative to the largest level value or memory term,
    whichever is larger: each step subtracts the memory term from the level,
    so its rounding is what both paths may differ by."""
    grid = Grid2D(4, 4)
    p = ProblemSpec(DiagonalScaling(laplacian_eigenvalues(grid)), kernel,
                    np.random.default_rng(seed).standard_normal(grid.shape))
    cfg = SchemeConfig(sigma=sigma, tau=tau)
    levels = history_levels(p, cfg, n_steps)
    steps, memory = recursion_steps(p, cfg, levels)
    return np.max(np.abs(levels[1:] - steps)) / max(np.max(np.abs(levels)), memory)


class TestRecursionOracle:
    """The full-history baseline against the product rule's O(m) recursion, a
    path to the same numbers that shares none of the lag tables."""

    @settings(max_examples=25, deadline=None)
    @given(
        small=st.floats(1e-6, 0.99),  # c below _SERIES_CUTOFF
        big=st.floats(701.0, 5000.0),  # c where expm1(c) overflows
        more=st.lists(st.floats(1e-3, 1e3), max_size=3),
        weights=st.lists(st.floats(0.01, 2.0), min_size=5, max_size=5),
        sigma=st.floats(0.5, 1.0),
        tau=st.floats(1e-3, 0.5),
        n_steps=st.integers(2, 1000),
        seed=st.integers(0, 2**16),
    )
    def test_history_matches_the_recursion(self, small, big, more, weights, sigma, tau,
                                           n_steps, seed):
        assert schemes._SERIES_CUTOFF == 1.0
        cs = [small, big, *more]
        kernel = PronySeries(tuple(weights[: len(cs)]), tuple(c / tau for c in cs))
        assert recursion_difference(kernel, sigma, tau, n_steps, seed) <= 1e-13

    @pytest.mark.parametrize("table, lag", [("start", 30), ("inner", 5)])
    def test_one_wrong_table_entry_fails_it(self, monkeypatch, table, lag):
        kernel = load_builtin_prony("1/2")
        assert recursion_difference(kernel, 0.5, 0.05, 40, 0) <= 1e-13
        moments = schemes._interval_moments

        def perturbed(kernel, tau, count):
            # the entry off by 1e-9 of itself through the moments of its lag:
            # start[lag] = far[lag-1], with near[lag] moved back so that
            # inner[lag] = far[lag-1] + near[lag] keeps its sum, or near[lag] alone
            far, near = moments(kernel, tau, count)
            if table == "start":
                delta = 1e-9 * far[lag - 1]
                far[lag - 1] += delta
                near[lag] -= delta
            else:
                near[lag] += 1e-9 * (far[lag - 1] + near[lag])
            return far, near

        monkeypatch.setattr(schemes, "_interval_moments", perturbed)
        assert recursion_difference(kernel, 0.5, 0.05, 40, 0) > 1e-11


class TestQuadratureStep:
    """The full-history baseline, history_levels."""

    def test_zero_problem_stays_zero(self):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=np.zeros(grid.shape),
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        levels = history_levels(p, cfg, 4)
        assert all(np.all(y == 0.0) for y in levels)

    def test_product_weights_integrate_kernel_exactly_for_constant(self):
        # against the closed-form integral of each exponential
        kernel = PronySeries((0.7, 0.3), (2.0, 0.0))
        tau, n = 0.125, 9
        weights, end = level_weights(kernel, tau, n)
        total = weights.sum() + end
        t_end = n * tau
        exact = 0.7 * (1 - math.exp(-2.0 * t_end)) / 2.0 + 0.3 * t_end
        assert total == pytest.approx(exact, rel=1e-13)

    def test_product_weights_integrate_stiff_kernel_exactly_for_constant(self):
        # tau * b = 1000, past the point where the factors carry exp(-c)
        kernel = PronySeries((0.7, 0.3), (8000.0, 0.0))
        tau, n = 0.125, 9
        weights, end = level_weights(kernel, tau, n)
        exact = -0.7 * math.expm1(-8000.0 * n * tau) / 8000.0 + 0.3 * n * tau
        assert weights.sum() + end == pytest.approx(exact, rel=1e-13)

    def test_product_weights_match_trapezoid_for_rate_zero(self):
        kernel = PronySeries((1.0,), (0.0,))
        tau, n = 0.25, 4
        weights, end = level_weights(kernel, tau, n)
        np.testing.assert_allclose(weights, [tau / 2, tau, tau, tau], rtol=1e-15)
        assert end == pytest.approx(tau / 2, rel=1e-15)

    def test_first_step_scalar_hand_check(self):
        # n=0, sigma=1: (y1-y0)/tau + w0*lam*y0 + w1*lam*y1 = 0 with the
        # product weights of a single interval
        a1, b1, lam, u0, tau = 1.0, 2.0, 3.0, 1.0, 0.5
        p = scalar_problem(a1, b1, lam, u0)
        cfg = SchemeConfig(sigma=1.0, tau=tau)
        levels = history_levels(p, cfg, 1)
        c = b1 * tau
        w0 = a1 * tau * (math.exp(-c) * (math.exp(c) - 1 - c)) / c**2
        w1 = a1 * tau * (c - 1 + math.exp(-c)) / c**2
        expected = (u0 - tau * w0 * lam * u0) / (1 + tau * w1 * lam)
        assert levels[-1][0, 0] == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def soe_history_diffs(p, step_counts):
        """Max difference of the compressed and history levels over each run,
        on [0, 1] at sigma = 0.5."""
        diffs = []
        for n in step_counts:
            cfg = SchemeConfig(sigma=0.5, tau=1.0 / n)
            step, s = soe_stepper(p, cfg), soe_init(p)
            worst = 0.0
            for level in history_levels(p, cfg, n)[1:]:
                s = step(s)
                worst = max(worst, np.max(np.abs(s.y - level)))
            diffs.append(worst)
        return diffs

    def test_agrees_with_soe_under_refinement(self):
        grid = Grid2D(8, 8)
        kernel = load_builtin_prony("1/2")
        u0 = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        p = ProblemSpec(operator=FivePointLaplacian(grid), kernel=kernel, initial=u0)
        diffs = self.soe_history_diffs(p, (20, 40, 80))
        assert diffs[1] < diffs[0] and diffs[2] < diffs[1]
        slope = np.polyfit(np.log([1 / 20, 1 / 40, 1 / 80]), np.log(diffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.4)

    def test_forced_levels_agree_with_soe_under_refinement(self):
        # from rest, so every level is driven by the forcing at t_n + sigma tau
        grid = Grid2D(8, 8)
        bump = sample_function(grid, lambda x1, x2: x1 * (1 - x1) * np.sin(np.pi * x2))
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=np.zeros(grid.shape),
            forcing=lambda t: math.cos(3 * t) * bump,
        )
        diffs = self.soe_history_diffs(p, (20, 40, 80))
        assert diffs[1] < diffs[0] and diffs[2] < diffs[1]
        slope = np.polyfit(np.log([1 / 20, 1 / 40, 1 / 80]), np.log(diffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.4)

    def test_history_grows_linearly(self):
        p = scalar_problem(1.0, 1.0, 1.0, 1.0)
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        for k in range(5):
            assert len(history_levels(p, cfg, k)) == k + 1

    def test_weight_tables_built_once_per_run(self, monkeypatch):
        built = []
        moments = schemes._interval_moments

        def counting(*args):
            built.append(1)
            return moments(*args)

        monkeypatch.setattr(schemes, "_interval_moments", counting)
        history_levels(scalar_problem(1.0, 1.0, 1.0, 1.0), SchemeConfig(sigma=0.5, tau=0.1), 10)
        assert len(built) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau, rate", [
        *(pytest.param(tau, 1.0, id=str(tau)) for tau in [*np.logspace(-10, 4, 15), 705.0, 1e300]),
        pytest.param(1.0, 0.0, id="rate-0"),
    ])
    def test_tables_stay_finite_and_match_the_unshifted_form(self, tau, rate):
        kernel, max_lag = PronySeries((1.0,), (rate,)), 40  # c = tau * rate
        start, inner, end = product_rule_tables(kernel, tau, max_lag)
        for table in (start, inner):
            assert np.all(np.isfinite(table)) and np.all(table >= 0.0)
        assert math.isfinite(end) and end > 0.0
        old_start, old_inner = unshifted_tables(kernel, tau, max_lag)
        # the unshifted form is accurate while exp(-c L) is a normal number
        lags = np.arange(max_lag + 1)
        kept = (lags >= 1) & (tau * rate * lags <= 708.0)
        assert np.all(np.isfinite(old_start[kept])) and np.all(np.isfinite(old_inner[kept]))
        np.testing.assert_allclose(start[kept], old_start[kept], rtol=1e-12, atol=0)
        np.testing.assert_allclose(inner[kept], old_inner[kept], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tau", [0.01, 200 / 48])
    def test_builtin_tables_match_the_unshifted_form_where_finite(self, tau):
        # at 200/48, tau * b reaches about 800 and the unshifted tables are NaN
        kernel, max_lag = load_builtin_prony("1/2"), 60
        start, inner, _ = product_rule_tables(kernel, tau, max_lag)
        assert np.all(np.isfinite(start)) and np.all(np.isfinite(inner))
        for new, old in zip((start, inner), unshifted_tables(kernel, tau, max_lag)):
            finite = np.isfinite(old)
            finite[0] = False  # lag 0 is not used
            np.testing.assert_allclose(new[finite], old[finite], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c", [*np.logspace(-9, math.log10(2.0), 37), 0.999999, 1.0])
    def test_edge_factors_match_their_series(self, c):
        # with tau = a = 1 the edge weights are c's moment factors: the start
        # weight of lag 1 is first(c), and the end weight mean(c) - first(c)
        start, _, end = product_rule_tables(PronySeries((1.0,), (c,)), 1.0, 1)
        assert start[1] == pytest.approx(first_moment_series(c), rel=1e-15, abs=0)
        assert end == pytest.approx(edge_series(c, -1.0), rel=1e-15, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [1e10, 1e200, 1e300])
    def test_end_weight_past_squaring_range(self, tau):
        # c = tau: the end factor (c + expm1(-c))/c**2 is (1 - 1/c)/c, so the
        # endpoint weight tau * a * factor is 1 - 1/tau, with no overflow of c**2
        _, _, end = product_rule_tables(PronySeries((1.0,), (1.0,)), tau, 4)
        assert end == pytest.approx(1.0 - 1.0 / tau, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [
        lambda p, cfg: soe_stepper(p, cfg),
        lambda p, cfg: history_levels(p, cfg, 1),
    ], ids=["compressed", "history"])
    def test_overflowing_coefficients_raise_non_finite(self, build):
        # sigma * b * tau overflows while the coefficients are built, before any step
        with pytest.raises(NonFiniteError, match="scheme coefficients: overflow"):
            build(scalar_problem(1.0, 10.0, 1.0, 1.0), SchemeConfig(sigma=0.5, tau=1e308))

    def test_overflow_names_the_step(self):
        # sigma = 0.1 at a large step is unstable: the levels grow until they overflow
        p = scalar_problem(1.0, 2.0, 3.0, 1.0)
        with pytest.raises(NonFiniteError, match=r"history update of step \d+ \(t="):
            history_levels(p, SchemeConfig(sigma=0.1, tau=5.0), 1000)

    @pytest.mark.parametrize("term", ["mass", "reaction"])
    def test_mass_or_reaction_rejected(self, term):
        p = dataclasses.replace(scalar_problem(1.0, 1.0, 1.0, 1.0), **{term: DiagonalScaling(2.0)})
        with pytest.raises(SchemeConfigError, match="plain problem"):
            history_levels(p, SchemeConfig(sigma=0.5, tau=0.1), 3)

    def test_matches_operator_applied_to_every_level(self):
        # the baseline stepped the old way, A applied to every level and the
        # products summed over the whole history at both time levels
        grid = Grid2D(6, 6)
        u0 = sample_function(grid, lambda x1, x2: x1 * (1 - x1) * x2)
        kernel = load_builtin_prony("1/2")
        lap = FivePointLaplacian(grid)
        p = ProblemSpec(operator=lap, kernel=kernel, initial=u0)
        cfg = SchemeConfig(sigma=0.75, tau=0.05, cg_tol=1e-14)
        ys = [u0]
        for n in range(10):
            applied = [lap.apply_values(y) for y in ys]
            integral = 0.0
            if n > 0:
                old, old_end = level_weights(kernel, cfg.tau, n)
                integral = old_end * applied[n] + sum(w * ay for w, ay in zip(old, applied))
            new, new_end = level_weights(kernel, cfg.tau, n + 1)
            s_new = sum(w * ay for w, ay in zip(new, applied))
            rhs = ys[n] - cfg.tau * (cfg.sigma * s_new + (1 - cfg.sigma) * integral)
            lhs = ScaledSum([(1.0, IdentityOperator()), (cfg.sigma * cfg.tau * new_end, lap)])
            ys.append(cg_solve(lhs, rhs, tol=1e-14))
        scale = np.abs(u0).max()
        levels = history_levels(p, cfg, 10)
        np.testing.assert_allclose(levels, np.array(ys), rtol=0, atol=1e-12 * scale)



def history_problems():
    """Plain problems for the history's blocks: the model problem in sine
    coordinates, the same with a forcing, and the stencil solved by CG.  The
    stencil's grid is 4x4: CG's output moves by about the condition number of
    its system times a change in its right-hand side, near 3 there at tau =
    0.1 and near 9 on grid 8, where the two paths' one-ulp differences in the
    memory term reach 1.3e-15 of the largest level."""
    spec = ExperimentSpec(load_builtin_prony("1/2"), grid_n=8)
    modal = build_model_problem(spec)
    grid = Grid2D(4, 4)
    bump = sample_function(grid, lambda x1, x2: x1 * (1 - x1) * np.sin(np.pi * x2))
    u0 = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    return {
        "sine": modal,
        "sine, forced": dataclasses.replace(modal, forcing=lambda t: math.cos(3 * t) * modal.initial),
        "stencil, forced": ProblemSpec(FivePointLaplacian(grid), load_builtin_prony("1/2"), u0,
                                       forcing=lambda t: math.sin(2 * t) * bump),
    }


class TestBlockedHistory:
    """history_levels' blocks of steps, against the per-step loop they replaced."""

    BLOCK, CHUNK = 4, 5

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(schemes, "_HISTORY_BLOCK", self.BLOCK)
        monkeypatch.setattr(schemes, "_HISTORY_CHUNK", self.CHUNK)

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("problem", list(history_problems()))
    @pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, CHUNK + BLOCK + 1])
    def test_levels_match_the_per_step_loop(self, small_blocks, problem, sigma, n_steps):
        # CHUNK + BLOCK + 1 steps: the last block's far product takes two chunks
        p = history_problems()[problem]
        cfg = SchemeConfig(sigma=sigma, tau=0.1, cg_tol=1e-13)
        levels, oracle = history_levels(p, cfg, n_steps), per_step_history_levels(p, cfg, n_steps)
        assert levels.shape == oracle.shape == (n_steps + 1,) + p.initial.shape
        assert np.max(np.abs(levels - oracle)) <= 1e-15 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("problem", list(history_problems()))
    def test_levels_match_the_per_step_loop_at_the_module_sizes(self, problem):
        n_steps = schemes._HISTORY_CHUNK + 2 * schemes._HISTORY_BLOCK + 3
        p = history_problems()[problem]
        cfg = SchemeConfig(sigma=0.5, tau=2.0 / n_steps, cg_tol=1e-13)
        levels, oracle = history_levels(p, cfg, n_steps), per_step_history_levels(p, cfg, n_steps)
        assert np.max(np.abs(levels - oracle)) <= 1e-15 * np.max(np.abs(oracle))

    def test_overflow_in_a_later_blocks_far_product_names_its_step(self, small_blocks):
        # A constant kernel at tau = 2 weighs level 8 by -3 in step 9, which
        # takes it to t_9 (lag 0, where it closes the integral to t_8), and by
        # -4 in step 10 (lag 1).  The forcing makes level 8 0.5e308 and brings
        # level 9 back near 0, so step 10's sum overflows where step 9's did
        # not: in row 1 of the far product of the block of steps 9-12, in its
        # third chunk of levels.  The per-step loop overflows in step 10 too.
        def forcing(t):  # t_n + tau/2 = 2n + 1 for the step from t_n
            return np.full((1, 1), 0.5e308 if t in (15.0, 17.0) else 0.0)

        p = scalar_problem(1.0, 0.0, 1.0, 1.0, forcing=forcing)
        cfg = SchemeConfig(sigma=0.5, tau=2.0)
        levels = history_levels(p, cfg, 9)
        assert np.isfinite(levels).all() and levels[8, 0, 0] == pytest.approx(0.5e308)
        assert 8 // self.BLOCK > 0 and 8 % self.BLOCK == 0 and 8 // self.CHUNK > 0
        lags, first, _ = schemes._history_weights(*schemes._interval_moments(p.kernel, 2.0, 11),
                                                  0.5, 2.0)
        assert (lags[10 - 1], lags[10 - 2]) == (-3.0, -4.0)  # lags 0 and 1
        with np.errstate(over="ignore"):  # step 10's part of levels 0..8
            far = first[9] * levels[0] + lags[10 - 9 : 10 - 1] @ levels[1:9].reshape(8, -1)
        assert np.isinf(far).all()
        message = r"^non-finite values in the history update of step 10 \(t=20\): "
        with pytest.raises(NonFiniteError, match=message):
            per_step_history_levels(p, cfg, 12)
        with pytest.raises(NonFiniteError, match=message):
            history_levels(p, cfg, 12)

    def test_temporaries_do_not_grow_with_the_steps(self):
        # past the levels, the run holds two weight tables of a value per
        # step; a weight gather of (block x steps) would hold 32 values per step
        p = build_model_problem(ExperimentSpec(load_builtin_prony("1/2"), grid_n=8))
        extra = {}
        for n_steps in (200, 2000):
            cfg = SchemeConfig(sigma=0.5, tau=2.0 / n_steps)
            history_levels(p, cfg, 2)  # the first call's caches
            tracemalloc.start()
            try:
                levels = history_levels(p, cfg, n_steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra[n_steps] = peak - levels.nbytes
        assert extra[2000] - extra[200] <= 2 * 8 * (2000 - 200) + 8 * 2**10

def honest_update(rng, grid, cfg, rates):
    """The arguments ``(ybar, aux_new, aux_old)`` of a ``residual_guard`` for
    one exact auxiliary update from random fields, and that update's ``y_new``."""
    sig = cfg.sigma
    y_old, y_new = rng.standard_normal((2,) + grid.shape)
    ybar = sig * y_new + (1.0 - sig) * y_old
    aux_old = rng.standard_normal((len(rates),) + grid.shape)
    decay, gain = update_coefficients(cfg, rates)
    aux_new = decay[:, None, None] * aux_old + gain[:, None, None] * ybar
    return (ybar, aux_new, aux_old), y_new


class TestAuxResidualGuard:
    def test_names_the_first_failing_rate(self, rng):
        grid = Grid2D(6, 6)
        cfg = SchemeConfig(sigma=0.75, tau=0.1)
        rates = np.array([0.5, 2.0, 8.0])
        (ybar, aux_new, aux_old), y_new = honest_update(rng, grid, cfg, rates)
        guard = residual_guard(cfg, grid, rates)
        guard(ybar, aux_new, aux_old)  # honest: silent
        wrong = aux_new.copy()
        wrong[1:] += 1e-3  # the second and third fields
        with pytest.raises(AuxiliaryResidualError, match=r"\(rate b=2\.0\)"):
            guard(ybar, wrong, aux_old)
        with pytest.raises(AuxiliaryResidualError, match=r"\(rate b=0\.5\)"):
            guard(y_new, aux_new, aux_old)  # wrong ybar

    @pytest.mark.parametrize("b_tau", [0.01, 1e4])
    def test_relative_perturbation_of_one_field_fails(self, rng, b_tau):
        grid = Grid2D(6, 6)
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        rates = np.array([0.5, b_tau / cfg.tau, 3.0])
        (ybar, aux_new, aux_old), _ = honest_update(rng, grid, cfg, rates)
        guard = residual_guard(cfg, grid, rates)
        guard(ybar, aux_new, aux_old)  # honest, stiff or not: silent
        wrong = aux_new.copy()
        wrong[1] *= 1.0 + 1e-9
        with pytest.raises(AuxiliaryResidualError, match=rf"\(rate b={rates[1]}\)"):
            guard(ybar, wrong, aux_old)

    def test_spans_several_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 50)  # two 5x5 fields a block
        grid = Grid2D(6, 6)
        assert len(schemes._blocks(3, 25)) == 2
        cfg = SchemeConfig(sigma=0.75, tau=0.1)
        rates = np.array([0.5, 2.0, 8.0])
        (ybar, aux_new, aux_old), _ = honest_update(rng, grid, cfg, rates)
        guard = residual_guard(cfg, grid, rates)
        guard(ybar, aux_new, aux_old)  # honest: silent
        wrong = aux_new.copy()
        wrong[2] += 1e-3  # only the last block
        with pytest.raises(AuxiliaryResidualError, match=r"\(rate b=8\.0\)"):
            guard(ybar, wrong, aux_old)
        # the blocked step matches the unblocked one, and its guard stays silent
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=PronySeries((0.2, 0.3, 0.5), tuple(rates)),
            initial=rng.standard_normal(grid.shape),
        )
        step, s = soe_stepper(p, cfg), soe_init(p)
        for _ in range(4):
            y_new, aux = unbuilt_step(p, cfg, s)
            s = step(s)
            np.testing.assert_array_equal(s.y, y_new)
            np.testing.assert_array_equal(s.aux, aux)

    def test_guards_keep_their_own_verdicts(self, rng):
        # two guards on one grid, each called in turn on the other's updates
        grid = Grid2D(6, 6)
        cfg = SchemeConfig(sigma=0.75, tau=0.1)
        rates_a, rates_b = np.array([0.5, 2.0, 8.0]), np.array([1.0, 4.0, 16.0])
        update_a, _ = honest_update(rng, grid, cfg, rates_a)
        update_b, _ = honest_update(rng, grid, cfg, rates_b)
        guard_a = residual_guard(cfg, grid, rates_a)
        guard_b = residual_guard(cfg, grid, rates_b)
        for _ in range(2):
            guard_a(*update_a)
            with pytest.raises(AuxiliaryResidualError, match=r"\(rate b=1\.0\)"):
                guard_b(*update_a)
            guard_b(*update_b)
            with pytest.raises(AuxiliaryResidualError, match=r"\(rate b=0\.5\)"):
                guard_a(*update_b)

    def test_silent_on_the_update_after_a_failure(self, rng):
        grid = Grid2D(6, 6)
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        rates = np.array([0.5, 2.0, 8.0])
        (ybar, aux_new, aux_old), _ = honest_update(rng, grid, cfg, rates)
        guard = residual_guard(cfg, grid, rates)
        with pytest.raises(AuxiliaryResidualError, match=r"\(rate b=0\.5\)"):
            guard(ybar, aux_new + 1e-3, aux_old)
        guard(ybar, aux_new, aux_old)
        guard(*honest_update(rng, grid, cfg, rates)[0])

    def test_steppers_stepped_alternately_match_one_alone(self, rng):
        grid = Grid2D(10, 10)
        p = ProblemSpec(
            operator=DiagonalScaling(laplacian_eigenvalues(grid)),
            kernel=load_builtin_prony("1/2"),
            initial=rng.standard_normal(grid.shape),
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.05)
        first, second, alone = soe_stepper(p, cfg), soe_stepper(p, cfg), soe_stepper(p, cfg)
        # first and second take turns at different steps, so work buffers
        # shared or carried between calls would mix two states
        s1 = s2 = s = soe_init(p)
        for _ in range(6):
            s1, s2, s = first(s1), second(second(s2)), alone(s)
            np.testing.assert_array_equal(s1.y, s.y)
            np.testing.assert_array_equal(s1.aux, s.aux)
            s = alone(s)
            np.testing.assert_array_equal(s2.y, s.y)
            np.testing.assert_array_equal(s2.aux, s.aux)
            s1 = first(s1)


def projection_limits(cfg, rates, square, ybar):
    """The guard's limits on each field's projections onto the new field and
    onto ybar, from the fields' |y_i'|^2 ``square``, as its expression gives
    them: each over c_i, and the scale c_i, the power of two above
    new_i + |old_i| + 1."""
    new, old = schemes._residual_coefficients(cfg, rates)
    scale = np.ldexp(1.0, np.frexp(new + np.abs(old) + 1.0)[1])
    s, sb = np.sqrt(square), math.sqrt(np.vdot(ybar, ybar))
    bound = 1e-12 + 2 * (ybar.size + 6) * 2.0**-53
    bounds = (bound * (new / scale)) * s + (bound * (1.0 / scale)) * sb
    floor = (ybar.size + 4) * 2.0**-1074
    return np.array([bounds * s + floor, bounds * sb + floor]), scale


def guard_verdict(cfg, grid, rates, sums, ybar):
    """The message of the stepper's guard's verdict on the sweep's rows of
    ``sums`` as its expression gives it, None for a pass: each residual's
    projections onto the new field and onto ybar, over c_i, within their
    limits (``projection_limits``)."""
    new, old = schemes._residual_coefficients(cfg, rates)
    square, cross, new_bar, old_bar = (sums[row] for row in (
        schemes._SQUARE, schemes._CROSS, schemes._NEW_BAR, schemes._OLD_BAR))
    limits, scale = projection_limits(cfg, rates, square, ybar)
    n, o, one = new / scale, old / scale, 1.0 / scale
    products = np.abs(np.array([n * square - o * cross - one * new_bar,
                                n * new_bar - o * old_bar - one * np.vdot(ybar, ybar)]))
    passed = products <= limits
    if passed.all():
        return None
    i = int(np.argmin(passed.all(axis=0)))
    j = 0 if not passed[0, i] else 1
    onto = "the new field" if j == 0 else "ybar"
    c = float(scale[i]) * grid.cell_area
    return (f"auxiliary update residual's projection onto {onto} "
            f"{float(products[j, i]) * c:.3e} exceeds rounding bound "
            f"{float(limits[j, i]) * c:.3e} (rate b={rates[i]})")


class TestGuardProjections:
    """The stepper's guard judges each residual by its projections onto the
    new field and onto ybar, from four row sums the sweep takes."""

    def test_each_projection_sees_what_the_other_misses(self, rng):
        # a perturbation orthogonal to the new field shows only along ybar,
        # one orthogonal to ybar only along the new field
        grid = Grid2D(16, 16)
        cfg = SchemeConfig(sigma=0.75, tau=0.1)
        rates = np.array([0.5, 2.0, 8.0])
        (ybar, aux_new, aux_old), _ = honest_update(rng, grid, cfg, rates)
        guard = residual_guard(cfg, grid, rates)
        guard(ybar, aux_new, aux_old)
        for i in range(3):
            field = aux_new[i].reshape(-1)
            for direction, seen in [(field, "ybar"), (ybar.reshape(-1), "the new field")]:
                w = rng.standard_normal(field.size)
                w -= (w @ direction) / (direction @ direction) * direction
                w *= 1e-7 * np.linalg.norm(field) / np.linalg.norm(w)
                wrong = aux_new.copy()
                wrong[i] += w.reshape(grid.shape)
                with pytest.raises(AuxiliaryResidualError,
                                   match=rf"onto {seen} .*\(rate b={rates[i]}\)"):
                    guard(ybar, wrong, aux_old)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_verdict_matches_its_expression(self, data):
        m = data.draw(st.integers(1, 12))
        cfg = SchemeConfig(sigma=data.draw(st.floats(0.5, 1.0)), tau=data.draw(st.floats(1e-3, 1.0)))
        # a rate of 0 makes new_i = old_i, so a field whose y_i'.y_i is its
        # |y_i'|^2 and whose y_i.ybar is its y_i'.ybar has projections of
        # exactly -y_i'.ybar and -|ybar|^2 over c_i, a power of two: its
        # y_i'.ybar can put the first exactly on its limit, or one ulp above,
        # where a limit off by one ulp shows
        rates = np.array([data.draw(st.sampled_from([0.0, 0.5, 3.0, 40.0])) for _ in range(m)])
        moderate = st.floats(-1e6, 1e6)
        square = np.array([data.draw(st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-300),
                                                st.just(math.nan))) for _ in range(m)])
        cross, old_bar, new_bar = (np.array([data.draw(moderate) for _ in range(m)])
                                   for _ in range(3))
        ybar = np.array(data.draw(st.sampled_from([[0.0] * 4, [1e-9, -2e-9, 0.0, 3e-9],
                                                   [0.3, -1.2, 2.0, 0.7]]))).reshape(2, 2)
        grid = Grid2D(3, 3)
        plants = [data.draw(st.sampled_from(["on", "above", None])) for _ in range(m)]
        with np.errstate(all="ignore"):
            (limits, _), scale = projection_limits(cfg, rates, square, ybar)
        for i, plant in enumerate(plants):
            if plant and rates[i] == 0.0:
                cross[i], old_bar[i] = square[i], new_bar[i]
                at = limits[i] if plant == "on" else np.nextafter(limits[i], math.inf)
                new_bar[i] = data.draw(st.sampled_from([at, -at])) * scale[i]
        sums = np.zeros((5, m))
        for row, values in [(schemes._CROSS, cross), (schemes._OLD_BAR, old_bar),
                            (schemes._SQUARE, square), (schemes._NEW_BAR, new_bar)]:
            sums[row] = values
        given_rows = sums.copy()
        guard = schemes._aux_residual_guard(cfg, grid, rates, sums)

        def verdict():
            try:
                guard(ybar)
            except AuxiliaryResidualError as exc:
                return str(exc)
            return None

        context = schemes._numpy_context()  # the state a step runs in
        expected = context.run(guard_verdict, cfg, grid, rates, given_rows, ybar)
        assert context.run(verdict) == expected
        bar_square = sums[schemes._BAR_SQUARE].copy()
        sums[schemes._BAR_SQUARE] = 0.0
        np.testing.assert_array_equal(sums, given_rows)  # the guard only reads the sweep's rows
        assert (bar_square == np.vdot(ybar, ybar)).all()  # and puts |ybar|^2 in its own

    def test_sums_write_nothing_but_the_sums(self, rng, monkeypatch):
        # no residual is written: the tile's work buffer and fields keep their values
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 60)
        m, size = 3, 225
        cfg, rates = SchemeConfig(0.5, 0.1), np.array([0.5, 2.0, 8.0])
        sums = np.full((5, m), np.nan)
        plan = schemes._residual_plan(cfg, rates, size, sums, *update_coefficients(cfg, rates))
        (new, old), yb = rng.standard_normal((2, m, size)), rng.standard_normal(size)
        before = new.copy(), old.copy(), yb.copy()
        for t in plan:
            t.work.fill(np.nan)
            schemes._residual_sums(t, new[t.at], old[t.at], yb[t.cols])
            assert np.isnan(t.work).all()
        for a, b in zip((new, old, yb), before):
            np.testing.assert_array_equal(a, b)
        assert not np.isnan(np.delete(sums, schemes._BAR_SQUARE, 0)).any()
        assert np.isnan(sums[schemes._BAR_SQUARE]).all()


def counted_verdicts(mp) -> list:
    """One entry per call of the guard's exact verdict, in guards built after
    this through ``mp``, a monkeypatch."""
    calls, build = [], schemes._residual_verdict

    def counting(*args):
        verdict = build(*args)

        def counted(norm2):
            calls.append(1)
            verdict(norm2)

        return counted

    mp.setattr(schemes, "_residual_verdict", counting)
    return calls


def outcome(judge, *args):
    """None for a pass, else the type and message of what ``judge(*args)``
    raises, run in the state a step runs in."""
    try:
        schemes._numpy_context().run(judge, *args)
    except (AuxiliaryResidualError, FloatingPointError) as exc:
        return type(exc), str(exc)
    return None


class TestClearingProduct:
    """The guard clears a step with one product of its sums, and runs the
    exact verdict only when that product cannot clear it."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_clears_only_what_the_verdict_passes(self, data):
        m = data.draw(st.integers(1, 8))
        cfg = SchemeConfig(sigma=data.draw(st.floats(0.5, 1.0)), tau=data.draw(st.floats(1e-3, 1.0)))
        # half the rates 0, where the limits and S_k can be planted exactly
        rates = np.array([data.draw(st.one_of(st.just(0.0), st.sampled_from([0.0, 40.0]),
                                              st.floats(0.0, 40.0))) for _ in range(m)])
        new, old = schemes._residual_coefficients(cfg, rates)
        ybar = np.array(data.draw(st.sampled_from([[0.0] * 4, [0.0] * 4, [1e-9, -2e-9, 0.0, 3e-9],
                                                   [0.3, -1.2, 2.0, 0.7], [5e-324, 0.0, 0.0, 0.0]]))
                        ).reshape(2, 2)
        grid, bar_square = Grid2D(3, 3), np.vdot(ybar, ybar)
        special = st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf])
        square = np.array([data.draw(st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-300), special))
                           for _ in range(m)])
        free = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300),
                         st.sampled_from([math.nan, math.inf, -math.inf]))
        cross, old_bar, new_bar = (np.array([data.draw(free) for _ in range(m)]) for _ in range(3))
        with np.errstate(all="ignore"):
            (limits, _), scale = projection_limits(cfg, rates, square, ybar)
            half = (1e-12 + 2 * (ybar.size + 6) * 2.0**-53) / 2 * (new / scale) * square
        for i in range(m):
            plant = data.draw(st.sampled_from(["honest"] * 4 + ["free", "zero"]
                                              + ["on", "above", "half", "above half"] * 2))
            if plant == "zero":  # a zero field
                square[i] = cross[i] = new_bar[i] = 0.0
            elif plant == "honest":
                if old[i] == 0.0 or not math.isfinite(square[i]):
                    continue
                # y_i'.ybar within |y_i'| |ybar|, and a projection onto the new
                # field of about 10^k of its limit's scale, around S_k and the limit
                new_bar[i] = data.draw(st.floats(-1.0, 1.0)) * math.sqrt(square[i] * bar_square)
                size = (new[i] * square[i] + abs(new_bar[i])) * 10.0 ** data.draw(st.integers(-17, -10))
                size *= data.draw(st.sampled_from([-1, 0, 1]))
                cross[i] = (new[i] * square[i] - new_bar[i] + size) / old[i]
                old_bar[i] = (new[i] * new_bar[i] - bar_square) / old[i]
            elif plant != "free" and rates[i] == 0.0:
                # new_i = old_i, so the projection onto the new field is exactly
                # -y_i'.ybar over c_i, a power of two: on its limit, one ulp
                # above, on S_k or one ulp above, either sign; the projection
                # onto ybar is near 0
                at = {"on": limits[i], "above": np.nextafter(limits[i], math.inf),
                      "half": half[i], "above half": np.nextafter(half[i], math.inf)}[plant]
                new_bar[i] = data.draw(st.sampled_from([at, -at])) * scale[i]
                cross[i], old_bar[i] = square[i], new_bar[i] - bar_square / new[i]
        sums = np.zeros((5, m))
        for row, values in [(schemes._CROSS, cross), (schemes._OLD_BAR, old_bar),
                            (schemes._SQUARE, square), (schemes._NEW_BAR, new_bar)]:
            sums[row] = values
        given_rows = sums.copy()
        with pytest.MonkeyPatch.context() as mp:
            calls = counted_verdicts(mp)
            judged = outcome(schemes._aux_residual_guard(cfg, grid, rates, sums), ybar)
        alone = given_rows.copy()
        alone[schemes._BAR_SQUARE] = bar_square
        # the guard's outcome is the verdict's, run alone on the same sums
        assert judged == outcome(schemes._residual_verdict(cfg, grid, rates, alone), bar_square)
        if not calls:  # cleared by the product: the verdict's expression passes too
            with np.errstate(all="ignore"):
                assert guard_verdict(cfg, grid, rates, given_rows, ybar) is None

    def test_default_run_needs_no_verdict(self, monkeypatch):
        # the first 50 steps of the run command's defaults: grid 32, beta 1/2, T 4, 400 steps
        calls = counted_verdicts(monkeypatch)
        spec = ExperimentSpec(kernel=load_builtin_prony("1/2"))
        p = build_model_problem(spec)
        step, s = soe_stepper(p, SchemeConfig(spec.sigma, spec.tau), with_energy=True), soe_init(p)
        for _ in range(50):
            s = step(s)
        assert s.n == 50 and calls == []

    def test_verdict_runs_and_passes_where_the_product_cannot_clear(self, monkeypatch):
        # ``run --beta 3/7 --T 40 --steps 400``: some steps reach the verdict, and pass it
        calls = counted_verdicts(monkeypatch)
        spec = ExperimentSpec(kernel=load_builtin_prony("3/7"), final_time=40.0, n_steps=400)
        trajectory = experiments.run_model_problem(spec)
        assert len(calls) >= 1 and np.isfinite(trajectory.energies).all()

    def test_matrix_gives_both_signs_of_each_projection(self):
        # S_k - P_k and S_k + P_k from the sums by their expressions
        cfg, rates = SchemeConfig(0.75, 0.1), np.array([0.0, 2.0, 30.0])  # no old_i is 0
        grid, m = Grid2D(4, 4), 3
        sums = np.random.default_rng(7).standard_normal((5, m))
        sums[schemes._SQUARE] **= 2
        sums[schemes._BAR_SQUARE] = 2.5
        new, old = schemes._residual_coefficients(cfg, rates)
        c = np.ldexp(1.0, np.frexp(new + np.abs(old) + 1.0)[1])
        cross, old_bar, square, new_bar, bar_square = sums
        h = (1e-12 + 2 * (9 + 6) * 2.0**-53) / 2
        onto_field = (new * square - old * cross - new_bar) / c
        onto_bar = (new * new_bar - old * old_bar - bar_square) / c
        bounds = np.concatenate([h * new * square / c, h * bar_square / c])
        projections = np.concatenate([onto_field, onto_bar])
        margins = sums.reshape(-1) @ schemes._clearing_matrix(cfg, grid, rates)
        np.testing.assert_allclose(margins, np.concatenate([bounds - projections,
                                                            bounds + projections]), rtol=1e-14)
        assert np.count_nonzero(schemes._clearing_matrix(cfg, grid, rates)) == 4 * m * 3


CATALOGUE = ["field scaled", "decay", "gain", "shift", "wrong ybar", "tile zeros", "tile old",
             "one entry"]


def planted(fault, i, cfg, rates, update, y_new, plan):
    """The arguments ``(ybar, aux_new, aux_old)`` of a guard's judge for the
    honest ``update`` with ``fault`` planted in field i: the field scaled by
    1 + 1e-9, its decay or its gain off by 1e-9 relative, shifted by 1e-3,
    its last tile of ``plan`` left unwritten (zeros, or the old values), or
    one entry off by 1e-6 of the field's norm; or y' passed as ybar."""
    ybar, aux_new, aux_old = update
    if fault == "wrong ybar":
        return y_new, aux_new, aux_old
    wrong, m = aux_new.copy(), len(rates)
    decay, gain = update_coefficients(cfg, rates)
    if fault == "field scaled":
        wrong[i] *= 1.0 + 1e-9
    elif fault == "decay":
        wrong[i] = decay[i] * (1.0 + 1e-9) * aux_old[i] + gain[i] * ybar
    elif fault == "gain":
        wrong[i] = decay[i] * aux_old[i] + gain[i] * (1.0 + 1e-9) * ybar
    elif fault == "shift":
        wrong[i] += 1e-3
    elif fault == "one entry":
        wrong[i].flat[wrong[i].size // 2] += 1e-6 * np.linalg.norm(aux_new[i])
    else:
        tile = [t for t in plan if t.rows.start <= i < t.rows.stop][-1]
        values = 0.0 if fault == "tile zeros" else aux_old.reshape(m, -1)[tile.at]
        wrong.reshape(m, -1)[tile.at] = values
    return ybar, wrong, aux_old


def named_rate(judge, *args):
    """The rate an AuxiliaryResidualError of ``judge(*args)`` names, None for a pass."""
    try:
        schemes._numpy_context().run(judge, *args)
    except AuxiliaryResidualError as exc:
        return re.search(r"\(rate b=([^)]*)\)", str(exc)).group(1)
    return None


class TestFaultCatalogue:
    """Every planted fault that the earlier guard, which bounds the whole
    residual's norm (``conftest.oracle_residual_guard``), flags, the
    stepper's guard flags too, naming the same rate, and it passes what the
    oracle passes: on grids 6, 32 and 256, for b tau of 0.01, 2 and 1e4 and
    sigma of 1/2, 3/4 and 1, through the default blocks, a field a block and
    split tiles."""

    @pytest.mark.parametrize("grid_n", [6, 32, 256])
    @pytest.mark.parametrize("how", ["single", "blocks", "split"])
    def test_flags_what_the_oracle_flags(self, rng, monkeypatch, grid_n, how):
        size = (grid_n - 1) ** 2
        if how == "blocks":  # a field a block
            monkeypatch.setattr(schemes, "_BLOCK_VALUES", size)
        elif how == "split":  # each field in three tiles
            monkeypatch.setattr(schemes, "_BLOCK_VALUES", size // 3 + 1)
        grid, tau, m = Grid2D(grid_n, grid_n), 0.1, 3
        rates = np.array([0.01, 2.0, 1e4]) / tau
        plan = schemes._plan(m, size)
        if how != "single":
            assert len(plan) == (m if how == "blocks" else 3 * m)
        silent = set()
        for sigma in (0.5, 0.75, 1.0):
            cfg = SchemeConfig(sigma, tau)
            guard = residual_guard(cfg, grid, rates)
            oracle = oracle_residual_guard(cfg, grid, rates)
            update, y_new = honest_update(rng, grid, cfg, rates)
            assert named_rate(guard, *update) is named_rate(oracle, *update) is None
            for fault in CATALOGUE:
                for i in range(1 if fault == "wrong ybar" else m):
                    args = planted(fault, i, cfg, rates, update, y_new, plan)
                    expected = named_rate(oracle, *args)
                    assert named_rate(guard, *args) == expected, (sigma, fault, i)
                    if expected is None:
                        silent.add((sigma, fault, i))
        # the oracle flags every fault but those that change nothing or next
        # to nothing: decay_i is 0 at sigma = 1/2 and b tau = 2, ybar is y'
        # at sigma = 1, and at b tau = 1e4 and sigma < 1 the gain's part of
        # y_i' is under 1e-4 of the decay's, so 1e-9 of it is below rounding
        assert silent == {(0.5, "decay", 1), (1.0, "wrong ybar", 0), (0.5, "gain", 2),
                          (0.75, "gain", 2)}


class TestCoefficientIdentities:
    """A stepper checks, when built, that each tile's update columns meet
    new_i decay_i = old_i and new_i gain_i = 1 with the guard's coefficients."""

    @pytest.mark.parametrize("beta", sorted(BUILTIN_BETAS))
    def test_every_builtin_kernel_passes(self, beta):
        p = ProblemSpec(DiagonalScaling(1.0), load_builtin_prony(beta), np.ones((3, 3)))
        rates = np.asarray(p.kernel.rates)
        worst = 0.0
        for sigma in (0.5, 0.75, 1.0):
            for tau in np.geomspace(1e-5, 10.0, 40):
                cfg = SchemeConfig(sigma, tau)
                soe_stepper(p, cfg)
                new, old = schemes._residual_coefficients(cfg, rates)
                decay, gain = update_coefficients(cfg, rates)
                worst = max(worst, np.max(np.abs(new * decay - old) / (new + np.abs(old))),
                            np.max(np.abs(new * gain - 1.0)))
        assert worst <= 1e-15  # against the 1e-12 the build allows

    @pytest.mark.parametrize("which", [0, 1])  # decay, gain
    @pytest.mark.parametrize("block_values", [None, 25, 10])  # the stack, a field, tiles
    def test_a_column_from_the_wrong_rows_fails_the_build(self, monkeypatch, which, block_values):
        grid = Grid2D(6, 6)
        p = ProblemSpec(DiagonalScaling(4.0), load_builtin_prony("1/2"), np.ones(grid.shape))
        if block_values:
            monkeypatch.setattr(schemes, "_BLOCK_VALUES", block_values)
        cfg = SchemeConfig(0.75, 0.05)
        tiles = len(schemes._plan(12, 25))
        column, calls, tiled = schemes._column, [], []

        def wrong_rows(values, t):
            # the last tile's column of the next field's rows
            calls.append(1)
            if len(calls) == 2 * (tiles - 1) + which + 1:
                tiled.append(t)
                return column(np.roll(values, -1), t)
            return column(values, t)

        monkeypatch.setattr(schemes, "_column", wrong_rows)
        rate = p.kernel.rates[11 if block_values else 0]
        with pytest.raises(AuxiliaryResidualError, match=rf"\(rate b={rate}\)"):
            soe_stepper(p, cfg)
        assert tiled[0].rows.start == (11 if block_values else 0)
        monkeypatch.setattr(schemes, "_column", column)
        soe_stepper(p, cfg)


@pytest.mark.filterwarnings("error")
class TestHonestEdges:
    """Honest steps never trip the guard, and raise no warning."""

    @pytest.mark.parametrize("tiled", [False, True])
    def test_steps_from_a_zero_initial_field(self, monkeypatch, tiled):
        if tiled:
            monkeypatch.setattr(schemes, "_BLOCK_VALUES", 60)
        p = ProblemSpec(DiagonalScaling(laplacian_eigenvalues(Grid2D(16, 16))),
                        load_builtin_prony("1/2"), np.zeros((15, 15)))
        step = soe_stepper(p, SchemeConfig(0.5, 0.05), with_energy=True)
        s = soe_init(p)
        for _ in range(4):
            s = step(s)
        assert not s.y.any() and not s.aux.any() and s.energy == 0.0

    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("block_values", [None, 60])
    def test_first_step_from_the_zero_stack(self, monkeypatch, sigma, block_values):
        if block_values:
            monkeypatch.setattr(schemes, "_BLOCK_VALUES", block_values)
        p = build_model_problem(ExperimentSpec(kernel=load_builtin_prony("3/7"), grid_n=16))
        s = soe_init(p)
        assert not s.aux.any()
        assert soe_stepper(p, SchemeConfig(sigma, 0.01), with_energy=True)(s).n == 1

    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    def test_stiff_run(self, sigma):
        # b tau = 1e4, 2 and 0.01, with forcing, for 200 steps
        tau = 0.05
        grid = Grid2D(8, 8)
        p = ProblemSpec(DiagonalScaling(laplacian_eigenvalues(grid)),
                        PronySeries((0.3, 0.5, 0.2), (0.01 / tau, 2.0 / tau, 1e4 / tau)),
                        np.ones(grid.shape), forcing=lambda t: np.full(grid.shape, math.sin(t)))
        step, s = soe_stepper(p, SchemeConfig(sigma, tau)), soe_init(p)
        for _ in range(200):
            s = step(s)
        assert np.isfinite(s.aux).all()

    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    def test_same_sign_fields_in_the_largest_tiles(self, sigma):
        # constant fields of one sign, whose sums' rounding errors need not
        # cancel, each in two tiles of about 32,768 values, at b tau = 1e4
        tau, grid = 0.05, Grid2D(256, 256)
        assert schemes._tiles(255 * 255) == [slice(0, 32512), slice(32512, 65025)]
        p = ProblemSpec(DiagonalScaling(1.0), PronySeries((0.3, 0.5, 0.2), (0.01 / tau, 2.0 / tau,
                        1e4 / tau)), np.ones(grid.shape), forcing=lambda t: np.ones(grid.shape))
        step, s = soe_stepper(p, SchemeConfig(sigma, tau), with_energy=True), soe_init(p)
        for _ in range(10):
            s = step(s)
        assert (s.aux > 0).all()

    def test_overflow_only_where_the_oracle_overflows(self, rng):
        # the projections over c_i keep every product within its sum: at
        # b tau = 1e4 on grid 64 the guard passes states as large as the
        # oracle does, and past that both overflow in a field's |y_i'|^2
        grid = Grid2D(64, 64)
        cfg, rates = SchemeConfig(0.5, 0.1), np.array([0.1, 20.0, 1e5])
        context = schemes._numpy_context()
        for scale, passes in [(1e150, True), (1e152, True), (1e155, False)]:
            (ybar, _, aux_old), _ = honest_update(rng, grid, cfg, rates)
            ybar, aux_old = ybar * scale, aux_old * scale
            decay, gain = update_coefficients(cfg, rates)
            aux_new = decay[:, None, None] * aux_old + gain[:, None, None] * ybar
            for judge in (residual_guard(cfg, grid, rates), oracle_residual_guard(cfg, grid, rates)):
                if passes:
                    context.run(judge, ybar, aux_new, aux_old)
                else:
                    with pytest.raises(FloatingPointError, match="overflow"):
                        context.run(judge, ybar, aux_new, aux_old)

    @pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e-200, 1e-160, 1e-155, 1e-100, 1.0,
                                       1e100, 1e150])
    def test_honest_updates_at_any_scale(self, rng, scale):
        # a linear problem's states scale with its data: near underflow the
        # sums lose digits, which the guard's floor allows for
        for grid_n in (6, 32):
            grid = Grid2D(grid_n, grid_n)
            for sigma in (0.5, 1.0):
                cfg, rates = SchemeConfig(sigma, 0.1), np.array([0.1, 20.0, 1e5])
                (ybar, _, aux_old), _ = honest_update(rng, grid, cfg, rates)
                ybar, aux_old = ybar * scale, aux_old * scale
                decay, gain = update_coefficients(cfg, rates)
                aux_new = decay[:, None, None] * aux_old + gain[:, None, None] * ybar
                schemes._numpy_context().run(residual_guard(cfg, grid, rates),
                                             ybar, aux_new, aux_old)


class TestEnergy:
    def test_initial_energy_is_initial_norm(self):
        grid = Grid2D(16, 16)
        u0 = sample_function(grid, lambda x1, x2: x1 * (1 - x2))
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=u0,
        )
        assert energy(p, soe_init(p)) == pytest.approx(l2_norm(u0, grid), rel=1e-14)

    def test_zero_state_zero_energy(self):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=PronySeries((1.0,), (1.0,)),
            initial=np.zeros(grid.shape),
        )
        assert energy(p, soe_init(p)) == 0.0

    def test_hand_built_state(self, rng):
        grid = Grid2D(8, 8)
        lap = FivePointLaplacian(grid)
        p = ProblemSpec(
            operator=lap, kernel=PronySeries((2.0,), (1.0,)), initial=np.zeros(grid.shape)
        )
        y, y1 = rng.standard_normal((2,) + grid.shape)
        s = SoeState(y=y, aux=y1[None], n=3, t=0.3)
        expected = math.sqrt(l2_norm(y, grid) ** 2 + 2.0 * a_norm(lap, y1) ** 2)
        assert energy(p, s) == pytest.approx(expected, rel=1e-13)

    @staticmethod
    def energy_rises(sigma, tau):
        """E_0 and the rise E_n - E_{n-1} of each of 25 steps of the grid-16
        model problem, on the five-point Laplacian."""
        grid = Grid2D(16, 16)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=sample_function(
                grid, lambda x1, x2: x1 * x2 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
            ),
        )
        step, s = soe_stepper(p, SchemeConfig(sigma=sigma, tau=tau)), soe_init(p)
        energies = [energy(p, s)]
        for _ in range(25):
            s = step(s)
            energies.append(energy(p, s))
        return energies[0], np.diff(energies)

    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("tau", [1e-3, 1e-1, 1.0, 10.0])
    def test_energy_monotone_without_forcing(self, sigma, tau):
        e0, rises = self.energy_rises(sigma, tau)
        assert rises.max() <= 1e-8 * e0

    @pytest.mark.parametrize("sigma, rise", [(0.45, 1.5e-3), (0.3, 1.1e5)])
    def test_energy_check_fails_below_one_half(self, sigma, rise):
        # below sigma = 1/2 stability is conditional: at tau = 0.1 some step
        # raises the energy far above the slack of the check above
        e0, rises = self.energy_rises(sigma, 0.1)
        assert rises.max() > 1e-8 * e0
        assert rises.max() == pytest.approx(rise * e0, rel=0.05)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mass", [IdentityOperator(), DiagonalScaling(np.full((7, 7), 1.5))],
                             ids=["identity", "mass-field"])
    def test_finite_state_whose_squared_energy_overflows_raises(self, mass):
        # |y|^2 = 49e400 overflows in a BLAS dot, which numpy's errstate never sees
        p = ProblemSpec(DiagonalScaling(2.0), load_builtin_prony("1/2"), np.full((7, 7), 1e200),
                        mass=mass)
        message = r"^non-finite values in the energy of step 0 \(t=0\): overflow"
        with pytest.raises(NonFiniteError, match=message):
            soe_init(p)
        with pytest.raises(NonFiniteError, match=message):
            energy(p, SoeState(y=p.initial, aux=np.zeros((12, 7, 7)), n=0, t=0.0))

    @pytest.mark.parametrize("beta", ["1/2", "3/7"])
    @pytest.mark.parametrize("fields", ["identity", "mass", "mass-reaction"])
    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    def test_forced_energy_bound(self, sigma, fields, beta):
        # E_n <= E_0 + sum_k tau |phi(t_k + sigma tau)|_{B^-1}, on the physical-space
        # path: CG solves with a mass field B and a reaction field C >= 0
        grid = Grid2D(12, 12)
        bump = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        mass = sample_function(grid, lambda x1, x2: 1.0 + 0.5 * np.sin(3 * x1) * np.cos(2 * x2))
        reaction = sample_function(grid, lambda x1, x2: 2.0 + x1 * x2)
        coefficients = {
            "identity": {},
            "mass": {"mass": DiagonalScaling(mass)},
            "mass-reaction": {"mass": DiagonalScaling(mass), "reaction": DiagonalScaling(reaction)},
        }[fields]
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony(beta),
            initial=sample_function(grid, lambda x1, x2: x1 * (1 - x1) * x2),
            forcing=lambda t: math.sin(3 * t) * bump,
            **coefficients,
        )
        inverse_mass, tau = 1.0 / p.mass.diagonal(), 0.05
        step, s = soe_stepper(p, SchemeConfig(sigma=sigma, tau=tau, cg_tol=1e-13)), soe_init(p)
        e0 = energy(p, s)
        forcing_budget = 0.0
        for _ in range(60):
            phi = p.forcing(s.t + sigma * tau)
            forcing_budget += tau * math.sqrt(grid.cell_area * float(np.sum(phi * phi * inverse_mass)))
            s = step(s)
            assert energy(p, s) <= e0 + forcing_budget + 1e-8 * e0


def assert_energies_from_the_step(p, cfg, n_steps):
    """A stepper built ``with_energy`` takes the states of the plain one, each
    with the energy that ``energy`` gives it, bit for bit, as the initial
    state has its own."""
    plain, fused = soe_stepper(p, cfg), soe_stepper(p, cfg, with_energy=True)
    s = t = soe_init(p)
    assert s.energy == energy(p, s)
    for _ in range(n_steps):
        s, t = plain(s), fused(t)
        assert s.energy is None and (t.n, t.t) == (s.n, s.t)
        np.testing.assert_array_equal(t.y, s.y)
        np.testing.assert_array_equal(t.aux, s.aux)
        assert t.energy == energy(p, s)


class Negation(SpdOperator):
    def apply_values(self, v):
        return -1.0 * v


class RoundingNegation(SpdOperator):
    """Forms of -1e-14 |v|^2, negative within the 1e-12 |v|^2 rounding slack."""

    def apply_values(self, v):
        return -1e-14 * v


class NegatedScaling(DiagonalScaling):
    """A DiagonalScaling applied as minus its product: forms of -coefficient |v|^2."""

    __slots__ = ()

    def apply_values(self, v):
        return -(self.coefficient * v)


class TestEnergyFromTheStep:
    def test_initial_state_has_the_reference_energy(self, rng):
        # every memory form of state 0 is 0, so no sweep is needed for its energy
        grid = Grid2D(12, 10)
        physical = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("3/5"),
            initial=rng.standard_normal(grid.shape),
            mass=DiagonalScaling(1.0 + rng.random(grid.shape)),
            reaction=DiagonalScaling(rng.random(grid.shape)),
        )
        model = build_model_problem(ExperimentSpec(kernel=load_builtin_prony("1/2"), grid_n=32))
        for p in (model, physical):
            s = soe_init(p)
            assert s.energy > 0.0 and s.energy == energy(p, soe_init(p))

    @pytest.mark.parametrize("grid_n", [16, 32])
    def test_model_problem(self, grid_n):
        spec = ExperimentSpec(kernel=load_builtin_prony("1/2"), grid_n=grid_n)
        assert_energies_from_the_step(build_model_problem(spec), SchemeConfig(0.5, 0.01), 40)

    def test_several_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 200)  # four 7x7 fields a block
        grid = Grid2D(8, 8)
        assert len(schemes._blocks(12, 49)) == 3
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("3/5"),
            initial=rng.standard_normal(grid.shape),
        )
        assert_energies_from_the_step(p, SchemeConfig(0.75, 0.05), 12)

    def test_physical_space_with_mass_reaction_and_forcing(self, rng):
        grid = Grid2D(12, 10)
        bump = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=rng.standard_normal(grid.shape),
            forcing=lambda t: math.cos(2 * t) * bump,
            mass=DiagonalScaling(1.0 + rng.random(grid.shape)),
            reaction=DiagonalScaling(rng.random(grid.shape)),
        )
        assert_energies_from_the_step(p, SchemeConfig(0.5, 0.02), 20)

    def test_overflow_names_the_energy_of_the_step(self):
        # the update and guard stay finite; the forms lam * y_1**2 ~ 1e312 do not
        p = scalar_problem(1.0, 1.0, 1e10, 1.0)
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        s = SoeState(y=np.ones((1, 1)), aux=np.full((1, 1, 1), 1e150), n=4, t=0.4)
        plain = soe_stepper(p, cfg)(s)
        assert np.isfinite(plain.aux).all()
        with pytest.raises(NonFiniteError) as reference:
            energy(p, plain)
        with pytest.raises(NonFiniteError, match=r"energy of step 5 \(t=0\.5\)") as raised:
            soe_stepper(p, cfg, with_energy=True)(s)
        assert str(raised.value) == str(reference.value)

    def test_negative_form_raises_not_spd(self):
        # a negated operator leaves the solve positive, 1 - sigma tau mu > 0,
        # and makes every memory field's form negative
        p = ProblemSpec(operator=Negation(), kernel=load_builtin_prony("1/2"), initial=np.ones((3, 3)))
        cfg = SchemeConfig(sigma=0.5, tau=0.01)
        s = soe_init(p)
        assert energy(p, s) == pytest.approx(l2_norm(p.initial, p.grid))  # zero fields
        with pytest.raises(NotSpdError) as reference:
            energy(p, soe_stepper(p, cfg)(s))
        with pytest.raises(NotSpdError, match="quadratic form is negative") as raised:
            soe_stepper(p, cfg, with_energy=True)(s)
        assert str(raised.value) == str(reference.value)

    def test_negative_form_of_an_operator_that_is_not_pointwise_raises_not_spd(self):
        # a DiagonalScaling whose application is not its own product is not
        # pointwise, so its forms are checked: here all negative
        p = ProblemSpec(operator=NegatedScaling(2.0), kernel=load_builtin_prony("1/2"),
                        initial=np.ones((3, 3)))
        assert schemes._pointwise(p.operator, 9) is None
        cfg = SchemeConfig(sigma=0.5, tau=0.01)
        s = soe_init(p)
        with pytest.raises(NotSpdError) as reference:
            energy(p, soe_stepper(p, cfg)(s))
        with pytest.raises(NotSpdError, match="quadratic form is negative") as raised:
            soe_stepper(p, cfg, with_energy=True)(s)
        assert str(raised.value) == str(reference.value)

    def test_negative_form_within_rounding_counts_as_zero(self):
        # every memory field's form is clamped to 0, so the energy is |y| alone
        p = ProblemSpec(operator=RoundingNegation(), kernel=load_builtin_prony("1/2"),
                        initial=np.ones((3, 3)))
        cfg = SchemeConfig(sigma=0.5, tau=0.01)
        assert_energies_from_the_step(p, cfg, 3)
        s = soe_stepper(p, cfg, with_energy=True)(soe_init(p))
        assert np.all(s.aux != 0.0) and s.energy == l2_norm(s.y, p.grid)


class RecordingScaling(DiagonalScaling):
    """A DiagonalScaling that records numpy's ufunc buffer size at each
    application in ``sizes``, and in ``states`` the thread it ran in, the
    buffer size and the errstate's overflow and invalid settings."""

    __slots__ = ("sizes", "states")

    def __init__(self, coefficient):
        super().__init__(coefficient)
        self.sizes, self.states = [], []

    def apply_values(self, v):
        self.sizes.append(np.getbufsize())
        err = np.geterr()
        self.states.append((threading.get_ident(), np.getbufsize(), err["over"], err["invalid"]))
        return super().apply_values(v)


STEP_STATE = (schemes._BUFFER_VALUES, "raise", "raise")


def old_guard_verdict(cfg, grid, rates, r2, n2, ybar):
    """The message of the guard's verdict as its earlier expression gave it
    (two roots, products, a sum, a comparison and ``all``), None for a pass."""
    new_coef, _ = schemes._residual_coefficients(cfg, rates)
    residuals = np.sqrt(r2)
    bounds = 1e-12 * (new_coef * np.sqrt(n2) + math.sqrt(np.vdot(ybar, ybar)))
    passed = residuals <= bounds
    if passed.all():
        return None
    i, root_area = int(np.argmin(passed)), math.sqrt(grid.cell_area)
    return (f"auxiliary update residual {residuals[i] * root_area:.3e} exceeds rounding "
            f"bound {bounds[i] * root_area:.3e} (rate b={rates[i]})")


class TestUfuncBuffer:
    """Every numerical block runs with the short ufunc buffer, raising on
    overflow and invalid values, and gives the caller's numpy state back; a
    step takes its state from its stepper's context, in every thread."""

    def test_short_buffer_in_a_step_energy_and_history_step(self):
        assert schemes._BUFFER_VALUES % 16 == 0  # numpy < 2 takes only multiples of 16
        grid = Grid2D(16, 16)
        op = RecordingScaling(laplacian_eigenvalues(grid))
        p = ProblemSpec(operator=op, kernel=load_builtin_prony("1/2"), initial=np.ones(grid.shape))
        cfg = SchemeConfig(sigma=0.5, tau=0.05)
        caller = np.getbufsize()
        assert caller != schemes._BUFFER_VALUES
        blocks = {
            "compressed step": lambda: soe_stepper(p, cfg)(soe_init(p)),
            "compressed step with energy": lambda: soe_stepper(p, cfg, with_energy=True)(soe_init(p)),
            "energy": lambda: energy(p, soe_init(p)),
            "history step": lambda: history_levels(p, cfg, 1),
        }
        for what, run in blocks.items():
            op.sizes.clear()
            run()
            assert op.sizes and set(op.sizes) == {schemes._BUFFER_VALUES}, what
            assert np.getbufsize() == caller, what

    @pytest.mark.parametrize("fails", [False, True])
    def test_finite_gives_the_callers_size_back(self, monkeypatch, fails):
        sizes, setbufsize = [], np.setbufsize
        monkeypatch.setattr(np, "setbufsize", lambda size: sizes.append(size) or setbufsize(size))
        old = setbufsize(4096)
        try:
            with pytest.raises(NonFiniteError) if fails else contextlib.nullcontext():
                with schemes._finite("test block"):
                    inside = np.getbufsize()
                    if fails:
                        np.array([1e308]) * 10.0
            after = np.getbufsize()
        finally:
            setbufsize(old)
        assert inside == schemes._BUFFER_VALUES and after == 4096
        # set once by _finite and given back by the errstate's exit
        assert sizes == [schemes._BUFFER_VALUES]

    @pytest.mark.parametrize("how", ["plain", "with energy"])
    def test_every_thread_of_a_step_runs_under_the_step_state(self, how):
        grid = Grid2D(16, 16)
        op = RecordingScaling(laplacian_eigenvalues(grid))
        p = ProblemSpec(op, load_builtin_prony("1/2"), np.ones(grid.shape))
        step = soe_stepper(p, SchemeConfig(0.5, 0.05), with_energy=how != "plain")
        op.states.clear()
        with np.errstate(all="ignore"):  # the caller's own state does not reach the step
            np.setbufsize(4096)
            step(step(soe_init(p)))
        assert set(op.states) == {(threading.get_ident(), *STEP_STATE)}  # the stepping thread's
        # the memory sums, and the energy forms of the one block
        assert len(op.states) == 2 * {"plain": 1, "with energy": 2}[how]

    @pytest.mark.parametrize("fails", [None, "update", "energy"])
    def test_a_step_leaves_the_callers_state(self, fails):
        # a field of 1e308 makes the guard's norms overflow; one of 1e150, only
        # its energy form, lam * y_1**2 ~ 1e310
        p = scalar_problem(1e-300 if fails == "update" else 1.0, 1.0, 1e10, 1.0)
        aux = {None: 1.0, "update": 1e308, "energy": 1e150}[fails]
        s = SoeState(y=np.ones((1, 1)), aux=np.full((1, 1, 1), aux), n=4, t=0.4)
        step = soe_stepper(p, SchemeConfig(sigma=0.5, tau=0.1), with_energy=True)
        with np.errstate(over="warn", invalid="ignore", divide="raise"):
            np.setbufsize(4096)
            caller = np.geterr(), np.getbufsize()
            with pytest.raises(NonFiniteError, match=rf"in the {fails} of step 5 ") if fails \
                    else contextlib.nullcontext():
                step(s)
            assert (np.geterr(), np.getbufsize()) == caller

    def test_a_stepper_steps_in_another_thread(self):
        grid = Grid2D(16, 16)
        op = RecordingScaling(laplacian_eigenvalues(grid))
        p = ProblemSpec(op, load_builtin_prony("1/2"), np.ones(grid.shape))
        step = soe_stepper(p, SchemeConfig(0.5, 0.05), with_energy=True)
        here = step(step(soe_init(p)))
        op.states.clear()
        there = []
        thread = threading.Thread(target=lambda: there.append(step(step(soe_init(p)))))
        thread.start()
        thread.join()
        assert {state[0] for state in op.states} == {thread.ident}
        assert {state[1:] for state in op.states} == {STEP_STATE}
        assert (there[0].n, there[0].energy) == (here.n, here.energy)
        np.testing.assert_array_equal(there[0].y, here.y)
        np.testing.assert_array_equal(there[0].aux, here.aux)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_guard_verdict_matches_its_earlier_expression(self, data):
        # the oracle guard takes both rows' roots in one call and counts the
        # passes; its verdict and its message must be those of the earlier expression
        m = data.draw(st.integers(1, 12))
        special = st.sampled_from([0.0, math.inf, math.nan])
        cfg = SchemeConfig(sigma=data.draw(st.floats(0.5, 1.0)), tau=data.draw(st.floats(1e-3, 1.0)))
        rates = np.cumsum(data.draw(st.lists(st.floats(0.01, 100.0), min_size=m, max_size=m)))
        # moderate values, where the bound's rounding shows, as well as extreme ones
        n2 = np.array(data.draw(st.lists(st.one_of(st.floats(1e-6, 1e6), st.floats(0.0, 1e300),
                                                   special), min_size=m, max_size=m)))
        ybar = np.array(data.draw(st.lists(st.one_of(st.floats(-1e3, 1e3),
                                                     st.floats(-1e200, 1e200), special),
                                           min_size=4, max_size=4))).reshape(2, 2)
        # residuals about their bounds, exactly on them or one ulp above (sqrt
        # gives back a square's root exactly), or special: a bound off by one
        # ulp passes a residual that should fail, or fails one that should pass
        ratios = data.draw(st.lists(st.one_of(st.floats(0.0, 2.0), special,
                                              st.sampled_from(["on", "above"])),
                                    min_size=m, max_size=m))
        new_coef, _ = schemes._residual_coefficients(cfg, rates)
        with np.errstate(all="ignore"):
            bounds = 1e-12 * (new_coef * np.sqrt(n2) + math.sqrt(np.vdot(ybar, ybar)))
            at = {"on": bounds, "above": np.nextafter(bounds, math.inf)}
            r2 = np.array([at[ratio][i] if isinstance(ratio, str) else ratio * bounds[i]
                           for i, ratio in enumerate(ratios)]) ** 2
        grid = Grid2D(3, 3)
        norms = np.array([r2, n2])
        guard = oracle_guard_verdict(cfg, grid, rates, norms)

        def new_verdict():
            try:
                guard(ybar)
            except AuxiliaryResidualError as exc:
                return str(exc)
            return None

        context = schemes._numpy_context()  # the state a step runs in
        expected = context.run(old_guard_verdict, cfg, grid, rates, r2, n2, ybar)
        assert context.run(new_verdict) == expected
        np.testing.assert_array_equal(norms, [r2, n2])  # the guard only reads them


def tile_ordered_energy(p, s):
    """The energy of ``s`` from forms added over each field's tiles
    (``schemes._tiles``) in order, a BLAS dot of the tile's squares with its
    coefficient per tile, for a problem on a DiagonalScaling: the oracle for
    a pointwise step's tile sums."""
    m, coef = len(s.aux), np.broadcast_to(p.operator.coefficient, p.grid.shape).reshape(-1)
    rows, forms = s.aux.reshape(m, -1), np.empty(m)
    for i, row in enumerate(rows):
        for j, cut in enumerate(schemes._tiles(row.size)):
            tile = row[cut]
            dot = ((tile * tile)[None, None, :] @ coef[cut][None, :, None])[0, 0, 0]
            forms[i] = dot if j == 0 else forms[i] + dot
    return schemes._composite_energy(p, s.y, rows, forms, np.asarray(p.kernel.weights))


def plan_sums(rates, size, block_values, new, old, yb, coef):
    """The guard's ``(5, m)`` sums but |ybar|^2 (NaN) and the energy forms
    of a pointwise operator of coefficient field ``coef`` that a plan takes,
    with ``_BLOCK_VALUES`` at ``block_values``, of the stacks ``new`` and
    ``old`` of m fields and ybar ``yb``, and the plan's row blocks and
    column tiles."""
    cfg, m = SchemeConfig(0.75, 0.1), len(rates)
    sums, forms = np.full((5, m), np.nan), np.full(m, np.nan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "_BLOCK_VALUES", block_values)
        cuts, blocks = schemes._tiles(size), schemes._blocks(m, size)
        plan = schemes._residual_plan(cfg, rates, size, sums, *update_coefficients(cfg, rates),
                                      forms, coef)
    for t in plan:
        schemes._residual_sums(t, new[t.at], old[t.at], yb[t.cols])
        schemes._tile_forms(None, t, new[t.at], None)
    return sums, forms, blocks, cuts


class TestRowDots:
    """A plan's row dots, np.vecdot into the plan's views for a block of
    fields and np.dot per tile for a single field's tiles, are each field's
    np.dot, tile by tile and added in order, bit for bit: the property that
    keeps a step's energies those of ``energy`` and its bits the same for
    any block size.  A pointwise operator's forms are the
    dots of the squares with its coefficient field.  The guard's sums with ybar take one gemv per block, a field's dot per
    tile where a field is tiled."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 14),
        size=st.integers(1, 300),
        block_values=st.integers(1, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_plan_views_take_each_fields_dots(self, m, size, block_values, seed):
        rng = np.random.default_rng(seed)
        # magnitudes from 1e-5 to 1e5, a field at a time
        new, old = rng.standard_normal((2, m, size)) * 10.0 ** rng.uniform(-5, 5, (2, m, 1))
        yb, coef = rng.standard_normal(size), rng.random(size)
        rates = rng.uniform(0.0, 100.0, m)
        sums, forms, blocks, cuts = plan_sums(rates, size, block_values, new, old, yb, coef)
        assert np.isnan(sums[schemes._BAR_SQUARE]).all()  # the guard's row
        for i in range(m):
            for out, (u, v) in [(sums[schemes._SQUARE], (new, new)),
                                (sums[schemes._CROSS], (new, old)),
                                (forms, (new * new, np.broadcast_to(coef, new.shape)))]:
                dot = np.dot(u[i, cuts[0]], v[i, cuts[0]])
                for cut in cuts[1:]:
                    dot += np.dot(u[i, cut], v[i, cut])
                assert out[i] == dot, i
        for out, stack in [(sums[schemes._NEW_BAR], new), (sums[schemes._OLD_BAR], old)]:
            for blk in blocks:
                if blk.stop - blk.start > 1:  # one gemv
                    np.testing.assert_array_equal(out[blk], np.dot(stack[blk], yb))
                else:
                    dot = np.dot(stack[blk.start, cuts[0]], yb[cuts[0]])
                    for cut in cuts[1:]:
                        dot += np.dot(stack[blk.start, cut], yb[cut])
                    assert out[blk.start] == dot
            scale = np.linalg.norm(stack, axis=1) * np.linalg.norm(yb)
            assert np.all(np.abs(out - stack @ yb) <= 1e-13 * size * scale)


class TestTiles:
    """Where one field holds more than ``_BLOCK_VALUES`` values a step sweeps
    it in tiles, with the states of a whole-field sweep and a field's sums
    added over its tiles in order."""

    def test_tiles_cover_a_field_in_order(self, monkeypatch):
        assert schemes._tiles(255**2) == [slice(0, 32512), slice(32512, 65025)]
        assert schemes._tiles(199**2) == [slice(0, 19800), slice(19800, 39601)]  # grid 200
        assert schemes._tiles(181**2) == [slice(0, 181**2)]
        assert len(schemes._blocks(12, 255**2)) == 12 and len(schemes._blocks(12, 31**2)) == 1
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 60)
        assert schemes._tiles(225) == [slice(0, 56), slice(56, 112), slice(112, 168),
                                       slice(168, 225)]
        assert schemes._tiles(60) == [slice(0, 60)]
        for size in range(1, 400):
            cuts = schemes._tiles(size)
            assert cuts[0].start == 0 and cuts[-1].stop == size
            assert all(a.stop == b.start for a, b in zip(cuts, cuts[1:]))
            lengths = {cut.stop - cut.start for cut in cuts}
            assert max(lengths) <= 60 and max(lengths) - min(lengths) <= 1

    def test_model_problem_matches_the_whole_field_sweep(self, monkeypatch):
        # 15x15 fields in tiles of 56, 56, 56 and 57 values
        p = build_model_problem(ExperimentSpec(kernel=load_builtin_prony("1/2"), grid_n=16))
        cfg = SchemeConfig(0.5, 0.01)
        whole = soe_stepper(p, cfg, with_energy=True)
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 60)
        tiled = soe_stepper(p, cfg, with_energy=True)
        s = w = soe_init(p)
        for _ in range(20):
            s, w = tiled(s), whole(w)
            np.testing.assert_array_equal(s.y, w.y)  # the states keep their bits
            np.testing.assert_array_equal(s.aux, w.aux)
            assert s.energy == energy(p, s) == tile_ordered_energy(p, s)
            assert s.energy == pytest.approx(w.energy, rel=1e-14)

    def test_physical_space_with_mass_reaction_and_forcing(self, rng, monkeypatch):
        # the stencil takes its forms from whole fields: energies keep their bits too
        grid = Grid2D(12, 10)
        bump = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("3/5"),
            initial=rng.standard_normal(grid.shape),
            forcing=lambda t: math.cos(2 * t) * bump,
            mass=DiagonalScaling(1.0 + rng.random(grid.shape)),
            reaction=DiagonalScaling(rng.random(grid.shape)),
        )
        cfg = SchemeConfig(0.5, 0.02)
        whole = soe_stepper(p, cfg, with_energy=True)
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 40)  # 11x9 fields in tiles of 33
        assert len(schemes._tiles(99)) == 3
        tiled = soe_stepper(p, cfg, with_energy=True)
        s = w = soe_init(p)
        for _ in range(12):
            s, w = tiled(s), whole(w)
            assert s.energy == w.energy == energy(p, s)
            np.testing.assert_array_equal(s.y, w.y)
            np.testing.assert_array_equal(s.aux, w.aux)

    def test_guard_names_a_field_tampered_in_a_later_tile(self, rng, monkeypatch):
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 60)
        grid = Grid2D(16, 16)
        cfg = SchemeConfig(sigma=0.75, tau=0.1)
        rates = np.array([0.5, 2.0, 8.0, 32.0])
        (ybar, aux_new, aux_old), _ = honest_update(rng, grid, cfg, rates)
        assert schemes._blocks(4, 225) == [slice(0, 1), slice(1, 2), slice(2, 3), slice(3, 4)]
        guard = residual_guard(cfg, grid, rates)
        oracle = oracle_residual_guard(cfg, grid, rates)
        guard(ybar, aux_new, aux_old)  # honest: silent
        for i, value in [(1, 60), (2, 100), (3, 224), (0, 0)]:  # tiles 2, 2, 4 and 1
            # one entry off by 1e-9 of itself, which the residual's norm sees
            wrong = aux_new.copy()
            wrong[i].flat[value] *= 1.0 + 1e-9
            with pytest.raises(AuxiliaryResidualError, match=rf"\(rate b={rates[i]}\)"):
                oracle(ybar, wrong, aux_old)
            if i == 3:
                # the guard's blind spot: this entry, 0.037 in a field of norm
                # 1.02, makes projections of 1.86e-13 onto its field and
                # 1.12e-12 onto ybar, within limits of 1.95e-13 and 2.29e-12;
                # 1e-6 of the field's norm shows
                assert abs(aux_new[i].flat[value]) < 0.04 * np.linalg.norm(aux_new[i])
                guard(ybar, wrong, aux_old)
                wrong[i].flat[value] = aux_new[i].flat[value] + 1e-6 * np.linalg.norm(aux_new[i])
            with pytest.raises(AuxiliaryResidualError, match=rf"\(rate b={rates[i]}\)"):
                guard(ybar, wrong, aux_old)
        guard(ybar, aux_new, aux_old)

    @staticmethod
    def overflowing(monkeypatch, values):
        """A stepper, with energy, whose fields are in tiles of 8, 8 and 9
        values, and a state whose 5x5 memory fields are zero but for
        ``values`` ((field, index): value).  Weights of 1e-300 keep the fields
        out of the solve; there a value of 1e153 makes only its energy form
        overflow, one of 1e308 its guard sums first."""
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 10)
        assert schemes._tiles(25) == [slice(0, 8), slice(8, 16), slice(16, 25)]
        grid = Grid2D(6, 6)
        kernel = PronySeries((1e-300,) * 4, (0.5, 2.0, 8.0, 32.0))
        p = ProblemSpec(DiagonalScaling(1e4), kernel, np.ones(grid.shape))
        aux = np.zeros((4,) + grid.shape)
        for (i, j), value in values.items():
            aux[i].flat[j] = value
        step = soe_stepper(p, SchemeConfig(0.75, 0.1), with_energy=True)
        return step, SoeState(y=np.ones(grid.shape), aux=aux, n=2, t=0.2)

    @pytest.mark.parametrize("values, what", [
        ({(3, 20): 1e308}, "update"),  # a last tile's guard sums
        ({(2, 12): 1e153}, "energy"),  # a second tile's form, alone
        ({(0, 0): 1e153, (0, 20): 1e308}, "update"),  # a field's form, then its later tile's sums
        ({(1, 9): 1e308, (2, 12): 1e153}, "update"),  # a field's sums, then a later field's form
    ])
    def test_overflow_in_a_tile_names_its_phase(self, monkeypatch, values, what):
        step, state = self.overflowing(monkeypatch, values)
        with pytest.raises(NonFiniteError) as raised:
            step(state)
        assert str(raised.value).startswith(
            f"non-finite values in the {what} of step 3 (t=0.3): overflow")

    def test_guard_fails_before_an_earlier_tiles_energy_error(self, monkeypatch):
        # field 0's first form overflows; field 3's last tile, swept later,
        # is tampered with before its sums are taken
        step, state = self.overflowing(monkeypatch, {(0, 0): 1e153})
        sums = schemes._residual_sums

        def tampered(t, new, old, yb):
            if t.rows.start == 3 and t.cols.start == 16:
                new *= 1.0 + 1e-6
            sums(t, new, old, yb)

        monkeypatch.setattr(schemes, "_residual_sums", tampered)
        with pytest.raises(AuxiliaryResidualError, match=r"\(rate b=32\.0\)"):
            step(state)
        monkeypatch.setattr(schemes, "_residual_sums", sums)
        with pytest.raises(NonFiniteError, match=r"^non-finite values in the energy of step 3 "):
            step(state)

    def test_step_with_energy_allocates_no_block_temporaries(self):
        # beside its new state a step allocates a few fields, however many
        # blocks it sweeps: forms come from the work buffer
        p = build_model_problem(ExperimentSpec(kernel=load_builtin_prony("1/2"), grid_n=64))
        assert len(schemes._blocks(12, 63**2)) == 2
        step = soe_stepper(p, SchemeConfig(0.5, 0.01), with_energy=True)
        s = step(step(soe_init(p)))
        tracemalloc.start()
        try:
            s = step(s)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < 4 * s.y.nbytes  # beside the state it returns


class OwnScaling(DiagonalScaling):
    """A DiagonalScaling with an ``apply_values`` of its own, the same
    product: ``schemes._pointwise`` gives None for it, so a step takes its
    forms from that application and row dots, as for any operator."""

    __slots__ = ()

    def apply_values(self, v):
        return super().apply_values(v)


def pointwise_against_applied(p, cfg, n_steps):
    """The energies of ``n_steps`` steps of ``p`` on its DiagonalScaling,
    whose forms a step takes from its squares and coefficient, against
    those of the same steps on an ``OwnScaling`` of the same coefficient,
    the oracle."""
    q = dataclasses.replace(p, operator=OwnScaling(p.operator.coefficient))
    size = p.grid.shape[0] * p.grid.shape[1]
    assert schemes._pointwise(p.operator, size) is not None
    assert schemes._pointwise(q.operator, size) is None
    fast = soe_stepper(p, cfg, with_energy=True)
    oracle = soe_stepper(q, cfg, with_energy=True)
    s = t = soe_init(p)
    for _ in range(n_steps):
        s, t = fast(s), oracle(t)
        np.testing.assert_array_equal(s.aux, t.aux)
        assert s.energy == pytest.approx(t.energy, rel=1e-14, abs=0.0)
        assert s.energy == energy(p, s)
    # the memory forms are part of the energy: without them it is |y|
    assert s.energy > 1.001 * l2_norm(s.y, p.grid)


class TestPointwiseFormsOracle:
    """A pointwise operator's energy forms, the dots of each tile's squares
    with its coefficient field, a scalar's as a constant field, agree to
    1e-14 with those that its application and row dots give."""

    @pytest.mark.parametrize("grid_n", [16, 32])
    def test_model_problem(self, grid_n):
        p = build_model_problem(ExperimentSpec(kernel=load_builtin_prony("1/2"), grid_n=grid_n))
        assert len(schemes._blocks(12, (grid_n - 1) ** 2)) == 1  # one block of twelve fields
        pointwise_against_applied(p, SchemeConfig(0.5, 0.01), 40)

    def test_fields_in_tiles(self, monkeypatch):
        monkeypatch.setattr(schemes, "_BLOCK_VALUES", 60)  # 15x15 fields in tiles of 56-57
        p = build_model_problem(ExperimentSpec(kernel=load_builtin_prony("3/7"), grid_n=16))
        assert len(schemes._tiles(225)) == 4
        pointwise_against_applied(p, SchemeConfig(0.75, 0.02), 30)

    @pytest.mark.parametrize("block_values", [None, 60])  # a block of fields, tiled fields
    def test_scalar_coefficient(self, rng, monkeypatch, block_values):
        if block_values:
            monkeypatch.setattr(schemes, "_BLOCK_VALUES", block_values)
        grid = Grid2D(16, 16)
        p = ProblemSpec(DiagonalScaling(37.0), load_builtin_prony("1/2"),
                        rng.standard_normal(grid.shape))
        assert p.operator.coefficient.ndim == 0
        pointwise_against_applied(p, SchemeConfig(0.5, 0.01), 30)


class TestProblemShapes:
    """A problem's grid is the one whose interior is its initial field's
    shape, and every field the steppers meet must have that shape."""

    def test_grid_comes_from_the_initial_shape(self):
        grid = Grid2D(8, 6)
        p = ProblemSpec(FivePointLaplacian(grid), PronySeries((1.0,), (1.0,)), np.zeros(grid.shape))
        assert p.grid == grid and p.initial.dtype == float

    @pytest.mark.parametrize("shape", [(), (7,), (1, 7, 7)])
    def test_initial_not_2d_rejected(self, shape):
        with pytest.raises(GridMismatchError, match=rf"shape {re.escape(str(shape))}"):
            ProblemSpec(DiagonalScaling(1.0), PronySeries((1.0,), (1.0,)), np.zeros(shape))

    def test_initial_with_an_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            ProblemSpec(DiagonalScaling(1.0), PronySeries((1.0,), (1.0,)), np.zeros((0, 7)))

    def test_diagonal_of_another_shape_rejected(self):
        # its first step would fail in numpy's broadcasting, without naming the cause
        kernel = load_builtin_prony("1/2")
        with pytest.raises(GridMismatchError, match=r"operator of shape \(7, 7\).*\(7, 1\)"):
            ProblemSpec(DiagonalScaling(np.ones((7, 7))), kernel, np.ones((7, 1)))
        for name in ("mass", "reaction"):
            with pytest.raises(GridMismatchError, match=rf"{name} of shape \(7, 7\).*\(7, 1\)"):
                ProblemSpec(DiagonalScaling(1.0), kernel, np.ones((7, 1)),
                            **{name: DiagonalScaling(np.ones((7, 7)))})

    def test_operator_of_another_grid_rejected(self):
        initial = np.zeros(Grid2D(8, 8).shape)
        for op in (FivePointLaplacian(Grid2D(16, 16)),
                   ScaledSum([(1.0, IdentityOperator()), (0.5, FivePointLaplacian(Grid2D(8, 4)))])):
            with pytest.raises(GridMismatchError, match=r"\(7, 7\)"):
                ProblemSpec(op, load_builtin_prony("1/2"), initial)

    @pytest.mark.parametrize(
        "run",
        [lambda p, cfg: soe_stepper(p, cfg)(soe_init(p)), lambda p, cfg: history_levels(p, cfg, 2)],
        ids=["soe_stepper", "history_levels"],
    )
    def test_forcing_of_another_shape_rejected(self, run):
        # a forcing on Grid2D(2, 8), shape (1, 7), would broadcast over the (7, 7) interior
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=np.zeros(grid.shape),
            forcing=lambda t: np.ones(Grid2D(2, 8).shape),
        )
        with pytest.raises(GridMismatchError, match=r"forcing of shape \(1, 7\).*\(7, 7\)"):
            run(p, SchemeConfig(sigma=0.5, tau=0.1))


class TestNonFiniteInputs:
    """A non-finite input fails before it reaches a solve, naming what it is;
    before, a NaN ran CG to its iteration limit and ended in a ConvergenceError."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_initial_field_rejected(self, value):
        initial = np.ones((3, 3))
        initial[1, 2] = value
        with pytest.raises(ValueError, match="initial values must be finite"):
            ProblemSpec(DiagonalScaling(1.0), load_builtin_prony("1/2"), initial)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_forcing_named_with_its_step_and_time(self, value):
        grid = Grid2D(6, 6)

        def forcing(t):  # non-finite from step 2, evaluated at t = 0.15
            values = np.zeros(grid.shape)
            values[2, 3] = value if t > 0.1 else 0.0
            return values

        p = ProblemSpec(FivePointLaplacian(grid), load_builtin_prony("1/2"), np.ones(grid.shape),
                        forcing=forcing)
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        step = soe_stepper(p, cfg)
        s = step(soe_init(p))
        message = r"^non-finite values in the forcing of step 2 \(at t=0\.15\)$"
        with pytest.raises(NonFiniteError, match=message):
            step(s)
        with pytest.raises(NonFiniteError, match=message):
            history_levels(p, cfg, 3)

    def test_state_with_a_nan_fails_in_the_update_before_cg_iterates(self, monkeypatch):
        grid = Grid2D(8, 8)
        p = ProblemSpec(FivePointLaplacian(grid), load_builtin_prony("1/2"), np.ones(grid.shape))
        y = np.ones(grid.shape)
        y[3, 3] = math.nan
        state = SoeState(y=y, aux=np.zeros((12,) + grid.shape), n=2, t=0.2)
        applied, apply = [], FivePointLaplacian.apply_values
        monkeypatch.setattr(FivePointLaplacian, "apply_values",
                            lambda op, v: applied.append(1) or apply(op, v))
        with pytest.raises(NonFiniteError, match=r"^non-finite values in the update of step 3 "
                           r"\(t=0\.3\): the right-hand side holds non-finite values \(norm nan\)$"):
            soe_stepper(p, SchemeConfig(sigma=0.5, tau=0.1))(state)
        assert len(applied) == 1  # the memory term's, and none by CG


def per_term_step(p, cfg, y, aux):
    """The compressed step with one array per memory term: the slow
    reference for the stacked compressed step."""
    sig, tau = cfg.sigma, cfg.tau
    grid = p.grid
    a, b = p.kernel.weights, p.kernel.rates
    denom = [1.0 + sig * bi * tau for bi in b]
    chi = [
        (1.0 / di) * ((1.0 - sig) * tau * y + (1.0 - (1.0 - sig) * bi * tau) * yi)
        for bi, di, yi in zip(b, denom, aux)
    ]
    mu = math.fsum(sig * ai * tau / di for ai, di in zip(a, denom))
    mem = np.zeros(grid.shape)
    for ai, yi, ci in zip(a, aux, chi):
        mem = mem + ai * ((1.0 - sig) * yi + sig * ci)
    rhs = y - tau * p.operator.apply_values(mem)
    lhs = ScaledSum([(1.0, IdentityOperator()), (sig * tau * mu, p.operator)])
    y_new = cg_solve(lhs, rhs, tol=cfg.cg_tol)
    return y_new, [(sig * tau / di) * y_new + ci for di, ci in zip(denom, chi)]


class TestStackedStepOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(st.floats(0.01, 2.0), st.floats(0.0, 50.0)), min_size=1, max_size=4
        ),
        sigma=st.floats(0.5, 1.0),
        tau=st.sampled_from([0.01, 0.1, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_term_reference(self, terms, sigma, tau, seed):
        grid = Grid2D(6, 6)
        rng = np.random.default_rng(seed)
        kernel = PronySeries(tuple(t[0] for t in terms), tuple(t[1] for t in terms))
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=kernel,
            initial=rng.standard_normal(grid.shape),
        )
        cfg = SchemeConfig(sigma=sigma, tau=tau, cg_tol=1e-14)
        step, s = soe_stepper(p, cfg), soe_init(p)
        y, aux = p.initial, [np.zeros(grid.shape) for _ in terms]
        for _ in range(4):
            s = step(s)
            y, aux = per_term_step(p, cfg, y, aux)
        scale = max(np.max(np.abs(y)), max(np.max(np.abs(yi)) for yi in aux))
        np.testing.assert_allclose(s.y, y, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(s.aux, np.stack(aux), rtol=0, atol=1e-12 * scale)
        expected = math.sqrt(
            a_norm(p.mass, s.y) ** 2
            + sum(
                ai * a_norm(p.operator, yi) ** 2
                for ai, yi in zip(kernel.weights, s.aux)
            )
        )
        assert energy(p, s) == pytest.approx(expected, rel=1e-12)


class TestSineModeOracle:
    """With m = 1 every discrete sine mode is a scalar memory problem, so a
    single-mode start must stay in that mode and follow the closed form."""

    @pytest.mark.parametrize("j, k", [(1, 1), (2, 3)])
    def test_mode_follows_scalar_oracle(self, j, k):
        n1, n2, a1, b1 = 8, 6, 1.0, 2.0
        grid = Grid2D(n1, n2)
        mode = sample_function(
            grid, lambda x1, x2: np.sin(j * np.pi * x1) * np.sin(k * np.pi * x2)
        )
        mode = (1.0 / math.sqrt(np.sum(mode**2))) * mode
        lam = 4 * n1**2 * math.sin(math.pi * j / (2 * n1)) ** 2
        lam += 4 * n2**2 * math.sin(math.pi * k / (2 * n2)) ** 2
        p = ProblemSpec(
            operator=FivePointLaplacian(grid), kernel=PronySeries((a1,), (b1,)), initial=mode
        )
        errors = []
        for steps in (100, 200):
            cfg = SchemeConfig(sigma=0.5, tau=1.0 / steps)
            step, s, worst = soe_stepper(p, cfg), soe_init(p), 0.0
            for _ in range(steps):
                s = step(s)
                coefficient = float(np.sum(s.y * mode))
                off_mode = s.y - coefficient * mode
                np.testing.assert_allclose(off_mode, 0.0, rtol=0, atol=1e-12)
                exact = scalar_ode_oracle(a1, b1, lam, 1.0, s.t)
                worst = max(worst, abs(coefficient - exact))
            errors.append(worst)
        assert errors[1] < a1 * lam * cfg.tau**2  # O((omega tau)^2), omega^2 = a1 lam
        assert 3.5 < errors[0] / errors[1] < 4.5


def mode_step_map(kernel, lam, cfg):
    """The (m+1)x(m+1) map G that one compressed step applies to the state
    (y, y_1..y_m) of a sine mode with eigenvalue lam, identity mass and no
    forcing: y' = ((1 - tau lam own) y - tau lam sum_i w_i y_i) / (1 + sigma
    tau mu lam), with the stepper's memory weights w_i = a_i ((1-sigma) +
    sigma decay_i), own = sigma (1-sigma) sum_i a_i gain_i and mu = sigma
    sum_i a_i gain_i, then y_i' = decay_i y_i + gain_i (sigma y' + (1-sigma) y)."""
    sig, tau = cfg.sigma, cfg.tau
    a = np.asarray(kernel.weights)
    decay, gain = update_coefficients(cfg, kernel.rates)
    mu, own = sig * float(a @ gain), sig * (1.0 - sig) * float(a @ gain)
    g = np.zeros((len(a) + 1,) * 2)
    g[0, 0] = 1.0 - tau * lam * own
    g[0, 1:] = -tau * lam * a * ((1.0 - sig) + sig * decay)
    g[0] /= 1.0 + sig * tau * mu * lam
    ybar = sig * g[0]
    ybar[0] += 1.0 - sig
    g[1:] = np.outer(gain, ybar)
    g[1:, 1:] += np.diag(decay)
    return g


def mode_energy_gain(kernel, lam, cfg):
    """||W G W^-1||_2 with W = diag(1, (a_i lam)^(1/2)): the most one step can
    multiply the mode's energy (y^2 + sum_i a_i lam y_i^2)^(1/2) by."""
    w = np.sqrt(np.concatenate(([1.0], np.asarray(kernel.weights) * lam)))
    return float(np.linalg.norm(w[:, None] * mode_step_map(kernel, lam, cfg) / w, 2))


class TestModeStability:
    """The paper's stability theorem, mode by mode: in sine coordinates a step
    maps each mode's state by a fixed matrix G, and for sigma >= 1/2 G does
    not expand the composite energy norm."""

    @pytest.mark.parametrize("beta, sigma, lam, tau", [
        ("1/2", 0.5, 37.0, 0.3),
        ("1/2", 1.0, 1e6, 10.0),
        ("3/7", 0.75, 2.5e3, 1e-3),
        ("3/5", 0.3, 1e4, 0.01),
    ])
    def test_map_is_one_step(self, rng, beta, sigma, lam, tau):
        kernel, cfg = load_builtin_prony(beta), SchemeConfig(sigma=sigma, tau=tau)
        z = rng.standard_normal(kernel.n_terms + 1)
        p = ProblemSpec(DiagonalScaling(lam), kernel, z[:1, None])  # a grid-2 problem
        s = soe_stepper(p, cfg)(SoeState(y=z[:1, None], aux=z[1:, None, None], n=0, t=0.0))
        stepped = np.concatenate((s.y.ravel(), s.aux.ravel()))
        np.testing.assert_allclose(mode_step_map(kernel, lam, cfg) @ z, stepped, rtol=0,
                                   atol=1e-13 * np.max(np.abs(stepped)))

    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(1e-3, 1e3)),
                       min_size=1, max_size=12),
        sigma=st.floats(0.5, 1.0),
        lam=st.floats(1.0, 1e6),
        tau=st.floats(1e-4, 10.0),
    )
    def test_energy_norm_does_not_grow_from_one_half(self, terms, sigma, lam, tau):
        kernel = PronySeries(*zip(*terms))
        assert mode_energy_gain(kernel, lam, SchemeConfig(sigma=sigma, tau=tau)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("sigma, gain", [(0.3, 7 / 3), (0.45, 11 / 9)])
    def test_energy_norm_grows_below_one_half(self, sigma, gain):
        # at a stiff mode and a long step the gain nears (1-sigma)/sigma
        cfg = SchemeConfig(sigma=sigma, tau=10.0)
        measured = mode_energy_gain(load_builtin_prony("1/2"), 1e6, cfg)
        assert measured > 1.0 and measured == pytest.approx(gain, rel=1e-6)


class TestScalarOdeOracle:
    def test_initial_condition(self):
        assert scalar_ode_oracle(1.0, 1.0, 2.0, 3.5, 0.0) == 3.5

    def test_undamped_cosine(self):
        # b1 = 0 gives u0*cos(omega t) with omega**2 = a1*lam
        omega = 2.0
        t = 0.7
        assert scalar_ode_oracle(1.0, 0.0, omega**2, 1.0, t) == pytest.approx(
            math.cos(omega * t), rel=1e-14
        )

    def test_critical_damping(self):
        # b1 = 2, a1*lam = 1: double root -1, u = u0*(1+t)*exp(-t)
        for t in (0.0, 0.5, 2.0):
            assert scalar_ode_oracle(1.0, 2.0, 1.0, 1.0, t) == pytest.approx(
                (1 + t) * math.exp(-t), rel=1e-14
            )

    def test_overdamped_decay(self):
        # distinct real roots: solution decays monotonically from u0
        ts = np.linspace(0.0, 5.0, 50)
        vals = scalar_ode_oracle(0.1, 4.0, 1.0, 1.0, ts)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 1e-12)

    def test_derivative_zero_at_origin(self):
        for args in [(1.0, 0.0, 4.0, 1.0), (1.0, 2.0, 1.0, 1.0), (0.1, 4.0, 1.0, 1.0)]:
            eps = 1e-6
            left = scalar_ode_oracle(*args, eps)
            assert abs(left - args[3]) < 1e-10  # u(eps) - u(0) = O(eps^2)
