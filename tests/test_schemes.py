import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_problem
from memstep.grid import Grid2D, GridFunction, l2_norm, sample_function
from memstep.kernels import PronySeries, load_builtin_prony
from memstep.operators import (
    DiagonalScaling,
    FivePointLaplacian,
    IdentityOperator,
    ScaledSum,
    a_norm,
    cg_solve,
)
from memstep.schemes import (
    ProblemSpec,
    SchemeConfig,
    SchemeConfigError,
    _product_trapezoid_weights,
    energy,
    history_init,
    quadrature_step,
    scalar_ode_oracle,
    soe_init,
    soe_step,
)


def scalar_value(state):
    return state.y[0, 0]


def run_soe(problem, cfg, n_steps):
    state = soe_init(problem)
    for _ in range(n_steps):
        state = soe_step(problem, cfg, state)
    return state


class TestSchemeConfig:
    def test_sigma_out_of_range(self):
        with pytest.raises(SchemeConfigError, match=r"\(0, 1\]"):
            SchemeConfig(sigma=1.5, tau=0.1)
        with pytest.raises(SchemeConfigError):
            SchemeConfig(sigma=0.0, tau=0.1)

    def test_stability_flag(self):
        assert SchemeConfig(sigma=0.5, tau=1.0).stability_guaranteed
        assert not SchemeConfig(sigma=0.25, tau=1.0).stability_guaranteed


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
            initial=grid.zeros(),
        )
        s = soe_init(p)
        assert np.all(s.y == 0.0)


class TestSoeStep:
    def test_zero_problem_stays_zero(self):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=grid.zeros(),
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
        s = soe_step(p, cfg, soe_init(p))
        assert scalar_value(s) == pytest.approx(0.5, abs=1e-12)
        assert s.aux[0][0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("sigma,expected_order", [(1.0, 1.0), (0.5, 2.0)])
    def test_convergence_to_scalar_oracle(self, sigma, expected_order):
        a1, b1, lam, u0, T = 1.0, 1.0, 4.0, 1.0, 10.0
        errors, taus = [], []
        for n in (100, 200, 400, 800):
            p = scalar_problem(a1, b1, lam, u0)
            cfg = SchemeConfig(sigma=sigma, tau=T / n)
            state = soe_init(p)
            worst = 0.0
            for _ in range(n):
                state = soe_step(p, cfg, state)
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
        s1, s2 = soe_init(p), soe_init(general)
        for _ in range(10):
            s1 = soe_step(p, cfg, s1)
            s2 = soe_step(general, cfg, s2)
            np.testing.assert_array_equal(s1.y, s2.y)
            for a1, a2 in zip(s1.aux, s2.aux):
                np.testing.assert_array_equal(a1, a2)

    def test_doubled_mass_with_zero_operator_freezes_solution(self):
        # 2*(y1 - y0)/tau = 0 when the spatial and reaction terms vanish
        grid = Grid2D(2, 2)
        p = ProblemSpec(
            operator=DiagonalScaling(0.0),
            kernel=PronySeries((1.0,), (1.0,)),
            initial=GridFunction(grid, np.array([[3.0]])),
            mass=DiagonalScaling(2.0),
        )
        s = soe_step(p, SchemeConfig(sigma=1.0, tau=1.0), soe_init(p))
        assert scalar_value(s) == pytest.approx(3.0, rel=1e-12)

    def test_reaction_dominated_decay(self):
        # negligible memory weights turn the scheme into a theta scheme for
        # dy/dt + y = 0, whose solution is exp(-t)
        grid = Grid2D(2, 2)
        p = ProblemSpec(
            operator=DiagonalScaling(1.0),
            kernel=PronySeries((1e-14,), (1.0,)),
            initial=GridFunction(grid, np.array([[1.0]])),
            reaction=DiagonalScaling(1.0),
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.01)
        s = soe_init(p)
        for _ in range(100):
            s = soe_step(p, cfg, s)
        assert scalar_value(s) == pytest.approx(math.exp(-1.0), abs=1e-5)


class TestQuadratureStep:
    def test_zero_problem_stays_zero(self):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=grid.zeros(),
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        h = history_init(p)
        for _ in range(4):
            h = quadrature_step(p, cfg, h)
        assert all(np.all(y == 0.0) for y in h.ys)

    def test_product_weights_integrate_kernel_exactly_for_constant(self):
        # against the closed-form integral of each exponential
        kernel = PronySeries((0.7, 0.3), (2.0, 0.0))
        tau, n = 0.125, 9
        weights, end = _product_trapezoid_weights(kernel, tau, n)
        total = weights.sum() + end
        t_end = n * tau
        exact = 0.7 * (1 - math.exp(-2.0 * t_end)) / 2.0 + 0.3 * t_end
        assert total == pytest.approx(exact, rel=1e-13)

    def test_product_weights_match_trapezoid_for_rate_zero(self):
        kernel = PronySeries((1.0,), (0.0,))
        tau, n = 0.25, 4
        weights, end = _product_trapezoid_weights(kernel, tau, n)
        np.testing.assert_allclose(weights, [tau / 2, tau, tau, tau], rtol=1e-15)
        assert end == pytest.approx(tau / 2, rel=1e-15)

    def test_first_step_scalar_hand_check(self):
        # n=0, sigma=1: (y1-y0)/tau + w0*lam*y0 + w1*lam*y1 = 0 with the
        # product weights of a single interval
        a1, b1, lam, u0, tau = 1.0, 2.0, 3.0, 1.0, 0.5
        p = scalar_problem(a1, b1, lam, u0)
        cfg = SchemeConfig(sigma=1.0, tau=tau)
        h = quadrature_step(p, cfg, history_init(p))
        c = b1 * tau
        w0 = a1 * tau * (math.exp(-c) * (math.exp(c) - 1 - c)) / c**2
        w1 = a1 * tau * (c - 1 + math.exp(-c)) / c**2
        expected = (u0 - tau * w0 * lam * u0) / (1 + tau * w1 * lam)
        assert h.ys[-1][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_soe_under_refinement(self):
        grid = Grid2D(8, 8)
        kernel = load_builtin_prony("1/2")
        u0 = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        p = ProblemSpec(operator=FivePointLaplacian(grid), kernel=kernel, initial=u0)
        diffs = []
        for n in (20, 40, 80):
            cfg = SchemeConfig(sigma=0.5, tau=1.0 / n)
            s = soe_init(p)
            h = history_init(p)
            worst = 0.0
            for _ in range(n):
                s = soe_step(p, cfg, s)
                h = quadrature_step(p, cfg, h)
                worst = max(worst, np.max(np.abs(s.y - h.ys[-1])))
            diffs.append(worst)
        assert diffs[1] < diffs[0] and diffs[2] < diffs[1]
        slope = np.polyfit(np.log([1 / 20, 1 / 40, 1 / 80]), np.log(diffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.4)

    def test_history_grows_linearly(self):
        p = scalar_problem(1.0, 1.0, 1.0, 1.0)
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        h = history_init(p)
        for k in range(5):
            assert len(h.ys) == k + 1
            h = quadrature_step(p, cfg, h)

    def test_restepping_an_old_state_leaves_newer_states_intact(self):
        grid = Grid2D(6, 6)
        u0 = sample_function(grid, lambda x1, x2: x1 * (1 - x1) * x2)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid), kernel=load_builtin_prony("1/2"), initial=u0
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        h = history_init(p)
        for _ in range(3):
            h = quadrature_step(p, cfg, h)
        newer = quadrature_step(p, cfg, quadrature_step(p, cfg, h))
        applied = newer.applied.copy()
        branch = quadrature_step(p, SchemeConfig(sigma=1.0, tau=0.1), h)
        np.testing.assert_array_equal(newer.applied, applied)
        np.testing.assert_array_equal(branch.applied[:-1], applied[:4])
        assert len(newer.ys) == 6 and len(branch.ys) == 5
        again = quadrature_step(p, cfg, h)  # the same step on a third branch
        np.testing.assert_array_equal(again.ys[-1], newer.ys[4])
        again = quadrature_step(p, cfg, again)  # reads the integral carried by the branch
        np.testing.assert_array_equal(again.ys[-1], newer.ys[-1])

    def test_carried_integral_matches_full_sum(self):
        # the integral to t_n carried in the state against the product rule
        # summed over the whole history
        grid = Grid2D(6, 6)
        u0 = sample_function(grid, lambda x1, x2: x1 * (1 - x1) * x2)
        kernel = load_builtin_prony("1/2")
        p = ProblemSpec(operator=FivePointLaplacian(grid), kernel=kernel, initial=u0)
        cfg = SchemeConfig(sigma=0.5, tau=0.05)
        h = history_init(p)
        for _ in range(7):
            h = quadrature_step(p, cfg, h)
            weights, end = _product_trapezoid_weights(kernel, cfg.tau, h.n)
            full = np.tensordot(np.append(weights, end), h.applied, axes=1)
            scale = np.abs(full).max()
            np.testing.assert_allclose(h.integral, full, rtol=1e-13, atol=1e-13 * scale)


class TestEnergy:
    def test_initial_energy_is_initial_norm(self):
        grid = Grid2D(16, 16)
        u0 = sample_function(grid, lambda x1, x2: x1 * (1 - x2))
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=u0,
        )
        assert energy(p, soe_init(p)) == pytest.approx(l2_norm(u0), rel=1e-14)

    def test_zero_state_zero_energy(self):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=PronySeries((1.0,), (1.0,)),
            initial=grid.zeros(),
        )
        assert energy(p, soe_init(p)) == 0.0

    def test_hand_built_state(self, rng):
        from memstep.operators import a_norm
        from memstep.schemes import SoeState

        grid = Grid2D(8, 8)
        lap = FivePointLaplacian(grid)
        p = ProblemSpec(
            operator=lap, kernel=PronySeries((2.0,), (1.0,)), initial=grid.zeros()
        )
        y = GridFunction(grid, rng.standard_normal(grid.shape))
        y1 = GridFunction(grid, rng.standard_normal(grid.shape))
        s = SoeState(y=y.values, aux=y1.values[None], n=3, t=0.3)
        expected = math.sqrt(l2_norm(y) ** 2 + 2.0 * a_norm(lap, y1.values, grid) ** 2)
        assert energy(p, s) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("tau", [1e-3, 1e-1, 1.0, 10.0])
    def test_energy_monotone_without_forcing(self, sigma, tau):
        grid = Grid2D(16, 16)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=sample_function(
                grid, lambda x1, x2: x1 * x2 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
            ),
        )
        cfg = SchemeConfig(sigma=sigma, tau=tau)
        s = soe_init(p)
        slack = 1e-8 * energy(p, s)
        prev = energy(p, s)
        for _ in range(25):
            s = soe_step(p, cfg, s)
            e = energy(p, s)
            assert e <= prev + slack
            prev = e

    def test_forced_energy_bound(self):
        grid = Grid2D(12, 12)
        bump = sample_function(grid, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=sample_function(grid, lambda x1, x2: x1 * (1 - x1) * x2),
            forcing=lambda t: math.sin(3 * t) * bump,
        )
        sigma, tau = 0.75, 0.05
        cfg = SchemeConfig(sigma=sigma, tau=tau)
        s = soe_init(p)
        e0 = energy(p, s)
        forcing_budget = 0.0
        for _ in range(40):
            forcing_budget += tau * l2_norm(p.forcing(s.t + sigma * tau))
            s = soe_step(p, cfg, s)
            assert energy(p, s) <= e0 + forcing_budget + 1e-8 * e0


class TestStepsWorkOnArrays:
    """GridFunction is the API edge: a step, and the energy, build none."""

    @staticmethod
    def count_grid_functions(monkeypatch):
        built = []
        init = GridFunction.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GridFunction, "__init__", counting)
        return built

    def test_soe_step_with_mass_and_reaction(self, monkeypatch, rng):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=GridFunction(grid, rng.standard_normal(grid.shape)),
            mass=DiagonalScaling(rng.uniform(1.0, 2.0, grid.shape)),
            reaction=DiagonalScaling(0.5),
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        s = soe_init(p)
        built = self.count_grid_functions(monkeypatch)
        for _ in range(5):
            s = soe_step(p, cfg, s)
            energy(p, s)
        assert s.n == 5 and len(built) == 0

    def test_quadrature_step(self, monkeypatch, rng):
        grid = Grid2D(8, 8)
        p = ProblemSpec(
            operator=FivePointLaplacian(grid),
            kernel=load_builtin_prony("1/2"),
            initial=GridFunction(grid, rng.standard_normal(grid.shape)),
        )
        cfg = SchemeConfig(sigma=0.5, tau=0.1)
        h = history_init(p)
        built = self.count_grid_functions(monkeypatch)
        for _ in range(5):
            h = quadrature_step(p, cfg, h)
        assert h.n == 5 and len(built) == 0


def per_term_step(p, cfg, y, aux):
    """The compressed step with one GridFunction per memory term: the slow
    reference for the stacked soe_step."""
    sig, tau = cfg.sigma, cfg.tau
    a, b = p.kernel.weights, p.kernel.rates
    denom = [1.0 + sig * bi * tau for bi in b]
    chi = [
        (1.0 / di) * ((1.0 - sig) * tau * y + (1.0 - (1.0 - sig) * bi * tau) * yi)
        for bi, di, yi in zip(b, denom, aux)
    ]
    mu = math.fsum(sig * ai * tau / di for ai, di in zip(a, denom))
    mem = y.grid.zeros()
    for ai, yi, ci in zip(a, aux, chi):
        mem = mem + ai * ((1.0 - sig) * yi + sig * ci)
    rhs = y - tau * p.operator.apply(mem)
    lhs = ScaledSum([(1.0, IdentityOperator()), (sig * tau * mu, p.operator)])
    y_new = GridFunction(y.grid, cg_solve(lhs, rhs.values, y.grid, tol=cfg.cg_tol))
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
            initial=GridFunction(grid, rng.standard_normal(grid.shape)),
        )
        cfg = SchemeConfig(sigma=sigma, tau=tau, cg_tol=1e-14)
        s = soe_init(p)
        y, aux = p.initial, [grid.zeros() for _ in terms]
        for _ in range(4):
            s = soe_step(p, cfg, s)
            y, aux = per_term_step(p, cfg, y, aux)
        scale = max(np.max(np.abs(y.values)), max(np.max(np.abs(g.values)) for g in aux))
        np.testing.assert_allclose(s.y, y.values, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            s.aux, np.stack([g.values for g in aux]), rtol=0, atol=1e-12 * scale
        )
        expected = math.sqrt(
            a_norm(p.mass, s.y, grid) ** 2
            + sum(
                ai * a_norm(p.operator, yi, grid) ** 2
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
        mode = (1.0 / math.sqrt(np.sum(mode.values**2))) * mode
        lam = 4 * n1**2 * math.sin(math.pi * j / (2 * n1)) ** 2
        lam += 4 * n2**2 * math.sin(math.pi * k / (2 * n2)) ** 2
        p = ProblemSpec(
            operator=FivePointLaplacian(grid), kernel=PronySeries((a1,), (b1,)), initial=mode
        )
        errors = []
        for steps in (100, 200):
            cfg = SchemeConfig(sigma=0.5, tau=1.0 / steps)
            s, worst = soe_init(p), 0.0
            for _ in range(steps):
                s = soe_step(p, cfg, s)
                coefficient = float(np.sum(s.y * mode.values))
                off_mode = s.y - coefficient * mode.values
                np.testing.assert_allclose(off_mode, 0.0, rtol=0, atol=1e-12)
                exact = scalar_ode_oracle(a1, b1, lam, 1.0, s.t)
                worst = max(worst, abs(coefficient - exact))
            errors.append(worst)
        assert errors[1] < a1 * lam * cfg.tau**2  # O((omega tau)^2), omega^2 = a1 lam
        assert 3.5 < errors[0] / errors[1] < 4.5


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
