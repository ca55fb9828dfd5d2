import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from memstep.grid import (
    Grid2D,
    GridFunction,
    GridMismatchError,
    inner_product,
    l2_norm,
    load_snapshot,
    sample_function,
    save_snapshot,
)
from memstep.operators import (
    ConvergenceError,
    DiagonalScaling,
    FivePointLaplacian,
    IdentityOperator,
    NotSpdError,
    ScaledSum,
    SpdOperator,
    a_norm,
    cg_solve,
    laplacian_min_eigenvalue,
)


def random_gf(grid, rng):
    return GridFunction(grid, rng.standard_normal(grid.shape))


class TestGrid:
    def test_mesh_sizes(self):
        g = Grid2D(4, 8)
        assert g.h1 == 0.25 and g.h2 == 0.125
        assert g.shape == (3, 7)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Grid2D(1, 4)

    def test_sample_zero(self):
        g = Grid2D(5, 5)
        w = sample_function(g, lambda x1, x2: 0.0 * x1)
        assert np.all(w.values == 0.0)

    def test_sample_model_initial_center(self):
        # x1*x2*sin(pi x1)*sin(pi x2) at the midpoint of an even grid
        g = Grid2D(8, 8)
        w = sample_function(g, lambda x1, x2: x1 * x2 * np.sin(np.pi * x1) * np.sin(np.pi * x2))
        assert w.values[3, 3] == pytest.approx(0.25, rel=1e-15)
        assert w.center_value() == pytest.approx(0.25, rel=1e-15)

    def test_sample_linear(self):
        g = Grid2D(4, 4)
        w = sample_function(g, lambda x1, x2: x1)
        np.testing.assert_allclose(w.values[:, 0], [0.25, 0.5, 0.75])
        np.testing.assert_allclose(w.values, np.broadcast_to(w.values[:, :1], (3, 3)))

    def test_grid_mismatch_raises(self):
        w = Grid2D(4, 4).zeros()
        u = Grid2D(8, 8).zeros()
        with pytest.raises(GridMismatchError):
            inner_product(w, u)

    def test_snapshot_roundtrip(self, tmp_path, rng):
        g = Grid2D(6, 4)
        w = random_gf(g, rng)
        save_snapshot(w, tmp_path / "w.csv")
        back = load_snapshot(g, tmp_path / "w.csv")
        np.testing.assert_array_equal(back.values, w.values)


class TestInnerProduct:
    def test_constant_counting(self):
        g = Grid2D(5, 7)
        ones = GridFunction(g, np.ones(g.shape))
        expected = (5 - 1) * (7 - 1) * g.h1 * g.h2
        assert inner_product(ones, ones) == pytest.approx(expected, rel=1e-15)

    def test_symmetry(self, rng):
        g = Grid2D(8, 8)
        w, u = random_gf(g, rng), random_gf(g, rng)
        assert inner_product(w, u) == pytest.approx(inner_product(u, w), rel=1e-14)

    def test_l2_norm_against_direct_sum(self, rng):
        # independent brute-force summation oracle
        g = Grid2D(64, 64)
        w = sample_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        brute = 0.0
        for i in range(1, 64):
            for j in range(1, 64):
                v = np.sin(np.pi * i / 64) * np.sin(np.pi * j / 64)
                brute += v * v / 64 / 64
        assert l2_norm(w) == pytest.approx(np.sqrt(brute), rel=1e-13)


class TestLaplacian:
    def test_zero_maps_to_zero(self):
        g = Grid2D(8, 8)
        out = FivePointLaplacian(g).apply(g.zeros())
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_discrete_eigenfunction(self, n):
        g = Grid2D(n, n)
        w = sample_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        lam = laplacian_min_eigenvalue(g)
        aw = FivePointLaplacian(g).apply(w)
        np.testing.assert_allclose(aw.values, lam * w.values, rtol=1e-10, atol=1e-13)

    def test_hand_computed_stencil(self):
        # single unit spike at the center of a 3x3 interior
        g = Grid2D(4, 4)
        values = np.zeros((3, 3))
        values[1, 1] = 1.0
        aw = FivePointLaplacian(g).apply(GridFunction(g, values))
        h2 = g.h1**2
        expected = np.array(
            [[0, -1 / h2, 0], [-1 / h2, 4 / h2, -1 / h2], [0, -1 / h2, 0]]
        )
        np.testing.assert_allclose(aw.values, expected, rtol=1e-15)

    def test_linearity(self, rng):
        g = Grid2D(12, 10)
        lap = FivePointLaplacian(g)
        w, u = random_gf(g, rng), random_gf(g, rng)
        lhs = lap.apply(2.5 * w + u)
        rhs = 2.5 * lap.apply(w) + lap.apply(u)
        np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-13, atol=1e-13)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            FivePointLaplacian(Grid2D(4, 4)).apply(Grid2D(8, 8).zeros())


@pytest.mark.parametrize(
    "make_op",
    [
        lambda g: FivePointLaplacian(g),
        lambda g: IdentityOperator(),
        lambda g: DiagonalScaling(1.5),
        lambda g: ScaledSum([(1.0, IdentityOperator()), (0.25, FivePointLaplacian(g))]),
    ],
    ids=["laplacian", "identity", "diagonal", "scaled_sum"],
)
class TestOperatorProperties:
    def test_symmetry(self, make_op, rng):
        g = Grid2D(10, 14)
        op = make_op(g)
        w, u = random_gf(g, rng), random_gf(g, rng)
        lhs = inner_product(op.apply(w), u)
        rhs = inner_product(w, op.apply(u))
        assert abs(lhs - rhs) <= 1e-12 * l2_norm(w) * l2_norm(u) * 100

    def test_nonnegative_form(self, make_op, rng):
        g = Grid2D(10, 14)
        op = make_op(g)
        w = random_gf(g, rng)
        assert inner_product(op.apply(w), w) >= -1e-12 * l2_norm(w) ** 2


def test_subclass_without_apply_values_raises():
    class Bare(SpdOperator):
        pass

    with pytest.raises(NotImplementedError, match="Bare"):
        Bare().apply(Grid2D(4, 4).zeros())


class TestPositiveDefiniteness:
    def test_laplacian_lower_bound(self, rng):
        g = Grid2D(16, 16)
        lap = FivePointLaplacian(g)
        nu = laplacian_min_eigenvalue(g)
        for _ in range(20):
            w = random_gf(g, rng)
            assert inner_product(lap.apply(w), w) >= (1 - 1e-10) * nu * inner_product(w, w)

    def test_diagonal_negative_coefficient_rejected(self):
        with pytest.raises(NotSpdError):
            DiagonalScaling(-1.0)

    def test_scaled_sum_negative_weight_rejected(self):
        with pytest.raises(NotSpdError):
            ScaledSum([(-0.5, IdentityOperator())])


class TestANorm:
    def test_identity_gives_l2(self, rng):
        g = Grid2D(8, 8)
        w = random_gf(g, rng)
        assert a_norm(IdentityOperator(), w) == pytest.approx(l2_norm(w), rel=1e-14)

    def test_laplacian_eigenfunction(self):
        g = Grid2D(32, 32)
        w = sample_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        lam = laplacian_min_eigenvalue(g)
        expected = np.sqrt(lam) * l2_norm(w)
        assert a_norm(FivePointLaplacian(g), w) == pytest.approx(expected, rel=1e-12)

    def test_zero_function(self):
        g = Grid2D(8, 8)
        assert a_norm(FivePointLaplacian(g), g.zeros()) == 0.0

    def test_negative_form_raises(self, rng):
        class Negation(SpdOperator):
            def apply_values(self, v, grid):
                return -1.0 * v

        g = Grid2D(8, 8)
        with pytest.raises(NotSpdError):
            a_norm(Negation(), random_gf(g, rng))


class TestCgSolve:
    def test_identity_returns_rhs(self, rng):
        g = Grid2D(8, 8)
        rhs = random_gf(g, rng)
        x = cg_solve(IdentityOperator(), rhs)
        np.testing.assert_allclose(x.values, rhs.values, rtol=1e-12)

    def test_manufactured_solution(self, rng):
        g = Grid2D(24, 24)
        op = ScaledSum([(1.0, IdentityOperator()), (0.3, FivePointLaplacian(g))])
        w = random_gf(g, rng)
        x = cg_solve(op, op.apply(w), tol=1e-12)
        np.testing.assert_allclose(x.values, w.values, rtol=0, atol=1e-9)

    def test_residual_contract(self, rng):
        g = Grid2D(16, 16)
        op = ScaledSum([(1.0, IdentityOperator()), (1.0, FivePointLaplacian(g))])
        rhs = random_gf(g, rng)
        tol = 1e-8
        x = cg_solve(op, rhs, tol=tol)
        assert l2_norm(op.apply(x) - rhs) <= tol * l2_norm(rhs)

    def test_zero_rhs_short_circuits(self):
        g = Grid2D(8, 8)
        x = cg_solve(FivePointLaplacian(g), g.zeros())
        assert np.all(x.values == 0.0)

    def test_indefinite_operator_detected(self, rng):
        class Indefinite(SpdOperator):
            def apply_values(self, v, grid):
                out = np.array(v)
                out[..., 0, :] *= -1.0
                return out

        g = Grid2D(8, 8)
        rhs = random_gf(g, rng)
        with pytest.raises((NotSpdError, ConvergenceError)):
            cg_solve(Indefinite(), rhs)

    def test_max_iter_exceeded_reports_residual(self, rng):
        # the field term leaves the sum without a sine-basis preconditioner, so
        # two iterations cannot reach 1e-14
        g = Grid2D(32, 32)
        field = DiagonalScaling(rng.uniform(0.0, 20.0, g.shape))
        op = ScaledSum(
            [(1.0, IdentityOperator()), (10.0, FivePointLaplacian(g)), (1.0, field)]
        )
        rhs = random_gf(g, rng)
        with pytest.raises(ConvergenceError) as err:
            cg_solve(op, rhs, tol=1e-14, max_iter=2)
        assert err.value.residual > 0
        assert err.value.iterations == 2

    def test_deterministic(self, rng):
        g = Grid2D(16, 16)
        op = ScaledSum([(1.0, IdentityOperator()), (0.5, FivePointLaplacian(g))])
        rhs = random_gf(g, rng)
        x1 = cg_solve(op, rhs)
        x2 = cg_solve(op, rhs)
        np.testing.assert_array_equal(x1.values, x2.values)


class TestSineBasisPreconditioner:
    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(2, 20),
        n2=st.integers(2, 20),
        alpha=st.floats(0.0, 10.0),
        beta=st.floats(1e-3, 10.0),
        with_field=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_solve_against_manufactured_solution(self, n1, n2, alpha, beta, with_field, seed):
        assume(n1 != n2)
        g = Grid2D(n1, n2)
        rng = np.random.default_rng(seed)
        terms = [(alpha, IdentityOperator()), (beta, FivePointLaplacian(g))]
        if with_field:  # there is then no preconditioner and CG must iterate
            terms.append((1.0, DiagonalScaling(rng.uniform(0.0, 50.0, g.shape))))
        op = ScaledSum(terms)
        w = random_gf(g, rng)
        rhs = op.apply(w)
        applications = []
        apply = FivePointLaplacian.apply_values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                FivePointLaplacian,
                "apply_values",
                lambda lap, v, grid: applications.append(1) or apply(lap, v, grid),
            )
            x = cg_solve(op, rhs)
        assert l2_norm(op.apply(x) - rhs) <= 1e-10 * l2_norm(rhs)
        if not with_field:
            assert len(applications) == 1
        x = cg_solve(op, rhs, tol=1e-13)
        np.testing.assert_allclose(x.values, w.values, rtol=0, atol=1e-10 * np.abs(w.values).max())

    @pytest.mark.parametrize("shift", [IdentityOperator(), DiagonalScaling(1.0)])
    def test_inverse_in_sine_basis(self, rng, shift):
        # against a dense solve of the assembled matrix (Kronecker sums)
        g = Grid2D(7, 5)
        op = ScaledSum([(0.5, shift), (0.02, FivePointLaplacian(g))])
        t1 = (np.diag(np.full(6, 2.0)) - np.eye(6, k=1) - np.eye(6, k=-1)) * 49
        t2 = (np.diag(np.full(4, 2.0)) - np.eye(4, k=1) - np.eye(4, k=-1)) * 25
        dense = 0.5 * np.eye(24) + 0.02 * (np.kron(t1, np.eye(4)) + np.kron(np.eye(6), t2))
        r = rng.standard_normal(g.shape)
        out = op.preconditioner(g)(r, np.empty(g.shape))
        np.testing.assert_allclose(out.ravel(), np.linalg.solve(dense, r.ravel()), rtol=1e-12)

    def test_other_terms_have_no_preconditioner(self):
        g = Grid2D(6, 6)
        assert FivePointLaplacian(g).preconditioner(g) is None
        shifted = ScaledSum([(1.0, IdentityOperator()), (1.0, FivePointLaplacian(g))])
        assert shifted.preconditioner(Grid2D(6, 8)) is None  # Laplacian of another grid
        field = ScaledSum([(1.0, DiagonalScaling(np.ones(g.shape))), (1.0, FivePointLaplacian(g))])
        assert field.preconditioner(g) is None  # only a scalar coefficient is exact
        nested = ScaledSum([(1.0, ScaledSum([(1.0, IdentityOperator())]))])
        assert nested.preconditioner(g) is None
        assert ScaledSum([(0.0, IdentityOperator())]).preconditioner(g) is None
