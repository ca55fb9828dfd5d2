import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from memstep.grid import Grid2D, GridMismatchError, sample_function
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
    laplacian_eigenvalues,
    sine_transform,
)


def random_field(grid, rng):
    return rng.standard_normal(grid.shape)


def dot(w, u, grid):
    """Mesh-weighted inner product sum(w*u) * h1 * h2."""
    return float(np.vdot(w, u)) * grid.cell_area


def norm(w, grid):
    return math.sqrt(dot(w, w, grid))


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
        assert w.shape == g.shape and np.all(w == 0.0)

    def test_sample_model_initial_center(self):
        # x1*x2*sin(pi x1)*sin(pi x2) at the midpoint of an even grid
        g = Grid2D(8, 8)
        w = sample_function(g, lambda x1, x2: x1 * x2 * np.sin(np.pi * x1) * np.sin(np.pi * x2))
        assert w[3, 3] == pytest.approx(0.25, rel=1e-15)
        assert w[g.center_index] == pytest.approx(0.25, rel=1e-15)

    def test_sample_linear(self):
        g = Grid2D(4, 4)
        w = sample_function(g, lambda x1, x2: x1)
        np.testing.assert_allclose(w[:, 0], [0.25, 0.5, 0.75])
        np.testing.assert_allclose(w, np.broadcast_to(w[:, :1], (3, 3)))


class TestInnerProduct:
    """The mesh-weighted inner product, through the identity's energy norm."""

    def test_constant_counting(self):
        g = Grid2D(5, 7)
        expected = (5 - 1) * (7 - 1) * g.h1 * g.h2
        assert a_norm(IdentityOperator(), np.ones(g.shape), g) ** 2 == pytest.approx(
            expected, rel=1e-15
        )

    def test_l2_norm_against_direct_sum(self, rng):
        # independent brute-force summation oracle
        g = Grid2D(64, 64)
        w = sample_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        brute = 0.0
        for i in range(1, 64):
            for j in range(1, 64):
                v = np.sin(np.pi * i / 64) * np.sin(np.pi * j / 64)
                brute += v * v / 64 / 64
        assert a_norm(IdentityOperator(), w, g) == pytest.approx(np.sqrt(brute), rel=1e-13)


class TestLaplacian:
    def test_zero_maps_to_zero(self):
        g = Grid2D(8, 8)
        out = FivePointLaplacian(g).apply_values(np.zeros(g.shape), g)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_discrete_eigenfunction(self, n):
        g = Grid2D(n, n)
        w = sample_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        lam = laplacian_eigenvalues(g).min()
        aw = FivePointLaplacian(g).apply_values(w, g)
        np.testing.assert_allclose(aw, lam * w, rtol=1e-10, atol=1e-13)

    def test_hand_computed_stencil(self):
        # single unit spike at the center of a 3x3 interior
        g = Grid2D(4, 4)
        values = np.zeros((3, 3))
        values[1, 1] = 1.0
        aw = FivePointLaplacian(g).apply_values(values, g)
        h2 = g.h1**2
        expected = np.array(
            [[0, -1 / h2, 0], [-1 / h2, 4 / h2, -1 / h2], [0, -1 / h2, 0]]
        )
        np.testing.assert_allclose(aw, expected, rtol=1e-15)

    def test_linearity(self, rng):
        g = Grid2D(12, 10)
        lap = FivePointLaplacian(g)
        w, u = random_field(g, rng), random_field(g, rng)
        lhs = lap.apply_values(2.5 * w + u, g)
        rhs = 2.5 * lap.apply_values(w, g) + lap.apply_values(u, g)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            FivePointLaplacian(Grid2D(4, 4)).apply_values(np.zeros((7, 7)), Grid2D(8, 8))


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
        w, u = random_field(g, rng), random_field(g, rng)
        lhs = dot(op.apply_values(w, g), u, g)
        rhs = dot(w, op.apply_values(u, g), g)
        assert abs(lhs - rhs) <= 1e-12 * norm(w, g) * norm(u, g) * 100

    def test_nonnegative_form(self, make_op, rng):
        g = Grid2D(10, 14)
        op = make_op(g)
        w = random_field(g, rng)
        assert dot(op.apply_values(w, g), w, g) >= -1e-12 * norm(w, g) ** 2


def test_subclass_without_apply_values_raises():
    class Bare(SpdOperator):
        pass

    with pytest.raises(NotImplementedError, match="Bare"):
        Bare().apply_values(np.zeros((3, 3)), Grid2D(4, 4))


class TestPositiveDefiniteness:
    def test_laplacian_lower_bound(self, rng):
        g = Grid2D(16, 16)
        lap = FivePointLaplacian(g)
        nu = laplacian_eigenvalues(g).min()
        for _ in range(20):
            w = random_field(g, rng)
            assert dot(lap.apply_values(w, g), w, g) >= (1 - 1e-10) * nu * dot(w, w, g)

    def test_diagonal_negative_coefficient_rejected(self):
        with pytest.raises(NotSpdError):
            DiagonalScaling(-1.0)

    def test_diagonal_negative_entry_rejected(self):
        coefficient = np.ones((5, 5))
        coefficient[3, 1] = -1e-300
        with pytest.raises(NotSpdError):
            DiagonalScaling(coefficient)

    def test_scaled_sum_negative_weight_rejected(self):
        with pytest.raises(NotSpdError):
            ScaledSum([(-0.5, IdentityOperator())])


class TestANorm:
    def test_identity_gives_l2(self, rng):
        g = Grid2D(8, 8)
        w = random_field(g, rng)
        assert a_norm(IdentityOperator(), w, g) == pytest.approx(norm(w, g), rel=1e-14)

    def test_laplacian_eigenfunction(self):
        g = Grid2D(32, 32)
        w = sample_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        lam = laplacian_eigenvalues(g).min()
        expected = np.sqrt(lam) * norm(w, g)
        assert a_norm(FivePointLaplacian(g), w, g) == pytest.approx(expected, rel=1e-12)

    def test_zero_function(self):
        g = Grid2D(8, 8)
        assert a_norm(FivePointLaplacian(g), np.zeros(g.shape), g) == 0.0

    def test_negative_form_raises(self, rng):
        class Negation(SpdOperator):
            def apply_values(self, v, grid):
                return -1.0 * v

        g = Grid2D(8, 8)
        with pytest.raises(NotSpdError):
            a_norm(Negation(), random_field(g, rng), g)


class TestCgSolve:
    def test_identity_returns_rhs(self, rng):
        g = Grid2D(8, 8)
        rhs = random_field(g, rng)
        x = cg_solve(IdentityOperator(), rhs, g)
        np.testing.assert_allclose(x, rhs, rtol=1e-12)

    def test_manufactured_solution(self, rng):
        g = Grid2D(24, 24)
        op = ScaledSum([(1.0, IdentityOperator()), (0.3, FivePointLaplacian(g))])
        w = random_field(g, rng)
        x = cg_solve(op, op.apply_values(w, g), g, tol=1e-12)
        np.testing.assert_allclose(x, w, rtol=0, atol=1e-9)

    def test_residual_contract(self, rng):
        g = Grid2D(16, 16)
        op = ScaledSum([(1.0, IdentityOperator()), (1.0, FivePointLaplacian(g))])
        rhs = random_field(g, rng)
        tol = 1e-8
        x = cg_solve(op, rhs, g, tol=tol)
        assert norm(op.apply_values(x, g) - rhs, g) <= tol * norm(rhs, g)

    def test_zero_rhs_short_circuits(self):
        g = Grid2D(8, 8)
        x = cg_solve(FivePointLaplacian(g), np.zeros(g.shape), g)
        assert np.all(x == 0.0)

    def test_indefinite_operator_detected(self, rng):
        class Indefinite(SpdOperator):
            def apply_values(self, v, grid):
                out = np.array(v)
                out[..., 0, :] *= -1.0
                return out

        g = Grid2D(8, 8)
        rhs = random_field(g, rng)
        with pytest.raises((NotSpdError, ConvergenceError)):
            cg_solve(Indefinite(), rhs, g)

    def test_max_iter_exceeded_reports_residual(self, rng):
        # the Laplacian term leaves the sum without a diagonal, so CG starts
        # from zero and two iterations cannot reach 1e-14
        g = Grid2D(32, 32)
        field = DiagonalScaling(rng.uniform(0.0, 20.0, g.shape))
        op = ScaledSum(
            [(1.0, IdentityOperator()), (10.0, FivePointLaplacian(g)), (1.0, field)]
        )
        rhs = random_field(g, rng)
        with pytest.raises(ConvergenceError) as err:
            cg_solve(op, rhs, g, tol=1e-14, max_iter=2)
        assert err.value.residual > 0
        assert err.value.iterations == 2

    def test_convergence_error_survives_pickling(self):
        # a study's worker process sends its exception back pickled
        err = pickle.loads(pickle.dumps(ConvergenceError("no convergence", 1.5e-3, 7)))
        assert type(err) is ConvergenceError and str(err) == "no convergence"
        assert err.residual == 1.5e-3 and err.iterations == 7

    @pytest.mark.parametrize("shape", [(7, 1), (8, 8)])
    def test_rhs_of_another_shape_rejected(self, shape):
        # (n1-1, 1) would broadcast against the interior without the check
        g = Grid2D(8, 8)
        with pytest.raises(GridMismatchError):
            cg_solve(FivePointLaplacian(g), np.ones(shape), g)

    def test_deterministic(self, rng):
        g = Grid2D(16, 16)
        op = ScaledSum([(1.0, IdentityOperator()), (0.5, FivePointLaplacian(g))])
        rhs = random_field(g, rng)
        x1 = cg_solve(op, rhs, g)
        x2 = cg_solve(op, rhs, g)
        np.testing.assert_array_equal(x1, x2)


class TestSineBasisPreconditioner:
    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(2, 20),
        n2=st.integers(2, 20),
        alpha=st.floats(0.0, 10.0),
        beta=st.floats(1e-3, 10.0),
        with_field=st.booleans(),
        pointwise=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_solve_against_manufactured_solution(
        self, n1, n2, alpha, beta, with_field, pointwise, seed
    ):
        assume(n1 != n2)
        g = Grid2D(n1, n2)
        rng = np.random.default_rng(seed)
        # beta A itself, or its image in the sine basis, where the sum is
        # pointwise and solved exactly by one division
        lap = DiagonalScaling(laplacian_eigenvalues(g)) if pointwise else FivePointLaplacian(g)
        terms = [(alpha, IdentityOperator()), (beta, lap)]
        if with_field:
            terms.append((1.0, DiagonalScaling(rng.uniform(0.0, 50.0, g.shape))))
        op = ScaledSum(terms)
        w = random_field(g, rng)
        rhs = op.apply_values(w, g)
        applications = []
        apply = ScaledSum.apply_values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                ScaledSum,
                "apply_values",
                lambda sum_, v, grid: applications.append(1) or apply(sum_, v, grid),
            )
            x = cg_solve(op, rhs, g)
        assert norm(op.apply_values(x, g) - rhs, g) <= 1e-10 * norm(rhs, g)
        if pointwise:
            assert len(applications) == 1
        x = cg_solve(op, rhs, g, tol=1e-13)
        np.testing.assert_allclose(x, w, rtol=0, atol=1e-10 * np.abs(w).max())

    def test_pointwise_inverse(self, rng):
        g = Grid2D(7, 5)
        field = rng.uniform(0.0, 3.0, g.shape)
        op = ScaledSum(
            [(0.5, IdentityOperator()), (2.0, DiagonalScaling(field)), (0.25, DiagonalScaling(4.0))]
        )
        dense = np.diag(0.5 + 2.0 * field.ravel() + 1.0)
        r = rng.standard_normal(g.shape)
        out = r / op.diagonal()
        np.testing.assert_allclose(out.ravel(), np.linalg.solve(dense, r.ravel()), rtol=1e-14)

    def test_other_terms_have_no_diagonal(self):
        g = Grid2D(6, 6)
        lap = FivePointLaplacian(g)
        assert lap.diagonal() is None
        assert ScaledSum([(1.0, IdentityOperator()), (1.0, lap)]).diagonal() is None
        field = ScaledSum([(1.0, DiagonalScaling(np.ones(g.shape))), (1.0, lap)])
        assert field.diagonal() is None  # a Laplacian term is never pointwise
        # so is any sum that holds one, at any depth and whatever its weight
        assert ScaledSum([(1.0, ScaledSum([(0.0, lap)]))]).diagonal() is None

    def test_pointwise_diagonals(self, rng):
        g = Grid2D(6, 6)
        field = rng.uniform(0.0, 3.0, g.shape)
        assert IdentityOperator().diagonal() == 1.0
        assert DiagonalScaling(2.5).diagonal() == 2.5
        np.testing.assert_array_equal(DiagonalScaling(field).diagonal(), field)
        nested = ScaledSum(
            [(2.0, ScaledSum([(1.0, IdentityOperator()), (0.5, DiagonalScaling(field))])),
             (0.25, DiagonalScaling(4.0))]
        )
        np.testing.assert_allclose(nested.diagonal(), 3.0 + field, rtol=1e-15)
        # the exact diagonal start solves the nested sum in one application
        rhs = rng.standard_normal(g.shape)
        applied = []
        apply = ScaledSum.apply_values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                ScaledSum,
                "apply_values",
                lambda sum_, v, grid: applied.append(sum_) or apply(sum_, v, grid),
            )
            x = cg_solve(nested, rhs, g)
        assert sum(op is nested for op in applied) == 1
        np.testing.assert_allclose(x, rhs / (3.0 + field), rtol=1e-15)
        # zero weights and zero coefficients are diagonals too
        assert ScaledSum([(0.0, IdentityOperator())]).diagonal() == 0.0
        np.testing.assert_array_equal(
            ScaledSum([(1.0, DiagonalScaling(np.eye(5)))]).diagonal(), np.eye(5)
        )

    def test_zero_on_the_diagonal_starts_from_zero(self, rng):
        # a zero anywhere on the summed diagonal leaves nothing to divide by:
        # CG starts from zero and still meets its residual contract
        g = Grid2D(6, 6)
        coefficient = np.eye(5) + 1.0
        coefficient[2, 3] = 0.0
        op = ScaledSum([(1.0, DiagonalScaling(coefficient))])
        rhs = coefficient * rng.standard_normal(g.shape)  # in the operator's range
        starts = []
        apply = ScaledSum.apply_values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                ScaledSum,
                "apply_values",
                lambda sum_, v, grid: starts.append(v.copy()) or apply(sum_, v, grid),
            )
            x = cg_solve(op, rhs, g, tol=1e-12)
        assert np.all(starts[0] == 0.0) and np.all(np.isfinite(x))
        assert np.linalg.norm(op.apply_values(x, g) - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_diagonal_scaling_holds_its_own_coefficient(self, rng):
        g = Grid2D(6, 6)
        field = rng.uniform(1.0, 2.0, g.shape)
        op, kept = DiagonalScaling(field), field.copy()
        v, rhs = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        applied, solved = op.apply_values(v, g), cg_solve(op, rhs, g)
        field[...] = -7.0  # the caller's array, written after construction
        np.testing.assert_array_equal(op.apply_values(v, g), applied)
        np.testing.assert_array_equal(cg_solve(op, rhs, g), solved)
        np.testing.assert_array_equal(solved, rhs / kept)
        assert op.positive and not op.coefficient.flags.writeable
        # a read-only array that owns its data is held as it is, not copied
        lam = laplacian_eigenvalues(g)
        assert DiagonalScaling(lam).coefficient is lam

    def test_zero_coefficient_entry_runs_cg_from_zero(self, rng):
        # plain CG from x0 = 0, step by step as cg_solve takes it
        g = Grid2D(6, 6)
        coefficient = np.eye(5) + 1.0
        coefficient[2, 3] = 0.0
        op = DiagonalScaling(coefficient)
        assert not op.positive and op.positive_diagonal() is None
        rhs = coefficient * rng.standard_normal(g.shape)
        x, r = np.zeros(g.shape), rhs.copy()
        p, rr = r.copy(), float(np.vdot(r, r))
        while math.sqrt(rr) > 1e-12 * math.sqrt(np.vdot(rhs, rhs)):
            ap = coefficient * p
            alpha = rr / float(np.vdot(p, ap))
            x += alpha * p
            r -= alpha * ap
            rr_old, rr = rr, float(np.vdot(r, r))
            p *= rr / rr_old
            p += r
        np.testing.assert_array_equal(cg_solve(op, rhs, g, tol=1e-12), x)

    def test_sine_transform_diagonalizes_laplacian(self, rng):
        g = Grid2D(7, 5)  # n1 != n2: a swapped axis fails both checks
        v = rng.standard_normal(g.shape)
        np.testing.assert_allclose(sine_transform(sine_transform(v, g), g), v, rtol=0, atol=1e-14)
        lv = FivePointLaplacian(g).apply_values(v, g)
        expected = laplacian_eigenvalues(g) * sine_transform(v, g)
        np.testing.assert_allclose(
            sine_transform(lv, g), expected, rtol=0, atol=1e-12 * np.abs(expected).max()
        )
