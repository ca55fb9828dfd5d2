"""Solvers for evolution equations with convolution memory, where the
difference kernel is compressed into a sum of exponentials so the nonlocal
problem becomes a local system advanced by an unconditionally stable
two-level weighted scheme."""

__version__ = "0.1.0"

from .kernels import (
    PronySeries,
    StretchedExponential,
    SingleExponential,
    prony_eval,
    analytic_eval,
    kernel_sup_error,
    load_builtin_prony,
    prony_from_file,
)
from .grid import Grid2D, GridFunction, sample_function, inner_product, l2_norm
from .operators import (
    FivePointLaplacian,
    IdentityOperator,
    DiagonalScaling,
    ScaledSum,
    a_norm,
    cg_solve,
)
from .schemes import (
    ProblemSpec,
    SchemeConfig,
    SoeState,
    soe_init,
    soe_stepper,
    history_levels,
    energy,
    scalar_ode_oracle,
)
from .experiments import (
    ExperimentSpec,
    model_initial_condition,
    build_model_problem,
    run_model_problem,
    compute_reference,
    error_series,
    convergence_study,
    compare_baseline,
)

__all__ = [
    "PronySeries",
    "StretchedExponential",
    "SingleExponential",
    "prony_eval",
    "analytic_eval",
    "kernel_sup_error",
    "load_builtin_prony",
    "prony_from_file",
    "Grid2D",
    "GridFunction",
    "sample_function",
    "inner_product",
    "l2_norm",
    "FivePointLaplacian",
    "IdentityOperator",
    "DiagonalScaling",
    "ScaledSum",
    "a_norm",
    "cg_solve",
    "ProblemSpec",
    "SchemeConfig",
    "SoeState",
    "soe_init",
    "soe_stepper",
    "history_levels",
    "energy",
    "scalar_ode_oracle",
    "ExperimentSpec",
    "model_initial_condition",
    "build_model_problem",
    "run_model_problem",
    "compute_reference",
    "error_series",
    "convergence_study",
    "compare_baseline",
]
