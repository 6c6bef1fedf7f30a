"""Streaming kernel regression estimators, their large and moderate
deviation rate functions, and a reproducible Monte Carlo harness."""

from .estimators import EstimatorState, nadaraya_watson
from .experiments import (
    ExperimentPlan,
    Report,
    averaged_sigma2,
    run_bias_experiment,
    run_mdp_experiment,
    run_tail_experiment,
    run_variance_experiment,
)
from .kernels import EPANECHNIKOV, GAUSSIAN, KERNELS, UNIFORM, Kernel, get_kernel
from .models import (
    ConstantResponse,
    MODEL_NAMES,
    Model,
    UniformQuadraticGauss,
    UniformRademacher,
    get_model,
    truth,
)
from .quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec, integrate_1d
from .ratefn import (
    CumulantContext,
    EstimatorKind,
    GridTooNarrowError,
    ModerateRate,
    RootNotBracketedError,
    conjugate_oracle,
    cumulant,
    cumulant_derivatives,
    invert_slope,
    large_deviation_rate,
    moderate_factor,
    moderate_rate,
    rate_point,
)
from .schedules import (
    ScheduleConfig,
    ValidationError,
    Violation,
    validate_exponents,
)

__version__ = "0.1.0"

__all__ = [
    "EstimatorState",
    "nadaraya_watson",
    "ExperimentPlan",
    "Report",
    "averaged_sigma2",
    "run_bias_experiment",
    "run_mdp_experiment",
    "run_tail_experiment",
    "run_variance_experiment",
    "EPANECHNIKOV",
    "GAUSSIAN",
    "KERNELS",
    "UNIFORM",
    "Kernel",
    "get_kernel",
    "ConstantResponse",
    "MODEL_NAMES",
    "Model",
    "UniformQuadraticGauss",
    "UniformRademacher",
    "get_model",
    "truth",
    "DEFAULT_SPEC",
    "NonConvergenceError",
    "QuadratureSpec",
    "integrate_1d",
    "CumulantContext",
    "EstimatorKind",
    "GridTooNarrowError",
    "ModerateRate",
    "RootNotBracketedError",
    "conjugate_oracle",
    "cumulant",
    "cumulant_derivatives",
    "invert_slope",
    "large_deviation_rate",
    "moderate_factor",
    "moderate_rate",
    "rate_point",
    "ScheduleConfig",
    "ValidationError",
    "Violation",
    "validate_exponents",
    "__version__",
]
