"""Total least squares phase retrieval.

Recovers a complex signal x from quadratic measurements y_m ~ |<a_m, x>|^2
when both the measurements and the sensing vectors a_m carry errors, by
alternating closed-form sensing-vector corrections with Wirtinger gradient
steps.  Ships the least squares (Wirtinger flow) baseline, first-order
reconstruction-error predictors, and a seeded simulation harness.
"""

from .analysis import (
    ErrorAnalysisInputs,
    ErrorPrediction,
    IllConditionedError,
    expected_squared_errors,
    finite_difference_jacobians,
    first_order_errors,
    ml_parameters,
)
from .core import (
    MeasurementSet,
    SensingEnsemble,
    complex_gaussian_vector,
    inner,
    make_rng,
    trial_rng,
)
from .correction import (
    CorrectionParams,
    CorrectionResult,
    correct_sensing_vector,
    reconstruct_from_nu,
)
from .cubic import all_roots
from .metrics import dist, recon_snr_db, rel_corr, rel_dist
from .models import CdpConfig, cdp_ensemble, gaussian_ensemble, synthesize_measurements
from .noise import NoiseSpec, inject
from .serialization import load, save
from .solvers import (
    SolveResult,
    SolverConfig,
    SolverError,
    ls_gradient,
    objective_ls,
    objective_tls,
    project_real_binary,
    solve_ls,
    solve_tls,
    spectral_init,
)

__version__ = "0.1.0"

__all__ = [
    "CdpConfig",
    "CorrectionParams",
    "CorrectionResult",
    "ErrorAnalysisInputs",
    "ErrorPrediction",
    "IllConditionedError",
    "MeasurementSet",
    "NoiseSpec",
    "SensingEnsemble",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "all_roots",
    "cdp_ensemble",
    "complex_gaussian_vector",
    "correct_sensing_vector",
    "dist",
    "expected_squared_errors",
    "finite_difference_jacobians",
    "first_order_errors",
    "gaussian_ensemble",
    "inject",
    "inner",
    "load",
    "ls_gradient",
    "make_rng",
    "ml_parameters",
    "objective_ls",
    "objective_tls",
    "project_real_binary",
    "recon_snr_db",
    "reconstruct_from_nu",
    "rel_corr",
    "rel_dist",
    "save",
    "solve_ls",
    "solve_tls",
    "spectral_init",
    "synthesize_measurements",
    "trial_rng",
]
