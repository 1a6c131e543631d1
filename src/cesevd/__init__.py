"""Asymptotics of the eigendecomposition of robust scatter estimators for complex elliptical data."""

from .asymptotics import (
    AsymptoticCoeffs,
    coeffs_closed_form_student,
    coeffs_numeric,
    eigen_perturbation_first_order,
    eigenvalue_cov,
    eigenvalue_cov_trace,
    eigenvector_cov_xi,
    eigenvector_cov_xi_trace,
    gcwe_scatter_cov,
    scatter_cov,
)
from .errors import (
    CalibrationError,
    CampaignError,
    CesEvdError,
    CoefficientError,
    ConfigError,
    ConvergenceError,
    DegeneracyError,
    DegenerateFilterError,
    DomainError,
    InputError,
    NumericError,
    SizeGuardError,
)
from .estimators import (
    MEstimatorSpec,
    SolverOptions,
    fixed_point_solve,
    fixed_point_solve_stack,
    gaussian_spec,
    scm,
    solve_sigma,
    student_spec,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    config_from_mapping,
    parse_config_file,
    read_csv,
    render_svg,
    run_experiment,
    write_csv,
)
from .linalg import (
    EvdResult,
    HermitianMatrix,
    commutation,
    hermitian_evd,
    kron,
    phase_align,
    spd_function,
    toeplitz_scatter,
    vec,
)
from .lowrank import (
    FactorModel,
    build_factor_model,
    principal_projector,
    projector_cov_sigma_pi,
    projector_perturbation_first_order,
    snr_loss,
    snr_loss_theory,
    steering_vector,
)
from .riemannian import (
    IntrinsicBound,
    ab_crlb,
    alpha_beta,
    biased_crlb_scm,
    ces_crb,
    digamma,
    eta,
    nat_distance,
    riemannian_logmap,
    whitened_spectrum,
)
from .sampling import (
    CesDistribution,
    CoupledSample,
    RandomStream,
    modular_variate_sample,
    sample_coupled,
)

__version__ = "0.1.0"
