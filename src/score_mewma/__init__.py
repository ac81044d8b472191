"""Score-based MEWMA monitoring of multistage procedures with binary outcomes.

The package models a procedure as a DAG of logistic regressions, computes
per-patient likelihood scores and Fisher information, runs a multivariate
EWMA chart on the scores, calibrates its control limit to a target in-control
average run length by Monte Carlo, and reproduces shift-injection run-length
studies.
"""

from .calibrate import ArlResult, CalibrationResult, calibrate_h, estimate_arl
from .chart import ChartConfig, MewmaState, init_state, run_stream, sigma_w_closed_form, update
from .errors import (
    CalibrationError,
    DataFormatError,
    FitError,
    ModelConfigError,
    ScoreMewmaError,
    SeparationError,
    ShiftError,
    SingularMatrixError,
)
from .likelihood import (
    FitResult,
    ScoreCovariance,
    expected_score_covariance,
    fisher_information,
    fit_mle,
    inverse_sqrt_psd,
    log_likelihood,
    per_record_scores,
    score,
    standardized_cumulative_score,
)
from .mc import PatientGenerator, replication_rng, resolve_threads, sample_patients
from .model import (
    CovariateModel,
    DagModelSpec,
    Model,
    NodeSpec,
    ParamVector,
    PatientData,
    PatientRecord,
    default_delivery_model,
    enumerate_patients,
    linear_predictor,
    mean_response,
    model_from_dict,
    model_hash,
    model_to_dict,
    parse_model_spec,
    serialize_model_spec,
)
from .shifts import (
    ShiftSpec,
    StudyGrid,
    StudyRow,
    apply_shift,
    in_control_generator,
    run_arl_study,
    run_pair_study,
)
from .version import __version__

__all__ = [
    "ArlResult",
    "CalibrationError",
    "CalibrationResult",
    "ChartConfig",
    "CovariateModel",
    "DagModelSpec",
    "DataFormatError",
    "FitError",
    "FitResult",
    "MewmaState",
    "Model",
    "ModelConfigError",
    "NodeSpec",
    "ParamVector",
    "PatientData",
    "PatientGenerator",
    "PatientRecord",
    "ScoreCovariance",
    "ScoreMewmaError",
    "SeparationError",
    "ShiftError",
    "ShiftSpec",
    "SingularMatrixError",
    "StudyGrid",
    "StudyRow",
    "__version__",
    "apply_shift",
    "calibrate_h",
    "default_delivery_model",
    "enumerate_patients",
    "estimate_arl",
    "expected_score_covariance",
    "fisher_information",
    "fit_mle",
    "in_control_generator",
    "init_state",
    "inverse_sqrt_psd",
    "linear_predictor",
    "log_likelihood",
    "mean_response",
    "model_from_dict",
    "model_hash",
    "model_to_dict",
    "parse_model_spec",
    "per_record_scores",
    "replication_rng",
    "resolve_threads",
    "run_arl_study",
    "run_pair_study",
    "run_stream",
    "sample_patients",
    "score",
    "serialize_model_spec",
    "sigma_w_closed_form",
    "standardized_cumulative_score",
    "update",
]
