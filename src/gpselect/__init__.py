"""Bayesian variable selection and kriging prediction for semiparametric
Gaussian process regression.

The model is y(x) = beta0 + x' beta + Z(x) + eps(x) with a separable
Gaussian correlation for Z and a nugget ratio lambda. Spike-and-slab priors
select, per covariate, whether it enters the linear trend and/or the spatial
correlation; a Metropolis-Hastings sampler explores models and parameters
jointly; predictions come either from model averaging or from a plug-in
maximum-likelihood kriging fit of a selected model.
"""

from .data import Dataset, export_csv, ingest
from .design import LhdDesign, maximin_lhd, rmspe, sim_response
from .errors import (
    DimensionMismatchError,
    EmptyEnsembleError,
    GpSelectError,
    InvalidStateError,
    NumericalSingularityError,
    OptimizationFailureError,
    TransformError,
    ValidationError,
)
from .kernel import GpFactor, correlation, log_likelihood
from .model import (
    LAMBDA_FLOOR,
    ModelIndicator,
    ParameterState,
    PriorConfig,
    TransformedState,
    from_unconstrained,
    log_jacobian,
    log_posterior,
    log_prior,
    to_unconstrained,
)
from .predict import (
    MleFit,
    PredictionRequest,
    conditional_mean,
    fit_mle,
    model_average,
    predict_mle,
)
from .sampler import (
    Chain,
    SamplerConfig,
    accept_probability,
    load_chain,
    propose,
    run_chain,
    save_chain,
)
from .select import (
    CvReport,
    InclusionReport,
    candidate_ladder,
    cross_validate,
    inclusion_probabilities,
    map_model,
    threshold_model,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "CvReport",
    "Dataset",
    "DimensionMismatchError",
    "EmptyEnsembleError",
    "GpFactor",
    "GpSelectError",
    "InclusionReport",
    "InvalidStateError",
    "LAMBDA_FLOOR",
    "LhdDesign",
    "MleFit",
    "ModelIndicator",
    "NumericalSingularityError",
    "OptimizationFailureError",
    "ParameterState",
    "PredictionRequest",
    "PriorConfig",
    "SamplerConfig",
    "TransformError",
    "TransformedState",
    "ValidationError",
    "accept_probability",
    "candidate_ladder",
    "conditional_mean",
    "correlation",
    "cross_validate",
    "export_csv",
    "fit_mle",
    "from_unconstrained",
    "inclusion_probabilities",
    "ingest",
    "load_chain",
    "log_jacobian",
    "log_likelihood",
    "log_posterior",
    "log_prior",
    "map_model",
    "maximin_lhd",
    "model_average",
    "predict_mle",
    "propose",
    "rmspe",
    "run_chain",
    "save_chain",
    "sim_response",
    "threshold_model",
    "to_unconstrained",
]
