"""Bayesian identification of elastoplastic parameters from tension tests.

Measured stress-strain pairs from uniaxial tension are combined with a
truncated normal prior to infer the parameters of four material models:
linear elastic, linear elastic perfectly plastic, and elastoplastic with
linear or nonlinear (power-law) isotropic hardening. Measurement noise is
either on the stress alone or on both stress and strain; the latter
marginalizes the unobserved true strain, in closed form where the response
is piecewise affine and by quadrature for the implicit power-law model.
"""

from .data import (
    MeasurementSet,
    NoiseSpec,
    SpecimenPopulation,
    draw_specimens,
    generate_double_noise,
    generate_single_noise,
    read_measurements,
    write_measurements,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .likelihood import QuadratureSpec, log_likelihood
from .models import ModelKind, ParameterVector, stress, stress_lenh
from .posterior import AnalyticLEPosterior, LogPosterior, analytic_le_posterior
from .priors import TruncatedNormalPrior
from .sampler import (
    Chain,
    ChainSummary,
    ConvergenceTrace,
    CredibleRegion,
    SamplerConfig,
    convergence_trace,
    credible_region,
    effective_sample_size,
    load_chain,
    response_band,
    run_adaptive_mh,
    run_mh,
    save_chain,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticLEPosterior",
    "Chain",
    "ChainSummary",
    "ConfigurationError",
    "ConvergenceTrace",
    "CredibleRegion",
    "DomainError",
    "LogPosterior",
    "MeasurementSet",
    "ModelKind",
    "NoiseSpec",
    "NumericalError",
    "ParameterVector",
    "QuadratureSpec",
    "SamplerConfig",
    "SpecimenPopulation",
    "TruncatedNormalPrior",
    "analytic_le_posterior",
    "convergence_trace",
    "credible_region",
    "draw_specimens",
    "effective_sample_size",
    "generate_double_noise",
    "generate_single_noise",
    "load_chain",
    "log_likelihood",
    "read_measurements",
    "response_band",
    "run_adaptive_mh",
    "run_mh",
    "save_chain",
    "stress",
    "stress_lenh",
    "summarize",
    "write_measurements",
    "__version__",
]
