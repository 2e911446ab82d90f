"""Tilted importance sampling for rare corner events under copula models."""

from .benchmarks import BenchmarkCase, benchmark_keys, format_comparison, get_case, run_case
from .copulas import (
    CopulaSpec,
    CornerEvent,
    RVineSpec,
    latent_thresholds,
    load_vine,
    parse_vine,
    vine_preset,
)
from .errors import (
    ConfigError,
    DegeneratePilotError,
    DomainError,
    ParameterError,
    ShapeError,
    SolverError,
    TailTiltError,
)
from .estimators import (
    EstimateResult,
    ExperimentConfig,
    replicate,
    sd_eff,
    solve_event_theta,
    wnrv,
)
from .oracle import (
    clayton_corner_prob,
    rect_prob_gaussian,
    rect_prob_t,
    vine_corner_prob,
)
from .randkit import MarginSpec, make_stream
from .tilting import TiltFamily, TiltSolution, sample_tilted, solve_theta_saa

__version__ = "0.1.0"

__all__ = [
    "BenchmarkCase",
    "ConfigError",
    "CopulaSpec",
    "CornerEvent",
    "DegeneratePilotError",
    "DomainError",
    "EstimateResult",
    "ExperimentConfig",
    "MarginSpec",
    "ParameterError",
    "RVineSpec",
    "ShapeError",
    "SolverError",
    "TailTiltError",
    "TiltFamily",
    "TiltSolution",
    "benchmark_keys",
    "clayton_corner_prob",
    "format_comparison",
    "get_case",
    "latent_thresholds",
    "load_vine",
    "make_stream",
    "parse_vine",
    "rect_prob_gaussian",
    "rect_prob_t",
    "replicate",
    "run_case",
    "sample_tilted",
    "sd_eff",
    "solve_event_theta",
    "solve_theta_saa",
    "vine_corner_prob",
    "vine_preset",
    "wnrv",
    "__version__",
]
