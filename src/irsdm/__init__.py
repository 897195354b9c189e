"""Secrecy-rate maximization for a reflecting-surface-aided MIMO wiretap link."""

from .model import (
    ChannelSet,
    Geometry,
    SystemConfig,
    build_channels,
    build_geometry,
    dbm_to_watts,
    parallel_irs_angle,
    path_loss,
    steering_vector,
)
from .rates import (
    ChannelTerms,
    DerivedModel,
    Precoders,
    an_projector,
    derived_model,
    rate_bob,
    rate_eve,
    secrecy_rate,
)
from .gai import GaOptions, Solution, run_gai
from .nsp import NspOptions, run_nsp
from .bench import (
    ExperimentResult,
    Scheme,
    convergence_trace,
    run_scheme,
    sweep_sr_vs_m,
    sweep_sr_vs_position,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "ChannelTerms",
    "DerivedModel",
    "ExperimentResult",
    "GaOptions",
    "Geometry",
    "NspOptions",
    "Precoders",
    "Scheme",
    "Solution",
    "SystemConfig",
    "an_projector",
    "build_channels",
    "build_geometry",
    "convergence_trace",
    "dbm_to_watts",
    "derived_model",
    "parallel_irs_angle",
    "path_loss",
    "rate_bob",
    "rate_eve",
    "run_gai",
    "run_nsp",
    "run_scheme",
    "secrecy_rate",
    "steering_vector",
    "sweep_sr_vs_m",
    "sweep_sr_vs_position",
]
