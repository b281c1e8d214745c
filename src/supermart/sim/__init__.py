"""Path generation: Galton-Watson, multitype CSBP, and the spine sampler."""

from .records import Ensemble, SimConfig, SpineConfig, check_x0
from .gw import simulate_gw
from .csbp import auto_epsilon, simulate_csbp
from .spine import SpineResult, simulate_spine, tilted_generator

__all__ = [
    "SimConfig",
    "SpineConfig",
    "Ensemble",
    "check_x0",
    "simulate_gw",
    "simulate_csbp",
    "auto_epsilon",
    "simulate_spine",
    "tilted_generator",
    "SpineResult",
]
