"""Copula families, conditional distribution functions, and vine structures."""

from .models import (
    CopulaSpec,
    CornerEvent,
    event_uniform_thresholds,
    latent_thresholds,
    rosenblatt_forward,
    rosenblatt_inverse,
    sample_copula_uniforms,
)
from .pairs import PairCopula, h_func, h_inv
from .vines import (
    RVineSpec,
    VineEdge,
    load_vine,
    parse_vine,
    sample_vine_uniforms,
    vine_preset,
    vine_rosenblatt_forward,
    vine_rosenblatt_inverse,
)

__all__ = [
    "CopulaSpec",
    "CornerEvent",
    "PairCopula",
    "RVineSpec",
    "VineEdge",
    "event_uniform_thresholds",
    "h_func",
    "h_inv",
    "latent_thresholds",
    "load_vine",
    "parse_vine",
    "rosenblatt_forward",
    "rosenblatt_inverse",
    "sample_copula_uniforms",
    "sample_vine_uniforms",
    "vine_preset",
    "vine_rosenblatt_forward",
    "vine_rosenblatt_inverse",
]
