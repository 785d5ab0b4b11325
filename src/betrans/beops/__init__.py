"""Buschman-Erdelyi operator families and the operator-spec grammar."""

from __future__ import annotations

from ..numgrid import SampledFunction
from .first_kind import apply_first_kind
from .katrakhov import apply_katrakhov
from .second_kind import apply_second_kind, apply_second_kind_2param
from .specs import OperatorSpec, OperatorSpecError, format_operator, parse_operator
from .transforms import (
    apply_weighted_third,
    default_spectral_grid,
    fourier_cosine,
    fourier_sine,
    hankel,
    hankel_inverse,
    weight_function,
)
from .zero_order import apply_zero_order

__all__ = [
    "OperatorSpec",
    "OperatorSpecError",
    "parse_operator",
    "format_operator",
    "apply",
    "apply_first_kind",
    "apply_zero_order",
    "apply_second_kind",
    "apply_second_kind_2param",
    "apply_katrakhov",
    "apply_weighted_third",
    "fourier_sine",
    "fourier_cosine",
    "hankel",
    "hankel_inverse",
    "default_spectral_grid",
    "weight_function",
]


def apply(spec: OperatorSpec, f: SampledFunction, **kwargs) -> SampledFunction:
    """Apply the operator described by spec, through its catalog row."""
    from ..catalog import BY_NAME

    return BY_NAME[spec.family].apply(spec, f, **kwargs)
