"""Special-function substrate: the Gamma layer, Legendre functions, Bessel."""

from .bessel import bessel_j, bessel_j_normalized
from .gamma import GammaPoleError, digamma_real, gamma_complex, gamma_real, rgamma
from .legendre import (
    DomainError,
    SeriesConvergenceError,
    SingularityError,
    legendre_p,
    legendre_p_assoc,
    legendre_q,
    legendre_q1,
)

__all__ = [
    "GammaPoleError",
    "DomainError",
    "SingularityError",
    "SeriesConvergenceError",
    "gamma_complex",
    "gamma_real",
    "rgamma",
    "digamma_real",
    "legendre_p",
    "legendre_p_assoc",
    "legendre_q",
    "legendre_q1",
    "bessel_j",
    "bessel_j_normalized",
]
