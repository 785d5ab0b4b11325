"""The package's one Gamma layer: Gamma, 1/Gamma and psi.

gamma_complex is a fixed-coefficient Lanczos approximation, valid on
Re z > 0.5, with the reflection formula for the left half-plane; gamma_real
(Gamma at one real point) and rgamma (1/Gamma, entire) are built on it.
Accuracy is ~1e-13 relative on the strip |Re z| <= 20, |Im z| <= 50, which
is what the Mellin-multiplicator formulas on the critical line need; at the
positive integers Gamma(n) = (n - 1)! is exact.
"""

from __future__ import annotations

import numpy as np
from scipy.special import factorial

__all__ = ["GammaPoleError", "gamma_complex", "gamma_real", "rgamma", "digamma_real"]

# Lanczos g=7, 9-term coefficient set.
_LANCZOS_G = 7.0
_LANCZOS = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

_SQRT_2PI = 2.5066282746310002
_POLE_TOL = 1e-13


class GammaPoleError(ZeroDivisionError):
    """Raised when gamma is evaluated at a non-positive integer."""


def _is_nonpositive_int(z: np.ndarray) -> np.ndarray:
    re, im = np.real(z), np.imag(z)
    return (np.abs(im) < _POLE_TOL) & (re <= 0.5) & (np.abs(re - np.round(re)) < _POLE_TOL)


def _lanczos_right(z):
    """Gamma(z) for Re z >= 0.5 (array input, complex)."""
    z = z - 1.0
    x = np.full(np.shape(z), _LANCZOS[0], dtype=complex)
    for i in range(1, len(_LANCZOS)):
        x = x + _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * np.exp(-t) * x


def gamma_complex(z):
    """Gamma(z) for complex scalar or array argument.

    Raises GammaPoleError at the poles z = 0, -1, -2, ...
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(_is_nonpositive_int(z)):
        raise GammaPoleError("gamma pole at non-positive integer argument")

    out = np.empty(z.shape, dtype=complex)
    right = np.real(z) >= 0.5
    if np.any(right):
        out[right] = _lanczos_right(z[right])
    if np.any(~right):
        zl = z[~right]
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        out[~right] = np.pi / (np.sin(np.pi * zl) * _lanczos_right(1.0 - zl))
    # Gamma(n) = (n - 1)! exactly, where Lanczos is a few ulp off
    re = np.real(z)
    whole = (np.imag(z) == 0.0) & (re == np.round(re)) & (re >= 1.0) & (re <= 171.0)
    if np.any(whole):
        out[whole] = [factorial(int(n) - 1, exact=True) for n in re[whole]]
    return out[0] if scalar else out


def gamma_real(x: float) -> float:
    """Gamma(x) at one real point x; raises GammaPoleError at the poles."""
    return float(np.real(gamma_complex(complex(x))))


def rgamma(z):
    """1/Gamma(z), entire: zero at the poles z = 0, -1, -2, ...

    Real for real input, complex otherwise, and shaped like z.
    """
    real = np.isrealobj(z)
    z = np.asarray(z, dtype=complex)
    pole = _is_nonpositive_int(z)
    out = np.zeros(z.shape, dtype=float if real else complex)
    if not np.all(pole):
        vals = 1.0 / gamma_complex(z[~pole])
        out[~pole] = np.real(vals) if real else vals
    return out[()]


def digamma_real(x: float) -> float:
    """psi(x) for real non-pole x, by asymptotic series after upward recurrence."""
    x = float(x)
    if abs(x - round(x)) < _POLE_TOL and x <= 0:
        raise GammaPoleError("digamma pole at non-positive integer argument")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    # asymptotic expansion with B_2k / (2k x^{2k}) terms through k = 7: at
    # x >= 10 the first omitted term is below 5e-17
    inv2 = 1.0 / (x * x)
    series = 1.0 / 12.0 - inv2 * (
        1.0 / 120.0
        - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))))
    )
    return acc + np.log(x) - 0.5 / x - inv2 * series
