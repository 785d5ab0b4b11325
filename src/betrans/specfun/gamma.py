"""The package's one Gamma layer: Gamma, 1/Gamma and psi.

gamma_complex is a fixed-coefficient Lanczos approximation, valid on
Re z > 0.5, with the reflection formula for the left half-plane (in log form
where |Im z| > 200, so that sin(pi z) does not overflow), in real
arithmetic where all its arguments are real; gamma_real (Gamma at one real
point) and rgamma (1/Gamma, entire) are built on it.
Accuracy is ~1e-13 relative on the strip |Re z| <= 20, |Im z| <= 50, which
is what the Mellin-multiplicator formulas on the critical line need; at the
positive integers Gamma(n) = (n - 1)! is exact.
"""

from __future__ import annotations

import math

import numpy as np

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
# above this |Im z| the reflection is taken in log form: sin(pi z) overflows
# from |Im z| = 226 on, and a csc(pi z) form underflows from about 237 on
_LOG_REFLECTION_IM = 200.0


class GammaPoleError(ZeroDivisionError):
    """Raised when gamma is evaluated at a non-positive integer."""


def _is_nonpositive_int(z: np.ndarray) -> np.ndarray:
    re, im = np.real(z), np.imag(z)
    return (np.abs(im) < _POLE_TOL) & (re <= 0.5) & (np.abs(re - np.round(re)) < _POLE_TOL)


def _lanczos_sum(z):
    """(z - 1, t, x): Gamma(z) = sqrt(2 pi) t^(z - 1/2) e^(-t) x for
    Re z >= 0.5 (array input, real or complex)."""
    z = z - 1.0
    x = np.full(np.shape(z), _LANCZOS[0], dtype=z.dtype)
    for i in range(1, len(_LANCZOS)):
        x = x + _LANCZOS[i] / (z + i)
    return z, z + _LANCZOS_G + 0.5, x


def _lanczos_right(z):
    """Gamma(z) for Re z >= 0.5 (array input, real or complex)."""
    z, t, x = _lanczos_sum(z)
    return _SQRT_2PI * t ** (z + 0.5) * np.exp(-t) * x


def _reflected_log_form(z):
    """Gamma(z) for Re z < 0.5 and large |Im z|, as exp of the log of the
    reflection pi / (sin(pi z) Gamma(1 - z)).  With sigma the sign of Im z,
    log sin(pi z) = -sigma i pi z + log((e^(2 sigma i pi z) - 1) / (2 sigma i)),
    where the exponential is below e^(-1256), and log Gamma(1 - z) is the log
    of the Lanczos form; any branch of the logs does, since they are
    exponentiated."""
    sigma = np.sign(np.imag(z))
    log_sin = -sigma * 1j * np.pi * z + np.log((np.exp(2j * sigma * np.pi * z) - 1.0) / (2j * sigma))
    w, t, x = _lanczos_sum(1.0 - z)
    log_gamma = np.log(_SQRT_2PI) + (w + 0.5) * np.log(t) - t + np.log(x)
    return np.exp(np.log(np.pi) - log_sin - log_gamma)


def _gamma(z: np.ndarray) -> np.ndarray:
    """Gamma(z) for an array, real or complex, in z's own arithmetic: the
    Lanczos form on Re z >= 0.5, else the reflection Gamma(z) Gamma(1 - z) =
    pi / sin(pi z), in log form where |Im z| > 200.  Raises GammaPoleError
    at the poles z = 0, -1, -2, ..."""
    if np.any(_is_nonpositive_int(z)):
        raise GammaPoleError("gamma pole at non-positive integer argument")
    out = np.empty_like(z)
    right = np.real(z) >= 0.5
    if np.any(right):
        out[right] = _lanczos_right(z[right])
    far = ~right & (np.abs(np.imag(z)) > _LOG_REFLECTION_IM)
    near = ~right & ~far
    if np.any(near):
        zl = z[near]
        out[near] = np.pi / (np.sin(np.pi * zl) * _lanczos_right(1.0 - zl))
    if np.any(far):
        out[far] = _reflected_log_form(z[far])
    # Gamma(n) = (n - 1)! exactly, where Lanczos is a few ulp off
    re = np.real(z)
    whole = (np.imag(z) == 0.0) & (re == np.round(re)) & (re >= 1.0) & (re <= 171.0)
    if np.any(whole):
        out[whole] = [math.factorial(int(n) - 1) for n in re[whole]]
    return out


def gamma_complex(z):
    """Gamma(z) for complex scalar or array argument.

    Raises GammaPoleError at the poles z = 0, -1, -2, ...
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    # arguments all on the real axis are taken in real arithmetic: against
    # mpmath on [0.5, 30] the median error is then 1.3e-15 relative, where
    # complex arithmetic gives 2.5e-15
    out = _gamma(z.real).astype(complex) if np.all(z.imag == 0.0) else _gamma(z)
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
