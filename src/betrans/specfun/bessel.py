"""Bessel functions of the first kind and the normalized variant j_nu.

J_nu is delegated to scipy's well-tested implementation through one
gateway, jv, the package's only use of scipy: it imports scipy.special at
its first call, so that importing the package loads no scipy.  The
normalized function j_nu(x) = 2^nu Gamma(nu+1) J_nu(x) / x^nu is evaluated
by its ascending series near the origin so that j_nu(0) = 1 holds exactly.
"""

from __future__ import annotations

import numpy as np

from .gamma import gamma_real

__all__ = ["bessel_j", "bessel_j_normalized", "jv"]

_SERIES_SWITCH = 0.5


def jv(nu, x, out=None):
    """J_nu(x), scipy.special.jv's (a ufunc: broadcasts, writes to out if
    given)."""
    from scipy.special import jv as scipy_jv

    return scipy_jv(nu, x, out=out)


def bessel_j(nu: float, x):
    """J_nu(x) for x >= 0, nu >= 0."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("bessel_j requires x >= 0")
    if nu < 0:
        raise ValueError("bessel_j requires nu >= 0")
    out = jv(nu, x_arr)
    return float(out) if np.ndim(x) == 0 else out


def _jnorm_series(nu: float, x: np.ndarray) -> np.ndarray:
    q = -0.25 * x * x
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(40):
        term = term * q / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if np.all(np.abs(term) <= 1e-17):
            break
    return total


def bessel_j_normalized(nu: float, x):
    """j_nu(x) = 2^nu Gamma(nu+1) J_nu(x) / x^nu, with j_nu(0) = 1."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr).astype(float)
    if np.any(x_arr < 0):
        raise ValueError("bessel_j_normalized requires x >= 0")
    out = np.empty_like(x_arr)
    small = np.abs(x_arr) < _SERIES_SWITCH
    if np.any(small):
        out[small] = _jnorm_series(nu, x_arr[small])
    if np.any(~small):
        xl = x_arr[~small]
        c = 2.0**nu * gamma_real(nu + 1.0)
        out[~small] = c * jv(nu, xl) / xl**nu
    return float(out[0]) if scalar else out
