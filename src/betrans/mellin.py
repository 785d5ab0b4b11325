"""Numerical Mellin transform, the closed-form Mellin symbols, operator
norms as critical-line suprema, and operators applied through their symbol.

Every zero-order-smoothness operator, the second- and third-kind families,
the Stieltjes transform, and the elementary Hardy-type operators act as
Mellin convolutions: M[Af](s) = m(s) M[f](s).  This module owns the
quadrature (mellin_numeric, measured_multiplicator), the closed forms m
(m_zero_order ... m_spd: gamma and trigonometric factors), the numeric
critical-line sup, and the functional equation.  line_apply applies a
symbol on Re s = 1/2 by FFT, on a grid uniform in log x, to operands with
x^(1/2) f negligible at both hull ends: the evaluation path independent of
the plans.  Which family has which symbol, strip and closed-form norm is
the operator catalog's (betrans.catalog); multiplicator, admissible_strip,
operator_norm and line_apply look the spec's family up there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numgrid import EDGE_BLOCK, GridError, SampledFunction, edge_fit, head_model, log_uniform
from .specfun import gamma_complex, rgamma

__all__ = [
    "MellinSamples",
    "CatalogError",
    "FormulaPoleError",
    "StripViolationError",
    "mellin_numeric",
    "multiplicator",
    "admissible_strip",
    "operator_norm",
    "numeric_line_sup",
    "measured_multiplicator",
    "line_apply",
]

UNBOUNDED_TOL = 1e-12  # norm-denominator threshold reporting +inf


class CatalogError(KeyError):
    pass


class FormulaPoleError(ZeroDivisionError):
    pass


class StripViolationError(ValueError):
    pass


# ----------------------------------------------------------------------
# numerical Mellin transform
# ----------------------------------------------------------------------


@dataclass
class MellinSamples:
    line_re: float
    u_points: np.ndarray
    values: np.ndarray
    degraded: bool = False


def mellin_numeric(f: SampledFunction, sigma: float, u_points) -> MellinSamples:
    """M f(sigma + iu) by quadrature in the log coordinate.

    Beyond the hull the integral is completed in closed form by the edge fit
    (numgrid.edge_fit) of the samples at each end: at the head the power law
    c x^p that the first samples follow, or the head model
    (numgrid.head_model) where that carries a logarithm, where no power law
    follows or where the exponent is near 0; at the tail the power law that
    the decay hint declares, else, unless the hint declares compact support
    or |f(b)| b^sigma is negligible, the power law the last samples follow.
    A tail that no power law follows is left out and the result is flagged
    degraded, as it is once |u| exceeds the sampling limit of the grid.
    """
    u = np.atleast_1d(np.asarray(u_points, dtype=float))
    grid = f.grid
    x = grid.points
    a, b = grid.hull
    tau = np.log(x)
    w_tau = grid.weights / x if grid.spacing == "log" else None
    if w_tau is None:
        # linear grid: integrate x^{s-1} f directly
        core = (grid.weights * f.values)[None, :] * x[None, :] ** (sigma - 1.0 + 1j * u[:, None])
        vals = np.sum(core, axis=1)
    else:
        phase = np.exp((sigma + 1j * u[:, None]) * tau[None, :])
        vals = phase @ (w_tau * f.values)

    s = sigma + 1j * u

    # head completion on (0, a): the edge fit's power law, else the head
    # model in closed form
    coef = head_model(f)
    fit = None if np.any(coef[1::2]) else edge_fit(x[:EDGE_BLOCK], f.values[:EDGE_BLOCK])
    if fit is not None and abs(fit[2]) >= 0.02:
        _, c, p = fit
        if sigma + p <= 0:
            raise StripViolationError("x^(sigma-1) f is not integrable at 0 for this sigma")
        vals = vals + c * a ** (s + p) / (s + p)
    else:
        c, d = coef.reshape(3, 2).T
        if max(abs(c[0]), abs(d[0])) > 1e-140 and sigma <= 0:
            raise StripViolationError("x^(sigma-1) f is not integrable at 0 for this sigma")
        sk = s[:, None] + np.arange(3.0)
        vals = vals + a**s * np.sum(c / sk - d / sk**2, axis=1)

    # tail completion beyond b: a declared power law through the last
    # sample, else the edge fit's
    hint = f.decay_hint
    fb = float(f.values[-1])
    fit, degraded = None, False
    if hint is not None and hint.kind == "power":
        fit = "power", fb * b**hint.p, -hint.p
    elif (hint is None or hint.kind == "exponential") and abs(fb) * b**sigma > 1e-12:
        fit = edge_fit(x[: -EDGE_BLOCK - 1 : -1], f.values[: -EDGE_BLOCK - 1 : -1])
        degraded = fit is None
    if fit is not None:
        _, c, p = fit
        if sigma + p >= 0:
            raise StripViolationError("x^(sigma-1) f is not integrable at infinity")
        vals = vals - c * b ** (s + p) / (s + p)
    if grid.spacing == "log":
        u_max = 0.5 * np.pi / (tau[1] - tau[0])
        if np.any(np.abs(u) > u_max):
            degraded = True
    return MellinSamples(line_re=sigma, u_points=u, values=vals, degraded=degraded)


def measured_multiplicator(f: SampledFunction, af: SampledFunction, sigma: float, u_points):
    """M[Af](s) / M[f](s) at s = sigma + iu: the operator's measured symbol."""
    num = mellin_numeric(af, sigma, u_points)
    den = mellin_numeric(f, sigma, u_points)
    return num.values / den.values


# ----------------------------------------------------------------------
# closed-form multiplicators
# ----------------------------------------------------------------------


def m_zero_order(variant: str, nu, s):
    """Multiplicators of the four zero-order-smoothness operators."""
    s = np.asarray(s, dtype=complex)
    nu = complex(nu)
    if variant == "S0+":
        num = gamma_complex(-s / 2 + nu / 2 + 1) * gamma_complex(-s / 2 - nu / 2 + 0.5)
        return num * rgamma(0.5 - s / 2) * rgamma(1 - s / 2)
    if variant == "P0+":
        num = gamma_complex(0.5 - s / 2) * gamma_complex(1 - s / 2)
        return num * rgamma(-s / 2 + nu / 2 + 1) * rgamma(-s / 2 - nu / 2 + 0.5)
    if variant == "S-":
        num = gamma_complex(s / 2) * gamma_complex(s / 2 + 0.5)
        return num * rgamma(s / 2 + nu / 2 + 0.5) * rgamma(s / 2 - nu / 2)
    if variant == "P-":
        num = gamma_complex(s / 2 + nu / 2 + 0.5) * gamma_complex(s / 2 - nu / 2)
        return num * rgamma(s / 2) * rgamma(s / 2 + 0.5)
    raise CatalogError(f"unknown zero-order variant {variant!r}")


def m_second_kind(variant: str, nu, s):
    """Second-kind symbols: m_S is the period-2 factor -cot(pi (s - nu)/2)
    times the zero-order symbol m_S-.

    Evaluated in the pole-free combined form (the factor's pole cancels a
    zero of the gamma ratio on the degenerate set cos(pi s) = cos(pi nu)):
    m_S = -Gamma(s/2) Gamma(s/2+1/2) Gamma(1-s/2+nu/2) cos(pi(s-nu)/2)
          / (pi Gamma(s/2+nu/2+1/2)).
    """
    s = np.asarray(s, dtype=complex)
    nu = complex(nu)
    if variant == "S":
        return (
            -gamma_complex(s / 2)
            * gamma_complex(s / 2 + 0.5)
            * gamma_complex(1.0 - s / 2 + nu / 2)
            * np.cos(np.pi * (s - nu) / 2.0)
            * rgamma(s / 2 + nu / 2 + 0.5)
            / np.pi
        )
    if variant == "P":
        # symbol of the adjoint realization: m_P(s) = m_S(1 - s) for real kernels
        return m_second_kind("S", nu, 1.0 - s)
    raise CatalogError(f"unknown second-kind variant {variant!r}")


def m_second_kind_2param(nu, mu, s):
    """Two-parameter second-kind symbol; acts on M[x^(1-mu) f](s)."""
    s = np.asarray(s, dtype=complex)
    nu, mu = complex(nu), float(mu)
    den = np.sin(np.pi * (mu - s)) - np.sin(np.pi * nu)
    if np.any(np.abs(den) < 1e-13):
        raise FormulaPoleError("two-parameter symbol pole")
    trig = (np.cos(np.pi * (mu - s)) - np.cos(np.pi * nu)) / den
    gam = (
        gamma_complex(s / 2)
        * gamma_complex(s / 2 + 0.5)
        * rgamma(s / 2 + (1 - nu - mu) / 2)
        * rgamma(s / 2 + 1 + (nu - mu) / 2)
    )
    return 2.0 ** (mu - 1.0) * trig * gam


def m_katrakhov(variant: str, nu, s):
    s = np.asarray(s, dtype=complex)
    nu = complex(nu)
    kappa = np.cos(np.pi * nu / 2.0)
    tau = np.sin(np.pi * nu / 2.0)
    if variant == "S":
        return kappa * m_zero_order("S-", nu, s) - tau * m_second_kind("S", nu, s)
    if variant == "P":
        # inverse (= adjoint) of the S combination
        return kappa * m_zero_order("P0+", nu, s) - tau * m_second_kind("P", nu, s)
    raise CatalogError(f"unknown katrakhov variant {variant!r}")


def m_stieltjes(s):
    s = np.asarray(s, dtype=complex)
    den = np.sin(np.pi * s)
    if np.any(np.abs(den) < 1e-13):
        raise FormulaPoleError("Stieltjes symbol pole at integer s")
    return np.pi / den


def m_hardy(variant: str, s, shifted: bool = False):
    s = np.asarray(s, dtype=complex)
    m = 1.0 / (1.0 - s) if variant == "H1" else 1.0 / s
    return 1.0 - m if shifted else m


def m_unitary_hardy(variant: str, s):
    s = np.asarray(s, dtype=complex)
    table = {
        "U3": (s - 1.0) / s,
        "U4": s / (s - 1.0),
        "U5": (s - 2.0) / (s + 1.0),
        "U6": (s + 1.0) / (s - 2.0),
        "U7": (s + 1.0) / (s - 2.0),
        "U8": (s - 2.0) / (s + 1.0),
        "U9": (s - 1.0) * (s - 3.0) / (s * (s + 2.0)),
        "U10": s * (s + 2.0) / ((s - 1.0) * (s - 3.0)),
    }
    if variant not in table:
        raise CatalogError(f"unknown unitary-hardy variant {variant!r}")
    return table[variant]


def m_spd(variant: str, nu, s):
    """Symbols of the Sonine-Poisson-Delsarte pair (as-printed normalizations)."""
    s = np.asarray(s, dtype=complex)
    nu = complex(nu)
    if variant == "P":
        num = gamma_complex((1.0 - s) / 2.0) * gamma_complex(nu + 0.5) * rgamma(nu + 1.0) * rgamma(nu + 1.0 - s / 2.0)
        return num / 2.0 ** (nu + 1.0)
    if variant == "S":
        return 2.0 ** (nu + 0.5) * gamma_complex(nu + 1.0 - s / 2.0) * rgamma(0.5 - s / 2.0)
    raise CatalogError(f"unknown spd variant {variant!r}")


def multiplicator(spec, s, enforce_strip: bool = False):
    """Closed-form symbol m(s) of a catalogued Mellin-convolution operator.

    The closed forms analytically continue beyond the raw integral's strip;
    set enforce_strip=True to reject evaluation outside it.
    """
    from .catalog import mellin_row

    row = mellin_row(spec)
    s_arr = np.asarray(s, dtype=complex)
    if enforce_strip:
        lo, hi = admissible_strip(spec)
        re = np.real(s_arr)
        if np.any(re <= lo) or np.any(re >= hi):
            raise StripViolationError(f"Re s outside admissible strip ({lo}, {hi})")
    out = row.symbol(spec, s_arr)
    return complex(np.asarray(out).reshape(-1)[0]) if np.ndim(s) == 0 else out


def admissible_strip(spec) -> tuple[float, float]:
    """(sigma_min, sigma_max) where the defining integral converges."""
    from .catalog import mellin_row

    nu_re = float(np.real(spec.nu)) if spec.nu is not None else 0.0
    return mellin_row(spec).strip(spec.variant, nu_re)


# ----------------------------------------------------------------------
# the symbol applied on the critical line
# ----------------------------------------------------------------------

_LINE_PAD = 4  # line_apply's FFT length, in multiples of the grid size


def line_apply(spec, f: SampledFunction) -> SampledFunction:
    """A catalogued Mellin multiplier applied through its symbol on
    Re s = 1/2, by FFT (FFTLog: Talman 1978, J. Comput. Phys. 29:35;
    Hamilton 2000, MNRAS 312:257).

    With x = e^tau, M f(1/2 - iu) is the Fourier transform of
    g(tau) = e^(tau/2) f(e^tau), so A f = x^(-1/2) F^-1[m(1/2 - iu) F g].
    g's samples, zero-padded to _LINE_PAD n, take rfft, the symbol
    (multiplicator) and irfft, and the first n are untilted.  No kernel and
    no quadrature enter, so this path is independent of the plans.

    Domain: the grid is uniform in log x (else GridError), and x^(1/2) f is
    negligible at both hull ends, since the FFT takes g as zero outside the
    hull.  The image may decay slowly: what it carries past the hull wraps
    around the padded period, damped over it.
    """
    grid = f.grid
    if not log_uniform(grid):
        raise GridError("line_apply needs a grid uniform in log x")
    size = _LINE_PAD * grid.n
    h = np.log(grid.points[-1] / grid.points[0]) / (grid.n - 1)
    u = 2.0 * np.pi * np.fft.rfftfreq(size, h)
    root = np.sqrt(grid.points)
    image = np.fft.irfft(np.fft.rfft(root * f.values, size) * multiplicator(spec, 0.5 - 1j * u), size)
    return f.with_values(image[: grid.n] / root, decay_hint=None)


# ----------------------------------------------------------------------
# operator norms
# ----------------------------------------------------------------------


def numeric_line_sup(spec, u_max: float = 40.0, n: int = 8001) -> float:
    """sup_u |m(1/2 + iu)| over a u-ladder on [-u_max, u_max] with local
    refinement and tail check.  Both sides: at complex nu, |m(1/2 + iu)| and
    |m(1/2 - iu)| differ."""
    u = np.linspace(-u_max, u_max, n)
    s = 0.5 + 1j * u
    with np.errstate(all="ignore"):
        vals = np.abs(multiplicator(spec, s))
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    i = int(np.argmax(vals))
    best = float(vals[i])
    # a finer ladder around the grid maximizer
    fine = np.linspace(u[i] - (u[1] - u[0]), u[i] + (u[1] - u[0]), 201)
    with np.errstate(all="ignore"):
        fv = np.abs(multiplicator(spec, 0.5 + 1j * fine))
    best = float(np.max(fv[np.isfinite(fv)], initial=best))
    # monotone tails: |m| settles to its |u| -> inf limits well before u_max
    tails = np.abs(multiplicator(spec, 0.5 + 1j * np.array([-1.5, 1.5]) * u_max))
    return float(np.max(tails[np.isfinite(tails)], initial=best))


def operator_norm(spec) -> float:
    """L2 operator norm: the catalog's closed form where it has one, else
    the numeric line sup.

    Returns +inf for unbounded parameter choices.
    """
    from .catalog import mellin_row

    row = mellin_row(spec)
    closed = row.norm(spec) if row.norm is not None else None
    return numeric_line_sup(spec) if closed is None else closed


# ----------------------------------------------------------------------
# functional equation
# ----------------------------------------------------------------------


def funceq_residuals(m_func: Callable, nu: float, s_samples) -> np.ndarray:
    """|m(s) - m(s-2) (s-1)(s-2) / ((s-1)(s-2) - nu(nu+1))| per sample."""
    s = np.atleast_1d(np.asarray(s_samples, dtype=complex))
    lhs = m_func(s)
    q = (s - 1.0) * (s - 2.0)
    rhs = m_func(s - 2.0) * q / (q - complex(nu) * (complex(nu) + 1.0))
    return np.abs(lhs - rhs)
