"""Numerical Mellin transform, the closed-form multiplicator catalog, and
operator norms as critical-line suprema.

Every zero-order-smoothness operator, the second- and third-kind families,
the Stieltjes transform, and the elementary Hardy-type operators act as
Mellin convolutions: M[Af](s) = m(s) M[f](s).  The catalog stores m in
closed form (gamma and trigonometric factors); operator norms follow from
sup |m(1/2 + iu)|, with closed forms where available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .beops.specs import OperatorSpec
from .numgrid import SampledFunction, head_model
from .specfun import gamma_complex

__all__ = [
    "MellinSamples",
    "Multiplicator",
    "CatalogError",
    "FormulaPoleError",
    "StripViolationError",
    "mellin_numeric",
    "multiplicator",
    "admissible_strip",
    "operator_norm",
    "numeric_line_sup",
    "measured_multiplicator",
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


@dataclass(frozen=True)
class Multiplicator:
    """Closed-form symbol of one catalogued operator with its natural strip."""

    operator: OperatorSpec

    def __call__(self, s, enforce_strip: bool = False):
        return multiplicator(self.operator, s, enforce_strip=enforce_strip)

    evaluate = __call__

    @property
    def admissible_strip(self) -> tuple[float, float]:
        return admissible_strip(self.operator)


def mellin_numeric(f: SampledFunction, sigma: float, u_points) -> MellinSamples:
    """M f(sigma + iu) by quadrature in the log coordinate.

    The head model (numgrid.head_model), or a power law c x^p that the
    first samples follow, completes the (0, hull_a) part; tails follow the
    decay hint.  Accuracy degrades once |u| exceeds the sampling limit
    of the grid; the result is flagged in that case.
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

    # head completion on (0, a): the head model in closed form when it
    # follows a logarithm, else a local power model c x^p when the first
    # samples follow one cleanly, else the quadratic head model
    coef = head_model(f)
    head_p = None if np.any(coef[1::2]) else _fit_power(grid.points[:10], f.values[:10])
    if head_p is not None and abs(head_p[1]) >= 0.02:
        c, p = head_p
        if sigma + p <= 0:
            raise StripViolationError("x^(sigma-1) f is not integrable at 0 for this sigma")
        vals = vals + c * a ** (s + p) / (s + p)
    else:
        c, d = coef.reshape(3, 2).T
        if max(abs(c[0]), abs(d[0])) > 1e-140 and sigma <= 0:
            raise StripViolationError("x^(sigma-1) f is not integrable at 0 for this sigma")
        sk = s[:, None] + np.arange(3.0)
        vals = vals + a**s * np.sum(c / sk - d / sk**2, axis=1)

    # tail completion beyond b: declared power hint, else a fitted power law
    hint = f.decay_hint
    fb = float(f.values[-1])
    degraded = False
    p_tail = None
    if hint is not None and hint.kind == "power":
        p_tail = (fb * b**hint.p, hint.p)
    elif hint is None or hint.kind == "exponential":
        if abs(fb) * b**sigma > 1e-12:
            fit = _fit_power(grid.points[-int(0.15 * grid.n) :], f.values[-int(0.15 * grid.n) :])
            if fit is None:
                degraded = True
            else:
                # the window fit sanity-checks the model; the exponent itself
                # comes from the trailing local slope (least curvature bias)
                v2, v1 = f.values[-6], f.values[-1]
                x2, x1 = grid.points[-6], grid.points[-1]
                p_loc = -np.log(abs(v1 / v2)) / np.log(x1 / x2)
                if abs(p_loc - (-fit[1])) > 0.25:
                    degraded = True
                else:
                    p_tail = (fb * b**p_loc, p_loc)
    if p_tail is not None:
        c, p = p_tail
        if sigma - p >= 0:
            raise StripViolationError("x^(sigma-1) f is not integrable at infinity")
        vals = vals + c * b ** (s - p) / (p - s)
    if grid.spacing == "log":
        u_max = 0.5 * np.pi / (tau[1] - tau[0])
        if np.any(np.abs(u) > u_max):
            degraded = True
    return MellinSamples(line_re=sigma, u_points=u, values=vals, degraded=degraded)


def _fit_power(pts: np.ndarray, vals: np.ndarray):
    """Fit a signed local power law c x^p, or None for sign-changing/tiny data.

    Returns (c_at_unit, p) with c such that f ~ c x^p; for the head fit p is
    the growth exponent at 0, for the tail fit the decay sign convention is
    handled by the caller.
    """
    if len(pts) < 6:
        return None
    if np.min(np.abs(vals)) < 1e-13 or np.min(vals) * np.max(vals) <= 0:
        return None
    logs = np.log(np.abs(vals))
    slope, intercept = np.polyfit(np.log(pts), logs, 1)
    if np.max(np.abs(np.polyval([slope, intercept], np.log(pts)) - logs)) > 0.05:
        return None
    if abs(slope) > 8.0:
        return None
    return float(np.sign(vals[0]) * np.exp(intercept)), float(slope)


def measured_multiplicator(f: SampledFunction, af: SampledFunction, sigma: float, u_points):
    """M[Af](s) / M[f](s) at s = sigma + iu: the operator's measured symbol."""
    num = mellin_numeric(af, sigma, u_points)
    den = mellin_numeric(f, sigma, u_points)
    return num.values / den.values


# ----------------------------------------------------------------------
# closed-form multiplicators
# ----------------------------------------------------------------------


def _g(z):
    return gamma_complex(np.asarray(z, dtype=complex))


def _rg(z):
    """1/Gamma(z), entire: zero at the poles of Gamma."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    pole = (np.abs(np.imag(z)) < 1e-13) & (np.real(z) <= 0.5) & (
        np.abs(np.real(z) - np.round(np.real(z))) < 1e-13
    )
    out[pole] = 0.0
    if np.any(~pole):
        out[~pole] = 1.0 / gamma_complex(z[~pole])
    return out


def m_zero_order(variant: str, nu, s):
    """Multiplicators of the four zero-order-smoothness operators."""
    s = np.asarray(s, dtype=complex)
    nu = complex(nu)
    if variant == "S0+":
        return _g(-s / 2 + nu / 2 + 1) * _g(-s / 2 - nu / 2 + 0.5) * _rg(0.5 - s / 2) * _rg(1 - s / 2)
    if variant == "P0+":
        return _g(0.5 - s / 2) * _g(1 - s / 2) * _rg(-s / 2 + nu / 2 + 1) * _rg(-s / 2 - nu / 2 + 0.5)
    if variant == "S-":
        return _g(s / 2) * _g(s / 2 + 0.5) * _rg(s / 2 + nu / 2 + 0.5) * _rg(s / 2 - nu / 2)
    if variant == "P-":
        return _g(s / 2 + nu / 2 + 0.5) * _g(s / 2 - nu / 2) * _rg(s / 2) * _rg(s / 2 + 0.5)
    raise CatalogError(f"unknown zero-order variant {variant!r}")


def p_second_kind(nu, s):
    """Period-2 factor linking the second-kind and zero-order symbols.

    p(s) = (sin pi nu + sin pi s) / (cos pi s - cos pi nu)
         = -cot(pi (s - nu) / 2),
    pinned by the nu = 0, +-1 degenerations to the half-line Hilbert pair
    and by unitarity of the third-kind combinations.
    """
    s = np.asarray(s, dtype=complex)
    nu = complex(nu)
    den = np.cos(np.pi * s) - np.cos(np.pi * nu)
    if np.any(np.abs(den) < 1e-13):
        raise FormulaPoleError("p(s) pole: cos(pi s) = cos(pi nu)")
    return (np.sin(np.pi * nu) + np.sin(np.pi * s)) / den


def m_second_kind(variant: str, nu, s):
    """Second-kind symbols: the period-2 factor times the zero-order symbol.

    Evaluated in the pole-free combined form (the factor's pole cancels a
    zero of the gamma ratio on the degenerate set cos(pi s) = cos(pi nu)):
    m_S = -Gamma(s/2) Gamma(s/2+1/2) Gamma(1-s/2+nu/2) cos(pi(s-nu)/2)
          / (pi Gamma(s/2+nu/2+1/2)).
    """
    s = np.asarray(s, dtype=complex)
    nu = complex(nu)
    if variant == "S":
        return (
            -_g(s / 2)
            * _g(s / 2 + 0.5)
            * _g(1.0 - s / 2 + nu / 2)
            * np.cos(np.pi * (s - nu) / 2.0)
            / (np.pi * _g(s / 2 + nu / 2 + 0.5))
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
    gam = _g(s / 2) * _g(s / 2 + 0.5) / (
        _g(s / 2 + (1 - nu - mu) / 2) * _g(s / 2 + 1 + (nu - mu) / 2)
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
        return _g((1.0 - s) / 2.0) * _g(nu + 0.5) / (2.0 ** (nu + 1.0) * _g(nu + 1.0) * _g(nu + 1.0 - s / 2.0))
    if variant == "S":
        return 2.0 ** (nu + 0.5) * _g(nu + 1.0 - s / 2.0) / _g(0.5 - s / 2.0)
    raise CatalogError(f"unknown spd variant {variant!r}")


def multiplicator(spec: OperatorSpec, s, enforce_strip: bool = False):
    """Closed-form symbol m(s) of a catalogued Mellin-convolution operator.

    The closed forms analytically continue beyond the raw integral's strip;
    set enforce_strip=True to reject evaluation outside it.
    """
    s_arr = np.asarray(s, dtype=complex)
    if enforce_strip:
        lo, hi = admissible_strip(spec)
        re = np.real(s_arr)
        if np.any(re <= lo) or np.any(re >= hi):
            raise StripViolationError(f"Re s outside admissible strip ({lo}, {hi})")
    fam, var = spec.family, spec.variant
    if fam == "zero_order":
        out = m_zero_order(var, spec.nu, s_arr)
    elif fam == "second_kind":
        out = m_second_kind(var, spec.nu, s_arr)
    elif fam == "second_kind_2param":
        out = m_second_kind_2param(spec.nu, spec.mu, s_arr)
    elif fam == "katrakhov":
        out = m_katrakhov(var, spec.nu, s_arr)
    elif fam == "stieltjes":
        out = m_stieltjes(s_arr)
    elif fam == "hardy":
        out = m_hardy(var, s_arr, shifted=False)
    elif fam == "hardy_shifted":
        out = m_hardy(var, s_arr, shifted=True)
    elif fam == "unitary_hardy":
        out = m_unitary_hardy(var, s_arr)
    elif fam == "spd":
        out = m_spd(var, spec.nu, s_arr)
    else:
        raise CatalogError(f"family {fam!r} is not a Mellin-multiplier family")
    return complex(np.asarray(out).reshape(-1)[0]) if np.ndim(s) == 0 else out


def admissible_strip(spec: OperatorSpec) -> tuple[float, float]:
    """(sigma_min, sigma_max) where the defining integral converges."""
    fam, var = spec.family, spec.variant
    nu_re = float(np.real(spec.nu)) if spec.nu is not None else 0.0
    inf = np.inf
    if fam == "zero_order":
        return {
            "S0+": (-inf, min(2.0 + nu_re, 1.0 - nu_re)),
            "P0+": (-inf, 1.0),
            "S-": (0.0, inf),
            "P-": (max(nu_re, -1.0 - nu_re), inf),
        }[var]
    if fam in ("second_kind", "second_kind_2param", "katrakhov", "stieltjes"):
        return (0.0, 1.0)
    if fam == "hardy" or fam == "hardy_shifted":
        return (-inf, 1.0) if var == "H1" else (0.0, inf)
    if fam == "unitary_hardy":
        return (0.0, 1.0)
    if fam == "spd":
        return (-inf, 1.0) if var == "P" else (-inf, 2.0 + 2.0 * nu_re)
    raise CatalogError(f"family {fam!r} is not a Mellin-multiplier family")


# ----------------------------------------------------------------------
# operator norms
# ----------------------------------------------------------------------


def _closed_form_norm(spec: OperatorSpec) -> Optional[float]:
    fam, var = spec.family, spec.variant
    if fam == "zero_order":
        a = complex(np.sin(np.pi * complex(spec.nu)))
        a = float(np.real(a)) if abs(np.imag(a)) < 1e-14 else a
        if var in ("S0+", "P-"):
            if isinstance(a, complex):
                raise CatalogError("complex nu norm not defined for this variant")
            den = min(1.0, np.sqrt(max(1.0 - a, 0.0))) if a < 1.0 else 0.0
            return np.inf if den < UNBOUNDED_TOL else 1.0 / den
        if var in ("P0+", "S-"):
            if isinstance(a, complex):
                raise CatalogError("complex nu norm not defined for this variant")
            return max(1.0, np.sqrt(1.0 - a))
    if fam == "second_kind":
        a = complex(np.sin(np.pi * complex(spec.nu)))
        a = float(np.real(a)) if abs(np.imag(a)) < 1e-12 else None
        if a is None:
            raise CatalogError("norm formula needs sin(pi nu) real; see the i*beta+1/2 line")
        # both realizations: the S symbol and its conjugate have the same sup
        return max(1.0, np.sqrt(1.0 + a)) if 1.0 + a > 0 else 1.0
    if fam == "katrakhov":
        return 1.0
    if fam == "unitary_hardy" or fam == "hardy_shifted":
        return 1.0
    if fam == "hardy":
        return 2.0
    if fam == "stieltjes":
        return np.pi
    return None


def _second_kind_complex_nu_norm(nu: complex) -> float:
    """||.|| for nu = i beta + 1/2: sup of |m| over the line in closed form."""
    a = np.sin(np.pi * nu)  # = cosh(pi beta) for nu = i beta + 1/2
    if abs(np.imag(a)) > 1e-10:
        raise CatalogError("closed-form complex-nu norm implemented for nu = i*beta + 1/2 only")
    return float(np.sqrt(1.0 + np.real(a)))


def numeric_line_sup(spec: OperatorSpec, u_max: float = 40.0, n: int = 4001) -> float:
    """sup_u |m(1/2 + iu)| over a u-ladder with local refinement and tail check."""
    u = np.linspace(0.0, u_max, n)
    s = 0.5 + 1j * u
    with np.errstate(all="ignore"):
        vals = np.abs(multiplicator(spec, s))
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    i = int(np.argmax(vals))
    best = float(vals[i])
    # parabolic refinement around the grid maximizer
    lo = max(u[i] - (u[1] - u[0]), 0.0)
    hi = u[i] + (u[1] - u[0])
    fine = np.linspace(lo, hi, 201)
    with np.errstate(all="ignore"):
        fv = np.abs(multiplicator(spec, 0.5 + 1j * fine))
    fv = fv[np.isfinite(fv)]
    if len(fv):
        best = max(best, float(np.max(fv)))
    # monotone tail: |m| settles to its |u| -> inf limit well before u_max
    tail = float(np.abs(multiplicator(spec, 0.5 + 1j * (u_max * 1.5))))
    return max(best, tail)


def operator_norm(spec: OperatorSpec) -> float:
    """L2 operator norm: closed form where available, else numeric line sup.

    Returns +inf for unbounded parameter choices.
    """
    if spec.family == "second_kind" and isinstance(spec.nu, complex) and abs(np.imag(spec.nu)) > 0:
        return _second_kind_complex_nu_norm(spec.nu)
    cf = _closed_form_norm(spec)
    if cf is not None:
        return cf
    return numeric_line_sup(spec)


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
