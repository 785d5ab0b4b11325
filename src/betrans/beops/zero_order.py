"""Zero-order-smoothness operators: the mu = 1 limit of the first kind.

Four variants with Legendre-polynomial/function kernels P_nu(x/t) or
P_nu(t/x), with the derivative outside the integral (S0+, S-) or on the
operand (P0+, P-).  The outer derivative is taken on the kernel, which is
smooth at the diagonal for this family.  At integer degree P- also has its
L2 form (path="hardy").  Every kernel is homogeneous, handed to the plans
as an _engine.RatioKernel; the independent path is the symbol on the
critical line (mellin.line_apply).
"""

from __future__ import annotations

import warnings

import numpy as np

from .._engine import RatioKernel, build_lower_plan, build_upper_plan
from .._engine import cached_plan as _plan  # perfbench/tracer.py wraps the cache under this name
from ..numgrid import EDGE_BLOCK, SampledFunction, edge_fit
from ..specfun import legendre_p
from ..specfun.legendre import legendre_p_deriv, legendre_p_deriv_oncut
from .specs import OperatorSpec, OperatorSpecError, real_nu

__all__ = ["apply_zero_order"]


def _p_deriv_poly(nu: float, u: np.ndarray) -> np.ndarray:
    """P_n'(u), as the polynomial it is at integer degree n."""
    return np.polynomial.legendre.Legendre.basis(int(round(nu))).deriv()(u)


# plan: side, k(nu, r), r, degree, use_deriv (the builders and kernels are
# looked up when called, so that rebinding them reaches every call)
_PLANS = {
    "S0+": ("lower", lambda nu, z: legendre_p_deriv(nu, z), "x/t", -1, False),
    "P0+": ("lower", lambda nu, u: legendre_p(nu, u, "on_cut"), "t/x", 0, True),
    "S-": ("upper", lambda nu, z: legendre_p_deriv_oncut(nu, z), "x/t", -1, False),
    "P-": ("upper", lambda nu, u: legendre_p(nu, u, "off_cut"), "t/x", 0, True),
    "P-hardy": ("lower", _p_deriv_poly, "t/x", -1, False),
}


def _kernel(plan: str, nu: float):
    """(plan builder, kernel, use_deriv) of one of the family's plans."""
    side, k, variable, degree, use_deriv = _PLANS[plan]
    build = build_lower_plan if side == "lower" else build_upper_plan
    return build, RatioKernel(lambda r: k(nu, r), variable, degree), use_deriv


def _apply_plan(plan: str, nu: float, f: SampledFunction) -> np.ndarray:
    grid = f.grid
    build, kernel, use_deriv = _kernel(plan, nu)
    return _plan((grid, plan, nu), lambda: build(grid, kernel, use_deriv=use_deriv)).apply(f)


def _check_lower_decay(nu: float, f: SampledFunction) -> None:
    """The 0+ Sonine form needs f/t^nu integrable at the origin.

    Warns when the operand carries mass at the hull bottom and its samples
    there follow no power law t^p with p > nu - 1 (numgrid.edge_fit of the
    first samples), so that f/t^nu may not be integrable at 0.
    """
    if nu < 0.5:
        return
    scale = float(np.max(np.abs(f.values))) or 1.0
    head = float(np.max(np.abs(f.values[:4])))
    x = f.grid.points
    if head * x[0] ** (1.0 - nu) <= 1e-6 * scale:
        return
    fit = edge_fit(x[:EDGE_BLOCK], f.values[:EDGE_BLOCK])
    if fit is not None and fit[2] > nu - 1.0 + 1e-2:
        return
    warnings.warn(
        "operand may violate the origin decay needed by this variant",
        stacklevel=3,
    )


def apply_zero_order(spec: OperatorSpec, f: SampledFunction, path: str = "raw") -> SampledFunction:
    """Apply one zero-order-smoothness operator.

    The derivative-outside variants (S0+, S-) differentiate the kernel.

    path="hardy" applies P- at integer degree n in its L2 form,
    P- g = g - int_0^x P_n'(t/x) g(t) dt / x: the raw form
    -int_x^inf P_n(t/x) g'(t) dt differs from it by
    sum_j a_j x^(-j-1) int_0^inf t^j g dt (P_n' = sum_j a_j z^j), which
    vanishes on L2, so both have P0+'s symbol; the raw form, the paper's
    integral, stays the default.
    """
    if spec.family != "zero_order":
        raise OperatorSpecError("apply_zero_order expects a zero_order spec")
    nu = real_nu(spec)
    if path == "hardy":
        if spec.variant != "P-" or abs(nu - round(nu)) > 1e-12 or nu < 0:
            raise OperatorSpecError('path="hardy" is the L2 form of P- at integer degree nu >= 0')
        return f.with_values(f.values - _apply_plan("P-hardy", nu, f), decay_hint=None)
    if path != "raw":
        raise OperatorSpecError(f"unknown path {path!r}")
    if spec.variant == "S0+":
        _check_lower_decay(nu, f)
        vals = f.values + _apply_plan("S0+", nu, f)
    elif spec.variant == "P0+":
        vals = _apply_plan("P0+", nu, f)
    elif spec.variant == "S-":
        vals = f.values - _apply_plan("S-", nu, f)
    elif spec.variant == "P-":
        vals = -_apply_plan("P-", nu, f)
    else:
        raise OperatorSpecError(f"unknown zero-order variant {spec.variant!r}")
    return f.with_values(vals, decay_hint=None)
