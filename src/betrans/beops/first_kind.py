"""First-kind operators: (x^2 - t^2)^(-mu/2) kernels with Legendre P_nu^mu.

For mu > 0 the kernel carries a combined (x - t)^(-mu) endpoint singularity
at the diagonal (half from the algebraic prefactor, half from the Legendre
function's behavior at argument 1), handled by Gauss-Jacobi panels.
"""

from __future__ import annotations

import numpy as np

from .._engine import RatioKernel, build_lower_plan, build_upper_plan, cached_plan
from ..numgrid import SampledFunction
from ..specfun import legendre_p_assoc
from .specs import OperatorSpec, OperatorSpecError, real_nu

__all__ = ["apply_first_kind"]

# variant: plan side, the Legendre argument r, its branch (builders are
# looked up when called, so that rebinding them reaches every call)
_VARIANTS = {
    "B0+": ("lower", "x/t", "off_cut"),
    "E0+": ("lower", "t/x", "on_cut"),
    "B-": ("upper", "t/x", "off_cut"),
    "E-": ("upper", "x/t", "on_cut"),
}


def _kernel(variant: str, nu: float, mu: float) -> RatioKernel:
    """|x^2 - t^2|^(-mu/2) P_nu^mu(r), homogeneous of degree -mu: with b
    the denominator of r (t for r = x/t, x for r = t/x), |x^2 - t^2| =
    b^2 |(r - 1)(r + 1)|, formed so as it keeps its digits next to r = 1."""
    _, variable, branch = _VARIANTS[variant]

    def k(r):
        return np.abs((r - 1.0) * (r + 1.0)) ** (-mu / 2.0) * legendre_p_assoc(nu, mu, r, branch)

    return RatioKernel(k, variable, -mu)


def apply_first_kind(spec: OperatorSpec, f: SampledFunction) -> SampledFunction:
    if spec.family != "first_kind":
        raise OperatorSpecError("apply_first_kind expects a first_kind spec")
    nu, mu = real_nu(spec), float(spec.mu)
    if mu >= 1.0:
        raise OperatorSpecError("first_kind requires mu < 1")
    grid = f.grid
    alpha = -mu if mu != 0 else None  # diagonal endpoint exponent (Jacobi when non-integer)
    if spec.variant not in _VARIANTS:
        raise OperatorSpecError(f"unknown first-kind variant {spec.variant!r}")
    build = build_lower_plan if _VARIANTS[spec.variant][0] == "lower" else build_upper_plan
    plan = cached_plan(
        (grid, spec.variant, nu, mu), lambda: build(grid, _kernel(spec.variant, nu, mu), alpha=alpha)
    )
    return f.with_values(plan.apply(f), decay_hint=None)
