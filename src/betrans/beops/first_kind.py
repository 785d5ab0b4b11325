"""First-kind operators: (x^2 - t^2)^(-mu/2) kernels with Legendre P_nu^mu.

For mu > 0 the kernel carries a combined (x - t)^(-mu) endpoint singularity
at the diagonal (half from the algebraic prefactor, half from the Legendre
function's behavior at argument 1), handled by Gauss-Jacobi panels.
"""

from __future__ import annotations

import numpy as np

from .._engine import build_lower_plan, build_upper_plan, cached_plan
from ..numgrid import SampledFunction
from ..specfun import legendre_p_assoc
from .specs import OperatorSpec, OperatorSpecError

__all__ = ["apply_first_kind"]


def _kern_b0p(nu, mu):
    def k(x, t):
        return (x * x - t * t) ** (-mu / 2.0) * legendre_p_assoc(nu, mu, x / t, "off_cut")

    return k


def _kern_e0p(nu, mu):
    def k(x, t):
        return (x * x - t * t) ** (-mu / 2.0) * legendre_p_assoc(nu, mu, t / x, "on_cut")

    return k


def _kern_bm(nu, mu):
    def k(x, t):
        return (t * t - x * x) ** (-mu / 2.0) * legendre_p_assoc(nu, mu, t / x, "off_cut")

    return k


def _kern_em(nu, mu):
    def k(x, t):
        return (t * t - x * x) ** (-mu / 2.0) * legendre_p_assoc(nu, mu, x / t, "on_cut")

    return k


def apply_first_kind(spec: OperatorSpec, f: SampledFunction) -> SampledFunction:
    if spec.family != "first_kind":
        raise OperatorSpecError("apply_first_kind expects a first_kind spec")
    nu, mu = float(np.real(spec.nu)), float(spec.mu)
    if mu >= 1.0:
        raise OperatorSpecError("first_kind requires mu < 1")
    grid = f.grid
    alpha = -mu if mu != 0 else None  # diagonal endpoint exponent (Jacobi when non-integer)
    if spec.variant == "B0+":
        plan = cached_plan((grid, "B0+", nu, mu), lambda: build_lower_plan(grid, _kern_b0p(nu, mu), alpha=alpha))
    elif spec.variant == "E0+":
        plan = cached_plan((grid, "E0+", nu, mu), lambda: build_lower_plan(grid, _kern_e0p(nu, mu), alpha=alpha))
    elif spec.variant == "B-":
        plan = cached_plan((grid, "B-", nu, mu), lambda: build_upper_plan(grid, _kern_bm(nu, mu), alpha=alpha))
    elif spec.variant == "E-":
        plan = cached_plan((grid, "E-", nu, mu), lambda: build_upper_plan(grid, _kern_em(nu, mu), alpha=alpha))
    else:
        raise OperatorSpecError(f"unknown first-kind variant {spec.variant!r}")
    return f.with_values(plan.apply(f), decay_hint=None)
