"""Third-kind unitary combinations of first- and second-kind operators.

The Sonine-side operator is cos(pi nu/2) times the zero-order "-" Sonine
operator minus sin(pi nu/2) times the second-kind operator; the Poisson
side combines the mirrored pieces and inverts it for every real nu.  Both
a combination path (composing the public operators) and a direct
integral-form path (fused quadrature with an independent discretization)
are provided; they must agree.
"""

from __future__ import annotations

import numpy as np

from .._engine import build_pv_plan, cached_plan
from ..numgrid import SampledFunction
from . import zero_order
from .second_kind import _kernels_p, _kernels_s, apply_second_kind
from .specs import OperatorSpec, OperatorSpecError, real_nu
from .zero_order import apply_zero_order

__all__ = ["apply_katrakhov"]


def _coeffs(nu: float) -> tuple[float, float]:
    return np.cos(np.pi * nu / 2.0), np.sin(np.pi * nu / 2.0)


def _fused_plans(variant: str, nu: float, grid):
    """Integral-form plans built at a finer, independent discretization:
    body panels at every 2nd grid point with 10 Gauss points each.  The
    smooth part is the zero-order kernel of S- (variant S) or P0+ (P)."""
    build, kernel, use_deriv = zero_order._kernel("S-" if variant == "S" else "P0+", nu)
    kl, ku = _kernels_s(nu) if variant == "S" else _kernels_p(nu)
    fine = {"stride": 2, "n_gl": 10}
    return build(grid, kernel, use_deriv=use_deriv, **fine), build_pv_plan(grid, kl, ku, **fine)


def apply_katrakhov(spec: OperatorSpec, f: SampledFunction, path: str = "combination") -> SampledFunction:
    """Apply the unitary third-kind operator S_U (variant S) or P_U (variant P).

    path="combination" assembles the result from the first- and second-kind
    operators; path="integral" evaluates the fused direct integral forms.
    """
    if spec.family != "katrakhov":
        raise OperatorSpecError("apply_katrakhov expects a katrakhov spec")
    nu = real_nu(spec)
    kappa, tau = _coeffs(nu)
    if path == "combination":
        if spec.variant == "S":
            zo = apply_zero_order(OperatorSpec("zero_order", "S-", nu=nu), f)
            sk = apply_second_kind(OperatorSpec("second_kind", "S", nu=nu), f)
        else:
            zo = apply_zero_order(OperatorSpec("zero_order", "P0+", nu=nu), f)
            sk = apply_second_kind(OperatorSpec("second_kind", "P", nu=nu), f)
        vals = kappa * zo.values - tau * sk.values
    elif path == "integral":
        key = (f.grid, "katrakhov", spec.variant, nu)
        smooth, pv = cached_plan(key, lambda: _fused_plans(spec.variant, nu, f.grid))
        if spec.variant == "S":
            vals = kappa * (f.values - smooth.apply(f)) - tau * pv.apply(f)
        else:
            vals = kappa * smooth.apply(f) - tau * pv.apply(f)
    else:
        raise OperatorSpecError(f"unknown path {path!r}")
    return f.with_values(vals, decay_hint=None)
