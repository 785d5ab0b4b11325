"""Zero-order-smoothness operators: the mu = 1 limit of the first kind.

Four variants with Legendre-polynomial/function kernels P_nu(x/t) or
P_nu(t/x), with the derivative outside the integral (S0+, S-) or on the
operand (P0+, P-).  The outer derivative is taken after quadrature by
4th-order differences; a kernel-side differentiation path exists behind a
flag for cross-checks.
"""

from __future__ import annotations

import warnings

import numpy as np

from .._engine import build_lower_plan, build_upper_plan, deriv_on_grid
from .._engine import cached_plan as _plan  # perfbench/tracer.py wraps the cache under this name
from ..numgrid import SampledFunction
from ..specfun import legendre_p
from ..specfun.legendre import legendre_p_deriv, legendre_p_deriv_oncut
from .specs import OperatorSpec, OperatorSpecError

__all__ = ["apply_zero_order"]

def _check_lower_decay(nu: float, f: SampledFunction) -> None:
    """The 0+ Sonine form needs f/t^nu integrable at the origin.

    Warns when the operand carries mass at the hull bottom and its samples
    there fall off no faster than t^(nu-1) (log-slope over the first
    samples), so that f/t^nu is not integrable at 0.
    """
    if nu < 0.5:
        return
    scale = float(np.max(np.abs(f.values))) or 1.0
    head = float(np.max(np.abs(f.values[:4])))
    x = f.grid.points
    if head * x[0] ** (1.0 - nu) <= 1e-6 * scale:
        return
    y = np.abs(f.values[:8])
    if np.all(y > 0.0) and np.polyfit(np.log(x[:8]), np.log(y), 1)[0] > nu - 1.0 + 1e-2:
        return
    warnings.warn(
        "operand may violate the origin decay needed by this variant",
        stacklevel=3,
    )


def apply_zero_order(spec: OperatorSpec, f: SampledFunction, outer_fd: bool = False) -> SampledFunction:
    """Apply one zero-order-smoothness operator.

    The derivative-outside variants (S0+, S-) differentiate the kernel by
    default (the kernel is smooth at the diagonal for this family, and the
    outer-difference route loses several digits on sharp operands); set
    outer_fd=True for the differentiate-the-result cross-check path.
    """
    if spec.family != "zero_order":
        raise OperatorSpecError("apply_zero_order expects a zero_order spec")
    nu = float(np.real(spec.nu))
    grid = f.grid

    if spec.variant == "S0+":
        _check_lower_decay(nu, f)
        if outer_fd:
            plan = _plan(
                (grid, "S0+fd", nu),
                lambda: build_lower_plan(grid, lambda x, t: legendre_p(nu, x / t, "off_cut")),
            )
            vals = deriv_on_grid(plan.apply(f), grid)
        else:
            plan = _plan(
                (grid, "S0+", nu),
                lambda: build_lower_plan(grid, lambda x, t: legendre_p_deriv(nu, x / t) / t),
            )
            vals = f.values + plan.apply(f)
    elif spec.variant == "P0+":
        plan = _plan(
            (grid, "P0+", nu),
            lambda: build_lower_plan(
                grid, lambda x, t: legendre_p(nu, t / x, "on_cut"), use_deriv=True
            ),
        )
        vals = plan.apply(f)
    elif spec.variant == "S-":
        if outer_fd:
            plan = _plan(
                (grid, "S-fd", nu),
                lambda: build_upper_plan(grid, lambda x, t: legendre_p(nu, x / t, "on_cut")),
            )
            vals = -deriv_on_grid(plan.apply(f), grid)
        else:
            plan = _plan(
                (grid, "S-", nu),
                lambda: build_upper_plan(grid, lambda x, t: legendre_p_deriv_oncut(nu, x / t) / t),
            )
            vals = f.values - plan.apply(f)
    elif spec.variant == "P-":
        plan = _plan(
            (grid, "P-", nu),
            lambda: build_upper_plan(
                grid, lambda x, t: legendre_p(nu, t / x, "off_cut"), use_deriv=True
            ),
        )
        vals = -plan.apply(f)
    else:
        raise OperatorSpecError(f"unknown zero-order variant {spec.variant!r}")
    return f.with_values(vals, decay_hint=None)
