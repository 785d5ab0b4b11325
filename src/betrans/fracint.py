"""Riemann-Liouville, Erdelyi-Kober, and fractional-by-function integrals.

Only the integral branch (order alpha > 0) is implemented.  The iterated
differential operator (-(1/x) d/dx)^n used by the seminorm identities is
provided for integer n via grid differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._engine import RatioKernel, build_lower_plan, build_upper_plan, deriv_on_grid
from ._engine import cached_plan as _cached_plan  # perfbench/tracer.py wraps the cache under this name
from .numgrid import SampledFunction
from .specfun import rgamma

__all__ = [
    "FracSpec",
    "MonotoneFunction",
    "G_IDENTITY",
    "G_SQUARE",
    "G_LOG",
    "rl_integral",
    "ek_integral",
    "frac_by_function",
    "neg_inv_x_deriv_power",
    "right_derivative_power",
]

_FAMILIES = ("rl_left", "rl_right", "ek_left", "ek_right", "by_function")


@dataclass(frozen=True)
class MonotoneFunction:
    """Strictly increasing g with derivative, for fractional-by-function kernels.

    origin_ok marks functions defined down to x = 0; g = log is not, so its
    integrals start at the hull bottom instead of extending below it.
    """

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    gprime: Callable[[np.ndarray], np.ndarray]
    origin_ok: bool = True


G_IDENTITY = MonotoneFunction("identity", lambda x: x, lambda x: np.ones_like(x))
G_SQUARE = MonotoneFunction("square", lambda x: x * x, lambda x: 2.0 * x)
G_LOG = MonotoneFunction("log", np.log, lambda x: 1.0 / x, origin_ok=False)


@dataclass(frozen=True)
class FracSpec:
    family: str
    alpha: float
    eta: float = 0.0
    g: Optional[MonotoneFunction] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown fractional family {self.family!r}")
        if self.alpha <= 0:
            raise ValueError("only the integral branch alpha > 0 is supported")
        if self.family == "by_function" and self.g is None:
            raise ValueError("by_function spec requires a MonotoneFunction")


def _rl_kernel(family: str, a: float) -> RatioKernel:
    """|x - t|^(a - 1) = x^(a - 1) |r|^(a - 1), r = (x - t)/x."""
    sign = 1.0 if family == "rl_left" else -1.0
    return RatioKernel(lambda r: (sign * r) ** (a - 1.0), "1-t/x", a - 1.0)


def _ek_kernel(family: str, a: float, eta: float) -> RatioKernel:
    """(x^2 - t^2)^(a - 1) t^(2 eta + 1) (left) or (t^2 - x^2)^(a - 1)
    t^(1 - 2(a + eta)) (right), in r = (x - t)/x: x^2 - t^2 = x^2 r (2 - r)
    and t = x (1 - r)."""
    if family == "ek_left":
        sign, power = 1.0, 2.0 * eta + 1.0
    else:
        sign, power = -1.0, 1.0 - 2.0 * (a + eta)

    def k(r):
        return (sign * r * (2.0 - r)) ** (a - 1.0) * (1.0 - r) ** power

    return RatioKernel(k, "1-t/x", 2.0 * (a - 1.0) + power)


def rl_integral(spec: FracSpec, f: SampledFunction) -> SampledFunction:
    """Riemann-Liouville fractional integral of order alpha on f's grid."""
    a = spec.alpha
    c = rgamma(a)
    if spec.family not in ("rl_left", "rl_right"):
        raise ValueError("rl_integral expects an rl_left or rl_right spec")
    build = build_lower_plan if spec.family == "rl_left" else build_upper_plan
    plan = _cached_plan(
        (f.grid, spec.family, a), lambda: build(f.grid, _rl_kernel(spec.family, a), alpha=a - 1.0)
    )
    return f.with_values(c * plan.apply(f), decay_hint=None)


def ek_integral(spec: FracSpec, f: SampledFunction) -> SampledFunction:
    """Erdelyi-Kober fractional integral on f's grid."""
    a, eta = spec.alpha, spec.eta
    c = rgamma(a)
    if spec.family == "ek_left":
        build, pref = build_lower_plan, 2.0 * c * f.grid.points ** (-2.0 * (a + eta))
    elif spec.family == "ek_right":
        build, pref = build_upper_plan, 2.0 * c * f.grid.points ** (2.0 * eta)
    else:
        raise ValueError("ek_integral expects an ek_left or ek_right spec")
    plan = _cached_plan(
        (f.grid, spec.family, a, eta),
        lambda: build(f.grid, _ek_kernel(spec.family, a, eta), alpha=a - 1.0),
    )
    return f.with_values(pref * plan.apply(f), decay_hint=None)


def frac_by_function(spec: FracSpec, f: SampledFunction) -> SampledFunction:
    """Fractional integral along a monotone function g (left-sided)."""
    if spec.family != "by_function":
        raise ValueError("frac_by_function expects a by_function spec")
    a, mono = spec.alpha, spec.g
    c = rgamma(a)
    pts = f.grid.points
    if np.any(mono.gprime(pts) <= 0):
        raise ValueError(f"g={mono.name!r} is not strictly increasing on the hull")

    def kernel(x, t):
        return (mono.g(x) - mono.g(t)) ** (a - 1.0) * mono.gprime(t)

    # the (g(x)-g(t))^(alpha-1) factor behaves like (x-t)^(alpha-1) near t=x
    plan = _cached_plan(
        (f.grid, "by_function", mono.name, a),
        lambda: build_lower_plan(
            f.grid, kernel, alpha=a - 1.0, head="taylor" if mono.origin_ok else "zero"
        ),
    )
    return f.with_values(c * plan.apply(f), decay_hint=None)


def neg_inv_x_deriv_power(n: int, f: SampledFunction) -> SampledFunction:
    """(-(1/x) d/dx)^n f for integer n >= 0, by grid differentiation."""
    if n != int(n) or n < 0:
        raise ValueError("only integer powers n >= 0 are supported")
    vals = f.values.copy()
    for _ in range(int(n)):
        vals = -deriv_on_grid(vals, f.grid) / f.grid.points
    return f.with_values(vals)


def right_derivative_power(n: int, f: SampledFunction) -> SampledFunction:
    """D_-^n f = (-d/dx)^n f for integer n >= 0."""
    if n != int(n) or n < 0:
        raise ValueError("only integer orders n >= 0 are supported")
    vals = f.values.copy()
    for _ in range(int(n)):
        vals = -deriv_on_grid(vals, f.grid)
    return f.with_values(vals)
