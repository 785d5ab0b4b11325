"""Riemann-Liouville, Erdelyi-Kober, and fractional-by-function integrals.

Only the integral branch (order alpha > 0) is implemented.  The iterated
differential operator (-(1/x) d/dx)^n used by the seminorm identities is
provided for integer n via grid differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._engine import build_lower_plan, build_upper_plan, deriv_on_grid
from ._engine import cached_plan as _cached_plan  # perfbench/tracer.py wraps the cache under this name
from .numgrid import SampledFunction
from .specfun import gamma_complex

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


def _rgamma(x: float) -> float:
    return float(np.real(1.0 / gamma_complex(complex(x))))


def rl_integral(spec: FracSpec, f: SampledFunction) -> SampledFunction:
    """Riemann-Liouville fractional integral of order alpha on f's grid."""
    a = spec.alpha
    c = _rgamma(a)
    if spec.family == "rl_left":
        plan = _cached_plan(
            (f.grid, "rl_left", a),
            lambda: build_lower_plan(f.grid, lambda x, t: (x - t) ** (a - 1.0), alpha=a - 1.0),
        )
    elif spec.family == "rl_right":
        plan = _cached_plan(
            (f.grid, "rl_right", a),
            lambda: build_upper_plan(f.grid, lambda x, t: (t - x) ** (a - 1.0), alpha=a - 1.0),
        )
    else:
        raise ValueError("rl_integral expects an rl_left or rl_right spec")
    return f.with_values(c * plan.apply(f), decay_hint=None)


def ek_integral(spec: FracSpec, f: SampledFunction) -> SampledFunction:
    """Erdelyi-Kober fractional integral on f's grid."""
    a, eta = spec.alpha, spec.eta
    c = _rgamma(a)
    if spec.family == "ek_left":
        plan = _cached_plan(
            (f.grid, "ek_left", a, eta),
            lambda: build_lower_plan(
                f.grid,
                lambda x, t: (x * x - t * t) ** (a - 1.0) * t ** (2.0 * eta + 1.0),
                alpha=a - 1.0,
            ),
        )
        pref = 2.0 * c * f.grid.points ** (-2.0 * (a + eta))
    elif spec.family == "ek_right":
        plan = _cached_plan(
            (f.grid, "ek_right", a, eta),
            lambda: build_upper_plan(
                f.grid,
                lambda x, t: (t * t - x * x) ** (a - 1.0) * t ** (1.0 - 2.0 * (a + eta)),
                alpha=a - 1.0,
            ),
        )
        pref = 2.0 * c * f.grid.points ** (2.0 * eta)
    else:
        raise ValueError("ek_integral expects an ek_left or ek_right spec")
    return f.with_values(pref * plan.apply(f), decay_hint=None)


def frac_by_function(spec: FracSpec, f: SampledFunction) -> SampledFunction:
    """Fractional integral along a monotone function g (left-sided)."""
    if spec.family != "by_function":
        raise ValueError("frac_by_function expects a by_function spec")
    a, mono = spec.alpha, spec.g
    c = _rgamma(a)
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
