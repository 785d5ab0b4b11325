"""Second-kind operators: Legendre-Q kernels with principal-value integrals.

The kernels carry a simple pole across the diagonal; near y = x both terms
combine into r(x, y)/(x - y) plus integrable corrections.  Application
subtracts that pole exactly (its principal value is a logarithm) and
integrates the bounded remainder on panels graded toward the diagonal
(_engine.build_pv_plan).  At nu = 0 and nu = -1 the family degenerates to
the half-line Hilbert-transform pair, which is also available as a
dedicated closed-kernel path.  Every kernel here is a Mellin multiplier,
k(y/x)/x, handed to the plans as an _engine.RatioKernel.
"""

from __future__ import annotations

import numpy as np

from .._engine import RatioKernel, build_pv_plan, cached_plan
from ..numgrid import SampledFunction
from ..specfun import legendre_q1
from .specs import OperatorSpec, OperatorSpecError, real_nu

__all__ = ["apply_second_kind", "apply_second_kind_2param", "hilbert_pair_kernels"]

_TWO_OVER_PI = 2.0 / np.pi
_INT_TOL = 1e-9


def hilbert_pair_kernels(which: int):
    """Closed kernels of the nu = 0 / nu = -1 degenerations (y or x over
    x^2 - y^2), as ratio kernels in r = (x - y)/x: x^2 - y^2 = x^2 r (2 - r)
    keeps its digits next to the diagonal, where x*x - y*y cancels."""
    if which == 0:

        def k(r):
            return _TWO_OVER_PI * (1.0 - r) / (r * (2.0 - r))

    else:

        def k(r):
            return _TWO_OVER_PI / (r * (2.0 - r))

    kernel = RatioKernel(k, "1-t/x")
    return kernel, kernel


def _q1_kernels(nu: float):
    """The Q_nu^1 kernels as functions of its argument r, off the cut (r > 1)
    and on it (r < 1): r = x/y for S and r = y/x for P.  r^2 - 1 is formed
    as (r - 1)(r + 1), as r*r - 1 cancels near the diagonal."""

    def off(r):
        return -_TWO_OVER_PI * ((r - 1.0) * (r + 1.0)) ** (-0.5) * legendre_q1(nu, r, "off_cut")

    def on(r):
        return _TWO_OVER_PI * ((1.0 - r) * (1.0 + r)) ** (-0.5) * legendre_q1(nu, r, "on_cut")

    return off, on


def _kernels_s(nu: float):
    """(lower, upper) kernels of S: y < x is off the cut, y > x on it."""
    off, on = _q1_kernels(nu)
    return RatioKernel(off, "x/t"), RatioKernel(on, "x/t")


def _kernels_p(nu: float):
    """(lower, upper) kernels of P: y < x is on the cut, y > x off it."""
    off, on = _q1_kernels(nu)
    return RatioKernel(on), RatioKernel(off)


def apply_second_kind(spec: OperatorSpec, f: SampledFunction) -> SampledFunction:
    if spec.family != "second_kind":
        raise OperatorSpecError("apply_second_kind expects a second_kind spec")
    nu = real_nu(spec)
    grid = f.grid
    if abs(nu + 1.0) < _INT_TOL:
        # Legendre-Q kernels degenerate at nu = -1; use the closed Hilbert forms:
        # S variant is the x/(x^2-y^2) pair, the mirrored P variant is minus the
        # y/(x^2-y^2) pair.
        kl, ku = hilbert_pair_kernels(-1 if spec.variant == "S" else 0)
        plan = cached_plan((grid, "2K", spec.variant, -1.0), lambda: build_pv_plan(grid, kl, ku))
        sign = 1.0 if spec.variant == "S" else -1.0
        return f.with_values(sign * plan.apply(f), decay_hint=None)
    kl, ku = _kernels_s(nu) if spec.variant == "S" else _kernels_p(nu)
    plan = cached_plan((grid, "2K", spec.variant, nu), lambda: build_pv_plan(grid, kl, ku))
    # outputs decay algebraically; no hint, so downstream Mellin quadrature
    # fits the observed tail instead of trusting a nominal power
    return f.with_values(plan.apply(f), decay_hint=None)


def apply_second_kind_2param(spec: OperatorSpec, f: SampledFunction) -> SampledFunction:
    """Two-parameter second-kind operator; mu = 1 reproduces the one-parameter S."""
    if spec.family != "second_kind_2param":
        raise OperatorSpecError("apply_second_kind_2param expects a second_kind_2param spec")
    if abs(spec.mu - 1.0) > 1e-12:
        raise OperatorSpecError(
            "two-parameter second-kind application is experimental away from mu = 1; "
            "only mu = 1 is supported"
        )
    if real_nu(spec) >= 1.0:
        raise OperatorSpecError("two-parameter second-kind requires nu < 1")
    one_param = OperatorSpec("second_kind", "S", nu=spec.nu)
    return apply_second_kind(one_param, f)
