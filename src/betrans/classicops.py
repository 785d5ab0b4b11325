"""Classical transmutations and elementary unitary operators.

Sonine-Poisson-Delsarte operators, Hardy averages, the eight elementary
unitary Hardy-type operators, the Stieltjes transform, and the degree-shift
lifting that turns angular-momentum transmutations into Bessel-operator
ones.
"""

from __future__ import annotations

import numpy as np

from ._engine import RatioKernel, build_lower_plan, build_upper_plan, cached_plan
from .beops.specs import OperatorSpec
from .beops.zero_order import apply_zero_order
from .numgrid import DecayHint, SampledFunction
from .specfun import gamma_complex, rgamma

__all__ = [
    "spd_poisson",
    "spd_sonine",
    "spd_inverse_constant",
    "hardy",
    "hardy_shifted",
    "unitary_u",
    "stieltjes",
    "lift_sonine",
    "lift_poisson",
]


def _spd_poisson_kernel(nu: float) -> RatioKernel:
    """(x^2 - t^2)^(nu - 1/2) = x^(2 nu - 1) (r (2 - r))^(nu - 1/2), r = (x - t)/x."""
    return RatioKernel(lambda r: (r * (2.0 - r)) ** (nu - 0.5), "1-t/x", 2.0 * nu - 1.0)


def _spd_sonine_kernels(nu: float) -> tuple[RatioKernel, RatioKernel]:
    """(x^2 - t^2)^(-nu - 1/2) t^(2 nu + 1), of degree 0, and the same
    times t/x, in r = (x - t)/x (t = x (1 - r))."""

    def k(r):
        return (r * (2.0 - r)) ** (-nu - 0.5) * (1.0 - r) ** (2.0 * nu + 1.0)

    return RatioKernel(k, "1-t/x", 0), RatioKernel(lambda r: k(r) * (1.0 - r), "1-t/x", 0)


def spd_poisson(nu: float, f: SampledFunction) -> SampledFunction:
    """Poisson transmutation: x^(-2nu)/(Gamma(nu+1) 2^nu) int_0^x (x^2-t^2)^(nu-1/2) f dt."""
    if nu <= -0.5:
        raise ValueError("spd_poisson requires nu > -1/2")
    grid = f.grid
    alpha = nu - 0.5 if abs((nu - 0.5) - round(nu - 0.5)) > 1e-9 or nu < 0.5 else None
    plan = cached_plan((grid, "spdP", nu), lambda: build_lower_plan(grid, _spd_poisson_kernel(nu), alpha=alpha))
    pref = rgamma(nu + 1.0) / 2.0**nu * grid.points ** (-2.0 * nu)
    return f.with_values(pref * plan.apply(f), decay_hint=None)


def spd_sonine(nu: float, f: SampledFunction) -> SampledFunction:
    """Sonine transmutation: the derivative-outside companion, Re nu < 1/2.

    The kernel is homogeneous of degree zero, so the outer derivative has
    the exact rearrangement d/dx int_0^x k(t/x) f dt = J/x + int (t/x)
    k(t/x) f' dt; this avoids differencing the quadrature output (which
    costs several digits in downstream compositions).
    """
    if nu >= 0.5:
        raise ValueError("spd_sonine requires nu < 1/2")
    grid = f.grid

    kernel, kernel_d = _spd_sonine_kernels(nu)
    plan = cached_plan((grid, "spdS", nu), lambda: build_lower_plan(grid, kernel, alpha=-nu - 0.5))
    plan_d = cached_plan(
        (grid, "spdSd", nu), lambda: build_lower_plan(grid, kernel_d, alpha=-nu - 0.5, use_deriv=True)
    )
    pref = 2.0 ** (nu + 0.5) * rgamma(0.5 - nu)
    vals = pref * (plan.apply(f) / grid.points + plan_d.apply(f))
    return f.with_values(vals, decay_hint=None)


def spd_inverse_constant(nu: float) -> float:
    """S_nu P_nu = c I for the printed normalizations; this returns c.

    c = Gamma(nu+1/2) / (sqrt(2) Gamma(nu+1)), from the product of the two
    Mellin symbols (the pair is mutually inverse up to this constant).
    """
    return float(
        np.real(gamma_complex(complex(nu + 0.5)) / (np.sqrt(2.0) * gamma_complex(complex(nu + 1.0))))
    )


_HARDY = {"H1": RatioKernel(np.ones_like, "t/x", 0), "H2": RatioKernel(np.ones_like, "x/t")}  # 1 and 1/t


def hardy(which: str, f: SampledFunction) -> SampledFunction:
    """Hardy averages H1 f = (1/x) int_0^x f, H2 f = int_x^inf f(y)/y dy."""
    if which not in _HARDY:
        raise ValueError(f"unknown Hardy variant {which!r}")
    grid = f.grid
    build = build_lower_plan if which == "H1" else build_upper_plan
    vals = cached_plan((grid, which), lambda: build(grid, _HARDY[which])).apply(f)
    if which == "H1":
        vals = vals / grid.points
    return f.with_values(vals, decay_hint=None)


def hardy_shifted(which: str, f: SampledFunction) -> SampledFunction:
    """(I - H1) or (I - H2): the unitary shifted Hardy operators.

    For decaying f the H1 branch leaves a -M0/x tail (M0 the mass of f),
    which the power hint records so norms carry the correct tail mass.
    """
    h = hardy(which, f)
    hint = DecayHint.power(1.0) if which == "H1" else None
    return f.with_values(f.values - h.values, decay_hint=hint)


# side, kernel, head policy: kernels singular at the origin must not use the
# below-hull Taylor extension (operands are required to vanish there).  Each
# kernel is of degree -1: k(x/t)/t or k(t/x)/x.
_U_KERNELS = {
    3: ("lower", RatioKernel(np.ones_like, "x/t"), "zero"),  # 1/t
    4: ("upper", RatioKernel(np.ones_like), None),  # 1/x
    5: ("lower", RatioKernel(lambda z: 3.0 * z, "x/t"), "zero"),  # 3x/t^2
    6: ("lower", RatioKernel(lambda u: -3.0 * u), "taylor"),  # -3t/x^2
    7: ("upper", RatioKernel(lambda u: 3.0 * u), None),  # 3t/x^2
    8: ("upper", RatioKernel(lambda z: -3.0 * z, "x/t"), None),  # -3x/t^2
    9: ("lower", RatioKernel(lambda z: 0.5 * (15.0 * z * z - 3.0), "x/t"), "zero"),  # (15x^2/t^3 - 3/t)/2
    10: ("upper", RatioKernel(lambda u: 0.5 * (15.0 * u * u - 3.0)), None),  # (15t^2/x^3 - 3/x)/2
}


def unitary_u(index: int, f: SampledFunction) -> SampledFunction:
    """The eight elementary unitary Hardy-type operators U_3 ... U_10.

    Each is the identity plus an integral part with a homogeneous kernel;
    the integral formulas represent the unitary closures on operands whose
    relevant kernel moments vanish (otherwise the raw output leaves L2).
    """
    if index not in _U_KERNELS:
        raise ValueError("index must be 3..10")
    side, kern, head = _U_KERNELS[index]
    grid = f.grid
    if side == "lower":
        plan = cached_plan((grid, f"U{index}"), lambda: build_lower_plan(grid, kern, head=head))
    else:
        plan = cached_plan((grid, f"U{index}"), lambda: build_upper_plan(grid, kern))
    return f.with_values(f.values + plan.apply(f), decay_hint=None)


_STIELTJES = RatioKernel(lambda u: 1.0 / (1.0 + u))  # 1/(x + t)


def stieltjes(f: SampledFunction) -> SampledFunction:
    """Stieltjes transform int_0^inf f(t) / (x + t) dt."""
    grid = f.grid
    lo = cached_plan((grid, "stj_lo"), lambda: build_lower_plan(grid, _STIELTJES))
    hi = cached_plan((grid, "stj_hi"), lambda: build_upper_plan(grid, _STIELTJES))
    return f.with_values(lo.apply(f) + hi.apply(f), decay_hint=DecayHint.power(1.0))


def lift_sonine(nu: float, f: SampledFunction) -> SampledFunction:
    """Degree-shift lift: S_nu = S-_(nu-1/2) o (multiply by x^(nu+1/2)).

    The zero-order S- of degree nu - 1/2 intertwines the angular-momentum
    operator of that degree into the second derivative, so the lift
    intertwines the Bessel operator of degree nu into the second derivative.
    """
    weighted = f.with_values(f.grid.points ** (nu + 0.5) * f.values)
    return apply_zero_order(OperatorSpec("zero_order", "S-", nu=nu - 0.5), weighted)


def lift_poisson(nu: float, f: SampledFunction) -> SampledFunction:
    """Degree-shift lift: P_nu = (multiply by x^-(nu+1/2)) o P-_(nu-1/2)."""
    out = apply_zero_order(OperatorSpec("zero_order", "P-", nu=nu - 0.5), f)
    return out.with_values(out.values * f.grid.points ** (-(nu + 0.5)))
