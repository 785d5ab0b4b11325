"""Classical transmutations and elementary unitary operators.

Sonine-Poisson-Delsarte operators, Hardy averages, the eight elementary
unitary Hardy-type operators, the Stieltjes transform, and the degree-shift
lifting that turns angular-momentum transmutations into Bessel-operator
ones.
"""

from __future__ import annotations

import numpy as np

from ._engine import build_lower_plan, build_upper_plan
from .beops.specs import OperatorSpec
from .beops.zero_order import _plan, apply_zero_order
from .numgrid import DecayHint, SampledFunction, grid_key
from .specfun import gamma_complex

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


def _rgamma(x: float) -> float:
    return float(np.real(1.0 / gamma_complex(complex(x))))


def spd_poisson(nu: float, f: SampledFunction) -> SampledFunction:
    """Poisson transmutation: x^(-2nu)/(Gamma(nu+1) 2^nu) int_0^x (x^2-t^2)^(nu-1/2) f dt."""
    if nu <= -0.5:
        raise ValueError("spd_poisson requires nu > -1/2")
    grid = f.grid
    alpha = nu - 0.5 if abs((nu - 0.5) - round(nu - 0.5)) > 1e-9 or nu < 0.5 else None
    plan = _plan(
        ("spdP", nu, grid_key(grid)),
        lambda: build_lower_plan(grid, lambda x, t: (x * x - t * t) ** (nu - 0.5), alpha=alpha),
    )
    pref = _rgamma(nu + 1.0) / 2.0**nu * grid.points ** (-2.0 * nu)
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

    def kern(x, t):
        return (x * x - t * t) ** (-nu - 0.5) * t ** (2.0 * nu + 1.0)

    plan = _plan(
        ("spdS", nu, grid_key(grid)),
        lambda: build_lower_plan(grid, kern, alpha=-nu - 0.5),
    )
    plan_d = _plan(
        ("spdSd", nu, grid_key(grid)),
        lambda: build_lower_plan(
            grid,
            lambda x, t: kern(x, t) * t / x,
            alpha=-nu - 0.5,
            use_deriv=True,
        ),
    )
    pref = 2.0 ** (nu + 0.5) * _rgamma(0.5 - nu)
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


def hardy(which: str, f: SampledFunction) -> SampledFunction:
    """Hardy averages H1 f = (1/x) int_0^x f, H2 f = int_x^inf f(y)/y dy."""
    grid = f.grid
    if which == "H1":
        plan = _plan(("H1", grid_key(grid)), lambda: build_lower_plan(grid, lambda x, t: np.ones_like(t)))
        vals = plan.apply(f) / grid.points
    elif which == "H2":
        plan = _plan(("H2", grid_key(grid)), lambda: build_upper_plan(grid, lambda x, t: 1.0 / t))
        vals = plan.apply(f)
    else:
        raise ValueError(f"unknown Hardy variant {which!r}")
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
# below-hull Taylor extension (operands are required to vanish there)
_U_KERNELS = {
    3: ("lower", lambda x, t: 1.0 / t, "zero"),
    4: ("upper", lambda x, t: 1.0 / x, None),
    5: ("lower", lambda x, t: 3.0 * x / (t * t), "zero"),
    6: ("lower", lambda x, t: -3.0 * t / (x * x), "taylor"),
    7: ("upper", lambda x, t: 3.0 * t / (x * x), None),
    8: ("upper", lambda x, t: -3.0 * x / (t * t), None),
    9: ("lower", lambda x, t: 0.5 * (15.0 * x * x / t**3 - 3.0 / t), "zero"),
    10: ("upper", lambda x, t: 0.5 * (15.0 * t * t / x**3 - 3.0 / x), None),
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
        plan = _plan((f"U{index}", grid_key(grid)), lambda: build_lower_plan(grid, kern, head=head))
    else:
        plan = _plan((f"U{index}", grid_key(grid)), lambda: build_upper_plan(grid, kern))
    return f.with_values(f.values + plan.apply(f), decay_hint=None)


def stieltjes(f: SampledFunction) -> SampledFunction:
    """Stieltjes transform int_0^inf f(t) / (x + t) dt."""
    grid = f.grid
    kern = lambda x, t: 1.0 / (x + t)
    lo = _plan(("stj_lo", grid_key(grid)), lambda: build_lower_plan(grid, kern))
    hi = _plan(("stj_hi", grid_key(grid)), lambda: build_upper_plan(grid, kern))
    return f.with_values(lo.apply(f) + hi.apply(f), decay_hint=DecayHint.power(1.0))


def lift_sonine(nu: float, f: SampledFunction, base_variant: str = "S-") -> SampledFunction:
    """Degree-shift lift: S_nu = X_(nu-1/2) o (multiply by x^(nu+1/2)).

    With a base X intertwining the angular-momentum operator of degree
    nu - 1/2 into the second derivative, the lift intertwines the Bessel
    operator of degree nu into the second derivative.
    """
    weighted = f.with_values(f.grid.points ** (nu + 0.5) * f.values)
    return apply_zero_order(OperatorSpec("zero_order", base_variant, nu=nu - 0.5), weighted)


def lift_poisson(nu: float, f: SampledFunction, base_variant: str = "P-") -> SampledFunction:
    """Degree-shift lift: P_nu = (multiply by x^-(nu+1/2)) o Y_(nu-1/2)."""
    out = apply_zero_order(OperatorSpec("zero_order", base_variant, nu=nu - 0.5), f)
    return out.with_values(out.values * f.grid.points ** (-(nu + 0.5)))
