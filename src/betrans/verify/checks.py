"""Theorem-checking harness: each check runs a reproducible numerical
experiment and returns a structured report.

Residual conventions: compositions and isometries are relative L2 over the
grid hull; intertwining residuals are finite-difference limited and
restricted to the interior 60% of the hull.  Expected-failure checks
assert a divergence trend across grid refinements instead of a single
threshold.
"""

from __future__ import annotations

import functools

import numpy as np

from .. import classicops, fracint, mellin
from .._engine import deriv_on_grid, second_deriv_on_grid
from ..beops import (
    OperatorSpec,
    apply,
    apply_first_kind,
    apply_katrakhov,
    apply_second_kind,
    apply_zero_order,
)
from ..numgrid import (
    DecayHint,
    EndpointPower,
    Grid,
    PVInterior,
    SampledFunction,
    make_grid,
    norm_half_line,
    norm_l2,
    quad_singular,
)
from ..specfun import gamma_real, legendre_p_assoc
from ..testfuncs import SUITE, mellin_packet, moment_free_combo, suite_on_grid
from .report import FAIL, PASS, SKIPPED, XFAIL_PASS, VerificationReport

__all__ = [
    "TOL",
    "default_grid",
    "CopsonData",
    "check_intertwining",
    "check_factorization",
    "check_unitarity",
    "check_unbounded_growth",
    "check_seminorm_identity",
    "check_embedding_inequality",
    "copson_check",
    "check_multiplicator_ratio",
    "check_norm_vs_sup",
    "check_functional_equation",
    "check_hardy_identities",
    "check_second_kind_degeneration",
    "check_katrakhov",
    "check_unitary_hardy_suite",
    "check_norm_realization",
]

TOL = {
    "composition": 1e-5,
    "isometry": 1e-5,
    "intertwining": 1e-3,
    "mellin_ratio": 1e-4,
    "funceq": 1e-10,
}

# leading power of each frozen suite member at the origin (admissibility data)
_ORIGIN_ORDER = {"gauss": 0.0, "xexp": 1.0, "bump12": np.inf, "x2gauss": 2.0, "singauss": 1.0}

# members even near the origin: the Kipriyanov spaces' own functions
_EVEN_AT_ORIGIN = frozenset({"gauss", "x2gauss"})

@functools.cache
def default_grid(kind: str) -> Grid:
    """The harness's shared grid of one kind ("main", "fine", "mid" or
    "unitary_hardy"): one object per kind, so the operator plans cached on
    it are reused from check to check."""
    return {
        "main": lambda: make_grid(512),
        "fine": lambda: make_grid(1024),
        "mid": lambda: make_grid(512, (1e-3, 40)),
        "unitary_hardy": lambda: make_grid(1024, (0.7, 12.0)),
    }[kind]()


def _rel_l2(diff_vals: np.ndarray, grid: Grid, ref: float, interior: float = 1.0) -> float:
    return norm_l2(SampledFunction(grid, diff_vals), interior=interior) / ref


def _suite(grid: Grid, names=None):
    """(name, samples) of the named suite members (default: all of
    testfuncs.SUITE, in its order) on grid."""
    return [(name, suite_on_grid(name, grid)) for name in names or SUITE]


def _d2_op(nu: float, f: SampledFunction) -> np.ndarray:
    return second_deriv_on_grid(f.values, f.grid)


def _bessel_op(nu: float, f: SampledFunction) -> np.ndarray:
    x = f.grid.points
    return second_deriv_on_grid(f.values, f.grid) + (2.0 * nu + 1.0) / x * deriv_on_grid(f.values, f.grid)


def _angular_op(nu: float, f: SampledFunction) -> np.ndarray:
    x = f.grid.points
    return second_deriv_on_grid(f.values, f.grid) - nu * (nu + 1.0) / (x * x) * f.values


# (A, B) of each intertwining target "A_to_B": the angular-momentum operator
# D^2 - nu(nu+1)/x^2, the Bessel operator D^2 + (2 nu + 1)/x D, and d^2/dx^2
_INTERTWINING = {
    "angular_to_d2": (_angular_op, _d2_op),
    "bessel_to_d2": (_bessel_op, _d2_op),
    "d2_to_bessel": (_d2_op, _bessel_op),
    "d2_to_angular": (_d2_op, _angular_op),
}


def check_intertwining(op, target: str, f_suite, nu: float, tolerance: float = TOL["intertwining"]) -> VerificationReport:
    """Residual of T(A f) - B(T f) over the interior 60% of the hull.

    op is an OperatorSpec or any callable f -> T f; target names (A, B) in
    _INTERTWINING, with A and B as finite differences on the grid.
    """
    if target not in _INTERTWINING:
        raise ValueError(f"unknown intertwining target {target!r}")
    a_op, b_op = _INTERTWINING[target]
    t_op = functools.partial(apply, op) if isinstance(op, OperatorSpec) else op
    residuals = []
    for _, f in f_suite:
        lhs = t_op(f.with_values(a_op(nu, f))).values
        rhs = b_op(nu, t_op(f))
        residuals.append(_rel_l2(lhs - rhs, f.grid, ref=norm_l2(f), interior=0.6))
    return VerificationReport(
        check_id=f"intertwine[{target};nu={nu:g}]",
        provenance="transmutation intertwining identity, finite-difference differential operators",
        params={"target": target, "nu": nu, "suite": [n for n, _ in f_suite]},
        residuals=residuals,
        tolerance=tolerance,
    )


# ----------------------------------------------------------------------
# factorizations
# ----------------------------------------------------------------------

_FACTORIZATIONS = {
    "thm1_a": "first-kind B0+ = RL(1-mu) after zero-order S0+",
    "thm1_b": "first-kind B- = zero-order P- after right RL(1-mu)",
    "thm1_c": "first-kind E0+ = zero-order P0+ after RL(1-mu)",
    "thm1_d": "first-kind E- = right RL(1-mu) after zero-order S-",
    "thm4_a": "first-kind B0+ via RL and negative-order EK",
    "thm4_b": "first-kind E0+ = power * EK(nu+1) * RL(-(nu+mu))",
    "thm4_c": "first-kind B- via right RL and negative-order EK",
    "thm4_d": "first-kind E- = right RL(-(nu+mu)) * right EK(nu+1) * power",
}


def check_factorization(formula: str, nu: float, mu: float, f_suite, tolerance: float = TOL["composition"]) -> VerificationReport:
    """Two-route evaluation of one first-kind factorization formula.

    Parameter points whose fractional orders leave the integral branch are
    reported SKIPPED, never silently passed.
    """
    params = {"formula": formula, "nu": nu, "mu": mu, "suite": [n for n, _ in f_suite]}

    def _skip(reason):
        return VerificationReport(
            check_id=f"fact[{formula};nu={nu:g},mu={mu:g}]",
            provenance=_FACTORIZATIONS[formula],
            params=params,
            residuals=[],
            tolerance=tolerance,
            status=SKIPPED,
            notes=reason,
        )

    if formula in ("thm4_a", "thm4_c"):
        return _skip("factor requires an Erdelyi-Kober integral of negative order -(nu+1)")
    if formula.startswith("thm1") and not (1.0 - mu > 0):
        return _skip("RL order 1-mu outside the integral branch")
    if formula in ("thm4_b", "thm4_d") and not (-(nu + mu) > 0 and nu + 1 > 0):
        return _skip("fractional orders outside the integral branch")

    residuals = []
    for name, f in f_suite:
        grid = f.grid
        x = grid.points
        ref = norm_l2(f)
        if formula == "thm1_a":
            lhs = apply_first_kind(OperatorSpec("first_kind", "B0+", nu=nu, mu=mu), f)
            inner = apply_zero_order(OperatorSpec("zero_order", "S0+", nu=nu), f)
            rhs = fracint.rl_integral(fracint.FracSpec("rl_left", 1.0 - mu), inner)
        elif formula == "thm1_b":
            lhs = apply_first_kind(OperatorSpec("first_kind", "B-", nu=nu, mu=mu), f)
            inner = fracint.rl_integral(fracint.FracSpec("rl_right", 1.0 - mu), f)
            rhs = apply_zero_order(OperatorSpec("zero_order", "P-", nu=nu), inner)
        elif formula == "thm1_c":
            lhs = apply_first_kind(OperatorSpec("first_kind", "E0+", nu=nu, mu=mu), f)
            inner = fracint.rl_integral(fracint.FracSpec("rl_left", 1.0 - mu), f)
            rhs = apply_zero_order(OperatorSpec("zero_order", "P0+", nu=nu), inner)
        elif formula == "thm1_d":
            lhs = apply_first_kind(OperatorSpec("first_kind", "E-", nu=nu, mu=mu), f)
            inner = apply_zero_order(OperatorSpec("zero_order", "S-", nu=nu), f)
            rhs = fracint.rl_integral(fracint.FracSpec("rl_right", 1.0 - mu), inner)
        elif formula == "thm4_b":
            lhs = apply_first_kind(OperatorSpec("first_kind", "E0+", nu=nu, mu=mu), f)
            step = fracint.rl_integral(fracint.FracSpec("rl_left", -(nu + mu)), f)
            step = fracint.ek_integral(fracint.FracSpec("ek_left", nu + 1.0, -0.5), step)
            rhs = step.with_values((x / 2.0) ** (nu + 1.0) * step.values)
        elif formula == "thm4_d":
            weighted = f.with_values((x / 2.0) ** (nu + 1.0) * f.values)
            step = fracint.ek_integral(fracint.FracSpec("ek_right", nu + 1.0, 0.0), weighted)
            rhs = fracint.rl_integral(fracint.FracSpec("rl_right", -(nu + mu)), step)
            lhs = apply_first_kind(OperatorSpec("first_kind", "E-", nu=nu, mu=mu), f)
        else:
            raise ValueError(f"unknown factorization {formula!r}")
        # compare away from the hull edges: below the operand's support both
        # routes grow algebraically and the difference is pure cancellation
        window = (x >= 0.25) & (x <= 25.0)
        diff = np.where(window, lhs.values - rhs.values, 0.0)
        residuals.append(_rel_l2(diff, grid, ref=ref))
    return VerificationReport(
        check_id=f"fact[{formula};nu={nu:g},mu={mu:g}]",
        provenance=_FACTORIZATIONS[formula],
        params=params,
        residuals=residuals,
        tolerance=tolerance,
    )


# ----------------------------------------------------------------------
# unitarity
# ----------------------------------------------------------------------


def _growing_moments(nu: int) -> list[int]:
    """Powers p whose moments int t^p f dt feed growing terms of S0+ f.

    With P_nu'(z) = sum_j a_j z^j (a_j != 0 for j = nu-1, nu-3, ...),
    S0+ f(x) = f(x) + sum_j a_j x^j int_0^x t^(-j-1) f(t) dt; the j = 0
    term tends to a constant, which the raw P- form annihilates (it acts on
    the derivative), and every j >= 1 term grows like x^j.
    """
    return [-(j + 1) for j in range(nu - 1, 0, -2)]


def _tail_free_mix(spec: OperatorSpec, f1: SampledFunction, f2: SampledFunction) -> SampledFunction:
    """f1 - c f2, c chosen so that the two operands' images cancel at the
    hull top.

    Where a moment of the operand makes an image tend to a constant or grow,
    this kills that moment as the operator's plan integrates it (the
    operator is linear), not only on paper: the residual moment the
    quadrature leaves would otherwise carry across the hull.
    """
    c = apply(spec, f1).values[-1] / apply(spec, f2).values[-1]
    return f1 - f2 * c


def _p_minus_s0_residual(nu: float, f: SampledFunction) -> float:
    """P- S0+ f - I, relative, with P- in its L2 form (path="hardy"):
    unitarity is a statement about the L2 operators, and the raw P- form
    differs from it by moments of its operand, which the raw S0+ image
    carries across the hull."""
    s0 = apply_zero_order(OperatorSpec("zero_order", "S0+", nu=nu), f)
    pm = apply_zero_order(OperatorSpec("zero_order", "P-", nu=nu), s0, path="hardy")
    return _rel_l2(pm.values - f.values, f.grid, norm_half_line(f))


def check_unitarity(nu: float, f_suite, tolerance: float = TOL["isometry"]) -> VerificationReport:
    """Integer-degree unitarity of the zero-order family.

    Norms are half-line norms (numgrid.norm_half_line): S- images tend to
    A + B ln x at the origin (B = 0 when f(0) = 0) and P0+ images decay
    like a power of 1/x, so hull-only sums would miss mass that moves with
    the hull.  Domains, with their reasons:

    * S- isometry: every member.
    * P0+ isometry and P0+ S- = I: P0+ f tends to -P_nu(0) f(0) at
      infinity, which is in L2 only when P_nu(0) f(0) = 0, i.e. at odd nu
      or for operands with f(0) = 0.
    * P- S0+ = I: f/t^nu must be integrable at 0 (origin order >= nu).
      P- is taken in its L2 form (_p_minus_s0_residual), a lower integral
      like S0+, so the composition also holds where the moments of
      _growing_moments(nu) make S0+ f grow like a power of x.  It runs once
      more on a compact operand whose moments are killed as the S0+ plan
      integrates them (_tail_free_mix), where S0+ f stays bounded.

    Excluded members are listed in the report's notes.
    """
    residuals = []
    notes = []
    n_int = int(round(nu))
    for name, f in f_suite:
        grid = f.grid
        nf = norm_half_line(f)
        sm = apply_zero_order(OperatorSpec("zero_order", "S-", nu=nu), f)
        residuals.append(abs(norm_half_line(sm) - nf) / nf)
        if n_int % 2 or _ORIGIN_ORDER[name] > 0:
            p0 = apply_zero_order(OperatorSpec("zero_order", "P0+", nu=nu), f)
            residuals.append(abs(norm_half_line(p0) - nf) / nf)
            p0sm = apply_zero_order(OperatorSpec("zero_order", "P0+", nu=nu), sm)
            residuals.append(_rel_l2(p0sm.values - f.values, grid, nf))
        else:
            notes.append(f"{name}: P0+ image tends to -P_nu(0) f(0) != 0 at infinity")
        if _ORIGIN_ORDER[name] < nu:
            notes.append(f"{name}: 0+ Sonine raw form needs origin order >= nu")
        else:
            residuals.append(_p_minus_s0_residual(nu, f))
    names = [n for n, _ in f_suite]
    moments = _growing_moments(n_int)
    if moments:
        # moment_free_combo kills the moments only to the accuracy of its own
        # rule, and S0+ f grows from what is left
        m0, m1 = (moment_free_combo(f_suite[0][1].grid, powers=moments, which=w) for w in (0, 1))
        f = _tail_free_mix(OperatorSpec("zero_order", "S0+", nu=nu), m0, m1)
        residuals.append(_p_minus_s0_residual(nu, f))
        names.append("moment_free")
    return VerificationReport(
        check_id=f"unitarity[zero_order;nu={nu:g}]",
        provenance="integer-degree unitarity and mutual inversion of the zero-order family",
        params={"nu": nu, "suite": names},
        residuals=residuals,
        tolerance=tolerance,
        notes="; ".join(notes),
    )


def check_unbounded_growth(nu: float = 0.5, levels: int = 3) -> VerificationReport:
    """Expected failure: the 0+ Sonine operator is unbounded at half-odd degrees.

    Mellin wave packets of doubling log-width (on doubling grids) must make
    the isometry defect grow at least twofold per refinement.
    """
    ratios = []
    for j in range(levels):
        width = 24.0 * 2**j
        n = 256 * 2**j
        grid = make_grid(n, (np.exp(-width / 2.0) * 1.5, np.exp(width / 2.0) / 1.5))
        pk = mellin_packet(grid, u0=0.0, width=width / 14.0, deriv_window=True)
        out = apply_zero_order(OperatorSpec("zero_order", "S0+", nu=nu), pk)
        ratios.append(norm_l2(out) / norm_l2(pk))
    defects = [r - 1.0 for r in ratios]
    growth = [defects[j + 1] / defects[j] for j in range(levels - 1)]
    ok = all(d > 0 for d in defects) and all(g >= 2.0 for g in growth)
    return VerificationReport(
        check_id=f"unbounded[zero_order S0+;nu={nu:g}]",
        provenance="unboundedness of the 0+ Sonine form at half-odd degrees (norm formula denominator vanishes)",
        params={"nu": nu, "ratios": [float(r) for r in ratios], "growth": [float(g) for g in growth]},
        residuals=[0.0],
        tolerance=1.0,
        status=XFAIL_PASS if ok else FAIL,
        notes=f"isometry defect grows {growth}",
    )


# ----------------------------------------------------------------------
# seminorms, embeddings, Copson
# ----------------------------------------------------------------------


def _origin_growth_members(alpha: int, f_suite, bound: float):
    """Split a suite into the members whose weighted power
    x^a (-(1/x) d/dx)^a f grows more slowly than x^bound at the origin, and
    notes naming the others.

    Even members (the Kipriyanov spaces' own functions) keep the weighted
    power regular; otherwise f ~ x^k gives x^(k-a) there (members vanishing
    near 0 never grow).  bound = -1/2 is the Kipriyanov domain: the
    seminorm is finite.
    """
    kept, notes = [], []
    for name, f in f_suite:
        growth = _ORIGIN_ORDER[name] - alpha
        if name in _EVEN_AT_ORIGIN or growth > bound:
            kept.append((name, f))
        else:
            notes.append(f"{name}: x^a(-(1/x)d/dx)^a f ~ x^{growth:g} at 0")
    return kept, notes


def check_seminorm_identity(alpha: int, f_suite, tolerance: float = 1e-3) -> VerificationReport:
    """D_-^a f = S-^(a-1) [x^a (-(1/x) d/dx)^a f] and its inverse companion.

    Both sides are compared over the interior 60% of the hull.  Members:
    the Kipriyanov domain (_origin_growth_members, bound -1/2), and beyond
    it those whose weighted power grows at most like 1/x (bound -3/2).
    Outside the domain the raw forms still agree pointwise, but both sides
    grow like x^(k-a) at 0 for f ~ x^k: the inverse companion builds that
    growth from the raw P- moment term M x^(1-a), M = int t^(a-1) (D^a f)' dt
    != 0, which multiplies the grid-difference error of D^a f by x^(1-a),
    and the weighted power is differenced through x^(k-2a+1).  At 1/x the
    window's lower end (1.6e-3) keeps those errors within the tolerance;
    steeper growth (xexp at a = 3) does not, so it is left out.
    """
    if alpha != int(alpha) or alpha < 1:
        raise ValueError("only integer alpha >= 1 is supported")
    alpha = int(alpha)
    f_suite, notes = _origin_growth_members(alpha, f_suite, -1.5)
    residuals = []
    for name, f in f_suite:
        grid = f.grid
        nf = norm_l2(f)
        d_right = fracint.right_derivative_power(alpha, f)
        hat = fracint.neg_inv_x_deriv_power(alpha, f)
        hat = hat.with_values(grid.points**alpha * hat.values)
        lhs1 = apply_zero_order(OperatorSpec("zero_order", "S-", nu=alpha - 1.0), hat)
        residuals.append(_rel_l2(lhs1.values - d_right.values, grid, nf, interior=0.6))
        lhs2 = apply_zero_order(OperatorSpec("zero_order", "P-", nu=alpha - 1.0), d_right)
        residuals.append(_rel_l2(lhs2.values - hat.values, grid, nf, interior=0.6))
    return VerificationReport(
        check_id=f"seminorm[alpha={alpha}]",
        provenance="seminorm identities linking right fractional derivatives and the weighted derivative powers",
        params={"alpha": alpha, "suite": [n for n, _ in f_suite]},
        residuals=residuals,
        tolerance=tolerance,
        notes="; ".join(notes),
    )


def check_embedding_inequality(alpha: int, f_suite, tolerance: float = 1e-6) -> VerificationReport:
    """Seminorm ratios never exceed the closed-form embedding constants.

    Domain: members whose seminorms are finite (_origin_growth_members,
    bound -1/2: the Kipriyanov domain).  The seminorms are half-line norms
    (numgrid.norm_half_line) of the samples in the interior 80% of the
    hull, where the grid differences are accurate:
    at even a, D^a f(0) != 0 while the weighted power vanishes at 0, so a
    window alone would drop mass from one side only.
    """
    if abs(np.sin(np.pi * alpha) + 1.0) < 1e-12:
        raise ValueError("alpha excluded: sin(pi alpha) = -1")
    sin_pa = float(np.sin(np.pi * alpha))
    c_fwd = max(1.0, np.sqrt(1.0 + sin_pa))
    c_bwd = 1.0 / min(1.0, np.sqrt(1.0 + sin_pa))
    f_suite, notes = _origin_growth_members(int(alpha), f_suite, -0.5)
    margins = []
    term_resid = []
    for name, f in f_suite:
        grid = f.grid
        mask = grid.interior_mask(0.8)
        d_right = fracint.right_derivative_power(int(alpha), f)
        hat = fracint.neg_inv_x_deriv_power(int(alpha), f)
        h_norm = norm_half_line(d_right, mask)
        hat_norm = norm_half_line(hat.with_values(hat.values * grid.points ** int(alpha)), mask)
        if hat_norm > 0:
            margins.append(max(0.0, h_norm / hat_norm - c_fwd))
        if h_norm > 0:
            margins.append(max(0.0, hat_norm / h_norm - c_bwd))
        if int(alpha) == alpha:
            term_resid.append(abs(h_norm - hat_norm) / max(h_norm, 1e-300))
    if term_resid:
        notes.insert(0, f"termwise norm match max {max(term_resid):.2e}")
    return VerificationReport(
        check_id=f"embedding[alpha={alpha}]",
        provenance="sharp-constant seminorm inequalities (termwise equality at integer order)",
        params={
            "alpha": alpha,
            "constants": [c_fwd, c_bwd],
            "termwise_match": [float(t) for t in term_resid],
            "suite": [n for n, _ in f_suite],
        },
        residuals=margins,
        tolerance=tolerance,
        notes="; ".join(notes),
    )


class CopsonData:
    """Characteristic data for the singular hyperbolic boundary relation."""

    def __init__(self, alpha: float, beta: float, f):
        if not (beta > alpha > 0):
            raise ValueError("requires beta > alpha > 0")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.f = f


def copson_check(data: CopsonData, abscissae=None, tolerance: float = 1e-4) -> VerificationReport:
    """Consistency of the characteristic-data relation.

    The second boundary function g is produced from f by the Abel-type
    integral; both sides of the Legendre-kernel identity are then compared
    at several abscissae.
    """
    a_, b_ = data.alpha, data.beta
    if b_ - a_ < 1e-9:
        raise ZeroDivisionError("relation degenerates as beta -> alpha (gamma factor pole)")
    f = data.f
    c_g = 2.0 * gamma_real(b_ + 0.5) / (gamma_real(a_ + 0.5) * gamma_real(b_ - a_))

    def g(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.empty_like(y)
        for i, yy in enumerate(y):
            if b_ - a_ - 1.0 < 0:
                val = quad_singular(
                    lambda t: t ** (2 * a_) * f(t) * (yy * yy - t * t) ** (b_ - a_ - 1.0),
                    (0.0, yy),
                    EndpointPower(b_ - a_ - 1.0, yy),
                )
            else:
                val = quad_singular(lambda t: t ** (2 * a_) * f(t) * (yy * yy - t * t) ** (b_ - a_ - 1.0), (0.0, yy))
            out[i] = c_g * yy ** (1.0 - 2.0 * b_) * val
        return out

    def lhs_rhs(x):
        """Both characteristic functions lifted to the common order a+b.

        Each side is a Legendre-kernel average: the kernel is written
        through the degenerate associated function of equal degree and
        opposite order, P_s^(-s)(t) = (1-t^2)^(s/2) / (2^s Gamma(s+1)),
        so the identity is the order-lifting average in Legendre form.
        """
        mu_star = a_ + b_

        def side(boundary_fn, gamma_):
            s_ = mu_star - gamma_ - 0.5
            coef = (
                2.0
                * gamma_real(mu_star + 1.0)
                / (gamma_real(gamma_ + 0.5) * gamma_real(mu_star - gamma_ + 0.5))
                * 2.0**s_
                * gamma_real(s_ + 1.0)
            )

            def integrand(t):
                return (
                    boundary_fn(x * t)
                    * t ** (2.0 * gamma_)
                    * (1.0 - t * t) ** (s_ / 2.0)
                    * legendre_p_assoc(s_, -s_, t, "on_cut")
                )

            alpha_end = s_  # combined (1-t) exponent at t = 1
            if alpha_end < 0:
                val = quad_singular(integrand, (0.0, 1.0), EndpointPower(alpha_end, 1.0))
            else:
                val = quad_singular(integrand, (0.0, 1.0))
            return coef * val

        return side(f, a_), side(g, b_)

    xs = abscissae if abscissae is not None else np.linspace(0.25, 2.5, 10)
    residuals = []
    for x in xs:
        lhs, rhs = lhs_rhs(float(x))
        residuals.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return VerificationReport(
        check_id=f"copson[alpha={a_:g},beta={b_:g}]",
        provenance="characteristic-data constraint of the singular hyperbolic equation (Legendre-kernel identity)",
        params={"alpha": a_, "beta": b_, "n_abscissae": len(list(xs))},
        residuals=residuals,
        tolerance=tolerance,
    )


# ----------------------------------------------------------------------
# Mellin-side checks
# ----------------------------------------------------------------------


def check_multiplicator_ratio(
    spec: OperatorSpec,
    f: SampledFunction,
    f_name: str,
    u_points=None,
    tolerance: float = 1e-3,
    apply_fn=None,
) -> VerificationReport:
    """Measured Mellin symbol M[Af]/M[f] on the critical line vs closed form."""
    u = np.linspace(-4.0, 4.0, 9) if u_points is None else np.asarray(u_points)
    af = (apply_fn or (lambda s, g: apply(s, g)))(spec, f)
    measured = mellin.measured_multiplicator(f, af, 0.5, u)
    expected = mellin.multiplicator(spec, 0.5 + 1j * u)
    residuals = list(np.abs(measured - expected) / np.abs(expected))
    return VerificationReport(
        check_id=f"mult[{spec.label};{f_name}]",
        provenance="Mellin convolution: the operator acts by multiplication with its closed-form symbol",
        params={"operator": spec.label, "f": f_name, "u": [float(v) for v in u]},
        residuals=residuals,
        tolerance=tolerance,
    )


def check_norm_vs_sup(spec: OperatorSpec, tolerance: float = TOL["mellin_ratio"]) -> VerificationReport:
    """Closed-form operator norm against the numerical critical-line supremum."""
    closed = mellin.operator_norm(spec)
    if not np.isfinite(closed):
        return VerificationReport(
            check_id=f"norm[{spec.label}]",
            provenance="operator norm formula (unbounded case)",
            params={"operator": spec.label, "closed_form": "inf"},
            residuals=[0.0],
            tolerance=tolerance,
            status=SKIPPED,
            notes="unbounded: no finite supremum to compare",
        )
    sup = mellin.numeric_line_sup(spec)
    return VerificationReport(
        check_id=f"norm[{spec.label}]",
        provenance="operator norm formula vs numerical critical-line supremum",
        params={"operator": spec.label, "closed_form": closed, "numeric_sup": sup},
        residuals=[abs(closed - sup)],
        tolerance=tolerance,
    )


def check_functional_equation(spec: OperatorSpec, s_samples, tolerance: float = TOL["funceq"]) -> VerificationReport:
    """Check the degree-shift functional equation of a transmutation symbol.

    Holds for symbols of operators intertwining the angular-momentum
    operator with the second derivative, and is stable under multiplication
    by any period-2 factor.
    """
    nu = float(np.real(spec.nu)) if spec.nu is not None else 0.0
    res = mellin.funceq_residuals(lambda s: mellin.multiplicator(spec, s), nu, s_samples)
    return VerificationReport(
        check_id=f"funceq[{spec.label}]",
        provenance="multiplicator functional equation under the degree-2 Mellin shift",
        params={"operator": spec.label, "n_samples": int(len(np.atleast_1d(s_samples)))},
        residuals=list(res),
        tolerance=tolerance,
    )


# ----------------------------------------------------------------------
# named composite checks
# ----------------------------------------------------------------------


def check_hardy_identities(tolerance: float = 1e-8) -> VerificationReport:
    """P0+ at degree 1 equals I - H1 and S- at degree 1 equals I - H2, pointwise."""
    grid = default_grid("fine")
    residuals = []
    mask = grid.interior_mask(0.8)
    for name in ("xexp", "x2gauss"):
        f = suite_on_grid(name, grid)
        p0 = apply_zero_order(OperatorSpec("zero_order", "P0+", nu=1.0), f)
        direct = classicops.hardy_shifted("H1", f)
        residuals.append(float(np.max(np.abs(p0.values - direct.values)[mask])))
        sm = apply_zero_order(OperatorSpec("zero_order", "S-", nu=1.0), f)
        direct = classicops.hardy_shifted("H2", f)
        residuals.append(float(np.max(np.abs(sm.values - direct.values)[mask])))
    return VerificationReport(
        check_id="hardy_identities",
        provenance="degree-1 zero-order operators reduce to the shifted Hardy averages",
        params={"suite": ["xexp", "x2gauss"]},
        residuals=residuals,
        tolerance=tolerance,
    )


def check_shifted_hardy_unitarity(tolerance: float = 1e-6) -> VerificationReport:
    """(I-H1), (I-H2) are isometric and mutually inverse.

    The H1 branch leaves a mass/x tail and the H2 branch tends to
    A + B ln x at the origin, so isometries use half-line norms
    (numgrid.norm_half_line), and the (I-H2)(I-H1) composition is exercised on a
    zero-mass operand (where the raw integral forms represent the unitary
    closures exactly); the other direction runs on generic members.
    """
    from ..testfuncs import zero_mean_bump

    grid = default_grid("main")
    residuals = []
    for name, f in _suite(grid, ["xexp", "bump12", "x2gauss", "singauss"]):
        nf = norm_l2(f)
        a = classicops.hardy_shifted("H1", f)
        b = classicops.hardy_shifted("H2", f)
        residuals.append(abs(norm_half_line(a) - nf) / nf)
        residuals.append(abs(norm_half_line(b) - nf) / nf)
        residuals.append(_rel_l2(classicops.hardy_shifted("H1", b).values - f.values, grid, nf))
    zm = zero_mean_bump(grid)
    nzm = norm_l2(zm)
    a = classicops.hardy_shifted("H1", zm)
    residuals.append(abs(norm_l2(a) - nzm) / nzm)
    residuals.append(_rel_l2(classicops.hardy_shifted("H2", a).values - zm.values, grid, nzm))
    return VerificationReport(
        check_id="hardy_shifted_unitarity",
        provenance="unitarity and mutual inversion of the shifted Hardy operators",
        params={"note": "mass/x tails completed; one composition direction on a zero-mass operand"},
        residuals=residuals,
        tolerance=tolerance,
    )


def check_second_kind_degeneration(tolerance: float = 1e-5) -> VerificationReport:
    """Degenerate second-kind operators against an independent PV oracle."""
    grid = default_grid("main")
    residuals = []
    for name in ("x2gauss", "xexp"):
        f = suite_on_grid(name, grid)
        interior = grid.interior_mask(0.7)
        pts = grid.points[interior][:: max(1, np.count_nonzero(interior) // 24)]
        for nu, kernel in ((0.0, "y"), (-1.0, "x")):
            out = apply_second_kind(OperatorSpec("second_kind", "S", nu=nu), f)
            for x0 in pts:
                def integrand(y):
                    num = y if kernel == "y" else x0
                    return 2.0 / np.pi * num * f(y) / (x0 * x0 - y * y)

                ref = quad_singular(
                    integrand, (grid.hull[0], grid.hull[1]), singularity=PVInterior(float(x0))
                )
                i = int(np.argmin(np.abs(grid.points - x0)))
                residuals.append(abs(out.values[i] - ref) / max(norm_l2(f), 1e-300))
    return VerificationReport(
        check_id="second_kind_degeneration",
        provenance="degenerate second-kind operators are the half-line Hilbert-transform pair",
        params={"suite": ["x2gauss", "xexp"]},
        residuals=residuals,
        tolerance=tolerance,
    )


def check_katrakhov(nu_values=(0.5, 0.7, 1.5), tolerance: float = 1e-4, path_tol: float = 1e-5) -> VerificationReport:
    """Third-kind unitarity: isometry, inversion, and agreement of the plans
    with the symbol applied on the critical line (mellin.line_apply; x^(1/2) f
    of both operands is negligible at the hull ends)."""
    grid = default_grid("main")
    iso, inv, agree = [], [], []
    for nu in nu_values:
        for name, f in _suite(grid, ["bump12", "x2gauss"]):
            nf = norm_l2(f)
            su = apply_katrakhov(OperatorSpec("katrakhov", "S", nu=nu), f)
            iso.append(abs(norm_l2(su) - nf) / nf)
            pu = apply_katrakhov(OperatorSpec("katrakhov", "P", nu=nu), su)
            inv.append(_rel_l2(pu.values - f.values, grid, nf))
            by_symbol = mellin.line_apply(OperatorSpec("katrakhov", "S", nu=nu), f)
            agree.append(_rel_l2(su.values - by_symbol.values, grid, nf))
    status = PASS if (max(iso + inv) <= tolerance and max(agree) <= path_tol) else FAIL
    return VerificationReport(
        check_id="katrakhov_unitarity",
        provenance="third-kind combinations are unitary and mutually inverse for every real degree",
        params={
            "nu": list(nu_values),
            "isometry_max": float(max(iso)),
            "inverse_max": float(max(inv)),
            "path_agreement_max": float(max(agree)),
            "path_tolerance": path_tol,
        },
        residuals=iso + inv,
        tolerance=tolerance,
        status=status,
        notes=f"paths agree to {max(agree):.2e} (tol {path_tol:g})",
    )


def check_unitary_hardy_suite(tolerance: float = 1e-6) -> VerificationReport:
    """All eight elementary unitary operators: isometry and pair inversion."""
    grid = default_grid("unitary_hardy")
    combos = [moment_free_combo(grid, which=w) for w in (0, 1)]
    residuals = []
    for k in range(3, 11):
        for mf in combos:
            residuals.append(abs(norm_l2(classicops.unitary_u(k, mf)) - norm_l2(mf)) / norm_l2(mf))
    for a, b in ((3, 4), (5, 6), (7, 8), (9, 10)):
        for mf in combos:
            nf = norm_l2(mf)
            residuals.append(_rel_l2(classicops.unitary_u(b, classicops.unitary_u(a, mf)).values - mf.values, grid, nf))
            residuals.append(_rel_l2(classicops.unitary_u(a, classicops.unitary_u(b, mf)).values - mf.values, grid, nf))
    return VerificationReport(
        check_id="unitary_hardy_suite",
        provenance="the eight elementary Hardy-type operators are unitary mutually inverse pairs",
        params={"pairing": "(3,4),(5,6),(7,8),(9,10)", "domain": "kernel-moment-free compact functions"},
        residuals=residuals,
        tolerance=tolerance,
    )


def check_norm_realization(nu: float = -0.5, n_random: int = 50, tolerance: float = 1e-6) -> VerificationReport:
    """Empirical operator norm never exceeds the closed form; an adversarial
    packet at the maximizing frequency realizes at least 90% of it."""
    grid = default_grid("main")
    spec = OperatorSpec("zero_order", "S0+", nu=nu)
    closed = mellin.operator_norm(spec)
    rng = np.random.default_rng(20240817)
    members = [suite_on_grid(n, grid) for n in ("xexp", "bump12", "x2gauss", "singauss")]
    over = []
    for _ in range(n_random):
        coef = rng.normal(size=len(members))
        vals = sum(c * m.values for c, m in zip(coef, members))
        f = SampledFunction(grid, vals, DecayHint.exponential())
        ratio = norm_l2(apply_zero_order(spec, f)) / norm_l2(f)
        over.append(max(0.0, ratio - closed))
    packet = mellin_packet(grid, u0=6.0, width=1.6)
    ratio = norm_l2(apply_zero_order(spec, packet)) / norm_l2(packet)
    realized = ratio / closed
    status = PASS if (max(over) <= tolerance and realized >= 0.9) else FAIL
    return VerificationReport(
        check_id=f"norm_realization[nu={nu:g}]",
        provenance="closed-form norm bounds every empirical ratio and is approached by the maximizing-frequency packet",
        params={"nu": nu, "closed_form": closed, "realized_fraction": float(realized)},
        residuals=list(over),
        tolerance=tolerance,
        status=status,
        notes=f"adversarial packet realizes {realized:.3f} of the norm",
    )
