"""Theorem-checking harness: every check of `betrans verify`.

Each check is one function that runs a reproducible numerical experiment
and returns a structured report; its docstring states the theorem and the
operand domain.  A check does not name its report: the id is the key of
the check's row in verify.registry, and run_checks writes it in.

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
    apply_second_kind_2param,
    apply_weighted_third,
    apply_zero_order,
    fourier_cosine,
    fourier_sine,
    hankel,
)
from ..catalog import mellin_row
from ..numgrid import (
    DecayHint,
    EndpointPower,
    Grid,
    PVInterior,
    SampledFunction,
    integrate_smooth,
    make_grid,
    norm_half_line,
    norm_l2,
    quad_singular,
)
from ..specfun import bessel_j_normalized, gamma_real, legendre_p_assoc
from ..testfuncs import SUITE, mellin_packet, moment_free_combo, suite_on_grid, wide_bump, zero_mean_bump
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
    "check_stieltjes_symbol",
    "check_inverse_pair",
    "check_norm_vs_sup",
    "check_norm_periodicity",
    "check_norm_realization",
    "check_functional_equation",
    "check_hardy_identities",
    "check_shifted_hardy_unitarity",
    "check_unitary_hardy_suite",
    "check_second_kind_degeneration",
    "check_second_kind_2param",
    "check_first_kind_reductions",
    "check_katrakhov",
    "check_katrakhov_identity",
    "check_lifted_pair",
    "check_spd_identities",
    "check_spd_poisson_bessel",
    "check_stieltjes_value",
    "check_stieltjes_composed",
    "check_transforms",
    "check_weighted_third_inverse",
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


def _report(provenance: str, params: dict, residuals, tolerance: float, **kw) -> VerificationReport:
    """A check's report, left unnamed: its caller gives it its id."""
    return VerificationReport("", provenance, params, residuals, tolerance, **kw)


def _rel_l2(diff_vals: np.ndarray, grid: Grid, ref: float, interior: float = 1.0) -> float:
    return norm_l2(SampledFunction(grid, diff_vals), interior=interior) / ref


def _suite(names=None, kind: str = "main"):
    """(name, samples) of the named members on the harness grid of that
    kind: testfuncs.SUITE's (default: all of them, in its order), and
    "wide_bump", testfuncs.wide_bump."""
    grid = default_grid(kind)
    return [(name, wide_bump(grid) if name == "wide_bump" else suite_on_grid(name, grid)) for name in names or SUITE]


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


def check_intertwining(op, target: str, names, nu: float, kind: str = "main") -> VerificationReport:
    """Transmutation identity T A f = B T f, residual over the interior 60%
    of the hull.

    op is an OperatorSpec or any callable f -> T f; target names (A, B) in
    _INTERTWINING, with A and B as finite differences on the grid.  The
    operands are the named members (_suite) on the harness grid of that kind.

    Domain: operands smooth enough for fourth-order differences, whose
    images the grid resolves (wide_bump and x2gauss on the main grid).  The
    0+ Sonine form needs operands vanishing faster than x^(nu+1) at the
    origin (a constant defect -3 f''(0)/2 otherwise), so it takes the
    compact wide_bump.  The classical Sonine-Poisson pair wants even-type
    behaviour at the origin and resolvable images: a compact operand on the
    fine grid.  The weighted third kind runs on the mid grid, whose hull its
    spectral transforms need.
    """
    if target not in _INTERTWINING:
        raise ValueError(f"unknown intertwining target {target!r}")
    a_op, b_op = _INTERTWINING[target]
    t_op = functools.partial(apply, op) if isinstance(op, OperatorSpec) else op
    f_suite = _suite(names, kind)
    residuals = []
    for _, f in f_suite:
        lhs = t_op(f.with_values(a_op(nu, f))).values
        rhs = b_op(nu, t_op(f))
        residuals.append(_rel_l2(lhs - rhs, f.grid, ref=norm_l2(f), interior=0.6))
    return _report(
        "transmutation intertwining identity, finite-difference differential operators",
        {"target": target, "nu": nu, "suite": [n for n, _ in f_suite]},
        residuals,
        TOL["intertwining"],
    )


# ----------------------------------------------------------------------
# factorizations
# ----------------------------------------------------------------------

_FACTORIZATIONS = {
    "thm1_a": ("B0+", "first-kind B0+ = RL(1-mu) after zero-order S0+"),
    "thm1_b": ("B-", "first-kind B- = zero-order P- after right RL(1-mu)"),
    "thm1_c": ("E0+", "first-kind E0+ = zero-order P0+ after RL(1-mu)"),
    "thm1_d": ("E-", "first-kind E- = right RL(1-mu) after zero-order S-"),
    "thm4_a": ("B0+", "first-kind B0+ via RL and negative-order EK"),
    "thm4_b": ("E0+", "first-kind E0+ = power * EK(nu+1) * RL(-(nu+mu))"),
    "thm4_c": ("B-", "first-kind B- via right RL and negative-order EK"),
    "thm4_d": ("E-", "first-kind E- = right RL(-(nu+mu)) * right EK(nu+1) * power"),
}

# the second route of each thm1 formula: its zero-order variant, the side of
# its Riemann-Liouville integral RL(1-mu), and whether RL acts first
_THM1_ROUTES = {
    "thm1_a": ("S0+", "rl_left", False),
    "thm1_b": ("P-", "rl_right", True),
    "thm1_c": ("P0+", "rl_left", True),
    "thm1_d": ("S-", "rl_right", False),
}


def check_factorization(formula: str, nu: float, mu: float) -> VerificationReport:
    """Two-route evaluation of one first-kind factorization formula
    (_FACTORIZATIONS), compared on 0.25 <= x <= 25.

    Domain: bump12 on the main grid, and parameter points whose fractional
    orders stay on the integral branch (RL order 1 - mu > 0 for thm1;
    -(nu + mu) > 0 and nu + 1 > 0 for thm4_b and thm4_d).  Other points,
    and thm4_a and thm4_c, whose factors need an Erdelyi-Kober integral of
    negative order, are reported SKIPPED, never silently passed.
    """
    if formula not in _FACTORIZATIONS:
        raise ValueError(f"unknown factorization {formula!r}")
    variant, provenance = _FACTORIZATIONS[formula]
    params = {"formula": formula, "nu": nu, "mu": mu, "suite": ["bump12"]}

    def _skip(reason):
        return _report(provenance, params, [], TOL["composition"], status=SKIPPED, notes=reason)

    if formula in ("thm4_a", "thm4_c"):
        return _skip("factor requires an Erdelyi-Kober integral of negative order -(nu+1)")
    if formula.startswith("thm1") and not (1.0 - mu > 0):
        return _skip("RL order 1-mu outside the integral branch")
    if formula in ("thm4_b", "thm4_d") and not (-(nu + mu) > 0 and nu + 1 > 0):
        return _skip("fractional orders outside the integral branch")

    f = suite_on_grid("bump12", default_grid("main"))
    x = f.grid.points
    lhs = apply_first_kind(OperatorSpec("first_kind", variant, nu=nu, mu=mu), f)
    if formula in _THM1_ROUTES:
        zero_variant, side, rl_first = _THM1_ROUTES[formula]
        zero = functools.partial(apply_zero_order, OperatorSpec("zero_order", zero_variant, nu=nu))
        rl = functools.partial(fracint.rl_integral, fracint.FracSpec(side, 1.0 - mu))
        rhs = zero(rl(f)) if rl_first else rl(zero(f))
    elif formula == "thm4_b":
        step = fracint.rl_integral(fracint.FracSpec("rl_left", -(nu + mu)), f)
        step = fracint.ek_integral(fracint.FracSpec("ek_left", nu + 1.0, -0.5), step)
        rhs = step.with_values((x / 2.0) ** (nu + 1.0) * step.values)
    else:
        weighted = f.with_values((x / 2.0) ** (nu + 1.0) * f.values)
        step = fracint.ek_integral(fracint.FracSpec("ek_right", nu + 1.0, 0.0), weighted)
        rhs = fracint.rl_integral(fracint.FracSpec("rl_right", -(nu + mu)), step)
    # compare away from the hull edges: below the operand's support both
    # routes grow algebraically and the difference is pure cancellation
    window = (x >= 0.25) & (x <= 25.0)
    diff = np.where(window, lhs.values - rhs.values, 0.0)
    return _report(provenance, params, [_rel_l2(diff, f.grid, ref=norm_l2(f))], TOL["composition"])


def check_first_kind_reductions() -> VerificationReport:
    """First-kind operators reduce to plain integration at degree 0 and
    order 0 (B0+ 1 = x), and at order mu = -nu to an Erdelyi-Kober integral:
    B0+^(nu,-nu) = (x^(nu+1)/2^(nu+1)) EK(nu+1, -(nu+1)/2), here at nu = 1/2.

    Domain: the constant 1 (B0+ 1 = x holds pointwise; relative error over
    the whole hull) and bump12, compact, for the Erdelyi-Kober reduction;
    both on the main grid.
    """
    grid = default_grid("main")
    x = grid.points
    res = []
    ones = SampledFunction(grid, np.ones_like(x), DecayHint.power(0.0))
    b = apply_first_kind(OperatorSpec("first_kind", "B0+", nu=0.0, mu=0.0), ones)
    res.append(float(np.max(np.abs(b.values - x) / x)))
    nu = 0.5
    for name, f in _suite(["bump12"]):
        lhs = apply_first_kind(OperatorSpec("first_kind", "B0+", nu=nu, mu=-nu), f)
        ek = fracint.ek_integral(fracint.FracSpec("ek_left", nu + 1.0, -(nu + 1.0) / 2.0), f)
        rhs = x ** (nu + 1.0) / 2.0 ** (nu + 1.0) * ek.values
        res.append(norm_l2(SampledFunction(grid, lhs.values - rhs), interior=1.0) / norm_l2(f))
    return _report(
        "first-kind operators reduce to plain integration (degree 0) and Erdelyi-Kober integrals (order = -degree)",
        {"nu": nu},
        res,
        1e-6,
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


def check_unitarity(nu: float) -> VerificationReport:
    """Integer-degree unitarity of the zero-order family, on every suite
    member on the main grid.

    Norms are half-line norms (numgrid.norm_half_line): S- images tend to
    A + B ln x at the origin (B = 0 when f(0) = 0) and P0+ images decay
    like a power of 1/x, so hull-only sums would miss mass that moves with
    the hull.  Domain: it depends on the identity, for these reasons:

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
    f_suite = _suite()
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
    return _report(
        "integer-degree unitarity and mutual inversion of the zero-order family",
        {"nu": nu, "suite": names},
        residuals,
        TOL["isometry"],
        notes="; ".join(notes),
    )


def check_unbounded_growth(nu: float = 0.5, levels: int = 3) -> VerificationReport:
    """Expected failure: the 0+ Sonine operator is unbounded at half-odd
    degrees (its norm formula's denominator vanishes).

    Domain: Mellin wave packets centred at u = 0, of doubling log-width on
    doubling grids (log-width 24 2^j, n = 256 2^j), each with its window's
    derivative so that it lies in the operator's natural domain; the
    isometry defect must grow at least twofold per refinement.
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
    return _report(
        "unboundedness of the 0+ Sonine form at half-odd degrees (norm formula denominator vanishes)",
        {"nu": nu, "ratios": [float(r) for r in ratios], "growth": [float(g) for g in growth]},
        [0.0],
        1.0,
        status=XFAIL_PASS if ok else FAIL,
        notes=f"isometry defect grows {growth}",
    )


def check_hardy_identities() -> VerificationReport:
    """At degree 1 the zero-order operators are the shifted Hardy averages:
    P0+ = I - H1 and S- = I - H2, pointwise.

    Domain: xexp and x2gauss on the fine grid, compared on the interior 80%
    of the hull.
    """
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
    return _report(
        "degree-1 zero-order operators reduce to the shifted Hardy averages",
        {"suite": ["xexp", "x2gauss"]},
        residuals,
        1e-8,
    )


def check_shifted_hardy_unitarity() -> VerificationReport:
    """(I-H1), (I-H2) are isometric and mutually inverse.

    Domain: xexp, bump12, x2gauss and singauss on the main grid.  The H1
    branch leaves a mass/x tail and the H2 branch tends to A + B ln x at
    the origin, so isometries use half-line norms
    (numgrid.norm_half_line), and the (I-H2)(I-H1) composition is exercised
    on a zero-mass operand (where the raw integral forms represent the
    unitary closures exactly); the other direction runs on generic members.
    """
    grid = default_grid("main")
    residuals = []
    for name, f in _suite(["xexp", "bump12", "x2gauss", "singauss"]):
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
    return _report(
        "unitarity and mutual inversion of the shifted Hardy operators",
        {"note": "mass/x tails completed; one composition direction on a zero-mass operand"},
        residuals,
        1e-6,
    )


def check_unitary_hardy_suite() -> VerificationReport:
    """All eight elementary unitary operators U3..U10: isometry, and
    inversion of the pairs (3,4), (5,6), (7,8), (9,10).

    Domain: kernel-moment-free compact functions (both moment_free_combo
    combinations on the unitary_hardy grid), the natural domain of the raw
    integral forms: on operands with nonzero moments U3, U4, U5, U7, U9 and
    U10 leave L2.
    """
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
    return _report(
        "the eight elementary Hardy-type operators are unitary mutually inverse pairs",
        {"pairing": "(3,4),(5,6),(7,8),(9,10)", "domain": "kernel-moment-free compact functions"},
        residuals,
        1e-6,
    )


def check_katrakhov() -> VerificationReport:
    """Third-kind unitarity at nu in {0.5, 0.7, 1.5}: isometry, inversion,
    and agreement of the plans with the symbol applied on the critical line
    (mellin.line_apply), to 1e-5.

    Domain: bump12 and x2gauss on the main grid; x^(1/2) f of both operands
    is negligible at the hull ends, as line_apply needs.
    """
    nu_values, path_tol = (0.5, 0.7, 1.5), 1e-5
    grid = default_grid("main")
    iso, inv, agree = [], [], []
    for nu in nu_values:
        for name, f in _suite(["bump12", "x2gauss"]):
            nf = norm_l2(f)
            su = apply_katrakhov(OperatorSpec("katrakhov", "S", nu=nu), f)
            iso.append(abs(norm_l2(su) - nf) / nf)
            pu = apply_katrakhov(OperatorSpec("katrakhov", "P", nu=nu), su)
            inv.append(_rel_l2(pu.values - f.values, grid, nf))
            by_symbol = mellin.line_apply(OperatorSpec("katrakhov", "S", nu=nu), f)
            agree.append(_rel_l2(su.values - by_symbol.values, grid, nf))
    tolerance = 1e-4
    return _report(
        "third-kind combinations are unitary and mutually inverse for every real degree",
        {
            "nu": list(nu_values),
            "isometry_max": float(max(iso)),
            "inverse_max": float(max(inv)),
            "path_agreement_max": float(max(agree)),
            "path_tolerance": path_tol,
        },
        iso + inv,
        tolerance,
        status=PASS if (max(iso + inv) <= tolerance and max(agree) <= path_tol) else FAIL,
        notes=f"paths agree to {max(agree):.2e} (tol {path_tol:g})",
    )


def check_katrakhov_identity() -> VerificationReport:
    """At degree zero the third-kind Sonine combination is the identity.

    Domain: bump12 and x2gauss on the main grid.
    """
    res = []
    for name, f in _suite(["bump12", "x2gauss"]):
        su = apply_katrakhov(OperatorSpec("katrakhov", "S", nu=0.0), f)
        res.append(norm_l2(su - f) / norm_l2(f))
    return _report("at degree zero the third-kind Sonine combination is the identity", {}, res, 1e-8)


def check_weighted_third_inverse() -> VerificationReport:
    """Weighted third-kind operators form definitional inverse pairs:
    P S f = f for (phi, trig, nu) = (one, sin, 1/2) and (rational, cos, 1).

    Domain: bump12 on the mid grid, whose spectra decay inside the
    transforms' band.
    """
    grid = default_grid("mid")
    bump = suite_on_grid("bump12", grid)
    res = []
    for phi_, trig, nu in (("one", "sin", 0.5), ("rational", "cos", 1.0)):
        s = OperatorSpec("weighted_third", "S", nu=nu, phi=phi_, trig=trig)
        p = OperatorSpec("weighted_third", "P", nu=nu, phi=phi_, trig=trig)
        sf = apply_weighted_third(s, bump)
        res.append(norm_l2(apply_weighted_third(p, sf) - bump) / norm_l2(bump))
    return _report("weighted third-kind operators form definitional inverse pairs", {}, res, 1e-4)


def check_transforms() -> VerificationReport:
    """The spectral transforms: the cosine transform of e^(-y) is
    sqrt(2/pi)/(1 + t^2), the sine transform is its own inverse, and the
    Hankel transform of order 1/2 is the sine transform of y f divided by t.

    Domain: e^(-y) and bump12 on the mid grid, whose transforms decay
    inside the spectral band.
    """
    grid = default_grid("mid")
    x = grid.points
    res = []
    fe = SampledFunction.from_callable(lambda y: np.exp(-y), grid, DecayHint.exponential())
    fc = fourier_cosine(fe)
    t = fc.grid.points
    res.append(float(np.max(np.abs(fc.values - np.sqrt(2 / np.pi) / (1 + t * t)))))
    bump = suite_on_grid("bump12", grid)
    fs2 = fourier_sine(fourier_sine(bump), grid)
    res.append(norm_l2(fs2 - bump) / norm_l2(bump))
    h = hankel(0.5, bump)
    ys = SampledFunction(grid, x * bump.values, bump.decay_hint)
    fs = fourier_sine(ys)
    res.append(float(np.max(np.abs(h.values - fs.values / fs.grid.points))))
    return _report(
        "cosine transform closed form, sine self-inversion, half-integer Hankel reduction", {}, res, 1e-5
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


def _derivative_powers(alpha: int, f: SampledFunction) -> tuple[SampledFunction, SampledFunction]:
    """The right derivative D_-^a f and the weighted power
    x^a (-(1/x) d/dx)^a f, the two sides of the seminorm identities."""
    hat = fracint.neg_inv_x_deriv_power(alpha, f)
    return fracint.right_derivative_power(alpha, f), hat.with_values(f.grid.points**alpha * hat.values)


# the members the seminorm and embedding checks start from, before
# _origin_growth_members drops those outside each one's domain
_SEMINORM_SUITE = ("xexp", "x2gauss", "gauss")


def check_seminorm_identity(alpha: int) -> VerificationReport:
    """D_-^a f = S-^(a-1) [x^a (-(1/x) d/dx)^a f] and its inverse companion.

    Both sides are compared over the interior 60% of the hull.  Domain:
    of xexp, x2gauss and gauss on the main grid, the Kipriyanov domain
    (_origin_growth_members, bound -1/2), and beyond it those whose
    weighted power grows at most like 1/x (bound -3/2).
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
    f_suite, notes = _origin_growth_members(alpha, _suite(_SEMINORM_SUITE), -1.5)
    residuals = []
    for name, f in f_suite:
        grid = f.grid
        nf = norm_l2(f)
        d_right, hat = _derivative_powers(alpha, f)
        lhs1 = apply_zero_order(OperatorSpec("zero_order", "S-", nu=alpha - 1.0), hat)
        residuals.append(_rel_l2(lhs1.values - d_right.values, grid, nf, interior=0.6))
        lhs2 = apply_zero_order(OperatorSpec("zero_order", "P-", nu=alpha - 1.0), d_right)
        residuals.append(_rel_l2(lhs2.values - hat.values, grid, nf, interior=0.6))
    return _report(
        "seminorm identities linking right fractional derivatives and the weighted derivative powers",
        {"alpha": alpha, "suite": [n for n, _ in f_suite]},
        residuals,
        1e-3,
        notes="; ".join(notes),
    )


def check_embedding_inequality(alpha: int) -> VerificationReport:
    """Seminorm ratios never exceed the closed-form embedding constants.

    Domain: of xexp, x2gauss and gauss on the main grid, the members whose
    seminorms are finite (_origin_growth_members, bound -1/2: the
    Kipriyanov domain).  The seminorms are half-line norms
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
    f_suite, notes = _origin_growth_members(int(alpha), _suite(_SEMINORM_SUITE), -0.5)
    margins = []
    term_resid = []
    for name, f in f_suite:
        grid = f.grid
        mask = grid.interior_mask(0.8)
        d_right, hat = _derivative_powers(int(alpha), f)
        h_norm = norm_half_line(d_right, mask)
        hat_norm = norm_half_line(hat, mask)
        if hat_norm > 0:
            margins.append(max(0.0, h_norm / hat_norm - c_fwd))
        if h_norm > 0:
            margins.append(max(0.0, hat_norm / h_norm - c_bwd))
        if int(alpha) == alpha:
            term_resid.append(abs(h_norm - hat_norm) / max(h_norm, 1e-300))
    if term_resid:
        notes.insert(0, f"termwise norm match max {max(term_resid):.2e}")
    return _report(
        "sharp-constant seminorm inequalities (termwise equality at integer order)",
        {
            "alpha": alpha,
            "constants": [c_fwd, c_bwd],
            "termwise_match": [float(t) for t in term_resid],
            "suite": [n for n, _ in f_suite],
        },
        margins,
        1e-6,
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


def copson_check(data: CopsonData, tolerance: float = 1e-4) -> VerificationReport:
    """Consistency of the characteristic-data relation.

    The second boundary function g is produced from f by the Abel-type
    integral; both sides of the Legendre-kernel identity are then compared
    at ten abscissae in [0.25, 2.5].

    Domain: beta > alpha > 0 (CopsonData), and a boundary function f
    bounded on [0, 2.5] (the constant and exp(-t^2) here), so that both
    Abel-type integrals converge at their endpoint singularities.
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
            end = EndpointPower(b_ - a_ - 1.0, yy) if b_ - a_ - 1.0 < 0 else None
            val = quad_singular(lambda t: t ** (2 * a_) * f(t) * (yy * yy - t * t) ** (b_ - a_ - 1.0), (0.0, yy), end)
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

            # s_ is the combined (1-t) exponent at t = 1
            return coef * quad_singular(integrand, (0.0, 1.0), EndpointPower(s_, 1.0) if s_ < 0 else None)

        return side(f, a_), side(g, b_)

    xs = np.linspace(0.25, 2.5, 10)
    residuals = []
    for x in xs:
        lhs, rhs = lhs_rhs(float(x))
        residuals.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return _report(
        "characteristic-data constraint of the singular hyperbolic equation (Legendre-kernel identity)",
        {"alpha": a_, "beta": b_, "n_abscissae": len(xs)},
        residuals,
        tolerance,
    )


# ----------------------------------------------------------------------
# Mellin-side checks
# ----------------------------------------------------------------------


def _symbol_operand(spec: OperatorSpec) -> tuple[SampledFunction, str]:
    """The operand on which spec's symbol is measured, and its name.

    bump12 on the main grid, except for the 0+ forms at nonzero degree,
    whose images carry a kernel moment of the operand (power -nu for S0+,
    0 for P0+) into a tail that is only marginally integrable; there the
    operand has that moment removed, so that the measurement represents
    the L2 pairing on the line.  At nu = 1, S0+ f = f + int_0^x f(t)/t dt
    tends to the moment int f/t at infinity.  The operand
    (x - c x^2) e^(-x^2) has it vanish at c = sqrt(pi) on paper, but the
    plan's quadrature (head model included) leaves a residual moment that
    the tail fit then reads as a constant; c is therefore taken by
    _tail_free_mix, which kills the moment the plan actually integrates.
    At nu = -0.5 the tail exponents are degenerate and moment_free_combo's
    first combination is taken; elsewhere the better conditioned of its
    two (the larger min |M f| on the line).
    """
    grid = default_grid("main")
    nu = spec.nu
    if spec.variant not in ("S0+", "P0+") or nu == 0.0:
        return suite_on_grid("bump12", grid), "bump12"
    if nu == 1.0:
        x = grid.points
        g1 = SampledFunction(grid, x * np.exp(-x * x), DecayHint.exponential())
        return _tail_free_mix(spec, g1, g1.with_values(x * g1.values)), "moment-adjusted"
    powers = (-nu,) if spec.variant == "S0+" else (0.0,)
    if nu == -0.5:
        return moment_free_combo(grid, powers=powers, which=0), "moment-adjusted"
    cands = [moment_free_combo(grid, powers=powers, which=w) for w in (0, 1)]
    u = np.linspace(-4.0, 4.0, 9)
    conds = [float(np.min(np.abs(mellin.mellin_numeric(c, 0.5, u).values))) for c in cands]
    return cands[int(np.argmax(conds))], "moment-adjusted"


# what a report on more than one variant of a family states
_FAMILY_SYMBOLS = {
    "zero_order": "measured Mellin symbols of the zero-order family match the closed forms",
    "second_kind": "measured second-kind symbols match the period-2 factor times the zero-order symbol",
}


def check_multiplicator_ratio(family: str, variants, nu: float) -> VerificationReport:
    """Mellin convolution: each operator acts by multiplication with its
    closed-form symbol, so the measured symbol M[A f]/M[f] at
    s = 1/2 + iu, u = -4, ..., 4, matches it.  One report covers the given
    variants of one family at one degree.

    Domain: the operand's Mellin transform and its image's must both exist
    on the critical line; _symbol_operand chooses the operand per variant.
    """
    u = np.linspace(-4.0, 4.0, 9)
    residuals = []
    for variant in variants:
        spec = OperatorSpec(family, variant, nu=nu)
        f, f_name = _symbol_operand(spec)
        measured = mellin.measured_multiplicator(f, apply(spec, f), 0.5, u)
        expected = mellin.multiplicator(spec, 0.5 + 1j * u)
        residuals.extend(np.abs(measured - expected) / np.abs(expected))
    if len(variants) > 1:
        return _report(_FAMILY_SYMBOLS[family], {"nu": nu}, residuals, 1e-3)
    return _report(
        "Mellin convolution: the operator acts by multiplication with its closed-form symbol",
        {"operator": spec.label, "f": f_name, "u": [float(v) for v in u]},
        residuals,
        1e-3,
    )


def check_stieltjes_symbol() -> VerificationReport:
    """The Stieltjes transform's symbol pi/sin(pi s) is pi at s = 1/2.

    Domain: bump12 on the main grid, measured at the centre of the critical
    line only: its image decays like 1/x, so the measured symbol holds to
    1e-3 at u = 0 but not away from it.
    """
    f = suite_on_grid("bump12", default_grid("main"))
    measured = mellin.measured_multiplicator(f, classicops.stieltjes(f), 0.5, np.array([0.0]))
    return _report(
        "Stieltjes transform symbol pi/sin(pi s) equals pi on the critical line center",
        {},
        [abs(measured[0] - np.pi) / np.pi],
        1e-3,
    )


def check_inverse_pair() -> VerificationReport:
    """The 0+ Sonine and 0+ Poisson symbols are exact reciprocals:
    m_S0+(s) m_P0+(s) = 1.

    Domain: 50 seeded points s with -1.5 < Re s < 0.4 and |Im s| < 5, at
    nu in {0.3, 1, -0.4}; all lie off the real axis, where both gamma
    ratios are finite and nonzero.
    """
    rng = np.random.default_rng(11)
    s = rng.uniform(-1.5, 0.4, 50) + 1j * rng.uniform(-5, 5, 50)
    res = []
    for nu in (0.3, 1.0, -0.4):
        prod = mellin.m_zero_order("S0+", nu, s) * mellin.m_zero_order("P0+", nu, s)
        res.extend(np.abs(prod - 1.0))
    return _report(
        "the 0+ Sonine and 0+ Poisson symbols are exact reciprocals", {"n_points": 50}, res, 1e-12
    )


def check_norm_vs_sup(spec: OperatorSpec) -> VerificationReport:
    """The catalog's closed-form operator norm equals sup |m| over the
    critical line (mellin.numeric_line_sup, a two-sided scan).

    Domain: catalogued operators with a closed-form norm.  An unbounded
    parameter point has no finite supremum, and a point without a closed
    form (second kind at complex nu, where |m| peaks off u = 0) has no
    independent witness; both are reported SKIPPED.
    """
    row = mellin_row(spec)
    closed = row.norm(spec) if row.norm is not None else None
    if closed is None:
        return _report(
            "operator norm without a closed form",
            {"operator": spec.label, "closed_form": "none", "numeric_sup": mellin.numeric_line_sup(spec)},
            [0.0],
            TOL["mellin_ratio"],
            status=SKIPPED,
            notes="no closed form: the numeric sup needs an independent witness, "
            "the discretised operator's largest singular value (ROADMAP direction 4)",
        )
    if not np.isfinite(closed):
        return _report(
            "operator norm formula (unbounded case)",
            {"operator": spec.label, "closed_form": "inf"},
            [0.0],
            TOL["mellin_ratio"],
            status=SKIPPED,
            notes="unbounded: no finite supremum to compare",
        )
    sup = mellin.numeric_line_sup(spec)
    return _report(
        "operator norm formula vs numerical critical-line supremum",
        {"operator": spec.label, "closed_form": closed, "numeric_sup": sup},
        [abs(closed - sup)],
        TOL["mellin_ratio"],
    )


def check_norm_periodicity() -> VerificationReport:
    """Zero-order operator norms are 2-periodic in the degree.

    Domain: all four variants at nu in {-0.75, -0.3, 0.2, 0.85} and nu + 2;
    none of these is half-odd, where S0+ and P- are unbounded, so every
    norm compared is finite.
    """
    res = []
    for var in ("S0+", "P0+", "S-", "P-"):
        for nu in (-0.75, -0.3, 0.2, 0.85):
            a = mellin.operator_norm(OperatorSpec("zero_order", var, nu=nu))
            b = mellin.operator_norm(OperatorSpec("zero_order", var, nu=nu + 2.0))
            res.append(abs(a - b))
    return _report("zero-order operator norms are 2-periodic in the degree", {}, res, 1e-10)


def check_norm_realization(nu: float) -> VerificationReport:
    """Empirical operator norm of S0+ never exceeds the closed form; an
    adversarial packet at the maximizing frequency realizes at least 90% of
    it.

    Domain: 50 seeded combinations of xexp, bump12, x2gauss and singauss,
    and a Mellin wave packet at u = 6 of log-width 1.6, all on the main
    grid, at a degree where the norm is finite.
    """
    grid = default_grid("main")
    spec = OperatorSpec("zero_order", "S0+", nu=nu)
    closed = mellin.operator_norm(spec)
    rng = np.random.default_rng(20240817)
    members = [suite_on_grid(n, grid) for n in ("xexp", "bump12", "x2gauss", "singauss")]
    over = []
    for _ in range(50):
        coef = rng.normal(size=len(members))
        vals = sum(c * m.values for c, m in zip(coef, members))
        f = SampledFunction(grid, vals, DecayHint.exponential())
        ratio = norm_l2(apply_zero_order(spec, f)) / norm_l2(f)
        over.append(max(0.0, ratio - closed))
    packet = mellin_packet(grid, u0=6.0, width=1.6)
    ratio = norm_l2(apply_zero_order(spec, packet)) / norm_l2(packet)
    realized = ratio / closed
    tolerance = 1e-6
    return _report(
        "closed-form norm bounds every empirical ratio and is approached by the maximizing-frequency packet",
        {"nu": nu, "closed_form": closed, "realized_fraction": float(realized)},
        list(over),
        tolerance,
        status=PASS if (max(over) <= tolerance and realized >= 0.9) else FAIL,
        notes=f"adversarial packet realizes {realized:.3f} of the norm",
    )


def check_functional_equation(spec: OperatorSpec, s_samples=None, composed: bool = False) -> VerificationReport:
    """The degree-shift functional equation of a transmutation symbol,
    m(s) = m(s - 2) (s - 1)(s - 2) / ((s - 1)(s - 2) - nu(nu + 1)).

    It holds for symbols of operators intertwining the angular-momentum
    operator with the second derivative, and is stable under multiplication
    by any period-2 factor: composed=True checks it for the Stieltjes
    symbol pi/sin(pi s) times spec's.

    Domain: s_samples off the poles of m(s) and m(s - 2) and off the zeros
    of the denominator; the identity is one between meromorphic functions,
    so s need not lie in the symbol's strip.  By default 20 points on
    Re s = -0.2 (nu >= 1/2) or 0.4, |Im s| <= 3.
    """
    nu = float(np.real(spec.nu)) if spec.nu is not None else 0.0
    if s_samples is None:
        s_samples = (-0.2 if nu >= 0.5 else 0.4) + 1j * np.linspace(-3.0, 3.0, 20)
    if composed:
        res = mellin.funceq_residuals(lambda z: mellin.m_stieltjes(z) * mellin.multiplicator(spec, z), nu, s_samples)
        return _report("period-2 factors preserve the degree-shift functional equation", {"nu": nu}, list(res), TOL["funceq"])
    res = mellin.funceq_residuals(lambda s: mellin.multiplicator(spec, s), nu, s_samples)
    return _report(
        "multiplicator functional equation under the degree-2 Mellin shift",
        {"operator": spec.label, "n_samples": int(len(np.atleast_1d(s_samples)))},
        list(res),
        TOL["funceq"],
    )


# ----------------------------------------------------------------------
# operator identities
# ----------------------------------------------------------------------


def check_second_kind_degeneration() -> VerificationReport:
    """Degenerate second-kind operators (nu = 0 and nu = -1) are the
    half-line Hilbert-transform pair, against an independent PV oracle.

    Domain: x2gauss and xexp on the main grid, at about 24 points of the
    interior 70% of the hull.
    """
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
    return _report(
        "degenerate second-kind operators are the half-line Hilbert-transform pair",
        {"suite": ["x2gauss", "xexp"]},
        residuals,
        1e-5,
    )


def check_second_kind_2param() -> VerificationReport:
    """At unit order the two-parameter second-kind family is the
    one-parameter operator, and its symbol the one-parameter symbol.

    Domain: bump12 and x2gauss on the main grid, at nu = 0.3; the symbols
    at nine points of the critical line, |Im s| <= 3.
    """
    res = []
    for name, f in _suite(["bump12", "x2gauss"]):
        a = apply_second_kind_2param(OperatorSpec("second_kind_2param", "S", nu=0.3, mu=1.0), f)
        b = apply_second_kind(OperatorSpec("second_kind", "S", nu=0.3), f)
        res.append(norm_l2(a - b) / norm_l2(f))
    s = 0.5 + 1j * np.linspace(-3, 3, 9)
    one = mellin.multiplicator(OperatorSpec("second_kind", "S", nu=0.3), s)
    res.extend(np.abs(mellin.m_second_kind_2param(0.3, 1.0, s) - one) / np.abs(one))
    return _report(
        "two-parameter second-kind family at unit order reproduces the one-parameter operator and its symbol",
        {"nu": 0.3},
        res,
        1e-6,
    )


def check_lifted_pair() -> VerificationReport:
    """Degree-shift lifting of the zero-order minus pair yields Bessel-operator
    transmutations, and reciprocal-symbol bases make the lifted pair
    mutually inverse, at nu in {1/2, 3/2}.

    Domain: x2gauss and xexp for the intertwining (as check_intertwining),
    bump12 for the inversion, compared over the interior 80% of the hull;
    all on the main grid.
    """
    res = []
    for nu in (0.5, 1.5):
        lift = functools.partial(classicops.lift_sonine, nu)
        res.extend(check_intertwining(lift, "bessel_to_d2", ["x2gauss", "xexp"], nu).residuals)
        for name, f in _suite(["bump12"]):
            comp = classicops.lift_sonine(nu, classicops.lift_poisson(nu, f))
            res.append(norm_l2(comp - f, interior=0.8) / norm_l2(f))
    return _report(
        "degree-shift lifting yields Bessel-operator transmutations; reciprocal bases give inverse pairs",
        {"nu": [0.5, 1.5], "base": "zero-order minus pair"},
        res,
        TOL["intertwining"],
    )


def check_spd_identities() -> VerificationReport:
    """The Sonine-Poisson pair: the Abel case maps the constant 1 to
    sqrt(2/pi), and S P = c I with the printed normalization constant c
    (classicops.spd_inverse_constant), at nu in {0, 1/4}.

    Domain: the constant 1, compared over the interior 80% of the hull, and
    bump12, whose images are compared over the same window; both on the
    main grid.
    """
    grid = default_grid("main")
    x = grid.points
    res = []
    ones = SampledFunction(grid, np.ones_like(x), DecayHint.power(0.0))
    s0 = classicops.spd_sonine(0.0, ones)
    mask = grid.interior_mask(0.8)
    res.append(float(np.max(np.abs(s0.values[mask] - np.sqrt(2.0 / np.pi)))))
    for nu in (0.0, 0.25):
        for name, f in _suite(["bump12"]):
            c = classicops.spd_inverse_constant(nu)
            comp = classicops.spd_sonine(nu, classicops.spd_poisson(nu, f))
            res.append(norm_l2(comp - c * f, interior=0.8) / norm_l2(f))
    return _report(
        "Sonine/Poisson pair: Abel closed form and mutual inversion up to the printed normalization constant",
        {"inverse_constant_nu0": classicops.spd_inverse_constant(0.0)},
        res,
        1e-4,
    )


def check_spd_poisson_bessel() -> VerificationReport:
    """The Poisson transmutation maps cos x to c_nu j_nu(x), the normalized
    Bessel profile, at nu = 0.7.

    Domain: cos x on the main grid (bounded, not decaying: the Poisson
    integral is a finite average), compared on 0.01 < x < 20.
    """
    grid = default_grid("main")
    x = grid.points
    nu = 0.7
    pc = classicops.spd_poisson(nu, SampledFunction(grid, np.cos(x), DecayHint.power(0.0)))
    cnu = np.sqrt(np.pi) * gamma_real(nu + 0.5) / (2.0 ** (nu + 1.0) * gamma_real(nu + 1.0) ** 2)
    jn = bessel_j_normalized(nu, x)
    m = (x > 0.01) & (x < 20.0)
    return _report(
        "Poisson transmutation maps the cosine to the normalized Bessel profile",
        {"nu": nu, "constant": cnu},
        [float(np.max(np.abs(pc.values[m] - cnu * jn[m])))],
        1e-6,
    )


def check_stieltjes_value() -> VerificationReport:
    """The Stieltjes transform against a direct quadrature oracle.

    Domain: e^(-t) on the main grid, at the grid point nearest x = 1.
    """
    grid = default_grid("main")
    st = classicops.stieltjes(SampledFunction.from_callable(lambda t: np.exp(-t), grid, DecayHint.exponential()))
    i = int(np.argmin(np.abs(grid.points - 1.0)))
    x0 = float(grid.points[i])
    ref = integrate_smooth(lambda t: np.exp(-t) / (x0 + t), 1e-12, 80.0)
    return _report(
        "Stieltjes transform against a direct quadrature oracle", {"x": x0}, [abs(st.values[i] - ref)], 1e-8
    )


def check_stieltjes_composed() -> VerificationReport:
    """St S- intertwines the angular operator with d^2/dx^2 at nu = 1.

    Domain: St(g'') = (St g)'' - g'(0)/x - g(0)/x^2, so the identity needs
    g = S- f with g(0) = g'(0) = 0.  For f = O(x^2) at 0, g'(0) = 0 and
    g(0) = -int t^(-1) f dt.  The operands have that moment killed: two
    compact combinations, killed in the discrete representation the plan
    integrates (moment_free_combo), and x^2 (1 - x^2) e^(-x^2), whose
    moment is 1/2 - 1/2 in closed form and about 1e-17 as the plan
    integrates it.
    """
    grid = default_grid("main")
    nu = 1.0
    sm = OperatorSpec("zero_order", "S-", nu=nu)
    composed = lambda f: classicops.stieltjes(apply_zero_order(sm, f))
    x = grid.points
    suite = [(f"moment_free[{w}]", moment_free_combo(grid, powers=(-1.0,), which=w)) for w in (0, 1)]
    suite.append(("x2gauss_moment_free", SampledFunction(grid, x**2 * (1.0 - x**2) * np.exp(-x**2), DecayHint.exponential())))
    res = []
    for name, f in suite:
        af = f.with_values(_angular_op(nu, f))
        lhs = composed(af).values
        rhs = second_deriv_on_grid(composed(f).values, grid)
        res.append(norm_l2(SampledFunction(grid, lhs - rhs), interior=0.6) / norm_l2(f))
    return _report(
        "composition with the period-2 Stieltjes symbol stays a bounded transmutation",
        {"nu": nu, "suite": [n for n, _ in suite]},
        res,
        TOL["intertwining"],
    )
