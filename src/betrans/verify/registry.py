"""Canonical check registry: the `verify all` suite.

Each entry is a parameterless thunk returning a VerificationReport; run_all
executes them in canonical (sorted) order so report bundles are
deterministic and reproducible.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Iterable

import numpy as np

from .. import classicops, fracint, mellin
from ..beops import OperatorSpec, apply_weighted_third, apply_zero_order, fourier_cosine, fourier_sine, hankel
from ..numgrid import DecayHint, SampledFunction, norm_l2
from ..testfuncs import moment_free_combo, suite_on_grid, wide_bump
from . import checks
from .checks import TOL, default_grid
from .report import FAIL, VerificationReport

__all__ = ["REGISTRY", "run_all", "run_checks", "check_ids"]


def _suite_main(names=None):
    grid = default_grid("main")
    return [(n, suite_on_grid(n, grid)) for n in (names or ["bump12", "x2gauss"])]


def _suite_smooth():
    """Gentle members for finite-difference-limited checks: a wide compact
    bump plus an analytic decaying member."""
    from ..testfuncs import wide_bump

    grid = default_grid("main")
    return [("wide_bump", wide_bump(grid)), ("x2gauss", suite_on_grid("x2gauss", grid))]


def _report_funceq(nu: float, composed: bool = False) -> VerificationReport:
    spec = OperatorSpec("zero_order", "S0+", nu=nu)
    s = (-0.2 if nu >= 0.5 else 0.4) + 1j * np.linspace(-3.0, 3.0, 20)
    if not composed:
        return checks.check_functional_equation(spec, s)
    m = lambda z: mellin.m_stieltjes(z) * mellin.multiplicator(spec, z)
    res = mellin.funceq_residuals(m, nu, s)
    return VerificationReport(
        check_id=f"funceq[stieltjes*zero:S0+;nu={nu:g}]",
        provenance="period-2 factors preserve the degree-shift functional equation",
        params={"nu": nu},
        residuals=list(res),
        tolerance=TOL["funceq"],
    )


def _report_inverse_pair() -> VerificationReport:
    rng = np.random.default_rng(11)
    s = rng.uniform(-1.5, 0.4, 50) + 1j * rng.uniform(-5, 5, 50)
    res = []
    for nu in (0.3, 1.0, -0.4):
        prod = mellin.m_zero_order("S0+", nu, s) * mellin.m_zero_order("P0+", nu, s)
        res.extend(np.abs(prod - 1.0))
    return VerificationReport(
        check_id="mult_inverse_pair",
        provenance="the 0+ Sonine and 0+ Poisson symbols are exact reciprocals",
        params={"n_points": 50},
        residuals=res,
        tolerance=1e-12,
    )


def _report_norm_periodicity() -> VerificationReport:
    res = []
    for var in ("S0+", "P0+", "S-", "P-"):
        for nu in (-0.75, -0.3, 0.2, 0.85):
            a = mellin.operator_norm(OperatorSpec("zero_order", var, nu=nu))
            b = mellin.operator_norm(OperatorSpec("zero_order", var, nu=nu + 2.0))
            res.append(abs(a - b))
    return VerificationReport(
        check_id="norm_periodicity",
        provenance="zero-order operator norms are 2-periodic in the degree",
        params={},
        residuals=res,
        tolerance=1e-10,
    )


def _report_mult_zero_order() -> VerificationReport:
    """Symbols of all four variants; the 0+ forms run on operands with the
    kernel moment that would otherwise feed a marginally-integrable tail
    removed (the measurement then represents the L2 pairing on the line)."""
    grid = default_grid("main")
    res = []
    f = suite_on_grid("bump12", grid)
    nu = 0.3

    def best_conditioned(powers):
        u = np.linspace(-4.0, 4.0, 9)
        cands = [moment_free_combo(grid, powers=powers, which=w) for w in (0, 1)]
        conds = [float(np.min(np.abs(mellin.mellin_numeric(c, 0.5, u).values))) for c in cands]
        return cands[int(np.argmax(conds))]

    killed_s = best_conditioned((-nu,))
    killed_p = best_conditioned((0.0,))
    for var, g_ in (("S0+", killed_s), ("P0+", killed_p), ("S-", f), ("P-", f)):
        rep = checks.check_multiplicator_ratio(
            OperatorSpec("zero_order", var, nu=nu), g_, "bump12/combo", tolerance=1e-3
        )
        res.extend(rep.residuals)
    return VerificationReport(
        check_id="mult_consistency[zero_order;nu=0.3]",
        provenance="measured Mellin symbols of the zero-order family match the closed forms",
        params={"nu": 0.3},
        residuals=res,
        tolerance=1e-3,
    )


def _report_mult_primary(nu: float) -> VerificationReport:
    """Criterion-level symbol reproduction for the 0+ Sonine operator.

    Domain: the operand's Mellin transform and its image's must both exist
    on the critical line.  At nu = 1, S0+ f = f + int_0^x f(t)/t dt tends
    to the moment int f/t at infinity, so the image is in L2 only when that
    moment vanishes.  The operand (x - c x^2) e^(-x^2) has it vanish at
    c = sqrt(pi) on paper, but the plan's quadrature (head model included)
    leaves a residual moment that the tail fit then reads as a constant;
    c is therefore taken by checks._tail_free_mix, which kills the moment
    the plan actually integrates.
    At nu = -0.5 the leading-tail moment is removed the same way by
    moment_free_combo.
    """
    grid = default_grid("main")
    if nu == 1.0:
        x = grid.points
        g1 = SampledFunction(grid, x * np.exp(-x * x), DecayHint.exponential())
        g2 = g1.with_values(x * g1.values)
        f, f_name = checks._tail_free_mix(OperatorSpec("zero_order", "S0+", nu=nu), g1, g2), "moment-adjusted"
    elif nu == -0.5:
        # degenerate tail exponents: remove the leading-tail moment
        f, f_name = moment_free_combo(grid, powers=(0.5,), which=0), "moment-adjusted"
    else:
        f, f_name = suite_on_grid("bump12", grid), "bump12"
    return checks.check_multiplicator_ratio(
        OperatorSpec("zero_order", "S0+", nu=nu), f, f_name, tolerance=1e-3
    )


def _report_mult_second_kind() -> VerificationReport:
    grid = default_grid("main")
    res = []
    f = suite_on_grid("bump12", grid)
    for var, g, gname in (("S", f, "bump12"), ("P", f, "bump12")):
        rep = checks.check_multiplicator_ratio(
            OperatorSpec("second_kind", var, nu=0.3), g, gname, tolerance=1e-3
        )
        res.extend(rep.residuals)
    return VerificationReport(
        check_id="mult_consistency[second_kind;nu=0.3]",
        provenance="measured second-kind symbols match the period-2 factor times the zero-order symbol",
        params={"nu": 0.3},
        residuals=res,
        tolerance=1e-3,
    )


def _report_mult_stieltjes() -> VerificationReport:
    grid = default_grid("main")
    f = suite_on_grid("bump12", grid)
    af = classicops.stieltjes(f)
    measured = mellin.measured_multiplicator(f, af, 0.5, np.array([0.0]))
    res = [abs(measured[0] - np.pi) / np.pi]
    return VerificationReport(
        check_id="mult_consistency[stieltjes]",
        provenance="Stieltjes transform symbol pi/sin(pi s) equals pi on the critical line center",
        params={},
        residuals=res,
        tolerance=1e-3,
    )


def _report_spd() -> VerificationReport:
    grid = default_grid("main")
    x = grid.points
    res = []
    # Abel case: constant input has the closed-form image sqrt(2/pi)
    ones = SampledFunction(grid, np.ones_like(x), DecayHint.power(0.0))
    s0 = classicops.spd_sonine(0.0, ones)
    mask = grid.interior_mask(0.8)
    res.append(float(np.max(np.abs(s0.values[mask] - np.sqrt(2.0 / np.pi)))))
    # composition up to the normalization constant of the printed pair
    for nu in (0.0, 0.25):
        for name, f in _suite_main(["bump12"]):
            c = classicops.spd_inverse_constant(nu)
            comp = classicops.spd_sonine(nu, classicops.spd_poisson(nu, f))
            res.append(norm_l2(comp - c * f, interior=0.8) / norm_l2(f))
    return VerificationReport(
        check_id="spd_identities",
        provenance="Sonine/Poisson pair: Abel closed form and mutual inversion up to the printed normalization constant",
        params={"inverse_constant_nu0": classicops.spd_inverse_constant(0.0)},
        residuals=res,
        tolerance=1e-4,
    )


def _report_spd_bessel() -> VerificationReport:
    from ..specfun import bessel_j_normalized, gamma_complex

    grid = default_grid("main")
    x = grid.points
    nu = 0.7
    fcos = SampledFunction(grid, np.cos(x), DecayHint.power(0.0))
    pc = classicops.spd_poisson(nu, fcos)
    g = lambda z: float(np.real(gamma_complex(complex(z))))
    cnu = np.sqrt(np.pi) * g(nu + 0.5) / (2.0 ** (nu + 1.0) * g(nu + 1.0) ** 2)
    jn = bessel_j_normalized(nu, x)
    m = (x > 0.01) & (x < 20.0)
    res = [float(np.max(np.abs(pc.values[m] - cnu * jn[m])))]
    return VerificationReport(
        check_id="spd_poisson_bessel",
        provenance="Poisson transmutation maps the cosine to the normalized Bessel profile",
        params={"nu": nu, "constant": cnu},
        residuals=res,
        tolerance=1e-6,
    )


def _report_stieltjes_value() -> VerificationReport:
    from ..numgrid import integrate_smooth

    grid = default_grid("main")
    fe = SampledFunction.from_callable(lambda t: np.exp(-t), grid, DecayHint.exponential())
    st = classicops.stieltjes(fe)
    i = int(np.argmin(np.abs(grid.points - 1.0)))
    x0 = float(grid.points[i])
    ref = integrate_smooth(lambda t: np.exp(-t) / (x0 + t), 1e-12, 80.0)
    return VerificationReport(
        check_id="stieltjes_value",
        provenance="Stieltjes transform against a direct quadrature oracle",
        params={"x": x0},
        residuals=[abs(st.values[i] - ref)],
        tolerance=1e-8,
    )


def _report_first_kind_reductions() -> VerificationReport:
    grid = default_grid("main")
    x = grid.points
    res = []
    # degree 0, order 0: plain running integral
    ones = SampledFunction(grid, np.ones_like(x), DecayHint.power(0.0))
    from ..beops import apply_first_kind

    b = apply_first_kind(OperatorSpec("first_kind", "B0+", nu=0.0, mu=0.0), ones)
    res.append(float(np.max(np.abs(b.values - x) / x)))
    # order mu = -nu: Erdelyi-Kober reduction  B0+^(nu,-nu) = (x^(nu+1)/2^(nu+1)) EK(nu+1, -(nu+1)/2)
    nu = 0.5
    for name, f in _suite_main(["bump12"]):
        lhs = apply_first_kind(OperatorSpec("first_kind", "B0+", nu=nu, mu=-nu), f)
        ek = fracint.ek_integral(fracint.FracSpec("ek_left", nu + 1.0, -(nu + 1.0) / 2.0), f)
        rhs = x ** (nu + 1.0) / 2.0 ** (nu + 1.0) * ek.values
        res.append(norm_l2(SampledFunction(grid, lhs.values - rhs), interior=1.0) / norm_l2(f))
    return VerificationReport(
        check_id="first_kind_reductions",
        provenance="first-kind operators reduce to plain integration (degree 0) and Erdelyi-Kober integrals (order = -degree)",
        params={"nu": nu},
        residuals=res,
        tolerance=1e-6,
    )


def _report_second_kind_2param() -> VerificationReport:
    grid = default_grid("main")
    res = []
    from ..beops import apply_second_kind, apply_second_kind_2param

    for name, f in _suite_main(["bump12", "x2gauss"]):
        a = apply_second_kind_2param(OperatorSpec("second_kind_2param", "S", nu=0.3, mu=1.0), f)
        b = apply_second_kind(OperatorSpec("second_kind", "S", nu=0.3), f)
        res.append(norm_l2(a - b) / norm_l2(f))
    s = 0.5 + 1j * np.linspace(-3, 3, 9)
    dev = np.abs(
        mellin.m_second_kind_2param(0.3, 1.0, s) - mellin.multiplicator(OperatorSpec("second_kind", "S", nu=0.3), s)
    )
    res.extend(dev / np.abs(mellin.multiplicator(OperatorSpec("second_kind", "S", nu=0.3), s)))
    return VerificationReport(
        check_id="second_kind_2param",
        provenance="two-parameter second-kind family at unit order reproduces the one-parameter operator and its symbol",
        params={"nu": 0.3},
        residuals=res,
        tolerance=1e-6,
    )


def _report_transforms() -> VerificationReport:
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
    return VerificationReport(
        check_id="transforms_basic",
        provenance="cosine transform closed form, sine self-inversion, half-integer Hankel reduction",
        params={},
        residuals=res,
        tolerance=1e-5,
    )


def _report_weighted_third() -> VerificationReport:
    grid = default_grid("mid")
    bump = suite_on_grid("bump12", grid)
    res = []
    for phi_, trig, nu in (("one", "sin", 0.5), ("rational", "cos", 1.0)):
        s = OperatorSpec("weighted_third", "S", nu=nu, phi=phi_, trig=trig)
        p = OperatorSpec("weighted_third", "P", nu=nu, phi=phi_, trig=trig)
        sf = apply_weighted_third(s, bump)
        res.append(norm_l2(apply_weighted_third(p, sf) - bump) / norm_l2(bump))
    return VerificationReport(
        check_id="weighted_third_inverse",
        provenance="weighted third-kind operators form definitional inverse pairs",
        params={},
        residuals=res,
        tolerance=1e-4,
    )


def _report_weighted_third_intertwining() -> VerificationReport:
    grid = default_grid("mid")
    nu = 0.5
    spec = OperatorSpec("weighted_third", "S", nu=nu, phi="one", trig="sin")
    rep = checks.check_intertwining(
        spec, "bessel_to_d2", [("x2gauss", suite_on_grid("x2gauss", grid))], nu=nu,
        check_id="intertwine[weighted_third;nu=0.5]",
    )
    return rep


def _report_katrakhov_identity_nu0() -> VerificationReport:
    grid = default_grid("main")
    from ..beops import apply_katrakhov

    res = []
    for name, f in _suite_main(["bump12", "x2gauss"]):
        su = apply_katrakhov(OperatorSpec("katrakhov", "S", nu=0.0), f)
        res.append(norm_l2(su - f) / norm_l2(f))
    return VerificationReport(
        check_id="katrakhov_nu0_identity",
        provenance="at degree zero the third-kind Sonine combination is the identity",
        params={},
        residuals=res,
        tolerance=1e-8,
    )


def _report_lift() -> VerificationReport:
    grid = default_grid("main")
    res = []
    for nu in (0.5, 1.5):
        for name, f in _suite_main(["x2gauss", "xexp"]):
            rep = checks.check_intertwining(
                ("lift_sonine", nu), "bessel_to_d2", [(name, f)], nu=nu,
                check_id=f"intertwine[lift;nu={nu:g}]",
            )
            res.extend(rep.residuals)
        for name, f in _suite_main(["bump12"]):
            # reciprocal-symbol bases make the lifted pair mutually inverse
            comp = classicops.lift_sonine(nu, classicops.lift_poisson(nu, f))
            res.append(norm_l2(comp - f, interior=0.8) / norm_l2(f))
    return VerificationReport(
        check_id="lifted_pair",
        provenance="degree-shift lifting yields Bessel-operator transmutations; reciprocal bases give inverse pairs",
        params={"nu": [0.5, 1.5], "base": "zero-order minus pair"},
        residuals=res,
        tolerance=TOL["intertwining"],
    )


def _report_stieltjes_composed() -> VerificationReport:
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
        af = f.with_values(checks._angular_op(nu, f))
        lhs = composed(af).values
        rhs = checks.second_deriv_on_grid(composed(f).values, grid)
        res.append(norm_l2(SampledFunction(grid, lhs - rhs), interior=0.6) / norm_l2(f))
    return VerificationReport(
        check_id="stieltjes_composed_transmutation",
        provenance="composition with the period-2 Stieltjes symbol stays a bounded transmutation",
        params={"nu": nu, "suite": [n for n, _ in suite]},
        residuals=res,
        tolerance=TOL["intertwining"],
    )


def _copson_const() -> VerificationReport:
    rep = checks.copson_check(
        checks.CopsonData(0.5, 1.5, lambda t: np.ones_like(np.asarray(t, dtype=float))),
        tolerance=1e-6,
    )
    rep.check_id = "copson_const"
    return rep


SUITE_NAMES = ("gauss", "xexp", "bump12", "x2gauss", "singauss")


def _build_registry() -> dict[str, Callable[[], VerificationReport]]:
    reg: dict[str, Callable[[], VerificationReport]] = {}

    reg["copson_const"] = _copson_const
    reg["copson_gauss"] = lambda: checks.copson_check(
        checks.CopsonData(0.5, 1.5, lambda t: np.exp(-np.asarray(t, dtype=float) ** 2))
    )

    for formula in ("thm1_a", "thm1_b", "thm1_c", "thm1_d"):
        for nu, mu in ((1.0, 0.0), (1.0, 0.5), (2.0, 0.0), (0.5, 0.3)):
            reg[f"fact[{formula};nu={nu:g},mu={mu:g}]"] = (
                lambda formula=formula, nu=nu, mu=mu: checks.check_factorization(
                    formula, nu, mu, _suite_main(["bump12"])
                )
            )
    for formula in ("thm4_a", "thm4_c"):
        reg[f"fact[{formula};nu=1,mu=0]"] = lambda formula=formula: checks.check_factorization(
            formula, 1.0, 0.0, _suite_main(["bump12"])
        )
    for formula, points in (
        ("thm4_b", ((0.0, -1.0), (0.5, -1.0), (0.0, -0.5), (0.25, -0.75))),
        ("thm4_d", ((0.0, -1.0), (0.5, -1.0), (0.0, -0.5), (0.25, -0.75))),
    ):
        for nu, mu in points:
            reg[f"fact[{formula};nu={nu:g},mu={mu:g}]"] = (
                lambda formula=formula, nu=nu, mu=mu: checks.check_factorization(
                    formula, nu, mu, _suite_main(["bump12"])
                )
            )

    reg["funceq[zero:S0+;nu=0]"] = lambda: _report_funceq(0.0)
    reg["funceq[zero:S0+;nu=1]"] = lambda: _report_funceq(1.0)
    reg["funceq[zero:S0+;nu=1.5]"] = lambda: _report_funceq(1.5)
    reg["funceq[stieltjes-composed]"] = lambda: _report_funceq(1.0, composed=True)

    reg["hardy_identities"] = checks.check_hardy_identities
    reg["hardy_shifted_unitarity"] = checks.check_shifted_hardy_unitarity
    reg["hardy_shifted_intertwining"] = lambda: checks.check_intertwining(
        OperatorSpec("hardy_shifted", "H1"),
        "d2_to_angular",
        [("wide_bump", wide_bump(default_grid("main")))],
        nu=1.0,
        check_id="intertwine[hardy_shifted H1]",
    )

    reg["intertwine[zero:S-;nu=0.5]"] = lambda: checks.check_intertwining(
        OperatorSpec("zero_order", "S-", nu=0.5),
        "angular_to_d2",
        _suite_smooth(),
        nu=0.5,
        check_id="intertwine[zero:S-;nu=0.5]",
    )
    # the 0+ intertwining identity needs operands vanishing faster than
    # x^(nu+1) at the origin (constant defect -3 f''(0)/2 otherwise)
    reg["intertwine[zero:S0+;nu=1]"] = lambda: checks.check_intertwining(
        OperatorSpec("zero_order", "S0+", nu=1.0),
        "angular_to_d2",
        [nw for nw in _suite_smooth() if nw[0] == "wide_bump"],
        nu=1.0,
        check_id="intertwine[zero:S0+;nu=1]",
    )
    reg["intertwine[kat:S;nu=0.5]"] = lambda: checks.check_intertwining(
        OperatorSpec("katrakhov", "S", nu=0.5),
        "angular_to_d2",
        _suite_smooth(),
        nu=0.5,
        check_id="intertwine[kat:S;nu=0.5]",
    )
    def _suite_spd():
        # compact operand on the fine grid: the classical pair wants
        # even-type behavior at the origin and resolvable images
        grid = default_grid("fine")
        return [("wide_bump", wide_bump(grid))]

    reg["intertwine[spd:S;nu=0.25]"] = lambda: checks.check_intertwining(
        OperatorSpec("spd", "S", nu=0.25),
        "bessel_to_d2",
        _suite_spd(),
        nu=0.25,
        check_id="intertwine[spd:S;nu=0.25]",
    )
    reg["intertwine[spd:P;nu=0.25]"] = lambda: checks.check_intertwining(
        OperatorSpec("spd", "P", nu=0.25),
        "d2_to_bessel",
        _suite_spd(),
        nu=0.25,
        check_id="intertwine[spd:P;nu=0.25]",
    )
    reg["intertwine[weighted_third;nu=0.5]"] = _report_weighted_third_intertwining

    reg["katrakhov_nu0_identity"] = _report_katrakhov_identity_nu0
    reg["katrakhov_unitarity"] = checks.check_katrakhov
    reg["lifted_pair"] = _report_lift

    reg["mult_consistency[zero_order;nu=0.3]"] = _report_mult_zero_order
    reg["mult_consistency[second_kind;nu=0.3]"] = _report_mult_second_kind
    reg["mult_consistency[stieltjes]"] = _report_mult_stieltjes
    reg["mult_primary[nu=0]"] = lambda: _report_mult_primary(0.0)
    reg["mult_primary[nu=1]"] = lambda: _report_mult_primary(1.0)
    reg["mult_primary[nu=-0.5]"] = lambda: _report_mult_primary(-0.5)
    reg["mult_inverse_pair"] = _report_inverse_pair

    for var, nus in (("S0+", (-0.75, -0.25, 0.0, 0.25, 1.0, 1.5)), ("P0+", (-0.5, 0.25)), ("S-", (0.7,)), ("P-", (0.3,))):
        for nu in nus:
            reg[f"norm[zero:{var};nu={nu:g}]"] = (
                lambda var=var, nu=nu: checks.check_norm_vs_sup(OperatorSpec("zero_order", var, nu=nu))
            )
    reg["norm[second:S;nu=0.3]"] = lambda: checks.check_norm_vs_sup(OperatorSpec("second_kind", "S", nu=0.3))
    reg["norm[second:S;nu=i+0.5]"] = lambda: checks.check_norm_vs_sup(
        OperatorSpec("second_kind", "S", nu=0.5 + 1.0j)
    )
    reg["norm[kat:S;nu=0.7]"] = lambda: checks.check_norm_vs_sup(OperatorSpec("katrakhov", "S", nu=0.7))
    reg["norm[stieltjes]"] = lambda: checks.check_norm_vs_sup(OperatorSpec("stieltjes"))
    reg["norm_periodicity"] = _report_norm_periodicity
    reg["norm_realization[nu=-0.5]"] = lambda: checks.check_norm_realization(-0.5)

    reg["second_kind_degeneration"] = checks.check_second_kind_degeneration
    reg["second_kind_2param"] = _report_second_kind_2param

    for alpha in (1, 2, 3):
        reg[f"seminorm[alpha={alpha}]"] = (
            lambda alpha=alpha: checks.check_seminorm_identity(alpha, _suite_main(["xexp", "x2gauss", "gauss"]))
        )
        reg[f"embedding[alpha={alpha}]"] = (
            lambda alpha=alpha: checks.check_embedding_inequality(alpha, _suite_main(["xexp", "x2gauss", "gauss"]))
        )

    reg["spd_identities"] = _report_spd
    reg["spd_poisson_bessel"] = _report_spd_bessel
    reg["stieltjes_value"] = _report_stieltjes_value
    reg["stieltjes_composed_transmutation"] = _report_stieltjes_composed

    reg["transforms_basic"] = _report_transforms
    reg["weighted_third_inverse"] = _report_weighted_third

    reg["unbounded[zero:S0+;nu=0.5]"] = checks.check_unbounded_growth
    reg["unitarity[zero_order;nu=1]"] = lambda: checks.check_unitarity(1.0, _suite_main(list(SUITE_NAMES)))
    reg["unitarity[zero_order;nu=2]"] = lambda: checks.check_unitarity(2.0, _suite_main(list(SUITE_NAMES)))
    reg["unitary_hardy_suite"] = checks.check_unitary_hardy_suite

    reg["first_kind_reductions"] = _report_first_kind_reductions
    return dict(sorted(reg.items()))


REGISTRY = _build_registry()


def check_ids() -> list[str]:
    return list(REGISTRY)


def run_checks(ids: Iterable[str], verbose: bool = True) -> list[VerificationReport]:
    reports = []
    for cid in sorted(ids):
        if cid not in REGISTRY:
            raise KeyError(f"unknown check id {cid!r}")
        t0 = time.time()
        try:
            rep = REGISTRY[cid]()
        except Exception as exc:  # one failing check must not abort the bundle
            rep = VerificationReport(
                check_id=cid,
                provenance="check raised before producing a report",
                params={},
                residuals=[],
                tolerance=0.0,
                status=FAIL,
                notes=f"{type(exc).__name__}: {exc}",
            )
        else:
            rep.check_id = cid
        dt = time.time() - t0
        if verbose:
            print(f"[{rep.status:>10s}] {rep.check_id:<42s} residual {rep.residual_max:.3e} tol {rep.tolerance:g} ({dt:.1f}s)")
        reports.append(rep)
    return reports


def run_all(out_path=None, verbose: bool = True) -> list[VerificationReport]:
    reports = run_checks(REGISTRY.keys(), verbose=verbose)
    if out_path is not None:
        bundle = [r.as_dict() for r in sorted(reports, key=lambda r: r.check_id)]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
    return reports
