import math

import numpy as np
import pytest

from betrans.beops import OperatorSpec, apply
from betrans.mellin import (
    CatalogError,
    FormulaPoleError,
    StripViolationError,
    admissible_strip,
    funceq_residuals,
    m_second_kind,
    m_second_kind_2param,
    m_spd,
    m_stieltjes,
    m_unitary_hardy,
    m_zero_order,
    measured_multiplicator,
    mellin_numeric,
    multiplicator,
    line_apply,
    numeric_line_sup,
    operator_norm,
)
from betrans.numgrid import DecayHint, GridError, SampledFunction, make_grid, norm_l2
from betrans.specfun import gamma_complex
from betrans.verify.checks import check_functional_equation


def test_mellin_numeric_exponential_gives_gamma():
    g = make_grid(2048, (1e-6, 60.0), "log")
    f = SampledFunction.from_callable(lambda x: np.exp(-x), g, DecayHint.exponential())
    u = np.linspace(-10, 10, 21)
    ms = mellin_numeric(f, 0.5, u)
    ref = gamma_complex(0.5 + 1j * u)
    assert np.max(np.abs(ms.values - ref) / np.abs(ref)) < 1e-6
    assert not ms.degraded


def test_mellin_numeric_indicator():
    g = make_grid(512, (1e-6, 1.0), "log")
    f = SampledFunction(g, np.ones_like(g.points), DecayHint.compact(0.0, 1.0))
    ms = mellin_numeric(f, 0.5, np.array([0.0]))
    assert abs(ms.values[0] - 2.0) < 1e-10


def test_mellin_numeric_substitution_oracle():
    g = make_grid(2048, (1e-6, 60.0), "log")
    f = SampledFunction.from_callable(lambda x: x * np.exp(-(x**2)), g, DecayHint.exponential())
    u = np.linspace(-8, 8, 9)
    ms = mellin_numeric(f, 0.5, u)
    ref = 0.5 * gamma_complex((0.5 + 1j * u + 1.0) / 2.0)
    assert np.max(np.abs(ms.values - ref) / np.abs(ref)) < 1e-6


def test_zero_order_identity_multiplicator():
    s = 0.4 + 1j * np.linspace(-4, 4, 11)
    vals = m_zero_order("S0+", 0.0, s)
    assert np.max(np.abs(vals - 1.0)) < 1e-14


def test_primary_multiplicator_value():
    # closed form at nu = 1 must be the rational (s-1)/s
    s = 0.5 + 0.0j
    assert multiplicator(OperatorSpec("zero_order", "S0+", nu=1.0), s) == pytest.approx(-1.0)


@pytest.mark.parametrize("nu", [1, 2, 3, 4, -2, -3])
def test_integer_order_zero_order_symbols_coincide(nu):
    # at integer nu the Gamma quotients of the origin-side and infinity-side
    # forms agree on Re s = 1/2: m_S0+ = m_S- and m_P- = m_P0+ there, so
    # in L2 each pair is one operator (the Hardy-sum form of the integer case)
    s = 0.5 + 1j * np.linspace(-40.0, 40.0, 161)
    assert np.max(np.abs(m_zero_order("S0+", nu, s) - m_zero_order("S-", nu, s))) <= 1e-14
    assert np.max(np.abs(m_zero_order("P-", nu, s) - m_zero_order("P0+", nu, s))) <= 1e-14


def test_non_integer_order_zero_order_symbols_differ():
    # the control: at nu = 0.3 the forms differ by up to 1.85 on the line
    s = 0.5 + 1j * np.linspace(-40.0, 40.0, 161)
    for a, b in (("S0+", "S-"), ("P-", "P0+")):
        gap = np.max(np.abs(m_zero_order(a, 0.3, s) - m_zero_order(b, 0.3, s)))
        assert gap == pytest.approx(1.85, abs=0.01)


def test_inverse_pair_identity_random_strip_points():
    rng = np.random.default_rng(11)
    s = rng.uniform(-1.5, 0.4, 50) + 1j * rng.uniform(-5, 5, 50)
    for nu in (0.3, 1.0, -0.4):
        prod = m_zero_order("S0+", nu, s) * m_zero_order("P0+", nu, s)
        assert np.max(np.abs(prod - 1.0)) < 1e-12


def test_second_kind_periodic_factor_degenerations():
    # m_S is the zero-order m_S- times the period-2 factor -cot(pi (s - nu)/2):
    # -cot(pi s/2) at nu = 0 and tan(pi s/2) at nu = +-1, the half-line
    # Hilbert pair (measured within 6e-16)
    s = 0.5 + 1j * np.linspace(-4, 4, 12)
    for nu in (0.0, 1.0, -1.0, 0.3, 0.7, 1.5):
        factor = -1.0 / np.tan(np.pi * (s - nu) / 2.0)
        assert np.max(np.abs(m_second_kind("S", nu, s) - factor * m_zero_order("S-", nu, s))) < 1e-12


def test_two_parameter_symbol_reduces_at_unit_order():
    s = 0.5 + 1j * np.linspace(-4, 4, 17)
    for nu in (0.3, 0.8, -0.2):
        a = m_second_kind_2param(nu, 1.0, s)
        b = m_second_kind("S", nu, s)
        assert np.max(np.abs(a - b)) < 1e-12


def test_katrakhov_symbol_unimodular_all_degrees():
    s = 0.5 + 1j * np.linspace(-4, 4, 17)
    for nu in (0.5, 0.7, 1.5, 2.3, -0.4):
        vals = np.abs(multiplicator(OperatorSpec("katrakhov", "S", nu=nu), s))
        assert np.max(np.abs(vals - 1.0)) < 1e-13


def test_norm_formulas():
    assert operator_norm(OperatorSpec("zero_order", "S0+", nu=0.0)) == 1.0
    assert operator_norm(OperatorSpec("zero_order", "P0+", nu=-0.5)) == pytest.approx(np.sqrt(2.0))
    assert operator_norm(OperatorSpec("zero_order", "S0+", nu=0.5)) == np.inf
    beta = 1.0
    assert operator_norm(OperatorSpec("second_kind", "S", nu=0.5 + 1j * beta)) == pytest.approx(
        np.sqrt(1.0 + np.cosh(np.pi * beta))
    )
    assert operator_norm(OperatorSpec("stieltjes")) == pytest.approx(np.pi)
    assert operator_norm(OperatorSpec("hardy", "H1")) == pytest.approx(2.0)


def test_norm_formula_vs_numeric_sup():
    for nu in (-0.75, -0.25, 0.0, 0.25, 1.0, 1.5):
        spec = OperatorSpec("zero_order", "S0+", nu=nu)
        closed = operator_norm(spec)
        assert abs(closed - numeric_line_sup(spec)) < 1e-4


def test_norm_periodicity():
    for var in ("S0+", "P0+"):
        for nu in (-0.3, 0.2):
            a = operator_norm(OperatorSpec("zero_order", var, nu=nu))
            b = operator_norm(OperatorSpec("zero_order", var, nu=nu + 2.0))
            assert abs(a - b) < 1e-10


def test_unbounded_detection_threshold():
    assert operator_norm(OperatorSpec("zero_order", "S0+", nu=0.5 + 1e-14)) == np.inf


@pytest.mark.parametrize("s", [0.5, 0.5 + 1j])
def test_mellin_numeric_follows_a_logarithmic_head(s):
    # M[-ln x e^-x](s) = -Gamma'(s); a power-law head read the logarithm as
    # x^-0.11 and was off by 3.4e-3 at s = 1/2
    import mpmath as mp

    f = SampledFunction.from_callable(lambda x: -np.log(x) * np.exp(-x), make_grid(512, (1e-4, 40.0)), DecayHint.exponential())
    ref = -complex(mp.gamma(s) * mp.digamma(s))
    got = mellin_numeric(f, s.real, [s.imag]).values[0]
    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_mellin_numeric_keeps_the_power_law_head():
    # x^0.3 e^-x has no logarithm at the origin: its head stays the power law
    f = SampledFunction.from_callable(lambda x: x**0.3 * np.exp(-x), make_grid(512, (1e-4, 40.0)), DecayHint.exponential())
    ref = gamma_complex(np.array([0.8 + 0j]))[0]
    assert abs(mellin_numeric(f, 0.5, [0.0]).values[0] - ref) <= 5.8e-8 * abs(ref)


def test_functional_equation_reports():
    spec = OperatorSpec("zero_order", "S0+", nu=1.0)
    rep = check_functional_equation(spec, -0.2 + 1j * np.linspace(-3, 3, 20))
    assert rep.passed and rep.residual_max < 1e-10
    # nu = 0: the identity is trivially exact
    rep0 = check_functional_equation(OperatorSpec("zero_order", "S0+", nu=0.0), 0.4 + 1j * np.linspace(-2, 2, 5))
    assert rep0.residual_max < 1e-14


def test_functional_equation_period_two_factor():
    # Stieltjes-composed symbol still satisfies the equation
    spec = OperatorSpec("zero_order", "S0+", nu=1.5)
    m = lambda z: m_stieltjes(z) * multiplicator(spec, z)
    res = funceq_residuals(m, 1.5, -0.2 + 1j * np.linspace(-3, 3, 20))
    assert np.max(res) < 1e-10


def test_unitary_hardy_symbols_unimodular():
    s = 0.5 + 1j * np.linspace(-5, 5, 21)
    for k in range(3, 11):
        vals = np.abs(m_unitary_hardy(f"U{k}", s))
        assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_spd_symbols_mutually_inverse_up_to_constant():
    s = 0.6 + 1j * np.linspace(-3, 3, 9)
    nu = 0.25
    prod = m_spd("S", nu, s) * m_spd("P", nu, s)
    const = gamma_complex(nu + 0.5) / (np.sqrt(2.0) * gamma_complex(nu + 1.0))
    assert np.max(np.abs(prod - const)) < 1e-13


def test_strip_enforcement_and_poles():
    spec = OperatorSpec("zero_order", "S0+", nu=1.0)
    lo, hi = admissible_strip(spec)
    assert hi == pytest.approx(0.0)
    with pytest.raises(StripViolationError):
        multiplicator(spec, 0.5 + 0j, enforce_strip=True)
    with pytest.raises(FormulaPoleError):
        m_stieltjes(np.array([1.0 + 0j]))
    with pytest.raises(CatalogError):
        operator_norm(OperatorSpec("first_kind", "B0+", nu=1.0, mu=0.0))


def test_measured_multiplicator_consistency(bump):
    from betrans.beops import apply_second_kind

    out = apply_second_kind(OperatorSpec("second_kind", "S", nu=0.3), bump)
    u = np.linspace(-4, 4, 9)
    meas = measured_multiplicator(bump, out, 0.5, u)
    expect = m_second_kind("S", 0.3, 0.5 + 1j * u)
    assert np.max(np.abs(meas - expect) / np.abs(expect)) < 1e-3


# ----------------------------------------------------------------------
# the symbol applied on the critical line
# ----------------------------------------------------------------------


def test_line_apply_matches_hardy_closed_form():
    # H1 x^2 e^(-x^2) = (sqrt(pi)/4 erf x - x e^(-x^2)/2)/x; measured within
    # 4.2e-9 of max|image| on make_grid(512), its slow 1/x tail wrapping
    # around the padded period
    grid = make_grid(512)
    x = grid.points
    f = SampledFunction.from_callable(lambda t: t * t * np.exp(-t * t), grid, DecayHint.exponential())
    exact = (np.sqrt(np.pi) / 4.0 * np.vectorize(math.erf)(x) - x * np.exp(-x * x) / 2.0) / x
    image = line_apply(OperatorSpec("hardy", "H1"), f)
    assert np.max(np.abs(image.values - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_line_apply_needs_a_grid_uniform_in_log_x():
    f = SampledFunction.from_callable(lambda t: t * t * np.exp(-t * t), make_grid(256, (0.05, 12.0), "linear"))
    with pytest.raises(GridError, match="uniform in log x"):
        line_apply(OperatorSpec("hardy", "H1"), f)


# every catalogued multiplier whose defining integral converges on
# Re s = 1/2, at the degrees the tests and checks use
SYMBOL_CASES = {
    "zero:S0+:nu=0.3": OperatorSpec("zero_order", "S0+", nu=0.3),
    **{f"zero:P0+:nu={nu}": OperatorSpec("zero_order", "P0+", nu=nu) for nu in (0.3, 0.7, 1.5)},
    **{f"zero:S-:nu={nu}": OperatorSpec("zero_order", "S-", nu=nu) for nu in (0.3, 1.5)},
    "zero:P-:nu=0.3": OperatorSpec("zero_order", "P-", nu=0.3),
    **{f"second:{v}:nu={nu}": OperatorSpec("second_kind", v, nu=nu) for v in ("S", "P") for nu in (0.3, 0.7, 1.5)},
    **{f"kat:{v}:nu={nu}": OperatorSpec("katrakhov", v, nu=nu) for v in ("S", "P") for nu in (0.3, 0.7, 1.5)},
    **{f"hardy:{v}": OperatorSpec("hardy", v) for v in ("H1", "H2")},
    **{f"hardy1:{v}": OperatorSpec("hardy_shifted", v) for v in ("H1", "H2")},
    "stieltjes": OperatorSpec("stieltjes", ""),
    "spd:S:nu=0.25": OperatorSpec("spd", "S", nu=0.25),
    **{f"spd:P:nu={nu}": OperatorSpec("spd", "P", nu=nu) for nu in (0.25, 1.5)},
}


@pytest.mark.parametrize("case", list(SYMBOL_CASES))
def test_operators_match_their_symbol_on_the_critical_line(case, bump):
    # each operator's plans against its symbol applied by FFT, relative to
    # its operator norm times |f| (measured 1.6e-9 to 7.5e-6 on bump12, the
    # largest where the image's slow tail wraps around the padded period)
    spec = SYMBOL_CASES[case]
    lo, hi = admissible_strip(spec)
    assert lo < 0.5 < hi
    err = norm_l2(apply(spec, bump) - line_apply(spec, bump), interior=0.8)
    assert err / (operator_norm(spec) * norm_l2(bump)) < 1e-5
