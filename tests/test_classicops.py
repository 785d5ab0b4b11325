import math

import numpy as np
import pytest

from betrans.classicops import (
    hardy,
    hardy_shifted,
    lift_poisson,
    lift_sonine,
    spd_inverse_constant,
    spd_poisson,
    spd_sonine,
    stieltjes,
    unitary_u,
)
from betrans.numgrid import DecayHint, SampledFunction, WeightedNorm, make_grid, norm_l2, norm_weighted
from betrans.specfun import bessel_j_normalized
from betrans.testfuncs import moment_free_combo, suite_on_grid, wide_bump


def test_hardy_trivials(grid_main):
    x = grid_main.points
    ones = SampledFunction(grid_main, np.ones_like(x), DecayHint.power(0.0))
    assert np.max(np.abs(hardy("H1", ones).values - 1.0)) < 1e-12
    fx = SampledFunction(grid_main, x.copy(), DecayHint.power(-1.0))
    assert np.max(np.abs(hardy("H2", fx).values * 0 + hardy("H1", fx).values - x / 2.0) / x) < 1e-7


def test_hardy_h2_of_indicator(grid_main):
    x = grid_main.points
    vals = np.where((x > 1.0) & (x < 2.0), 1.0, 0.0)
    f = SampledFunction(grid_main, vals, DecayHint.compact(1.0, 2.0))
    out = hardy("H2", f)
    m = x < 0.5
    assert np.max(np.abs(out.values[m] - math.log(2.0))) < 2e-2  # sampled-jump limited


def test_shifted_hardy_isometry_and_inverse(grid_main, xexp):
    nf = norm_l2(xexp)
    a = hardy_shifted("H1", xexp)
    # mass/x tail carries part of the norm; the power hint completes it
    assert abs(norm_weighted(a, WeightedNorm(-0.5)) - nf) / nf < 1e-6
    b = hardy_shifted("H2", xexp)
    rec = hardy_shifted("H1", b)
    assert norm_l2(rec - xexp) / nf < 1e-6


def test_spd_poisson_constant_case(grid_main):
    # degree 1/2 on the constant: (1/(Gamma(3/2) 2^(1/2) x)) int_0^x dt
    ones = SampledFunction(grid_main, np.ones_like(grid_main.points), DecayHint.power(0.0))
    out = spd_poisson(0.5, ones)
    expect = 1.0 / (math.gamma(1.5) * math.sqrt(2.0))
    assert np.max(np.abs(out.values - expect)) < 1e-10


def test_spd_sonine_abel_constant(grid_main):
    ones = SampledFunction(grid_main, np.ones_like(grid_main.points), DecayHint.power(0.0))
    out = spd_sonine(0.0, ones)
    mask = grid_main.interior_mask(0.8)
    assert np.max(np.abs(out.values[mask] - math.sqrt(2.0 / math.pi))) < 1e-6


def test_spd_poisson_maps_cosine_to_bessel(grid_main):
    nu = 0.7
    x = grid_main.points
    fcos = SampledFunction(grid_main, np.cos(x), DecayHint.power(0.0))
    out = spd_poisson(nu, fcos)
    cnu = math.sqrt(math.pi) * math.gamma(nu + 0.5) / (2.0 ** (nu + 1.0) * math.gamma(nu + 1.0) ** 2)
    jn = bessel_j_normalized(nu, x)
    m = (x > 0.05) & (x < 20.0)
    assert np.max(np.abs(out.values[m] - cnu * jn[m])) < 1e-6


def test_spd_mutual_inverse_up_to_constant(grid_main, bump):
    nu = 0.25
    comp = spd_sonine(nu, spd_poisson(nu, bump))
    c = spd_inverse_constant(nu)
    assert norm_l2(comp - c * bump, interior=0.8) / norm_l2(bump) < 1e-4


def test_spd_parameter_validation(grid_main, bump):
    with pytest.raises(ValueError):
        spd_poisson(-0.6, bump)
    with pytest.raises(ValueError):
        spd_sonine(0.6, bump)


@pytest.fixture(scope="module")
def u_setup():
    grid = make_grid(1024, (0.7, 12.0))
    combos = [moment_free_combo(grid, which=w) for w in (0, 1)]
    return grid, combos


def test_unitary_hardy_isometries(u_setup):
    grid, combos = u_setup
    for k in range(3, 11):
        for mf in combos:
            dev = abs(norm_l2(unitary_u(k, mf)) - norm_l2(mf)) / norm_l2(mf)
            assert dev < 1e-6, (k, dev)


def test_unitary_hardy_inverse_pairs(u_setup):
    grid, combos = u_setup
    for a, b in ((3, 4), (5, 6), (7, 8), (9, 10)):
        for mf in combos:
            nf = norm_l2(mf)
            assert norm_l2(unitary_u(b, unitary_u(a, mf)) - mf) / nf < 1e-6
            assert norm_l2(unitary_u(a, unitary_u(b, mf)) - mf) / nf < 1e-6


def test_unitary_hardy_degree_one_matches_zero_order(u_setup):
    from betrans.beops import OperatorSpec, apply_zero_order

    grid, combos = u_setup
    mf = combos[0]
    # U_3 is the degree-1 lower Sonine form on its admissible domain
    a = unitary_u(3, mf)
    b = apply_zero_order(OperatorSpec("zero_order", "S0+", nu=1.0), mf)
    assert norm_l2(a - b) / norm_l2(mf) < 1e-8


def test_stieltjes_value_oracle(grid_main):
    from betrans.numgrid import integrate_smooth

    f = SampledFunction.from_callable(lambda t: np.exp(-t), grid_main, DecayHint.exponential())
    st = stieltjes(f)
    i = int(np.argmin(np.abs(grid_main.points - 1.0)))
    x0 = float(grid_main.points[i])
    ref = integrate_smooth(lambda t: np.exp(-t) / (x0 + t), 1e-12, 80.0)
    assert abs(st.values[i] - ref) < 1e-8


def test_stieltjes_multiplicator(grid_main, bump):
    from betrans.mellin import measured_multiplicator

    st = stieltjes(bump)
    meas = measured_multiplicator(bump, st, 0.5, np.array([0.0]))
    assert abs(meas[0] - np.pi) / np.pi < 1e-3


def test_lift_intertwining_and_composition(grid_main):
    from betrans._engine import deriv_on_grid, second_deriv_on_grid

    f = suite_on_grid("x2gauss", grid_main)
    x = grid_main.points
    for nu in (0.5, 1.5):
        bvals = second_deriv_on_grid(f.values, grid_main) + (2 * nu + 1) / x * deriv_on_grid(f.values, grid_main)
        lhs = lift_sonine(nu, f.with_values(bvals))
        rhs = second_deriv_on_grid(lift_sonine(nu, f).values, grid_main)
        mask = grid_main.interior_mask(0.6)
        resid = np.sqrt(np.sum((grid_main.weights * (lhs.values - rhs) ** 2)[mask])) / norm_l2(f)
        assert resid < 1e-3, (nu, resid)
    bumpf = suite_on_grid("bump12", grid_main)
    for nu in (0.5, 1.5):
        comp = lift_sonine(nu, lift_poisson(nu, bumpf))
        assert norm_l2(comp - bumpf, interior=0.8) / norm_l2(bumpf) < 1e-4
