import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betrans.specfun import (
    DomainError,
    GammaPoleError,
    SeriesConvergenceError,
    SingularityError,
    bessel_j,
    bessel_j_normalized,
    digamma_real,
    gamma_complex,
    gamma_real,
    legendre_p,
    legendre_p_assoc,
    legendre_q,
    legendre_q1,
    rgamma,
)
from betrans._engine import build_pv_plan
from betrans.beops.second_kind import _kernels_s
from betrans.numgrid import make_grid
from betrans.specfun import legendre as legendre_module
from betrans.specfun.legendre import legendre_p_deriv, legendre_p_deriv_oncut

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30


# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------


def test_gamma_classical_values():
    assert gamma_complex(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
    assert gamma_complex(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_is_exact_at_the_positive_integers():
    # Gamma(n) = (n - 1)!, which the Lanczos sum misses by a few ulp
    n = np.arange(1, 30)
    assert np.array_equal(np.real(gamma_complex(n + 0j)), [float(math.factorial(k - 1)) for k in n])
    assert gamma_real(1.0) == 1.0 and gamma_real(2.0) == 1.0 and rgamma(1.0) == 1.0


def test_gamma_reflection_at_half_plus_3i():
    # Gamma(1/2+3i) Gamma(1/2-3i) = pi / cos(3 pi i)
    val = gamma_complex(0.5 + 3j) * gamma_complex(0.5 - 3j)
    assert abs(val - np.pi / np.cos(3j * np.pi)) < 1e-10


@pytest.mark.parametrize("im", [225.0, 227.0, 300.0, 440.0, -227.0, -440.0])
@pytest.mark.parametrize("re", [0.25, -0.75, -3.3])
def test_gamma_left_half_plane_far_from_the_real_axis(re, im):
    # above |Im z| = 200 the reflection is taken in log form: sin(pi z)
    # overflows from |Im z| = 226 on, where the direct form gave NaN
    import mpmath

    z = complex(re, im)
    with mpmath.workdps(30):
        ref = complex(mpmath.gamma(mpmath.mpc(z)))
    assert abs(gamma_complex(z) - ref) <= 1e-12 * abs(ref)


def test_gamma_on_the_real_axis_against_mpmath():
    # arguments all on the real axis are taken in real arithmetic: on 2000
    # points of [0.5, 30] at most 7.1e-15 relative, where complex arithmetic
    # gave 1.8e-14
    import mpmath

    x = np.random.default_rng(1).uniform(0.5, 30.0, 300)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.gamma(v)) for v in x])
    assert np.max(np.abs(gamma_complex(x) / ref - 1.0)) <= 1e-14
    assert max(abs(gamma_real(v) / r - 1.0) for v, r in zip(x, ref)) <= 1e-14
    assert rgamma(0.5) == 1.0 / np.sqrt(np.pi)


def test_gamma_keeps_the_direct_reflection_below_im_200():
    from betrans.specfun.gamma import _lanczos_right

    re, im = np.meshgrid([0.25, -0.75, -3.3, -10.5], [-200.0, -150.0, -3.0, 0.5, 77.0, 199.0, 200.0])
    z = (re + 1j * im).ravel()
    assert np.array_equal(gamma_complex(z), np.pi / (np.sin(np.pi * z) * _lanczos_right(1.0 - z)))


def test_gamma_pole_raises():
    with pytest.raises(GammaPoleError):
        gamma_complex(0.0)
    with pytest.raises(GammaPoleError):
        gamma_complex(-3.0)


def test_gamma_accuracy_on_strip():
    rng = np.random.default_rng(1)
    for _ in range(40):
        z = complex(rng.uniform(-15, 15), rng.uniform(-45, 45))
        if abs(z.imag) < 1e-2 and z.real <= 0.5 and abs(z.real - round(z.real)) < 1e-2:
            continue
        ref = complex(mpmath.gamma(mpmath.mpc(z)))
        assert abs(gamma_complex(z) - ref) / abs(ref) < 1e-11


def _near_half_lattice(x: float, step: float = 0.5, tol: float = 2e-2) -> bool:
    return abs(x / step - round(x / step)) * step < tol


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
def test_gamma_reflection_property(z):
    # |Gamma(1/2+z) Gamma(1/2-z) cos(pi z) - pi| small away from the poles,
    # which sit on the half-integer lattice of Re z when Im z ~ 0
    if abs(z.imag) < 5e-2 and _near_half_lattice(z.real):
        return
    val = gamma_complex(0.5 + z) * gamma_complex(0.5 - z) * np.cos(np.pi * z)
    if not np.isfinite(val):
        return
    assert abs(val - np.pi) < 1e-9 * max(1.0, abs(val))


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
def test_gamma_duplication_property(z):
    if abs(z.imag) < 5e-2 and (z.real < 0.3 and _near_half_lattice(z.real)):
        return
    try:
        lhs = gamma_complex(2 * z)
        rhs = gamma_complex(z) * gamma_complex(z + 0.5) * 2 ** (2 * z - 1) / np.sqrt(np.pi)
    except GammaPoleError:
        return
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-30)


def test_rgamma_vanishes_at_the_poles():
    for z in (0.0, -1.0, -3.0):
        assert rgamma(z) == 0.0 and isinstance(rgamma(z), np.floating)
        assert rgamma(complex(z)) == 0.0 and isinstance(rgamma(complex(z)), np.complexfloating)
    assert np.array_equal(rgamma(np.array([0.0, -1.0, -3.0])), np.zeros(3))
    assert np.array_equal(rgamma(np.array([0.0, -1.0, -3.0], dtype=complex)), np.zeros(3, dtype=complex))


def test_rgamma_is_real_for_real_input_and_shaped_like_it():
    x = np.linspace(-4.7, 6.3, 12).reshape(3, 4)
    assert rgamma(x).shape == (3, 4) and rgamma(x).dtype == float
    assert rgamma(x + 0j).shape == (3, 4) and rgamma(x + 0j).dtype == complex
    assert np.ndim(rgamma(0.3)) == 0 and np.ndim(rgamma(np.array(0.3))) == 0
    assert rgamma(np.array([], dtype=float)).shape == (0,)


def test_rgamma_is_the_reciprocal_of_gamma_complex_to_the_bit():
    rng = np.random.default_rng(3)
    z = rng.uniform(-15, 15, 400) + 1j * rng.uniform(-45, 45, 400)
    z[:5] = [-2.0, 0.0, -7.0, 1.0, 2.5]  # poles among the arguments, masked
    pole = np.zeros(400, dtype=bool)
    pole[[0, 1, 2]] = True
    assert np.array_equal(rgamma(z)[~pole], 1.0 / gamma_complex(z[~pole]))
    assert np.array_equal(rgamma(z)[pole], np.zeros(3))
    x = rng.uniform(-15, 15, 400)
    assert np.array_equal(rgamma(x), np.real(1.0 / gamma_complex(x)))
    for v in x[:20]:
        assert rgamma(float(v)) == np.real(1.0 / gamma_complex(complex(v)))


def test_gamma_real_at_one_point():
    assert gamma_real(5.0) == pytest.approx(24.0, rel=1e-13)
    assert type(gamma_real(0.5)) is float
    for x in (0.3, 1.7, -0.5, -2.5, 12.25):
        assert gamma_real(x) == float(np.real(gamma_complex(complex(x))))
        assert gamma_real(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-13)
    with pytest.raises(GammaPoleError):
        gamma_real(-2.0)


# ----------------------------------------------------------------------
# Legendre first kind
# ----------------------------------------------------------------------


def test_quarter_turn_is_exact_at_whole_turns_and_matches_cosdg_at_halves():
    from scipy.special import cosdg, sindg

    from betrans.specfun.legendre import _quarter_turn

    for q in np.arange(-12.0, 12.5):
        c, s = _quarter_turn(q)
        assert (c, s) == (float(cosdg(90.0 * q)), float(sindg(90.0 * q)))
        assert c in (0.0, 1.0, -1.0) and s in (0.0, 1.0, -1.0)
        assert (c, s) == (round(np.cos(0.5 * np.pi * q)), round(np.sin(0.5 * np.pi * q)))
    for q in np.arange(-12.0, 12.0) + 0.5:
        assert _quarter_turn(q) == (float(cosdg(90.0 * q)), float(sindg(90.0 * q)))


def test_p_trivial_degree_zero_and_one():
    assert legendre_p(0.0, 7.3, "off_cut") == pytest.approx(1.0, abs=1e-14)
    assert legendre_p(1.0, 2.5, "off_cut") == pytest.approx(2.5, rel=1e-13)


def test_p_half_degree_series_oracle():
    # direct Gauss-series summation as the oracle, in the Pfaff-transformed
    # variable u = (z-1)/(z+1) where the series converges geometrically:
    # P_nu(z) = ((z+1)/2)^nu F(-nu, -nu; 1; u)
    z, nu = 3.0, 0.5
    u = (z - 1.0) / (z + 1.0)
    term, total = 1.0, 1.0
    for k in range(200):
        term *= (-nu + k) * (-nu + k) / ((1.0 + k) * (k + 1.0)) * u
        total += term
    oracle = ((z + 1.0) / 2.0) ** nu * total
    assert legendre_p(nu, z, "off_cut") == pytest.approx(oracle, rel=1e-10)


def test_p_assoc_order_zero_reduction():
    for nu in (0.3, 1.7):
        for z in (1.4, 0.6):
            branch = "off_cut" if z > 1 else "on_cut"
            assert legendre_p_assoc(nu, 0.0, z, branch) == pytest.approx(
                legendre_p(nu, z, branch), rel=1e-14
            )


def test_p_assoc_off_cut_vs_mpmath():
    ref = float(mpmath.legenp(1.0, -1.0, 2.0, type=3))
    assert legendre_p_assoc(1.0, -1.0, 2.0, "off_cut") == pytest.approx(ref, rel=1e-10)


def test_p_assoc_on_cut_integral_oracle():
    # Ferrers function vs high-precision reference
    ref = float(mpmath.legenp(0.3, 0.4, 0.6))
    assert legendre_p_assoc(0.3, 0.4, 0.6, "on_cut") == pytest.approx(ref, rel=1e-8)


def test_p_large_argument_descending_zone():
    for nu, mu, z in [(0.5, 0.3, 40.0), (-0.499, 0.6, 1e4), (2.0, -1.5, 500.0)]:
        ref = float(mpmath.legenp(nu, mu, z, type=3))
        assert legendre_p_assoc(nu, mu, z, "off_cut") == pytest.approx(ref, rel=5e-11)
    # half-integer degrees: the Chebyshev-in-nu path over the 1/z^2 series
    for nu in (0.5, -0.5):
        for z in (2e3, 1e6):
            ref = float(mpmath.legenp(nu, 0, z, type=3))
            assert legendre_p(nu, z, "off_cut") == pytest.approx(ref, rel=1e-12)
            dref = float(mpmath.diff(lambda t: mpmath.legenp(nu, 0, t, type=3), mpmath.mpf(z)))
            assert float(legendre_p_deriv(nu, z)[0]) == pytest.approx(dref, rel=1e-12)


def test_p_descending_zone_passes_nan_through():
    # NaN lies in no zone of 1/z^2 below the last, which takes it
    for nu in (0.3, 0.5):
        assert np.isnan(legendre_p_assoc(nu, 0.2, np.nan, "off_cut"))


def test_p_recurrence_both_branches():
    # (n+1) P_{n+1} = (2n+1) z P_n - n P_{n-1}, integer degrees
    for z, branch in ((1.8, "off_cut"), (0.45, "on_cut")):
        for n in range(1, 10):
            lhs = (n + 1) * legendre_p(n + 1.0, z, branch)
            rhs = (2 * n + 1) * z * legendre_p(float(n), z, branch) - n * legendre_p(n - 1.0, z, branch)
            assert abs(lhs - rhs) < 1e-10


def test_p_at_one_is_one():
    rng = np.random.default_rng(3)
    for nu in rng.uniform(-0.5, 3.0, 20):
        assert legendre_p(float(nu), 1.0, "off_cut") == 1.0


def test_p_domain_and_singularity_errors():
    with pytest.raises(DomainError):
        legendre_p(0.5, 0.5, "off_cut")
    with pytest.raises(DomainError):
        legendre_p(0.5, 1.5, "on_cut")
    with pytest.raises(SingularityError):
        legendre_p_assoc(0.5, 0.3, 1.0, "off_cut")


# ----------------------------------------------------------------------
# Legendre second kind
# ----------------------------------------------------------------------


def test_q1_closed_form_degree_zero():
    z = 2.0
    assert legendre_q1(0.0, z, "off_cut") == pytest.approx(-1.0 / np.sqrt(3.0), rel=1e-12)


def test_q1_on_cut_series_oracle():
    ref = float(mpmath.legenq(0.0, 1.0, 0.5))
    assert legendre_q1(0.0, 0.5, "on_cut") == pytest.approx(ref, rel=1e-8)


def test_q_exclusion_radius():
    with pytest.raises(SingularityError):
        legendre_q1(0.0, 1.0 + 1e-9, "off_cut")


def test_q_general_degree_vs_integral_representation():
    # Q_nu(z) = int_0^inf (z + sqrt(z^2-1) cosh t)^(-nu-1) dt
    for nu, z in [(0.5, 1.05), (1.3, 2.0), (2.7, 1.0999), (-0.3, 5.0)]:
        f = lambda t: (z + mpmath.sqrt(z * z - 1) * mpmath.cosh(t)) ** (-nu - 1)
        ref = float(mpmath.quad(f, [0, mpmath.inf]))
        assert legendre_q(nu, z, "off_cut") == pytest.approx(ref, rel=1e-11)


def test_q_on_cut_vs_mpmath():
    for nu, x in [(0.5, 0.3), (1.3, 0.89), (2.0, 0.95)]:
        ref = float(mpmath.legenq(nu, 0, x))
        assert legendre_q(nu, x, "on_cut") == pytest.approx(ref, rel=1e-11)
        ref1 = float(mpmath.legenq(nu, 1, x))
        assert legendre_q1(nu, x, "on_cut") == pytest.approx(ref1, rel=1e-10)


@pytest.mark.parametrize("nu", [-0.5, 0.3, 0.5, 0.7, 2.0])
def test_ferrers_q_and_derivative_vs_mpmath(nu):
    # the series in x^2 about 0 below x = 1/2, and the logarithmic form at
    # t = (x - 1)/2 in [-1/4, 0) above it: each element sums until both
    # its value term and its derivative term are below round-off,
    # so dQ/dx is as accurate as Q (the derivative terms are about k times
    # the value terms, so stopping on the value term alone would cut dQ/dx
    # short)
    x = np.concatenate([np.geomspace(1e-5, 0.1, 20, endpoint=False), np.linspace(0.1, 0.8999, 40)])
    q = legendre_q(nu, x, "on_cut")
    dq = -legendre_q1(nu, x, "on_cut") / np.sqrt(1.0 - x * x)
    rq = np.array([float(mpmath.legenq(nu, 0, xi)) for xi in x])
    rdq = np.array([float(-mpmath.legenq(nu, 1, xi) / mpmath.sqrt(1 - mpmath.mpf(xi) ** 2)) for xi in x])
    assert np.max(np.abs(q - rq)) <= 2e-15 * np.max(np.abs(rq))
    assert np.max(np.abs(dq - rdq)) <= 2e-15 * np.max(np.abs(rdq))


@pytest.mark.parametrize("nu", [0.3, 2.0])
def test_ferrers_q1_near_one_vs_mpmath(nu):
    # (1 - x^2)^(1/2) as sqrt((1 - x)(1 + x)): sqrt(1 - x*x) lost digits as
    # x -> 1 (1.26e-13 relative at x = 0.9999); at nu = 2 dQ/dx also needs
    # psi(nu + 1) to round-off
    x = np.linspace(0.9001, 0.9999, 40)
    ref = np.array([float(mpmath.legenq(nu, 1, xi)) for xi in x])
    assert np.max(np.abs(legendre_q1(nu, x, "on_cut") - ref) / np.abs(ref)) <= 2e-15


def test_digamma_vs_mpmath():
    # the asymptotic series at x >= 10 stopped at the B_10 term, leaving
    # 2e-14 (the size of the B_12 term at x = 10) in every value
    for x in [0.3, 0.5, 1.3, 2.0, 3.0, 3.7, 7.2, 9.99, 10.0, 10.5, 25.0]:
        ref = float(mpmath.digamma(x))
        assert abs(digamma_real(x) - ref) <= 1e-15 * max(1.0, abs(ref))


def test_kernel_series_values_do_not_depend_on_the_batch():
    # every series argument stops on its own terms and takes its own zone's
    # expansion, so an element's value is bitwise the same alone or in any
    # batch: on the cut the series in x^2 about 0 below |x| = 1/2 and the
    # expansions about 1 (for Q the logarithmic form, reflected to x < 0)
    # above it; off it Q's logarithmic form below z = 1.2 and the series in
    # zeta^2 above it
    rng = np.random.default_rng(7)
    half = [0.5 + e for e in (-1e-12, 0.0, 1e-12)]
    on_cut = np.concatenate([rng.uniform(-0.89, 0.89, 300), [0.0, 1e-6, 0.5, -0.8999], half, np.negative(half)])
    off_cut = np.concatenate([1.2 + rng.exponential(3.0, 300), [1.2, 2.5, 1e3]])
    q_on_cut = np.concatenate(
        [rng.uniform(-1.0 + 1e-7, 1.0 - 1e-7, 200), [-1.0 + 1e-7, -0.5, 0.0, 0.95, 1.0 - 1e-7], half, np.negative(half)]
    )
    q_off_cut = np.concatenate([rng.uniform(1.0 + 1e-7, 1.2, 200), [1.0 + 1e-7, 1.0 + 1e-4, 1.1999, 1.2 - 1e-12]])
    cases = [
        (lambda v: legendre_q1(0.3, v, "on_cut"), q_on_cut),
        (lambda v: legendre_q(0.3, v, "on_cut"), q_on_cut),
        (lambda v: legendre_q1(0.3, v, "off_cut"), np.concatenate([q_off_cut, off_cut])),
        (lambda v: legendre_p(0.7, v, "on_cut"), on_cut),
        (lambda v: legendre_p_deriv_oncut(0.7, v), on_cut),
    ]
    for fn, args in cases:
        batch = fn(args)
        single = np.array([float(np.atleast_1d(fn(v))[0]) for v in args])
        assert np.array_equal(batch, single)


def test_half_integer_descending_values_do_not_depend_on_the_batch():
    # near half-integer degree above z = 2.5 the value is interpolated in nu
    # over eight Chebyshev nodes by a fixed-order sum per element, and each
    # element sums the number of terms of its zone of 1/z^2, so it is
    # bitwise the same alone or in a batch (a BLAS product rounded the last
    # outputs of a call differently); z = 2e3 is alone in its zone, and
    # batched with z = 2.6 from the widest one
    z = np.linspace(3.0, 40.0, 11)
    for fn in (lambda v: legendre_p(0.5, v, "off_cut"), lambda v: legendre_p_assoc(0.5, 0.3, v, "off_cut")):
        for args in (z, np.array([2e3, 2.6]), np.concatenate([z, [2e3, 1e5, 2.6]])):
            batch = fn(args)
            single = np.array([float(np.atleast_1d(fn(v))[0]) for v in args])
            assert np.array_equal(batch, single)


@pytest.mark.parametrize("nu", [-0.5, 0.3, 0.5, 1.5, 2.0])
def test_values_on_both_sides_of_every_zone_switch_vs_mpmath(nu):
    # on the cut |x| = 1/2 parts the series in x^2 about 0 from the
    # expansions about 1 (and, for x < 0, Q's reflection); off it z = 1.2
    # parts Q's logarithmic form from the series in zeta^2, and w = 1/z^2 =
    # 1e-6, 1e-3, 1e-2 and 0.04 part the zones of terms of the descending
    # expansion of P (measured: at most 1.3e-15 on the cut, 4.8e-15 for Q
    # off it, and 2.1e-13 for P at nu = 1.5, the cancellation next to
    # half-integer degree)
    steps = (-1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1e-3)
    x = np.array([sign * (0.5 + e) for sign in (1.0, -1.0) for e in steps])
    z = np.array([1.2 + e for e in steps])
    zp = np.array([top * (1.0 + e) for top in (1e3, 10**1.5, 10.0, 5.0) for e in (-1e-9, 0.0, 1e-9)])
    with mpmath.workdps(25):
        on_cut = [
            (legendre_q(nu, x, "on_cut"), [mpmath.legenq(nu, 0, v, zeroprec=64) for v in x]),
            (legendre_q1(nu, x, "on_cut"), [mpmath.legenq(nu, 1, v) for v in x]),
            (legendre_p(nu, x, "on_cut"), [mpmath.legenp(nu, 0, v) for v in x]),
            (legendre_p_deriv_oncut(nu, x), [mpmath.diff(lambda t: mpmath.legenp(nu, 0, t), v) for v in x]),
        ]
        off_cut = [
            (legendre_q(nu, z, "off_cut"), [mpmath.legenq(nu, 0, v, type=3).real for v in z]),
            (legendre_q1(nu, z, "off_cut"), [mpmath.legenq(nu, 1, v, type=3).real for v in z]),
            (legendre_p(nu, zp, "off_cut"), [mpmath.legenp(nu, 0, v, type=3) for v in zp]),
            (legendre_p_assoc(nu, 0.3, zp, "off_cut"), [mpmath.legenp(nu, 0.3, v, type=3) for v in zp]),
            (legendre_p_deriv(nu, zp), [mpmath.diff(lambda t: mpmath.legenp(nu, 0, t, type=3), v) for v in zp]),
        ]
    for got, ref in on_cut:
        ref = np.array([float(r) for r in ref])
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= 2e-15
    for got, ref in off_cut:
        ref = np.array([float(r) for r in ref])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-11


def test_ferrers_q_and_q1_vs_mpmath_over_the_whole_cut():
    # the series in x^2 about 0 on (-1/2, 1/2), the logarithmic form on
    # [1/2, 1) and its reflection on (-1, -1/2] hold Q and Q^1 to round-off
    # up to 1e-7 of both ends, where no series may fail to converge
    # (measured: at most 7.9e-16 of max(|Q|, 1) and 1.2e-15 of
    # max(|Q^1|, 1))
    ends = np.geomspace(1e-7, 0.1, 9)
    x = np.concatenate([-1.0 + ends, np.linspace(-0.9, 0.9, 13), 1.0 - ends[::-1]])
    with mpmath.workdps(20):
        for nu in [-0.5, 0.3, 0.5, 1.5, 2.0]:
            # Q_2(0) = 0, which mpmath finds only when told the precision of a zero
            rq = np.array([float(mpmath.legenq(nu, 0, xi, zeroprec=64)) for xi in x])
            rq1 = np.array([float(mpmath.legenq(nu, 1, xi)) for xi in x])
            assert np.max(np.abs(legendre_q(nu, x, "on_cut") - rq) / np.maximum(np.abs(rq), 1.0)) <= 2e-15
            assert np.max(np.abs(legendre_q1(nu, x, "on_cut") - rq1) / np.maximum(np.abs(rq1), 1.0)) <= 2e-15


def test_kernel_series_raises_when_it_cannot_converge():
    # P_nu on the cut at x = -0.99998 sums the series about x = 1 at
    # w = (1 - x)/2 = 0.99999, which is far from converged after SERIES_CAP
    # terms; so does the derivative series there
    with pytest.raises(SeriesConvergenceError):
        legendre_p(0.3, -0.99998, "on_cut")
    with pytest.raises(SeriesConvergenceError):
        legendre_p_deriv_oncut(0.3, -0.99998)
    with pytest.raises(SeriesConvergenceError):
        legendre_p(0.3, np.array([0.5, 0.0, -0.99998]), "on_cut")


# each kernel with its per-element body (the evaluation without the step
# that removes repeated arguments) and the zones its arguments cover: on
# the cut the series in x^2 about 0 (|x| < 1/2), the series about 1 for P
# and the logarithmic form for Q, direct (x >= 1/2) or reflected
# (x <= -1/2); off the cut the logarithmic form (1 < z < 1.2), the series
# about 1 or in zeta^2 (z >= 1.2) and above z = 2.5 the descending
# expansion
DEDUP_CASES = {
    "p_on_cut": (
        lambda z: legendre_p(0.7, z, "on_cut"),
        lambda z: legendre_module._p_assoc(0.7, 0.0, z, "on_cut"),
        [(-0.9, -0.5), (-0.5, 0.5), (0.5, 1.0)],
    ),
    "p_assoc_on_cut": (
        lambda z: legendre_p_assoc(0.7, 0.3, z, "on_cut"),
        lambda z: legendre_module._p_assoc(0.7, 0.3, z, "on_cut"),
        [(-0.9, -0.5), (-0.5, 0.5), (0.5, 1.0)],
    ),
    "p_assoc_off_cut": (
        lambda z: legendre_p_assoc(0.7, 0.3, z, "off_cut"),
        lambda z: legendre_module._p_assoc(0.7, 0.3, z, "off_cut"),
        [(1.0, 1.2), (1.2, 2.5), (2.5, 60.0), (1e3, 1e5)],
    ),
    "p_deriv_oncut": (
        lambda z: legendre_p_deriv_oncut(0.7, z),
        lambda z: legendre_module._p_deriv_oncut(0.7, z),
        [(-0.9, -0.5), (-0.5, 0.5), (0.5, 1.0)],
    ),
    "p_deriv": (
        lambda z: legendre_p_deriv(0.7, z),
        lambda z: legendre_module._p_deriv(0.7, z),
        [(1.0, 2.5), (2.5, 60.0), (1e3, 1e5)],
    ),
    "q_on_cut": (
        lambda z: legendre_q(0.7, z, "on_cut"),
        lambda z: legendre_module._q_with_deriv(0.7, z, "on_cut")[0],
        [(-1.0 + 1e-6, -0.5), (-0.5, 0.5), (0.5, 1.0 - 1e-6)],
    ),
    "q_off_cut": (
        lambda z: legendre_q(0.7, z, "off_cut"),
        lambda z: legendre_module._q_with_deriv(0.7, z, "off_cut")[0],
        [(1.0 + 1e-6, 1.2), (1.2, 60.0)],
    ),
    "q1_on_cut": (
        lambda z: legendre_q1(0.7, z, "on_cut"),
        lambda z: legendre_module._q1(0.7, z, "on_cut"),
        [(-1.0 + 1e-6, -0.5), (-0.5, 0.5), (0.5, 1.0 - 1e-6)],
    ),
    "q1_off_cut": (
        lambda z: legendre_q1(0.7, z, "off_cut"),
        lambda z: legendre_module._q1(0.7, z, "off_cut"),
        [(1.0 + 1e-6, 1.2), (1.2, 60.0)],
    ),
}


@pytest.mark.parametrize("case", sorted(DEDUP_CASES))
def test_kernels_equal_their_values_at_the_distinct_arguments(case):
    # about 300 distinct arguments across the zones, each repeated 1-5 times
    # and shuffled: the result is bitwise the value at the distinct
    # arguments indexed back, and the per-element body's on the whole array
    fn, body, zones = DEDUP_CASES[case]
    rng = np.random.default_rng(5)
    distinct = np.concatenate([rng.uniform(lo, hi, 300 // len(zones)) for lo, hi in zones])
    z = rng.permutation(np.repeat(distinct, rng.integers(1, 6, distinct.size)))
    u, inv = np.unique(z, return_inverse=True)
    out = fn(z)
    assert np.array_equal(out, fn(u)[inv])
    assert np.array_equal(out, body(z))


def test_kernels_keep_shape_and_scalar_return_types():
    x = np.array([[0.2, -0.5, 0.2], [0.95, -0.5, 0.3]])
    z = 1.0 + 3.0 * np.abs(x)
    for fn, arg in [
        (lambda v: legendre_p(0.7, v, "on_cut"), x),
        (lambda v: legendre_p_assoc(0.7, 0.3, v, "off_cut"), z),
        (lambda v: legendre_p_deriv_oncut(0.7, v), x),
        (lambda v: legendre_p_deriv(0.7, v), z),
        (lambda v: legendre_q(0.7, v, "on_cut"), x),
        (lambda v: legendre_q1(0.7, v, "off_cut"), z),
    ]:
        out = fn(arg)
        assert out.shape == arg.shape
        assert np.array_equal(out.ravel(), fn(arg.ravel()))
    for value in [
        legendre_p(0.7, 0.5, "on_cut"),
        legendre_p_assoc(0.7, 0.3, 3.0, "off_cut"),
        legendre_q(0.7, 0.5, "on_cut"),
        legendre_q1(0.7, 3.0, "off_cut"),
    ]:
        assert type(value) is float
    for value in [legendre_p_deriv_oncut(0.7, 0.5), legendre_p_deriv(0.7, 3.0)]:
        assert isinstance(value, np.ndarray) and value.shape == (1,)


def test_pv_plan_evaluates_each_kernel_argument_once(monkeypatch):
    # a second-kind PV plan on the 512-point log grid has 1,725,300 (row,
    # node) ratios; at the stride-4 panels' 695,760, about 103k were distinct
    seen = []
    inner = legendre_module._q_with_deriv

    def counting(nu, z, branch):
        seen.append(np.array(z, copy=True))
        return inner(nu, z, branch)

    monkeypatch.setattr(legendre_module, "_q_with_deriv", counting)
    plan = build_pv_plan(make_grid(512, (1e-4, 1e2)), *_kernels_s(0.3))
    assert seen
    for z in seen:
        assert np.unique(z).size == z.size
    assert sum(z.size for z in seen) <= 0.2 * len(plan.t_all)
    # the lattice evaluates Q once per node of its relative row and per head
    # node of each row: 12,568 arguments
    assert sum(z.size for z in seen) <= 0.6 * 103_342


# ----------------------------------------------------------------------
# Bessel
# ----------------------------------------------------------------------


def test_bessel_half_integer_closed_form():
    assert abs(bessel_j(0.5, np.pi) - 0.0) < 1e-15
    assert bessel_j(0.0, 0.0) == pytest.approx(1.0)


def test_bessel_series_oracle():
    # ascending series for J_1(2)
    x, nu = 2.0, 1.0
    total, term = 0.0, (x / 2.0) ** nu / 1.0  # k = 0 term / Gamma(2)
    import math

    term = (x / 2.0) ** nu / math.gamma(nu + 1.0)
    total = term
    for k in range(1, 40):
        term *= -((x / 2.0) ** 2) / (k * (nu + k))
        total += term
    assert bessel_j(1.0, 2.0) == pytest.approx(total, rel=1e-12)


def test_normalized_bessel_at_zero():
    for nu in (0.0, 0.5, 1.0, 2.0):
        assert abs(bessel_j_normalized(nu, 0.0) - 1.0) < 1e-14


def test_normalized_bessel_consistency():
    import math

    nu, x = 0.7, 3.0
    expect = 2.0**nu * math.gamma(nu + 1.0) * bessel_j(nu, x) / x**nu
    assert bessel_j_normalized(nu, x) == pytest.approx(expect, rel=1e-13)
