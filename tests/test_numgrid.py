import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betrans.numgrid import (
    DecayHint,
    DivergentTailError,
    EndpointPower,
    Grid,
    GridError,
    NonIntegrableSingularityError,
    PVInterior,
    SampledFunction,
    TailWarning,
    WeightedNorm,
    fit_power_law,
    integrate_smooth,
    make_grid,
    norm_half_line,
    norm_l2,
    norm_weighted,
    quad_singular,
    read_csv,
    write_csv,
)


def test_make_grid_log_spacing_and_count():
    g = make_grid(64, (1e-3, 50.0), "log")
    assert g.n == 64
    assert g.points[0] == pytest.approx(1e-3)
    assert g.points[-1] == pytest.approx(50.0)
    ratios = g.points[1:] / g.points[:-1]
    assert np.allclose(ratios, ratios[0])
    assert np.all(g.weights > 0)


def test_grid_validation():
    with pytest.raises(GridError):
        make_grid(64, (0.0, 1.0))
    with pytest.raises(GridError):
        make_grid(8, (1e-3, 1.0))
    with pytest.raises(GridError):
        Grid(points=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]), spacing="linear")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=6))
def test_quadrature_polynomial_exactness(degree):
    g = make_grid(128, (0.5, 3.0), "linear")
    vals = g.points**degree
    exact = (3.0 ** (degree + 1) - 0.5 ** (degree + 1)) / (degree + 1)
    assert np.sum(g.weights * vals) == pytest.approx(exact, rel=1e-12)


def test_grid_refinement_order():
    # halving the mesh must beat the rule's asymptotic factor on smooth data
    def err(n):
        g = make_grid(n, (0.5, 4.0), "linear")
        return abs(np.sum(g.weights * np.sin(g.points)) - (math.cos(0.5) - math.cos(4.0)))

    e1, e2 = err(64), err(128)
    assert e2 < e1 / 16.0 or e2 < 1e-14


def test_quad_singular_endpoint_power():
    val = quad_singular(lambda x: x**-0.5, (0.0, 1.0), EndpointPower(-0.5, 0.0))
    assert val == pytest.approx(2.0, abs=1e-8)
    val = quad_singular(lambda x: (1.0 - x) ** -0.25, (0.0, 1.0), EndpointPower(-0.25, 1.0))
    assert val == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_quad_singular_rejects_nonintegrable():
    with pytest.raises(NonIntegrableSingularityError):
        quad_singular(lambda x: 1.0 / x, (0.0, 1.0), EndpointPower(-1.0, 0.0))


def test_pv_symmetric_cancellation():
    val = quad_singular(lambda x: 1.0 / (x - 1.0), (0.0, 2.0), PVInterior(1.0))
    assert abs(val) < 1e-8


def test_pv_analytic_oracle():
    # PV int_0^3 x/(x-1) dx = 3 + ln 2
    val = quad_singular(lambda x: x / (x - 1.0), (0.0, 3.0), PVInterior(1.0))
    assert val == pytest.approx(3.0 + math.log(2.0), abs=1e-7)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.3, max_value=2.0), st.floats(min_value=0.5, max_value=2.0))
def test_pv_antisymmetry_property(width, c):
    # even numerator about the pole on a symmetric interval integrates to zero
    f = lambda x: np.exp(-((x - c) ** 2) / width) / (x - c)
    val = quad_singular(f, (c - 1.0 if c > 1.0 else 1e-6, c + (c - (c - 1.0 if c > 1.0 else 1e-6))), PVInterior(c))
    assert abs(val) < 1e-8


def test_norm_weighted_gaussian():
    g = make_grid(512, (1e-6, 30.0), "log")
    f = SampledFunction.from_callable(lambda x: np.exp(-(x**2) / 2.0), g, DecayHint.exponential())
    # hull-plus-tail norm: the (0, 1e-6) head carries ~1e-6 of squared mass
    assert norm_weighted(f, WeightedNorm(-0.5)) == pytest.approx((np.sqrt(np.pi) / 2.0) ** 0.5, rel=2e-6)


def test_norm_weighted_indicator():
    g = make_grid(512, (1e-4, 4.0), "log")
    vals = np.where((g.points > 1.0) & (g.points < 2.0), 1.0, 0.0)
    f = SampledFunction(g, vals, DecayHint.compact(1.0, 2.0))
    # sampled indicators carry O(h) edge error; the norm itself is 1
    assert norm_weighted(f, WeightedNorm(-0.5)) == pytest.approx(1.0, abs=1e-2)


def test_norm_weighted_exponential_k0():
    g = make_grid(512, (1e-6, 60.0), "log")
    f = SampledFunction.from_callable(lambda x: np.exp(-x), g, DecayHint.exponential())
    assert norm_weighted(f, WeightedNorm(0.0)) == pytest.approx(0.5, rel=1e-9)


def test_norm_half_line_completes_power_tail_and_log_head(grid_main):
    x = grid_main.points
    # 1/(1+x): 1% of the squared mass lies beyond the hull; a power law fitted
    # at x = 100 reads the local exponent -0.99, which leaves 1e-4 of the tail
    f = SampledFunction(grid_main, 1.0 / (1.0 + x))
    assert norm_l2(f) < 0.996
    assert norm_half_line(f) == pytest.approx(1.0, rel=1e-4)
    # ln(x) e^-x tends to c + p ln x at the origin; the head is that model's integral
    g = SampledFunction(grid_main, np.log(x) * np.exp(-x))
    exact = 0.5 * ((np.euler_gamma + np.log(2.0)) ** 2 + np.pi**2 / 6.0)
    assert norm_half_line(g) ** 2 == pytest.approx(exact, rel=1e-6)


def test_norm_half_line_rejects_non_square_integrable_tail(grid_main):
    f = SampledFunction(grid_main, 1.0 / np.sqrt(grid_main.points + 1.0))
    with pytest.raises(DivergentTailError):
        norm_half_line(f)


def test_norm_divergent_tail_raises():
    g = make_grid(64, (1e-2, 10.0), "log")
    f = SampledFunction(g, 1.0 / g.points, DecayHint.power(1.0))
    with pytest.raises(DivergentTailError):
        norm_weighted(f, WeightedNorm(0.0))


def test_norm_without_hint_warns():
    g = make_grid(64, (1e-2, 10.0), "log")
    f = SampledFunction(g, np.exp(-g.points), None)
    with pytest.warns(TailWarning):
        norm_weighted(f)


def test_csv_round_trip(tmp_path):
    g = make_grid(128, (1e-2, 20.0), "log")
    f = SampledFunction.from_callable(lambda x: np.exp(-x) * np.sin(x), g)
    path = tmp_path / "f.csv"
    write_csv(path, f)
    back = read_csv(path)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.grid.points, f.grid.points)
    assert back.grid.spacing == "log"


def test_csv_rejects_decreasing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n" + "".join(f"{x},{x}\n" for x in [1.0, 0.5] + list(range(2, 20))))
    with pytest.raises(GridError):
        read_csv(path)


def test_interpolation_quality(grid_main):
    f = SampledFunction.from_callable(lambda x: np.exp(-(x**2)) * np.sin(x), grid_main)
    xs = np.geomspace(2e-4, 50.0, 999)
    exact = np.exp(-(xs**2)) * np.sin(xs)
    assert np.max(np.abs(f(xs) - exact)) < 1e-9
    dexact = np.exp(-(xs**2)) * (np.cos(xs) - 2 * xs * np.sin(xs))
    assert np.max(np.abs(f.deriv(xs) - dexact)) < 1e-7


@pytest.mark.parametrize("n,h", [(16, 0.5), (512, 0.0213), (16384, 40.0 / 16383), (1000, 1e-3)])
def test_uniform_weights_match_per_call_stencils(n, h):
    # the stencils are computed once; the weights must not change by a bit
    from betrans.numgrid import _fd_weights, _uniform_weights

    ref = np.full(n, h)
    ref[0] = ref[-1] = 0.5 * h
    stencil = np.arange(8, dtype=float)
    for deriv, coef in ((1, 1.0 / 12.0), (3, -1.0 / 720.0), (5, 1.0 / 30240.0)):
        cl = _fd_weights(0.0, stencil, deriv)
        ref[:8] += coef * h ** (deriv + 1) * cl / h**deriv
        cr = _fd_weights(0.0, -stencil, deriv)
        ref[-8:] -= coef * h ** (deriv + 1) * cr[::-1] / h**deriv
    assert np.array_equal(_uniform_weights(n, h), ref)


# ----------------------------------------------------------------------
# head model below the hull
# ----------------------------------------------------------------------


def _head_grids():
    from test_beops import _same_hull_grids

    return {
        "log": make_grid(256, (1e-3, 40.0)),
        "linear": make_grid(512, (0.5, 12.0), "linear"),
        "irregular": _same_hull_grids()[1],
        "coarse": make_grid(128, (0.05, 12.0), "linear"),
    }


HEAD_OPERANDS = {
    "x2gauss": lambda t: t * t * np.exp(-t * t),
    "shifted_gauss": lambda t: (1.0 + t) * np.exp(-t * t),
    "xlogx": lambda t: t * np.log(t) * np.exp(-t),
}


def _edge_taylor(f):
    """(f, f', f'') at the hull edge a: a least-squares quadratic over the
    samples in [a, 1.5a], or the interpolating spline's derivatives when
    fewer than 8 samples lie there."""
    from scipy.interpolate import make_interp_spline

    from betrans.numgrid import spline_knots

    x, grid = f.grid.points, f.grid
    a = x[0]
    k = int(np.searchsorted(x, 1.5 * a, side="right"))
    if k >= 8:
        dt = x[:k] - a
        c, *_ = np.linalg.lstsq(np.stack([np.ones_like(dt), dt, dt * dt], axis=1), f.values[:k], rcond=None)
        return c[0], c[1], 2.0 * c[2]
    knots, deg = spline_knots(grid)
    spline = make_interp_spline(grid.coord(x), f.values, k=deg, t=knots)
    sa = grid.coord(np.array([a]))
    v0, d1, d2 = (spline.derivative(m)(sa)[0] for m in range(3))
    return (v0, d1 / a, (d2 - d1) / (a * a)) if grid.spacing == "log" else (v0, d1, d2)


# numgrid's block LU and LAPACK's banded LU (scipy's make_interp_spline)
# round the spline's coefficients differently, by at most COEF_TOL of
# max|c| (test_spline_coefficients_equal_make_interp_spline).  A derivative
# differences the coefficients over the knot spacing, so where the knots
# are dense, and on a log grid near x = 1e-4, where d/dx = (d/ds)/x, the
# two splines' f' and f'' may differ by far more than their f does: by the
# coefficient bound carried through the differencing (_derivative_bounds).
COEF_TOL = 2e-15


def _derivative_bounds(grid, c, s):
    """Bounds on |g' - f'| and |g'' - f''| (derivatives in the grid
    coordinate) at the points s of that coordinate, for two splines f, g on
    grid whose coefficients differ by at most COEF_TOL max|c|: each
    difference of coefficients is bounded as the derivative's coefficients
    are formed from them, and a spline with those nonnegative bounds as
    coefficients bounds the difference, since the B-splines are nonnegative
    and sum to one."""
    from betrans.numgrid import spline_knots

    knots, k = spline_knots(grid)
    e = np.full(len(c), COEF_TOL * np.max(np.abs(c)))
    bounds = []
    for deg in (k, k - 1):
        e = deg * (e[1:] + e[:-1]) / (knots[deg + 1 : -1] - knots[1 : -deg - 1])
        knots = knots[1:-1]
        bounds.append(np.asarray(_de_boor_extended(knots, deg - 1, e, s), dtype=float))
    return bounds


def _two_branch_head(f, t, deriv):
    """The head model in its two-branch form: the logarithmic fit in u = t/a
    where it applies, else the Taylor quadratic about a."""
    from betrans.numgrid import _log_head

    a = f.grid.points[0]
    fit = _log_head(f)
    if fit is not None:
        c0, d0, c1, d1, c2, d2 = fit
        u = t / a
        lu = np.log(u)
        if deriv:
            return (d0 / u + c1 + d1 * (lu + 1.0) + 2.0 * c2 * u + d2 * u * (2.0 * lu + 1.0)) / a
        return c0 + d0 * lu + (c1 + d1 * lu) * u + (c2 + d2 * lu) * u * u
    v0, fp, fpp = _edge_taylor(f)
    dt = t - a
    return fp + fpp * dt if deriv else v0 + fp * dt + 0.5 * fpp * dt * dt


@pytest.mark.parametrize("operand", list(HEAD_OPERANDS))
@pytest.mark.parametrize("gname", ["log", "linear", "irregular", "coarse"])
def test_head_model_matches_its_two_branch_form(gname, operand):
    from betrans.numgrid import _log_head, deriv_extended, eval_extended

    grid = _head_grids()[gname]
    a = grid.points[0]
    fitted = np.count_nonzero(grid.points <= 1.5 * a)
    assert (fitted >= 8) == (gname in ("log", "linear"))  # the quadratic is a fit there, spline-based elsewhere
    f = SampledFunction.from_callable(HEAD_OPERANDS[operand], grid)
    logarithmic = _log_head(f) is not None
    assert logarithmic == (gname == "log" and operand == "xlogx")
    t = a * np.geomspace(1e-8, 1.0, 60, endpoint=False)
    if not logarithmic:
        t = np.concatenate([[0.0], t])  # the quadratic model stays finite at 0
    for deriv, fn in ((False, eval_extended), (True, deriv_extended)):
        nodes = t[t > 0] if deriv else t
        got, ref = fn(f, nodes), _two_branch_head(f, nodes, deriv)
        assert np.all(np.isfinite(got))
        # where the quadratic is the spline's, its f' and f'' are scipy's up
        # to the rounding of the coefficients (_derivative_bounds): on the
        # irregular grid up to 9.9e-13 of max|ref|, 0.15 of the bound
        tol = 0.0
        if fitted < 8:  # on the linear grids, where d/dx = d/ds
            e1, e2 = (float(e[0]) for e in _derivative_bounds(grid, _scipy_spline(f).c, grid.points[:1]))
            dt = np.abs(nodes - a)
            tol = e1 + e2 * dt if deriv else e1 * dt + 0.5 * e2 * dt * dt
        assert np.all(np.abs(got - ref) <= 1e-14 * np.max(np.abs(ref)) + tol)


# ----------------------------------------------------------------------
# the one spline: numgrid's basis rows, collocation solve and Taylor table
# against scipy's B-splines as the reference
# ----------------------------------------------------------------------


def _spline_grids():
    return {**_head_grids(), "log512": make_grid(512, (1e-4, 1e2))}


SPLINE_GRIDS = list(_spline_grids())


def _scipy_spline(f):
    from scipy.interpolate import make_interp_spline

    from betrans.numgrid import spline_knots

    knots, k = spline_knots(f.grid)
    return make_interp_spline(f.grid.coord(f.grid.points), f.values, k=k, t=knots)


def _random_coords(grid, n, seed):
    """n random points of the hull in the grid coordinate, its ends included."""
    s = grid.coord(grid.points)
    rng = np.random.default_rng(seed)
    return np.concatenate([[s[0], s[-1]], np.sort(rng.uniform(s[0], s[-1], n))])


@pytest.mark.parametrize("gname", SPLINE_GRIDS)
def test_basis_rows_equal_scipy_design_matrix(gname):
    from scipy.interpolate import BSpline

    from betrans.numgrid import basis_rows, spline_knots

    grid = _spline_grids()[gname]
    knots, k = spline_knots(grid)
    for s in (grid.coord(grid.points), _random_coords(grid, 2000, 3)):
        # degree k, and degree k - 1 on the inner knots (the rows of f')
        for deg, t in ((k, knots), (k - 1, knots[1:-1])):
            first, vals = basis_rows(t, deg, s)
            rows = np.zeros((len(s), len(t) - deg - 1))
            rows[np.arange(len(s)), first + np.arange(deg + 1)[:, None]] = vals
            assert np.array_equal(rows, BSpline.design_matrix(s, t, deg).toarray())


@pytest.mark.parametrize("operand", list(HEAD_OPERANDS))
@pytest.mark.parametrize("gname", SPLINE_GRIDS)
def test_spline_coefficients_equal_make_interp_spline(gname, operand):
    from betrans.numgrid import collocation_solve

    f = SampledFunction.from_callable(HEAD_OPERANDS[operand], _spline_grids()[gname])
    values = f.values.copy()
    c, ref = collocation_solve(f.grid, f.values), _scipy_spline(f).c
    # LAPACK's banded LU and the block LU round differently: at most
    # 1.2e-15 of max|c| apart on these grids
    assert np.max(np.abs(c - ref)) <= COEF_TOL * np.max(np.abs(ref))
    assert np.array_equal(f.values, values)  # the solve leaves the samples alone


def _de_boor_extended(knots, k, c, s):
    """The B-spline sum c . B(s) by de Boor's algorithm in extended precision."""
    t, x, c = (np.asarray(v, dtype=np.longdouble) for v in (knots, s, c))
    span = np.clip(np.searchsorted(knots, s, side="right") - 1, k, len(knots) - k - 2)
    d = [c[span - k + j] for j in range(k + 1)]
    for r in range(1, k + 1):
        for j in range(k, r - 1, -1):
            a = (x - t[span - k + j]) / (t[span + 1 + j - r] - t[span - k + j])
            d[j] = (1 - a) * d[j - 1] + a * d[j]
    return d[k]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double")
@pytest.mark.parametrize("operand", list(HEAD_OPERANDS))
@pytest.mark.parametrize("gname", SPLINE_GRIDS)
def test_sampled_function_evaluates_its_spline(gname, operand):
    """f and f' between samples, against scipy's spline (its coefficients)
    evaluated in extended precision: scipy's own double evaluation is off
    by up to 9e-16 of max|f| at such points, so a comparison with it would
    measure the two roundings together."""
    from betrans.numgrid import spline_coefficients, spline_knots, taylor_terms

    grid = _spline_grids()[gname]
    f = SampledFunction.from_callable(HEAD_OPERANDS[operand], grid)
    spline = _scipy_spline(f)
    knots, k = spline_knots(grid)
    s = _random_coords(grid, 20000, 5)
    x = np.exp(s) if grid.spacing == "log" else s
    sx = grid.coord(x)
    ref = _de_boor_extended(knots, k, spline.c, sx)
    c = np.asarray(spline.c, dtype=np.longdouble)
    dc = np.diff(c) * k / (knots[k + 1 : -1] - knots[1 : -k - 1]).astype(np.longdouble)
    dref = _de_boor_extended(knots[1:-1], k - 1, dc, sx)
    if grid.spacing == "log":
        dref = dref / x
    assert np.max(np.abs(f(x) - ref)) <= 1e-15 * np.max(np.abs(ref))
    # f' is scipy's up to the rounding of the coefficients (_derivative_bounds):
    # on log512 up to 2.5e-10 of max|f'| near x = 1e-4, and at most 0.19 of
    # the bound (log grid)
    e1 = _derivative_bounds(grid, spline.c, sx)[0] / (x if grid.spacing == "log" else 1.0)
    assert np.all(np.abs(f.deriv(x) - dref) <= 1e-15 * np.max(np.abs(dref)) + e1)
    # at the hull edge the head model's coarse-grid fallback reads f, f' and
    # f'' from the spline's Taylor terms: scipy's derivatives, f to the bit
    # (the first sample on both) and f', f'' up to the rounding of the
    # coefficients (at most 0.19 and 0.29 of the bounds, on the log grid)
    sa = grid.coord(grid.points[:1])
    edge = [spline.derivative(m)(sa)[0] for m in range(3)]
    coef = spline_coefficients(f)
    scale = np.max(np.abs(taylor_terms(grid, coef, grid.coord(grid.points[:-1]))[:3]), axis=1) * [1.0, 1.0, 2.0]
    bounds = [float(e[0]) for e in _derivative_bounds(grid, spline.c, sa)]
    for terms in (taylor_terms(grid, coef, sa)[:3, 0], f._taylor_table()[1][:3, 0]):
        got = [terms[0], terms[1], 2.0 * terms[2]]
        assert got[0] == edge[0] == f.values[0]
        for m in (1, 2):
            assert abs(got[m] - edge[m]) <= 1e-15 * scale[m] + bounds[m - 1]


def test_grid_factors_its_collocation_matrix_once():
    from betrans.numgrid import collocation_solve

    grid = make_grid(64, (0.1, 10.0), "linear")
    factors = grid._collocation_lu
    SampledFunction.from_callable(np.sin, grid)(np.array([1.234]))
    assert grid._collocation_lu is factors
    assert np.allclose(collocation_solve(grid, np.ones(64)), 1.0)  # the B-splines sum to one


def test_grids_compare_and_hash_by_identity():
    g, g2 = make_grid(32), make_grid(32)
    assert g == g
    assert g != g2
    assert len({g, g2}) == 2 and len({g, g}) == 1
    factors = g._collocation_lu
    SampledFunction.from_callable(np.exp, g)(np.array([0.5]))
    hash(g)
    assert g._collocation_lu is factors


def _collocation_matrix(grid):
    from betrans.numgrid import basis_rows, spline_knots

    knots, k = spline_knots(grid)
    first, vals = basis_rows(knots, k, grid.coord(grid.points))
    a = np.zeros((grid.n, grid.n))
    for o in range(k + 1):
        a[np.arange(grid.n), first + o] = vals[o]
    return a


def _block_solve_grids():
    from betrans.numgrid import _irregular_weights

    rng = np.random.default_rng(11)
    h = (12.0 - 0.05) / 511
    x = np.linspace(0.05, 12.0, 512) + rng.uniform(-0.3, 0.3, 512) * h  # jittered, the hull too
    return {
        "log512": make_grid(512),
        "linear2048": make_grid(2048, (0.1, 10.0), "linear"),
        "jittered": Grid(points=x, weights=_irregular_weights(x), spacing="linear"),
    }


@pytest.mark.parametrize("gname", ["log512", "linear2048", "jittered"])
def test_block_solve_matches_a_banded_lapack_solve(gname):
    from scipy.linalg import solve_banded

    from betrans.numgrid import collocation_solve

    def banded(m):  # 5 bands either side, in solve_banded's layout
        band = np.zeros((11, len(m)))
        for d in range(-5, 6):
            band[5 - d, max(d, 0) : len(m) + min(d, 0)] = np.diagonal(m, d)
        return band

    grid = _block_solve_grids()[gname]
    a = _collocation_matrix(grid)
    rng = np.random.default_rng(5)
    f = np.exp(-grid.coord(grid.points) ** 2 / 8.0) + 1e-3 * rng.standard_normal(grid.n)
    c, ref = collocation_solve(grid, f), solve_banded((5, 5), banded(a), f)
    assert np.max(np.abs(c - ref)) <= 2e-15 * np.max(np.abs(ref))
    assert np.max(np.abs(a @ c - f)) <= 2e-15 * np.max(np.abs(f))  # the interpolation residual


def test_block_lu_rejects_a_singular_pivot_block():
    from betrans.numgrid import _block_lu

    first = np.arange(200) - 1
    first[0] = 0
    vals = np.zeros((3, 200))
    vals[1] = 2.0  # the tridiagonal (-1, 2, -1) ...
    vals[0, 1:] = vals[2, :-1] = -1.0
    _block_lu(first, vals)
    vals[:, 120] = 0.0  # ... with a zero row in the second block
    with pytest.raises(GridError):
        _block_lu(first, vals)


def _gauss_jacobi_reference(x, n, a, b):
    """Nodes and weights of the n-point Gauss-Jacobi rule in 30 digits: each
    node polished by Newton's method on mpmath's P_n^(a, b) from x, the
    weights from P_n' (DLMF 18.9.15, 18.10.1)."""
    import mpmath as mp

    with mp.workdps(30):
        a, b = mp.mpf(a), mp.mpf(b)
        scale = 2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1) / (mp.gamma(n + a + b + 1) * mp.factorial(n))
        nodes, weights = [], []
        for x0 in x:
            t = mp.mpf(float(x0))
            for _ in range(4):
                dp = (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, t)
                t -= mp.jacobi(n, a, b, t) / dp
            dp = (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, t)
            nodes.append(float(t))
            weights.append(float(scale / ((1 - t * t) * dp * dp)))
    return np.array(nodes), np.array(weights)


# every rule that one `betrans verify all` run asks for, and a strongly
# singular one (beta = -0.9)
GAUSS_RULES = [(n, 0.0, 0.0) for n in (8, 10, 12, 20, 24, 96)]
GAUSS_RULES += [(24, a, 0.0) for a in (-0.75, -0.5, -0.3, -0.25, 0.2, 0.25, 0.5, 0.75)]
GAUSS_RULES += [(24, 0.0, b) for b in (-0.9, -0.5, -0.3, 0.25, 0.5, 0.75)]


@pytest.mark.parametrize("n, alpha, beta", GAUSS_RULES)
def test_gauss_jacobi_against_mpmath(n, alpha, beta):
    from betrans.numgrid import gauss_jacobi

    x, w = gauss_jacobi(n, alpha, beta)
    assert np.all(np.diff(x) > 0) and len(x) == n
    ref_x, ref_w = _gauss_jacobi_reference(x, n, alpha, beta)
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    assert np.max(np.abs(w / ref_w - 1.0)) <= 2e-13
    assert gauss_jacobi(n, alpha, beta) is gauss_jacobi(n, alpha, beta)
    assert not x.flags.writeable and not w.flags.writeable


def test_fit_power_law_recovers_a_signed_power():
    x = np.geomspace(1.0, 3.0, 10)
    c, p = fit_power_law(x, -2.5 * x**-1.75, 0.05)
    assert c == pytest.approx(-2.5, rel=1e-12) and p == pytest.approx(-1.75, rel=1e-12)


def test_fit_power_law_rejects_what_no_single_power_follows():
    x = np.geomspace(1.0, 3.0, 10)
    v = x**-2.0
    assert fit_power_law(x, np.where(x < 2.0, v, -v), 0.05) is None  # a sign change
    tiny = v.copy()
    tiny[4] = 1e-14
    assert fit_power_law(x, tiny, 10.0) is None  # a sample below 1e-13
    bent = v * (1.0 + 0.2 * (x > 2.5))  # ln|v| jumps by ln 1.2 = 0.18 at the end
    assert fit_power_law(x, bent, 0.05) is None
    assert fit_power_law(x, bent, 0.15) is not None


def test_sampled_functions_add_on_one_grid():
    grid = make_grid(64, (0.1, 10.0))
    f = SampledFunction.from_callable(np.exp, grid, DecayHint.exponential())
    g = SampledFunction(grid, grid.points**2, DecayHint.power(1.0))
    h = f + g
    assert h.grid is grid and h.decay_hint == f.decay_hint
    assert np.array_equal(h.values, f.values + g.values)
    with pytest.raises(GridError):
        f + SampledFunction.from_callable(np.exp, make_grid(64, (0.1, 20.0)))
