"""Quadrature plans as matrices on the grid, and grid differentiation."""

import math
import tracemalloc

import numpy as np
import pytest

from betrans import _engine, classicops, fracint, numgrid
from betrans._engine import PVPlan, RatioKernel, build_lower_plan, build_pv_plan, build_upper_plan, deriv_on_grid
from betrans.beops import first_kind, second_kind, zero_order
from betrans.beops.second_kind import _kernels_p, _kernels_s, hilbert_pair_kernels
from betrans.numgrid import SampledFunction, deriv_extended, eval_extended, make_grid
from betrans.specfun import legendre_p
from betrans.testfuncs import suite_on_grid
from test_beops import _same_hull_grids
from test_transforms import _irregular_log_grid

# ----------------------------------------------------------------------
# plans: the matrix against the node sum it replaces
# ----------------------------------------------------------------------


def _grids():
    return {
        "log": make_grid(256, (1e-3, 40.0)),
        "linear": make_grid(128, (0.05, 12.0), "linear"),
        "irregular": _same_hull_grids()[1],
    }


def _smooth(t):
    return t * t * np.exp(-t * t)


def _log_head(t):
    return t * np.log(t) * np.exp(-t)


def _pole_lower(x, t):
    return 1.0 / (np.pi * (x - t)) + np.sin(t)


def _pole_upper(x, t):
    return 1.0 / (np.pi * (x - t)) + np.exp(-t)


GEOMETRIES = {
    "lower": lambda g: build_lower_plan(g, lambda x, t: np.exp(-((x - t) ** 2)) * (1.0 + t)),
    "upper": lambda g: build_upper_plan(g, lambda x, t: np.exp(-((x - t) ** 2)) / t),
    "pv": lambda g: build_pv_plan(g, _pole_lower, _pole_upper),
    "lower_deriv": lambda g: build_lower_plan(g, lambda x, t: legendre_p(0.5, t / x, "on_cut"), use_deriv=True),
    "upper_deriv": lambda g: build_upper_plan(g, lambda x, t: np.exp(-t) * x / t, use_deriv=True),
    "lower_jacobi": lambda g: build_lower_plan(g, lambda x, t: (x - t) ** -0.5, alpha=-0.5),
    "upper_jacobi": lambda g: build_upper_plan(g, lambda x, t: (t - x) ** -0.5 * np.exp(-t), alpha=-0.5),
    "lower_head_zero": lambda g: build_lower_plan(g, lambda x, t: 1.0 / t, head="zero"),
}


@pytest.fixture(scope="module")
def plans_with_weights():
    """Every geometry on every grid, with the per-node weight x kernel
    values that the builders hand to the matrix assembly, a block of rows
    at a time."""
    captured = []
    real = _engine._assemble

    def assemble(grid, nodes, node_id, offsets, kw, use_deriv):
        captured.append((kw.copy(), use_deriv))
        return real(grid, nodes, node_id, offsets, kw, use_deriv)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_assemble", assemble)
        out = {}
        for gname, grid in _grids().items():
            for geometry, build in GEOMETRIES.items():
                captured.clear()
                plan = build(grid)
                kw = np.concatenate([block for block, _ in captured])
                out[gname, geometry] = grid, plan, kw, captured[0][1]
    return out


def _node_sum(plan, kw, use_deriv, f):
    """The plan applied as a sum over its quadrature nodes: the operand (or
    its derivative) at every node, spline inside the hull, head model below;
    a PV plan's pole term takes f(x_i) as (A c)_i, the spline's basis row at
    x_i times its coefficients."""
    vals = deriv_extended(f, plan.t_all) if use_deriv else eval_extended(f, plan.t_all)
    out = _engine._segmented_sum(kw * vals, plan.offsets)
    if isinstance(plan, PVPlan):
        grid = f.grid
        first, rows = numgrid.basis_rows(*numgrid.spline_knots(grid), grid.coord(grid.points))
        at_x = np.sum(rows * numgrid.spline_coefficients(f)[first + np.arange(len(rows))[:, None]], axis=0)
        out = out - plan.rho * at_x * (plan.sub - plan.log_term)
    return out


@pytest.mark.parametrize("operand", [_smooth, _log_head], ids=["smooth", "log_head"])
@pytest.mark.parametrize("gname", ["log", "linear", "irregular"])
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_plan_matrix_matches_node_sum(plans_with_weights, geometry, gname, operand):
    grid, plan, kw, use_deriv = plans_with_weights[gname, geometry]
    f = SampledFunction.from_callable(operand, grid)
    ref = _node_sum(plan, kw, use_deriv, SampledFunction.from_callable(operand, grid))
    assert np.max(np.abs(plan.apply(f) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_operands_cover_both_head_models():
    # on the log grid (hull from 1e-3) the second operand's edge samples
    # follow the logarithmic head model; on the grids from 0.05 both
    # operands take the quadratic one
    for gname, grid in _grids().items():
        assert (numgrid._log_head(SampledFunction.from_callable(_log_head, grid)) is not None) == (gname == "log")
        assert numgrid._log_head(SampledFunction.from_callable(_smooth, grid)) is None


def test_plan_is_one_matrix_on_the_grid(plans_with_weights):
    # columns: the operand's spline coefficients, then its head model's six
    # coefficients, which only plans with nodes below the hull read
    for (gname, geometry), (grid, plan, _, _) in plans_with_weights.items():
        assert plan.matrix.shape == (grid.n, grid.n + 6)
        assert np.any(plan.matrix[:, grid.n :]) == np.any(plan.t_all < grid.points[0])
        f = SampledFunction.from_callable(_smooth, grid)
        vector = np.concatenate([numgrid.spline_coefficients(f), numgrid.head_model(f)])
        assert np.array_equal(plan.apply(f), plan.matrix @ vector)


def test_an_operand_is_solved_for_its_spline_once(monkeypatch):
    # plans, transforms, evaluation and the head model (here the Taylor
    # fallback: 1 sample in [a, 1.5a]) all read the operand's one cached
    # set of spline coefficients, and no plan or transform solves at all
    from betrans.beops import transforms
    from betrans.beops.transforms import default_spectral_grid, fourier_sine

    solves = []
    solve = numgrid.collocation_solve
    for module in (numgrid, _engine, transforms):  # wherever the name is bound
        if hasattr(module, "collocation_solve"):
            monkeypatch.setattr(module, "collocation_solve", lambda *a: solves.append(1) or solve(*a))
    grid = make_grid(48, (0.05, 12.0), "linear")
    f = SampledFunction.from_callable(_smooth, grid)
    assert numgrid._log_head(f) is None and np.count_nonzero(grid.points <= 1.5 * grid.points[0]) < 8
    x = np.linspace(0.1, 11.0, 7)
    for build in (GEOMETRIES["lower"], GEOMETRIES["upper"], GEOMETRIES["pv"]):
        build(grid).apply(f)
    fourier_sine(f, default_spectral_grid(256))
    f(x), f.deriv(x), numgrid.head_model(f)
    assert len(solves) == 1


# ----------------------------------------------------------------------
# PV plans of ratio kernels on the lattice
# ----------------------------------------------------------------------


def _plain(kernel):
    """The same kernel as a plain (x, t) function, for the pair-by-pair path."""
    return lambda x, t: kernel(x, t)


PV_RATIO_PLANS = {
    "second:S:nu=0.3": lambda: _kernels_s(0.3),
    "second:S:nu=1.5": lambda: _kernels_s(1.5),
    "second:P:nu=0.3": lambda: _kernels_p(0.3),
    "second:P:nu=1.5": lambda: _kernels_p(1.5),
    "hilbert:S:nu=-1": lambda: hilbert_pair_kernels(-1),
    "hilbert:P:nu=-1": lambda: hilbert_pair_kernels(0),
}


def _jittered_hull_grid():
    # one hull drawn as cold_apply draws its grids
    rng = np.random.default_rng(1)
    return make_grid(512, (1e-4 * np.exp(rng.uniform(-0.1, 0.1)), 1e2 * np.exp(rng.uniform(-0.05, 0.05))))


@pytest.mark.parametrize("gname", ["log", "jittered"])
@pytest.mark.parametrize("case", list(PV_RATIO_PLANS))
def test_lattice_pv_plan_matches_pair_path(case, gname):
    # the same rule either way: the pole sums agree to 1e-13 of their
    # largest (summed in another order; 5.1e-15 measured), and the images
    # within 2e-13 relative L2 (5.7e-14 measured), about 1% of the Legendre-Q
    # plans' quadrature error.  Next to the pole each own node takes its
    # own ratio's pole, as the pair path's kernel does; with the relative
    # row's alone, the rounding of the innermost distances x - t moved the
    # images by up to 1.4e-9
    grid = make_grid(512, (1e-4, 1e2)) if gname == "log" else _jittered_hull_grid()
    assert numgrid.log_uniform(grid)
    k_lower, k_upper = PV_RATIO_PLANS[case]()
    plan = build_pv_plan(grid, k_lower, k_upper)
    ref = build_pv_plan(grid, _plain(k_lower), _plain(k_upper))
    assert np.array_equal(plan.t_all, ref.t_all) and np.array_equal(plan.offsets, ref.offsets)
    assert np.array_equal(plan.log_term, ref.log_term)
    assert np.max(np.abs(plan.sub - ref.sub)) <= 1e-13 * np.max(np.abs(ref.sub))
    for name in ("gauss", "x2gauss", "xexp", "bump12"):
        f = suite_on_grid(name, grid)
        want = ref.apply(f)
        assert np.linalg.norm(plan.apply(f) - want) <= 2e-13 * np.linalg.norm(want), name


@pytest.mark.parametrize(
    "grid",
    [make_grid(256, (0.05, 12.0), "linear"), _irregular_log_grid(400, (1e-3, 40.0), 5)],
    ids=["linear", "irregular_log"],
)
def test_ratio_kernels_off_uniform_log_grids_take_the_per_pair_path(grid):
    # no lattice off a grid uniform in log x: the plan is the plain
    # kernels' plan bit for bit
    for kernels in (_kernels_s(0.3), _kernels_p(0.3), hilbert_pair_kernels(0)):
        plan = build_pv_plan(grid, *kernels)
        ref = build_pv_plan(grid, *(_plain(k) for k in kernels))
        for attr in ("matrix", "t_all", "sub"):
            assert np.array_equal(getattr(plan, attr), getattr(ref, attr)), attr


@pytest.mark.parametrize("gname", ["log", "jittered", "linear"])
def test_pv_pole_sum_is_the_sum_over_the_plans_rule(gname):
    # sub is sum w/(x - t) over each row's rule (plan.t_all, plan.offsets)
    # to 1e-14 of its largest value, on the lattice too (by prefix sums over
    # offsets and the own panels' nodes); the pair path's is bit for bit the
    # per-pair sum over all rows at once, though it is summed a block of
    # rows at a time
    grid = {"log": make_grid(512, (1e-4, 1e2)), "jittered": _jittered_hull_grid()}.get(gname)
    grid = grid or make_grid(256, (0.05, 12.0), "linear")
    kernels = hilbert_pair_kernels(0)
    plan = build_pv_plan(grid, *kernels)
    rules = _engine._Rules(grid.points, np.arange(grid.n))
    _engine._pv_rules(rules)
    nodes, weights, node_id, offsets = rules.pairs()
    assert np.array_equal(nodes[node_id], plan.t_all) and np.array_equal(offsets, plan.offsets)
    terms = weights[node_id] / (np.repeat(grid.points, np.diff(offsets)) - plan.t_all)
    ref = np.array([math.fsum(terms[a:b]) for a, b in zip(offsets[:-1], offsets[1:])])
    assert np.max(np.abs(plan.sub - ref)) <= 1e-14 * np.max(np.abs(ref))
    pair_plan = build_pv_plan(grid, *map(_plain, kernels))
    assert np.array_equal(pair_plan.sub, _engine._segmented_sum(terms, offsets))


def test_cold_pv_build_holds_no_per_pair_array():
    # a cold second:S build on the 512-point grid peaks at 12.1 MB of
    # traced allocations; with the pole sum formed over every (row, node)
    # pair it peaked at 29.8 MB
    build_pv_plan(make_grid(64, (1e-4, 1e2)), *_kernels_s(0.3))
    grid = make_grid(512, (1e-4, 1e2))
    tracemalloc.start()
    try:
        build_pv_plan(grid, *_kernels_s(0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22e6


def test_ratio_kernel_is_the_dilation_form():
    x = np.array([0.5, 2.0, 3.0])
    t = np.array([0.4, 3.0, 2.9])
    k = lambda r: np.exp(-r) / (1.0 - r)  # noqa: E731
    assert np.array_equal(RatioKernel(k)(x, t), k(t / x) / x)
    assert np.array_equal(RatioKernel(k, "x/t")(x, t), k(x / t) / t)
    assert np.array_equal(RatioKernel(k, "1-t/x")(x, t), k((x - t) / x) / x)
    # any degree d: k(r) x^d (k(r) t^d for r = x/t), and K(lx, lt) = l^d K(x, t)
    for d in (-0.3, 0.0, 1.5):
        kernel = RatioKernel(k, "t/x", d)
        assert np.allclose(kernel(x, t), k(t / x) * x**d, rtol=1e-15, atol=0.0)
        assert np.allclose(RatioKernel(k, "x/t", d)(x, t), k(x / t) * t**d, rtol=1e-15, atol=0.0)
        assert np.allclose(kernel(7.0 * x, 7.0 * t), 7.0**d * kernel(x, t), rtol=1e-14, atol=0.0)


# ----------------------------------------------------------------------
# lower and upper plans of ratio kernels on the lattice
# ----------------------------------------------------------------------


def _first(variant, mu=0.3):
    build = build_lower_plan if first_kind._VARIANTS[variant][0] == "lower" else build_upper_plan
    return build, first_kind._kernel(variant, 0.5, mu), {"alpha": -mu if mu else None}


def _zero(plan, nu=0.5):
    build, kernel, use_deriv = zero_order._kernel(plan, nu)
    return build, kernel, {"use_deriv": use_deriv}


def _u(index):
    side, kernel, head = classicops._U_KERNELS[index]
    return (build_lower_plan, kernel, {"head": head}) if side == "lower" else (build_upper_plan, kernel, {})


def _spd_sonine(deriv):
    captured = {}

    def build(grid, kernel, **kw):
        captured.setdefault(kw.get("use_deriv", False), (kernel, kw))
        return build_lower_plan(grid, kernel, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classicops, "build_lower_plan", build)
        classicops.spd_sonine(0.25, SampledFunction.from_callable(_smooth, make_grid(64)))
    kernel, kw = captured[deriv]
    return build_lower_plan, kernel, kw


RATIO_PLANS = {
    **{f"first:{v}": (lambda v=v: _first(v)) for v in first_kind._VARIANTS},
    "first:B0+:mu=0": lambda: _first("B0+", 0.0),
    "first:E-:mu=-0.4": lambda: _first("E-", -0.4),
    **{f"zero:{p}": (lambda p=p: _zero(p)) for p in ("S0+", "P0+", "S-", "P-")},
    "zero:P-hardy:nu=2": lambda: _zero("P-hardy", 2.0),
    "spd:P": lambda: (build_lower_plan, classicops._spd_poisson_kernel(0.25), {"alpha": -0.25}),
    "spd:P:nu=1.5": lambda: (build_lower_plan, classicops._spd_poisson_kernel(1.5), {}),
    "spd:S": lambda: (build_lower_plan, classicops._spd_sonine_kernels(0.25)[0], {"alpha": -0.75}),
    "spd:S:deriv": lambda: (
        build_lower_plan,
        classicops._spd_sonine_kernels(0.25)[1],
        {"alpha": -0.75, "use_deriv": True},
    ),
    "hardy:H1": lambda: (build_lower_plan, classicops._HARDY["H1"], {}),
    "hardy:H2": lambda: (build_upper_plan, classicops._HARDY["H2"], {}),
    **{f"uhardy:U{i}": (lambda i=i: _u(i)) for i in range(3, 11)},
    "stieltjes:lower": lambda: (build_lower_plan, classicops._STIELTJES, {}),
    "stieltjes:upper": lambda: (build_upper_plan, classicops._STIELTJES, {}),
    "rl_left": lambda: (build_lower_plan, fracint._rl_kernel("rl_left", 0.5), {"alpha": -0.5}),
    "rl_right": lambda: (build_upper_plan, fracint._rl_kernel("rl_right", 0.5), {"alpha": -0.5}),
    "ek_left": lambda: (build_lower_plan, fracint._ek_kernel("ek_left", 0.6, 0.2), {"alpha": -0.4}),
    "ek_right": lambda: (build_upper_plan, fracint._ek_kernel("ek_right", 0.6, 0.2), {"alpha": -0.4}),
}


@pytest.mark.parametrize("gname", ["log", "jittered"])
@pytest.mark.parametrize("case", list(RATIO_PLANS))
def test_lattice_plan_matches_pair_path(case, gname):
    # the same rule either way: the lattice's matrix is the plain (x, t)
    # kernel's pair-by-pair matrix to 1e-13 of its largest entry, and its
    # images are within PR 11's 2e-13 relative L2
    grid = make_grid(512, (1e-4, 1e2)) if gname == "log" else _jittered_hull_grid()
    build, kernel, kw = RATIO_PLANS[case]()
    assert isinstance(kernel, RatioKernel)
    plan = build(grid, kernel, **kw)
    ref = build(grid, _plain(kernel), **kw)
    assert np.array_equal(plan.t_all, ref.t_all) and np.array_equal(plan.offsets, ref.offsets)
    assert np.max(np.abs(plan.matrix - ref.matrix)) <= 1e-13 * np.max(np.abs(ref.matrix))
    for name in ("gauss", "x2gauss", "xexp", "bump12"):
        f = suite_on_grid(name, grid)
        want = ref.apply(f)
        assert np.linalg.norm(plan.apply(f) - want) <= 2e-13 * np.linalg.norm(want), name


@pytest.mark.parametrize(
    "grid",
    [make_grid(256, (0.05, 12.0), "linear"), _irregular_log_grid(400, (1e-3, 40.0), 5)],
    ids=["linear", "irregular_log"],
)
@pytest.mark.parametrize("case", list(RATIO_PLANS))
def test_lower_upper_ratio_plans_off_uniform_log_grids_take_the_per_pair_path(case, grid):
    build, kernel, kw = RATIO_PLANS[case]()
    plan = build(grid, kernel, **kw)
    ref = build(grid, _plain(kernel), **kw)
    assert np.array_equal(plan.matrix, ref.matrix)


@pytest.mark.parametrize(
    "module, name, case",
    [
        (first_kind, "legendre_p_assoc", "first:B0+"),
        (zero_order, "legendre_p", "zero:P0+"),
        (second_kind, "legendre_q1", "second:S:nu=0.3"),
    ],
    ids=["B0+", "P0+", "second:S"],
)
def test_lattice_plans_evaluate_each_kernel_once_per_offset(monkeypatch, module, name, case):
    # per pair, B0+'s lower plan hands its kernel every one of its 798,150
    # (row, node) pairs on this grid; the lattice, the relative row's nodes
    # (at most 2 n N_GAUSS and its own panels), the head nodes of every row,
    # and the own panels of the rows next to a: 9,540 (P0+ 9,210, the PV
    # plan of second:S 12,568 of 1,725,300)
    sizes = []
    inner = getattr(module, name)

    def counting(nu, *args):
        sizes.append(np.size(args[-2]))
        return inner(nu, *args)

    monkeypatch.setattr(module, name, counting)
    grid = make_grid(512, (1e-4, 1e2))
    if case in PV_RATIO_PLANS:
        plan = build_pv_plan(grid, *PV_RATIO_PLANS[case]())
    else:
        build, kernel, kw = RATIO_PLANS[case]()
        plan = build(grid, kernel, **kw)
    near = np.count_nonzero(grid.points <= 2.0 * grid.points[0])
    own = 2 * 20 * _engine.N_GRADED  # a PV row's graded panels, more than a Jacobi panel's N_JACOBI
    bound = 2 * grid.n * _engine.N_GAUSS + own + grid.n * _engine.N_GL_HEAD + near * _engine.N_JACOBI
    assert sizes and sum(sizes) <= bound and bound <= 0.05 * len(plan.t_all)


# three lattice plans: a smooth kernel, an endpoint power (Gauss-Jacobi on
# the interval ending at the diagonal) and a PV pair; (build, degree, pv)
LATTICE_WITNESSES = {
    "zero:S-:nu=0.7": (lambda g: build_upper_plan(g, zero_order._kernel("S-", 0.7)[1]), -1.0, False),
    "rl_left:alpha=0.5": (lambda g: build_lower_plan(g, fracint._rl_kernel("rl_left", 0.5), alpha=-0.5), -0.5, False),
    "second:S:nu=0.3": (lambda g: build_pv_plan(g, *_kernels_s(0.3)), -1.0, True),
}


@pytest.mark.parametrize("case", list(LATTICE_WITNESSES))
def test_lattice_plans_are_shift_invariant_in_the_interior(case):
    # clear of the rows next to a and b and of the not-a-knot end columns,
    # C[i + 1, j + 1] = (x_(i+1)/x_i)^(d + 1) C[i, j] to rounding (stride-4
    # panels left 6.5e-5 to 2.0e-4 of max|C| between neighbouring phases);
    # a PV plan's pole term at x_i is off that pattern, on columns i - 2..i + 2
    build, degree, pv = LATTICE_WITNESSES[case]
    grid = make_grid(512, (1e-4, 1e2))
    n, x = grid.n, grid.points
    c = build(grid).matrix[:, :n]
    i, j = np.meshgrid(np.arange(40, n - 12), np.arange(6, n - 7), indexing="ij")
    keep = np.abs(i - j) >= 3 if pv else np.ones(i.shape, dtype=bool)
    i, j = i[keep], j[keep]
    shifted = (x[i + 1] / x[i]) ** (degree + 1.0) * c[i, j]
    assert np.max(np.abs(c[i + 1, j + 1] - shifted)) <= 1e-13 * np.max(np.abs(c))


def _adaptive_entry(grid, kernel, x, lo, hi, j):
    """int_lo^hi K(x, t) B_j(t) dt by scipy's adaptive quad, split at the
    spline's knots."""
    from scipy.integrate import quad

    knots, k = numgrid.spline_knots(grid)

    def integrand(t):
        first, vals = numgrid.basis_rows(knots, k, np.log([t]))
        p = j - first[0]
        return kernel(np.array([x]), np.array([t]))[0] * vals[p, 0] if 0 <= p <= k else 0.0

    edges = [lo, *(e for e in np.exp(knots[j + 1 : j + k + 1]) if lo < e < hi), hi]
    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("case", list(LATTICE_WITNESSES))
def test_lattice_plan_entries_match_adaptive_quadrature(case):
    # interior entries C[i, j] = int K(x_i, t) B_j(t) dt against adaptive
    # quadrature, within 1e-9 of max|C|, a bound fixed before the rule's
    # points per interval were chosen: every offset of the smooth kernel,
    # and the offsets |i - j| >= 4, whose basis function is clear of the
    # diagonal, of the endpoint power and the PV pair.  Measured at
    # N_GAUSS = 6: 9.4e-15, 1.2e-13 and 5.2e-13 (the refinement had N_GAUSS
    # = 4 at 1.4e-10, 6.7e-11 and 1.2e-10; stride-4 panels were off by
    # 1.0-1.4e-4 on the smooth kernel)
    build, _, pv = LATTICE_WITNESSES[case]
    grid = make_grid(512, (1e-4, 1e2))
    n, x = grid.n, grid.points
    plan = build(grid)
    c = plan.matrix[:, :n]
    knots, k = numgrid.spline_knots(grid)
    if case.startswith("zero"):
        offsets, kernel = (-8, -2, -1, 0, 1, 2), zero_order._kernel("S-", 0.7)[1]
    elif case.startswith("rl"):
        offsets, kernel = (4, 5, 8, 40), fracint._rl_kernel("rl_left", 0.5)
    else:
        offsets, (k_lower, k_upper) = (-40, -8, -4, 4, 8, 40), _kernels_s(0.3)
    for i in (150, 370):
        for d in offsets:
            j = i - d
            lo, hi = np.exp(knots[j]), np.exp(knots[j + k + 1])  # B_j's support
            if pv:
                kernel = k_lower if hi < x[i] else k_upper
            elif case.startswith("zero"):
                lo = max(lo, x[i])
            else:
                hi = min(hi, x[i])
            ref = _adaptive_entry(grid, kernel, x[i], lo, hi, j)
            assert abs(c[i, j] - ref) <= 1e-9 * np.max(np.abs(c)), (i, d)


def test_plans_keep_their_rule_as_node_table_and_layout():
    # t_all and offsets are unrolled on access, not kept pair by pair
    grid = make_grid(512, (1e-4, 1e2))
    plan = build_lower_plan(grid, classicops._HARDY["H1"])
    assert "t_all" not in vars(plan) and "offsets" not in vars(plan)
    kept = sum(v.nbytes for v in vars(plan).values() if isinstance(v, np.ndarray))
    assert kept - plan.matrix.nbytes <= 0.1 * plan.t_all.nbytes
    assert plan.offsets[-1] == len(plan.t_all) and len(plan.offsets) == grid.n + 1


# ----------------------------------------------------------------------
# grid differentiation
# ----------------------------------------------------------------------


def _x2gauss_deriv(x):
    return (2.0 * x - 2.0 * x**3) * np.exp(-x * x)


def _uniform_reference(values, grid):
    """Fourth-order differences on one spacing: [1, -8, 0, 8, -1] / 12h
    inside, one-sided five-point rows at the ends."""
    s = grid.coord(grid.points)
    h = s[1] - s[0]
    d = np.empty_like(values)
    d[2:-2] = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / 12.0
    ends = [np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0, np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0]
    for i, row in enumerate(ends):
        d[i] = row @ values[:5]
        d[-1 - i] = -(row @ values[::-1][:5])
    d /= h
    return d / grid.points if grid.spacing == "log" else d


def test_deriv_on_grid_uses_the_actual_coordinates_of_irregular_grids():
    # one spacing s[1] - s[0] for the whole grid was off by 13x max|f'|
    grid = _same_hull_grids()[1]
    x = grid.points
    exact = _x2gauss_deriv(x)
    assert np.max(np.abs(deriv_on_grid(x * x * np.exp(-x * x), grid) - exact)) <= 1e-4 * np.max(np.abs(exact))


@pytest.mark.parametrize("grid", [make_grid(512), make_grid(256, (0.05, 12.0), "linear")], ids=["log", "linear"])
def test_deriv_on_grid_unchanged_on_uniform_grids(grid):
    x = grid.points
    for values in (x * x * np.exp(-x * x), np.exp(-x) * np.sin(3.0 * x)):
        ref = _uniform_reference(values, grid)
        assert np.max(np.abs(deriv_on_grid(values, grid) - ref)) <= 1e-12 * np.max(np.abs(ref))
