import warnings

import numpy as np
import pytest

from betrans.beops import (
    OperatorSpec,
    OperatorSpecError,
    apply,
    apply_weighted_third,
    default_spectral_grid,
    fourier_cosine,
    fourier_sine,
    hankel,
    hankel_inverse,
    parse_operator,
    weight_function,
)
from betrans.numgrid import DecayHint, GridError, SampledFunction, make_grid, norm_l2
from betrans.testfuncs import suite_on_grid


@pytest.fixture(scope="module")
def grid_mid():
    return make_grid(512, (1e-3, 40.0))


@pytest.fixture(scope="module")
def bump_mid(grid_mid):
    return suite_on_grid("bump12", grid_mid)


def test_cosine_transform_closed_form(grid_mid):
    f = SampledFunction.from_callable(lambda y: np.exp(-y), grid_mid, DecayHint.exponential())
    fc = fourier_cosine(f)
    t = fc.grid.points
    assert np.max(np.abs(fc.values - np.sqrt(2.0 / np.pi) / (1.0 + t * t))) < 1e-6


def test_sine_transform_self_inverse(grid_mid, bump_mid):
    rec = fourier_sine(fourier_sine(bump_mid), grid_mid)
    assert norm_l2(rec - bump_mid) / norm_l2(bump_mid) < 1e-5


def test_hankel_half_integer_reduction(grid_mid, bump_mid):
    # F_(1/2) f (t) = F_s[y f](t) / t
    h = hankel(0.5, bump_mid)
    ys = SampledFunction(grid_mid, grid_mid.points * bump_mid.values, bump_mid.decay_hint)
    fs = fourier_sine(ys)
    assert np.max(np.abs(h.values - fs.values / fs.grid.points)) < 1e-5


def test_hankel_self_inverse_weighted(grid_mid, bump_mid):
    rec = hankel_inverse(0.7, hankel(0.7, bump_mid), grid_mid)
    assert norm_l2(rec - bump_mid) / norm_l2(bump_mid) < 1e-4


def test_weighted_third_inverse_pairs(grid_mid, bump_mid):
    for phi_, trig, nu in (("one", "sin", 0.5), ("rational", "cos", 1.0), ("sqrt", "sin", 0.5)):
        s = OperatorSpec("weighted_third", "S", nu=nu, phi=phi_, trig=trig)
        p = OperatorSpec("weighted_third", "P", nu=nu, phi=phi_, trig=trig)
        sf = apply_weighted_third(s, bump_mid)
        rec = apply_weighted_third(p, sf)
        assert norm_l2(rec - bump_mid) / norm_l2(bump_mid) < 1e-4, (phi_, trig)


def test_weighted_third_unit_weight_half_degree_reduction(grid_mid, bump_mid):
    # phi = 1, nu = 1/2, sine branch: S = F_s^(-1) F_(1/2); by the
    # half-integer reduction F_(1/2) f = F_s[y f]/t, so S f = F_s^(-1)[(1/t) F_s[y f]]
    spec = OperatorSpec("weighted_third", "S", nu=0.5, phi="one", trig="sin")
    sf = apply_weighted_third(spec, bump_mid)
    sg = default_spectral_grid()
    ys = SampledFunction(grid_mid, grid_mid.points * bump_mid.values, bump_mid.decay_hint)
    fs = fourier_sine(ys, sg)
    filt = SampledFunction(sg, fs.values / sg.points, None)
    ref = fourier_sine(filt, grid_mid)
    resid = norm_l2(sf - ref) / norm_l2(bump_mid)
    assert resid < 1e-6  # documented residual of the reduction oracle


def test_weighted_third_intertwining(grid_mid):
    from betrans._engine import deriv_on_grid, second_deriv_on_grid

    f = suite_on_grid("x2gauss", grid_mid)
    nu = 0.5
    x = grid_mid.points
    bvals = second_deriv_on_grid(f.values, grid_mid) + (2 * nu + 1) / x * deriv_on_grid(f.values, grid_mid)
    spec = OperatorSpec("weighted_third", "S", nu=nu, phi="one", trig="sin")
    lhs = apply_weighted_third(spec, f.with_values(bvals))
    rhs = second_deriv_on_grid(apply_weighted_third(spec, f).values, grid_mid)
    mask = grid_mid.interior_mask(0.6)
    resid = np.sqrt(np.sum((grid_mid.weights * (lhs.values - rhs) ** 2)[mask])) / norm_l2(f)
    assert resid < 1e-3


def test_weight_registry_validation():
    assert weight_function("one")(np.array([2.0]))[0] == 1.0
    with pytest.raises(OperatorSpecError):
        weight_function("nope")


# ----------------------------------------------------------------------
# the Bessel kernel and the blocked matrix builds
# ----------------------------------------------------------------------

KERNEL_ORDERS = (-0.5, -0.3, 0.0, 0.3, 0.5, 0.7, 1.0, 2.5, 5.0, 12.0)


@pytest.mark.parametrize("nu", KERNEL_ORDERS)
def test_bessel_kernel_against_mpmath(nu):
    # one Hankel-matrix row at t = 1 with unit weights holds y^(nu+1) J_nu(y),
    # built by the same row and column scaling as every transform's matrix
    import mpmath as mp

    from betrans.beops.transforms import _Z_SWITCH, _hankel_matrix

    z0 = _Z_SWITCH
    y = np.concatenate(
        [
            [0.0, 1e-6, 0.37, 3.0],
            np.linspace(z0 - 1.0, z0 + 1.0, 21),  # straddles the switch point
            np.geomspace(z0 + 0.01, 2500.0, 80),  # every doubling band of the expansion
        ]
    )
    row = _hankel_matrix(nu, np.ones(1), y, np.ones_like(y))[0]
    with mp.workdps(30):
        ref = np.array([float(mp.besselj(nu, mp.mpf(float(x)))) for x in y[1:]])
    assert np.max(np.abs(row[1:] / y[1:] ** (nu + 1.0) - ref)) <= 1e-13
    # the y = 0 column: y^(2nu+1) / (2^nu Gamma(nu+1)) at y = 0
    assert row[0] == (np.sqrt(2.0 / np.pi) if nu == -0.5 else 0.0)


def test_bessel_kernel_switches_to_jv_where_expansion_falls_short():
    from betrans.beops.transforms import _hankel_coefficients

    # terms |a_k| z0^-k grow at first for nu = 12: J_12 stays on jv
    assert _hankel_coefficients(12.0) is None
    # the expansion ends at nu = 1/2 and 5/2: P = 1, Q = 0, then 3 terms
    assert len(_hankel_coefficients(0.5)) == 1
    assert len(_hankel_coefficients(2.5)) == 3
    assert _hankel_coefficients(1.0) is not None


@pytest.mark.parametrize("nu", (0.5, 0.7, 1.0))
def test_hankel_matrix_matches_dense_jv(nu):
    from scipy.special import jv

    from betrans.beops.transforms import _hankel_matrix
    from betrans.numgrid import _uniform_weights

    t = np.linspace(60.0 / 70, 60.0, 70)  # rows in several blocks, t y up to 2400
    y = np.linspace(0.0, 40.0, 2001)
    w = _uniform_weights(len(y), y[1] - y[0])
    mat = _hankel_matrix(nu, t, y, w)
    ref = jv(nu, np.outer(t, y[1:])) * (y[1:] ** (nu + 1.0))[None, :] * (t ** (-nu))[:, None] * w[None, 1:]
    assert np.max(np.abs(mat[:, 1:] - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(mat[:, 0] == 0.0)  # y^(2nu+1) -> 0 at y = 0 for nu > -1/2


@pytest.mark.parametrize("nu", KERNEL_ORDERS)
def test_bessel_kernel_below_switch_against_mpmath(nu):
    # below z0 the kernel comes from the Taylor table of z^-nu J_nu: one row
    # at t = 1 over 400 points in (0, z0), and one 32-row block (t from 0.86
    # to 27) whose rows switch at different columns, so the sub-z0 rectangle
    # of its first row reaches z = 790 in its last
    import mpmath as mp

    from betrans.beops.transforms import _ROW_BLOCK, _Z_SWITCH, _hankel_matrix

    z0 = _Z_SWITCH
    y = np.concatenate([[0.0], z0 * (np.arange(400) + 0.5) / 400])
    row = _hankel_matrix(nu, np.ones(1), y, np.ones_like(y))[0]
    t = np.linspace(60.0 / 70, 60.0, 70)[:_ROW_BLOCK]
    yb = np.linspace(0.0, 30.0, 31)  # past z0 / t[0] = 29.2
    blk = _hankel_matrix(nu, t, yb, np.ones_like(yb))
    with mp.workdps(30):
        ref = np.array([float(mp.besselj(nu, mp.mpf(float(x)))) for x in y[1:]])
        ref_blk = np.array([[float(mp.besselj(nu, mp.mpf(float(ti * yj)))) for yj in yb[1:]] for ti in t])
    assert np.max(np.abs(row[1:] / y[1:] ** (nu + 1.0) - ref)) <= 1e-13
    got = blk[:, 1:] / (yb[1:] ** (nu + 1.0))[None, :] / (t**-nu)[:, None]
    assert np.max(np.abs(got - ref_blk)) <= 1e-13


@pytest.mark.parametrize("nu", (-0.3, 0.5))
def test_hankel_matrix_calls_jv_only_at_table_nodes(nu, monkeypatch):
    # jv builds the kernel table, K + 1 orders at each node, and nothing
    # else: its count is the same for 70 rows as for 512
    from scipy.special import jv

    from betrans.beops import transforms
    from betrans.numgrid import _uniform_weights

    bound = (transforms._TABLE_TERMS + 1) * transforms._kernel_table(nu).shape[1]
    evals = []

    def counting_jv(order, z, **kwargs):
        evals.append(np.size(z))
        return jv(order, z, **kwargs)

    monkeypatch.setattr(transforms, "jv", counting_jv)
    monkeypatch.setattr(transforms, "_MATRIX_CACHE", {})
    counts = []
    for t, y in (
        (np.linspace(60.0 / 70, 60.0, 70), np.linspace(0.0, 40.0, 2001)),
        (make_grid(512, (1e-3, 40.0)).points, np.linspace(0.0, 60.0, 16384)),
    ):
        evals.clear()
        transforms._hankel_matrix(nu, t, y, _uniform_weights(len(y), y[1] - y[0]))
        counts.append(sum(evals))
    assert 0 < counts[0] == counts[1] <= bound


def _irregular_log_grid(n, hull, seed):
    # log-labelled points with jittered log spacing and the given ends, as
    # read_csv builds from a file's abscissae
    from betrans.numgrid import Grid, _irregular_weights

    s = np.linspace(np.log(hull[0]), np.log(hull[1]), n)
    s[1:-1] += np.random.default_rng(seed).uniform(-0.3, 0.3, n - 2) * (s[1] - s[0])
    x = np.exp(s)
    x[0], x[-1] = hull
    return Grid(points=x, weights=_irregular_weights(x), spacing="log")


FOLD_DIRECTIONS = ("log->spectral", "spectral->log", "irregular->spectral")


@pytest.mark.parametrize("direction", FOLD_DIRECTIONS)
@pytest.mark.parametrize("op", ("sin", "cos", -0.5, -0.3, 0.0, 0.5, 1.0, 1.5, 2.5, 3.5))
def test_folded_transform_matches_dense_reference(op, direction, monkeypatch):
    # the cached matrix on the operand's spline coefficients (kernel rule
    # times the spline's basis, plus head columns) against the dense kernel
    # rule applied to the operand at every abscissa; the rounding of the
    # two orders of summation stays within 1e-14 of the largest output
    from betrans.beops import transforms
    from betrans.numgrid import eval_extended

    monkeypatch.setattr(transforms, "_MATRIX_CACHE", {})
    log_grid = make_grid(512, (1e-3, 40.0))
    spectral = default_spectral_grid(256)
    src, out = {
        "log->spectral": (log_grid, spectral),
        "spectral->log": (spectral, log_grid),
        "irregular->spectral": (_irregular_log_grid(400, (1e-3, 40.0), 5), spectral),
    }[direction]
    f = SampledFunction.from_callable(lambda y: np.exp(-y * y / 8.0) * (1.0 + np.sin(3.0 * y)), src)
    t = out.points
    got = transforms._transform_values(op, f, t)
    y, w = transforms._quad_abscissa(f)
    fy = eval_extended(f, y)
    ref = np.empty_like(t)
    for i0 in range(0, len(t), 128):
        tb = t[i0 : i0 + 128]
        if op in ("sin", "cos"):
            trig = np.sin if op == "sin" else np.cos
            dense = np.sqrt(2.0 / np.pi) * trig(np.outer(tb, y)) * w[None, :]
        else:
            dense = transforms._hankel_matrix(op, tb, y, w)
        ref[i0 : i0 + 128] = dense @ fy
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("direction", ("log->spectral", "spectral->log"))
@pytest.mark.parametrize("m", (0, 1, 2, 3))
def test_one_term_fold_turns_whole_quarter_turns(m, direction):
    # the one-term fold of sqrt(2/pi) cos(t y - m pi/2), cosine at m = 0 and
    # sine at m = 1, against the dense rule with that kernel written without
    # pi/2 (cos, sin, -cos, -sin); from the linear grid the first chunk
    # starts past the abscissae below its hull, which take the dense kernel
    from betrans.beops import transforms
    from betrans.numgrid import eval_extended, head_basis, operand_vector

    log_grid = make_grid(512, (1e-3, 40.0))
    spectral = default_spectral_grid(256)
    src, out = (log_grid, spectral) if direction == "log->spectral" else (spectral, log_grid)
    f = SampledFunction.from_callable(lambda y: np.exp(-y * y / 8.0) * (1.0 + np.sin(3.0 * y)), src)
    t = out.points
    y, w = transforms._quad_abscissa(f)
    n_head = int(np.searchsorted(y, src.hull[0]))
    knots, k, blocks = transforms._basis_blocks(src, y, w, n_head)
    coef = np.zeros((len(t), len(knots) - k - 1))
    transforms._quarter_fold(np.ones(1), 0.0, m, t, y, blocks, [0] * len(blocks), coef)
    kernel = (np.cos, np.sin, lambda x: -np.cos(x), lambda x: -np.sin(x))[m]
    head = np.sqrt(2.0 / np.pi) * kernel(np.outer(t, y[:n_head])) * w[:n_head]
    got = np.hstack([coef, head @ head_basis(y[:n_head], src.hull[0])]) @ operand_vector(f)
    fy = eval_extended(f, y)
    ref = np.concatenate(
        [np.sqrt(2.0 / np.pi) * kernel(np.outer(t[i0 : i0 + 128], y)) @ (w * fy) for i0 in range(0, len(t), 128)]
    )
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_matrix_cache_keys_on_grid_points(monkeypatch):
    # an irregular grid with the same size and end points as a cached
    # linear one (read_csv builds such grids) must get its own matrix
    from betrans.beops import transforms
    from betrans.numgrid import Grid, _irregular_weights, grid_key, points_digest

    monkeypatch.setattr(transforms, "_MATRIX_CACHE", {})
    src = make_grid(512, (1e-3, 40.0))
    f = SampledFunction.from_callable(lambda y: np.exp(-y), src, DecayHint.exponential())
    regular = make_grid(256, (60.0 / 256, 60.0), "linear")
    x = regular.points.copy()
    x[1:-1] += np.random.default_rng(3).uniform(-0.3, 0.3, len(x) - 2) * (x[1] - x[0])
    irregular = Grid(points=x, weights=_irregular_weights(x), spacing="linear")
    fourier_sine(f, regular)
    fs = fourier_sine(f, irregular)
    assert np.max(np.abs(fs.values - np.sqrt(2.0 / np.pi) * x / (1.0 + x * x))) < 1e-6
    # so must an operand on an irregular input grid with the same size and
    # hull as the cached log grid: the matrix acts on its spline's coefficients
    src_irr = _irregular_log_grid(512, src.hull, 7)
    f_irr = SampledFunction.from_callable(lambda y: np.exp(-y), src_irr, DecayHint.exponential())
    fourier_cosine(f, regular)
    fc = fourier_cosine(f_irr, regular)
    t = regular.points
    assert np.max(np.abs(fc.values - np.sqrt(2.0 / np.pi) / (1.0 + t * t))) < 1e-6
    # one key per build: the kernel, the output points and the input grid
    keys = (("sin", t, src), ("sin", x, src), ("cos", t, src), ("cos", t, src_irr))
    assert set(transforms._MATRIX_CACHE) == {(op, points_digest(tp), grid_key(g)) for op, tp, g in keys}
    # each cached array is n_out x (n_in + 6): the spline's coefficients and
    # the head model's six coefficients, never n_out x 16384
    for mat in transforms._MATRIX_CACHE.values():
        assert mat.shape == (len(t), src.n + 6)


def test_workload_builds_stay_within_a_transient_memory_bound(monkeypatch):
    # the spectral workload's six builds in its order: Hankel at nu = 1/2,
    # sine and cosine, each way between a 512-point log grid and the
    # 2048-point spectral grid.  Each build's traced peak, less the bytes
    # it adds to the cache, stays under its own bound: 5% above the value
    # measured here (22.51, 11.95, 20.61, 12.68, 10.10 and 20.61 MB), and
    # never above the unbatched fold's (28.88, 15.45, 20.83, 26.79, 13.60
    # and 20.83 MB, its far-field scratch spanning all 16384 abscissae).
    import tracemalloc

    from betrans.beops import transforms

    monkeypatch.setattr(transforms, "_MATRIX_CACHE", {})
    warm = make_grid(32, (1e-3, 40.0))  # loads scipy's jv before tracing
    hankel(0.5, SampledFunction.from_callable(lambda y: np.exp(-y * y), warm), default_spectral_grid(64))
    grid, sg = make_grid(512, (1e-3, 40.0)), default_spectral_grid()
    f = SampledFunction.from_callable(lambda y: np.exp(-y * y / 8.0), grid, DecayHint.exponential())
    g = SampledFunction.from_callable(lambda y: np.exp(-y * y / 8.0), sg, DecayHint.exponential())
    builds = (
        (lambda: hankel(0.5, f, sg), 23.6e6),
        (lambda: fourier_sine(g, grid), 12.5e6),
        (lambda: fourier_sine(f, sg), 20.83e6),
        (lambda: hankel(0.5, g, grid), 13.3e6),
        (lambda: fourier_cosine(g, grid), 10.6e6),
        (lambda: fourier_cosine(f, sg), 20.83e6),
    )
    excess, bounds = [], [bound for _, bound in builds]
    for build, _ in builds:
        cached = sum(mat.nbytes for mat in transforms._MATRIX_CACHE.values())
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess.append(peak - (sum(mat.nbytes for mat in transforms._MATRIX_CACHE.values()) - cached))
    assert all(e < bound for e, bound in zip(excess, bounds)), [round(e / 1e6, 2) for e in excess]


def test_hankel_minus_half_is_cosine_transform(bump_mid):
    sg = default_spectral_grid(256)
    h = hankel(-0.5, bump_mid, sg)
    fc = fourier_cosine(bump_mid, sg)
    assert np.array_equal(h.values, fc.values)


def test_hankel_minus_half_builds_without_bessel_kernel(monkeypatch):
    # t^1/2 y^1/2 J_-1/2(t y) = sqrt(2/pi) cos(t y): F_(-1/2) is the cosine
    # fold, so a build that fell back to the kernel table or to jv fails here
    from betrans.beops import transforms

    def refuse(*args, **kwargs):
        raise AssertionError("a nu = -1/2 Hankel build evaluated the Bessel kernel")

    monkeypatch.setattr(transforms, "jv", refuse)
    monkeypatch.setattr(transforms, "_kernel_table", refuse)
    monkeypatch.setattr(transforms, "_MATRIX_CACHE", {})
    f = SampledFunction.from_callable(lambda y: np.exp(-y * y / 2), make_grid(512, (1e-3, 40.0)), DecayHint.exponential())
    sg = default_spectral_grid(256)
    h = hankel(-0.5, f, sg)
    assert np.max(np.abs(h.values - np.exp(-sg.points**2 / 2))) < 1e-10
    assert np.all(np.isfinite(hankel_inverse(-0.5, h, f.grid).values))


@pytest.mark.parametrize("nu", (0.5, 1.5))
def test_half_integer_hankel_folds_its_far_region(nu, monkeypatch):
    # at nu + 1/2 an integer Hankel's expansion ends, and the chunks where
    # it holds for every row go to the fold that sine and cosine take: the dense
    # fill evaluates the expansion only up to each row block's first such
    # chunk, so a fallback to the per-entry fill fails here
    from betrans.beops import transforms

    far_rows = transforms._far_rows
    entries = []

    def counting_far_rows(*args):
        entries.append(args[5].size)  # out
        return far_rows(*args)

    monkeypatch.setattr(transforms, "_far_rows", counting_far_rows)
    monkeypatch.setattr(transforms, "_MATRIX_CACHE", {})
    f = SampledFunction.from_callable(lambda y: np.exp(-y * y / 8.0), make_grid(512, (1e-3, 40.0)))
    counts = []
    for order in (0.0, nu):
        entries.clear()
        hankel(order, f, default_spectral_grid(256))
        counts.append(sum(entries))
    assert 0 < counts[1] < 0.25 * counts[0]  # 0.13 measured


def test_hankel_small_negative_order(grid_mid):
    # F_nu exp(-y^2/2) = exp(-t^2/2) for nu > -1; at nu = -0.3 the
    # integrand's y^(2nu+1) = y^0.4 endpoint limits the rule to about 2e-5
    f = SampledFunction.from_callable(lambda y: np.exp(-y * y / 2), grid_mid, DecayHint.exponential())
    sg = default_spectral_grid(256)
    h = hankel(-0.3, f, sg)
    assert np.max(np.abs(h.values - np.exp(-sg.points**2 / 2))) < 1e-4
    spec = OperatorSpec("weighted_third", "S", nu=-0.3, phi="one", trig="cos")
    assert np.all(np.isfinite(apply_weighted_third(spec, f, sg).values))


def test_hankel_order_below_minus_half_raises(bump_mid):
    with pytest.raises(OperatorSpecError):
        hankel(-0.6, bump_mid)
    spec = OperatorSpec("weighted_third", "P", nu=-0.7, phi="one", trig="sin")
    with pytest.raises(OperatorSpecError):
        apply_weighted_third(spec, bump_mid)


# ----------------------------------------------------------------------
# operands the transforms cannot take
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transform", ["fourier_cosine", "hankel", "third:P"])
def test_transforms_reject_an_operand_with_a_logarithmic_head(transform):
    # S- at nu = 1 maps gauss to an image with a ln x term at the origin; the
    # transforms' quadrature starts at y = 0, so they refuse it before any
    # ln 0 is formed (which used to warn and then fail on non-finite values)
    grid = make_grid(512, (1e-3, 40.0))
    image = apply(parse_operator("zero:S-:nu=1"), suite_on_grid("gauss", grid))
    run = {
        "fourier_cosine": lambda: fourier_cosine(image),
        "hankel": lambda: hankel(0.0, image),
        "third:P": lambda: apply(parse_operator("third:P:nu=0.5:phi=one:trig=cos"), image),
    }[transform]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match="logarithmic head"):
            run()


def test_a_logarithmic_head_is_rejected_on_a_grid_with_cached_matrices(monkeypatch):
    # the check runs on every call, not only when a matrix is built
    from betrans.beops import transforms

    monkeypatch.setattr(transforms, "_MATRIX_CACHE", {})
    grid = make_grid(512, (1e-3, 40.0))
    gauss = suite_on_grid("gauss", grid)
    image = apply(parse_operator("zero:S-:nu=1"), gauss)
    assert image.grid is grid
    sg = default_spectral_grid(256)
    fourier_cosine(gauss, sg)
    hankel(0.0, gauss, sg)
    for run in (lambda: fourier_cosine(image, sg), lambda: hankel(0.0, image, sg)):
        with pytest.raises(GridError, match="logarithmic head"):
            run()
