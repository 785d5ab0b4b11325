"""Shared quadrature engine for kernel operators on (0, inf).

A plan fixes, per output abscissa, the quadrature nodes, weights, and kernel
values for one operator on one grid.  Applying the operator to a sampled
function is then a single interpolation pass plus segmented sums, so plans
are cached per (operator, grid) and compositions stay cheap.

Three plan geometries cover every operator in the package:

* lower:  int_0^x K(x, t) f(t) dt   (optional (x-t)^alpha endpoint weight)
* upper:  int_x^B K(x, t) f(t) dt   (optional (t-x)^alpha endpoint weight)
* pv:     one-sided kernels with a simple pole at t = x; the pole is
          subtracted exactly and the bounded remainder is integrated on
          panels graded geometrically toward the diagonal.

Body panels are tied to every stride-th grid point and carry n_gl Gauss
points each; both are keyword parameters of the plan builders (defaults
4 and 8), so a finer, independent discretization needs no global state.

Below the grid hull the operand is evaluated by a quadratic model fitted to
its edge samples (functions of interest are smooth at 0 or vanish there), or
by a model with x^k ln x terms when the edge samples carry a logarithm
(images of integer-degree operators); above the hull it is taken as zero
(decaying operands).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .numgrid import Grid, SampledFunction, _fd_weights, _gl_rule, _jacobi

N_GL_HEAD = 12
N_JACOBI = 24


_LOG_HEAD_SPAN = 30.0  # edge samples fitted by the logarithmic head model: [a, 30a]
_LOG_HEAD_GAIN = 1e-3  # the log basis must fit them this much better than a cubic


def _log_head(f: SampledFunction):
    """Coefficients (c0, d0, c1, d1, c2, d2) of the head model

        f(t) = sum_k (c_k + d_k ln u) u^k,   u = t / a,   k = 0, 1, 2,

    fitted on the samples in [a, 30a], or None.  Images of integer-degree
    operators carry such x^k ln x terms at the origin, which no Taylor
    model at the hull edge can follow.  The model is used only when it fits
    the edge samples at least 1000 times better than a cubic of the same
    span; on operands that are smooth at the origin it is never used, so
    their values are the quadratic model's.  Cached on the function.
    """
    cached = getattr(f, "_log_head_fit", False)
    if cached is not False:
        return cached
    fit = None
    x = f.grid.points
    k = int(np.searchsorted(x, _LOG_HEAD_SPAN * x[0]))
    y = f.values[:k]
    scale = float(np.max(np.abs(y))) if k else 0.0
    if k >= 12 and scale > 0.0:
        u = x[:k] / x[0]
        lu = np.log(u)
        poly = np.stack([np.ones_like(u), u, u * u, u**3], axis=1)
        logb = np.stack([np.ones_like(u), lu, u, u * lu, u * u, u * u * lu], axis=1)
        res = []
        coefs = []
        for basis in (poly, logb):
            c, *_ = np.linalg.lstsq(basis, y, rcond=None)
            coefs.append(c)
            res.append(float(np.max(np.abs(basis @ c - y))) / scale)
        if res[0] > 1e-10 and res[1] < _LOG_HEAD_GAIN * res[0]:
            fit = coefs[1]
    f._log_head_fit = fit
    return fit


_TAYLOR_FIT_SPAN = 1.5  # edge samples fitted by the quadratic head model: [a, 1.5a]
_TAYLOR_FIT_MIN = 8  # fewer samples there (coarse or linear grids): spline derivatives at a


def _taylor_head(f: SampledFunction) -> tuple[float, float, float]:
    """(f, f', f'') at the hull edge a for the quadratic head model.

    Taken from a least-squares quadratic in t over the samples in
    [a, 1.5a], a span no longer than the extrapolation distance a: a fit,
    rather than the spline's derivatives at a, keeps an inaccurate edge
    sample (grid differences are one-sided there) from being extrapolated
    across (0, a) with a 1/h^2 gain.  Grids with fewer than
    _TAYLOR_FIT_MIN samples in that span use the spline's derivatives.
    Cached on the function.
    """
    cached = getattr(f, "_taylor_head_fit", None)
    if cached is not None:
        return cached
    x = f.grid.points
    a = x[0]
    k = int(np.searchsorted(x, _TAYLOR_FIT_SPAN * a, side="right"))
    if k >= _TAYLOR_FIT_MIN:
        dt = x[:k] - a
        c, *_ = np.linalg.lstsq(np.stack([np.ones_like(dt), dt, dt * dt], axis=1), f.values[:k], rcond=None)
        fit = (float(c[0]), float(c[1]), 2.0 * float(c[2]))
    else:
        f._ensure_spline()
        sa = f.grid.coord(np.array([a]))
        v0 = float(f._spline(sa)[0])
        d1 = float(f._dspline(sa)[0])
        d2 = float(f._spline.derivative(2)(sa)[0])
        if f.grid.spacing == "log":
            fit = (v0, d1 / a, (d2 - d1) / (a * a))
        else:
            fit = (v0, d1, d2)
    f._taylor_head_fit = fit
    return fit


def eval_extended(f: SampledFunction, t: np.ndarray) -> np.ndarray:
    """f at arbitrary nodes: spline inside the hull, head model below, 0 above.

    The head model is the logarithmic one of _log_head where it applies,
    else the quadratic one of _taylor_head.
    """
    a, b = f.grid.hull
    out = f(t)
    below = t < a
    if np.any(below):
        fit = _log_head(f)
        if fit is not None:
            c0, d0, c1, d1, c2, d2 = fit
            u = t[below] / a
            lu = np.log(u)
            out[below] = c0 + d0 * lu + (c1 + d1 * lu) * u + (c2 + d2 * lu) * u * u
            return out
        v0, fp, fpp = _taylor_head(f)
        dt = t[below] - a
        out[below] = v0 + fp * dt + 0.5 * fpp * dt * dt
    return out


def deriv_extended(f: SampledFunction, t: np.ndarray) -> np.ndarray:
    a, b = f.grid.hull
    out = f.deriv(t)
    below = t < a
    if np.any(below):
        fit = _log_head(f)
        if fit is not None:
            c0, d0, c1, d1, c2, d2 = fit
            u = t[below] / a
            lu = np.log(u)
            out[below] = (d0 / u + c1 + d1 * (lu + 1.0) + 2.0 * c2 * u + d2 * u * (2.0 * lu + 1.0)) / a
            return out
        _, fp, fpp = _taylor_head(f)
        out[below] = fp + fpp * (t[below] - a)
    return out


def _head_nodes(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for int_0^a under t = a s^3: integrands with ln t (the
    logarithmic head model) become smooth in s, polynomial ones stay so."""
    s, w = _panel_nodes(np.array([0.0, 1.0]), N_GL_HEAD)
    return a * s**3, 3.0 * a * s * s * w


def _panel_nodes(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes/weights for a sequence of panels given by breakpoint array."""
    x0, w0 = _gl_rule(n)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return (mid + half * x0[None, :]).ravel(), (half * w0[None, :]).ravel()


def _jacobi_panel(lo: float, x: float, alpha: float, left_end: bool = False):
    """Gauss-Jacobi nodes/weights for a panel with (|x-t|)^alpha at one end.

    left_end=False: int_lo^x with singular factor (x-t)^alpha at t = x.
    left_end=True:  int_x^lo with singular factor (t-x)^alpha at t = x.
    The returned weights divide out the singular factor, so they pair with
    the full kernel (which contains it).
    """
    if left_end:
        xs, wj = _jacobi(N_JACOBI, 0.0, alpha)  # weight (1+xi)^alpha
        half = 0.5 * (lo - x)
        t = x + half * (xs + 1.0)
        w = wj * half ** (alpha + 1.0) * (t - x) ** (-alpha)
    else:
        xs, wj = _jacobi(N_JACOBI, alpha, 0.0)  # weight (1-xi)^alpha
        half = 0.5 * (x - lo)
        t = lo + half * (xs + 1.0)
        w = wj * half ** (alpha + 1.0) * (x - t) ** (-alpha)
    return t, w


_BODY_STRIDE = 4  # default body panel edges: every 4th grid point
_N_GL_SMALL = 8  # default Gauss points per body panel


def _body_edges(grid_pts: np.ndarray, lo: float, hi: float, stride: int) -> np.ndarray:
    """Panel edges inside [lo, hi] aligned with (subsampled) grid points.

    Tying the panels to the grid guarantees the quadrature resolves any
    operand the grid itself resolves.
    """
    inner = grid_pts[stride::stride]
    inner = inner[(inner > lo * (1.0 + 1e-12)) & (inner < hi * (1.0 - 1e-12))]
    return np.concatenate([[lo], inner, [hi]])


def _needs_jacobi(alpha: Optional[float]) -> bool:
    """Endpoint powers that defeat plain Gauss panels: negative, or positive
    non-integer (Hoelder endpoints slow Gauss-Legendre to O(h^(1+alpha)))."""
    if alpha is None:
        return False
    return alpha < 0.0 or abs(alpha - round(alpha)) > 1e-9


def _lower_segment(
    x: float, grid_pts: np.ndarray, alpha: Optional[float], stride: int, n_gl: int, head: str = "taylor"
):
    """Nodes/weights for int_0^x; optional (x-t)^alpha endpoint factor at t = x.

    head="taylor" extends the integral over (0, hull_a) using the operand's
    edge quadratic model; head="zero" omits it (for kernels singular at the
    origin, where operands must vanish below the hull anyway).
    """
    a = grid_pts[0]
    singular = _needs_jacobi(alpha)
    if x <= 2.0 * a:
        lo = a if head == "zero" else 0.0
        if x <= lo:
            return np.empty(0), np.empty(0)
        if singular:
            return _jacobi_panel(lo, x, alpha)
        return _panel_nodes(np.array([lo, x]), N_GL_HEAD)
    ts, ws = [], []
    if head != "zero":
        head_t, head_w = _head_nodes(a)
        ts.append(head_t)
        ws.append(head_w)
    if singular:
        # body up to the last aligned edge, then one Jacobi panel to x
        edges = _body_edges(grid_pts, a, x, stride)
        split = edges[-2] if len(edges) > 2 else max(0.5 * x, a)
        body_t, body_w = _panel_nodes(edges[:-1] if len(edges) > 2 else np.array([a, split]), n_gl)
        ts.append(body_t)
        ws.append(body_w)
        t, w = _jacobi_panel(split, x, alpha)
        ts.append(t)
        ws.append(w)
    else:
        body_t, body_w = _panel_nodes(_body_edges(grid_pts, a, x, stride), n_gl)
        ts.append(body_t)
        ws.append(body_w)
    return np.concatenate(ts), np.concatenate(ws)


def _upper_segment(x: float, grid_pts: np.ndarray, alpha: Optional[float], stride: int, n_gl: int):
    """Nodes/weights for int_x^b; optional (t-x)^alpha singularity at t = x."""
    b = grid_pts[-1]
    if x >= b * (1.0 - 1e-14):
        return np.empty(0), np.empty(0)
    ts, ws = [], []
    singular = _needs_jacobi(alpha)
    if singular:
        edges = _body_edges(grid_pts, x, b, stride)
        split = edges[1] if len(edges) > 2 else min(2.0 * x, b)
        t, w = _jacobi_panel(split, x, alpha, left_end=True)
        ts.append(t)
        ws.append(w)
        body_t, body_w = _panel_nodes(edges[1:] if len(edges) > 2 else np.array([split, b]), n_gl)
        ts.append(body_t)
        ws.append(body_w)
    else:
        body_t, body_w = _panel_nodes(_body_edges(grid_pts, x, b, stride), n_gl)
        ts.append(body_t)
        ws.append(body_w)
    return np.concatenate(ts), np.concatenate(ws)


def _segmented_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    nseg = len(offsets) - 1
    if len(values) == 0:
        return np.zeros(nseg)
    padded = np.append(values, 0.0)  # sentinel keeps trailing empty segments in range
    out = np.add.reduceat(padded, offsets[:-1])
    out[np.diff(offsets) == 0] = 0.0
    return out


class KernelPlan:
    """Cached quadrature for g(x_i) = int K(x_i, t) f(t) dt on one grid."""

    def __init__(self, grid: Grid, t_all, kw_all, offsets, use_deriv: bool = False):
        self.grid = grid
        self.t_all = t_all
        self.kw_all = kw_all
        self.offsets = offsets
        self.use_deriv = use_deriv

    def apply(self, f: SampledFunction) -> np.ndarray:
        vals = deriv_extended(f, self.t_all) if self.use_deriv else eval_extended(f, self.t_all)
        return _segmented_sum(self.kw_all * vals, self.offsets)


def build_lower_plan(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
    use_deriv: bool = False,
    head: str = "taylor",
    stride: int = _BODY_STRIDE,
    n_gl: int = _N_GL_SMALL,
) -> KernelPlan:
    ts, ws, xs, offsets = [], [], [], [0]
    for x in grid.points:
        t, w = _lower_segment(float(x), grid.points, alpha, stride, n_gl, head=head)
        ts.append(t)
        ws.append(w)
        xs.append(np.full_like(t, x))
        offsets.append(offsets[-1] + len(t))
    t_all = np.concatenate(ts)
    w_all = np.concatenate(ws)
    x_all = np.concatenate(xs)
    return KernelPlan(grid, t_all, w_all * kernel(x_all, t_all), np.asarray(offsets), use_deriv)


def build_upper_plan(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
    use_deriv: bool = False,
    stride: int = _BODY_STRIDE,
    n_gl: int = _N_GL_SMALL,
) -> KernelPlan:
    ts, ws, xs, offsets = [], [], [], [0]
    for x in grid.points:
        t, w = _upper_segment(float(x), grid.points, alpha, stride, n_gl)
        ts.append(t)
        ws.append(w)
        xs.append(np.full_like(t, x))
        offsets.append(offsets[-1] + len(t))
    t_all = np.concatenate(ts)
    w_all = np.concatenate(ws)
    x_all = np.concatenate(xs)
    return KernelPlan(grid, t_all, w_all * kernel(x_all, t_all), np.asarray(offsets), use_deriv)


class PVPlan:
    """Principal-value plan by exact pole subtraction.

    With K(x, y) = rho(x)/(x - y) + integrable near the diagonal,

        PV int K f dy = int [K(x,y) f(y) - rho f(x)/(x-y)] dy
                        + rho f(x) ln(x / (B - x)),

    and the bracket is evaluated on panels graded toward the diagonal (it
    retains integrable |x-y|^(-1/2)-type corrections but no pole).
    """

    def __init__(self, grid, t_all, kw_all, offsets, sub, log_term, rho):
        self.grid = grid
        self.t_all = t_all
        self.kw_all = kw_all
        self.offsets = offsets
        self.sub = sub  # per-point sum of w/(x - t): the discretized pole integral
        self.log_term = log_term
        self.rho = rho

    def apply(self, f: SampledFunction) -> np.ndarray:
        raw = _segmented_sum(self.kw_all * eval_extended(f, self.t_all), self.offsets)
        fx = f.values
        return raw - self.rho * fx * (self.sub - self.log_term)


def build_pv_plan(
    grid: Grid,
    kernel_lower: Callable[[np.ndarray, np.ndarray], np.ndarray],
    kernel_upper: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rho: float = 1.0 / np.pi,
    stride: int = _BODY_STRIDE,
    n_gl: int = _N_GL_SMALL,
) -> PVPlan:
    """Plan for PV kernel pairs with residue rho at the diagonal.

    K_lower acts on t < x, K_upper on t > x; both behave like
    rho/(x - t) as t -> x (same one-sided residue).
    """
    a, b = grid.hull
    ts, ws, xs, offsets = [], [], [], [0]
    for x in grid.points:
        x = float(x)
        delta = 1e-7 * x  # innermost approach; bracket integrand is bounded there
        eps0 = max(min(x, b - x), delta * 4.0) / 8.0
        # far parts with grid-aligned panels
        seg_t, seg_w = [], []
        lo_far = x - eps0
        if lo_far > 0:
            ft, fw = _lower_segment(lo_far, grid.points, None, stride, n_gl)
            seg_t.append(ft)
            seg_w.append(fw)
        # graded panels from eps0 down to delta on each side
        d = eps0
        scales = [d]
        while d > delta:
            d = max(0.5 * d, delta)
            scales.append(d)
        sc = np.asarray(scales)
        lo_edges = x - sc
        lo_t, lo_w = _panel_nodes(lo_edges, n_gl)
        seg_t.append(lo_t)
        seg_w.append(lo_w)
        hi_cap = b - x
        if hi_cap > delta:
            sc_hi = sc[sc <= hi_cap]
            if len(sc_hi) < 2:
                sc_hi = np.asarray([min(eps0, hi_cap), delta])
            hi_edges = (x + sc_hi)[::-1]
            hi_t, hi_w = _panel_nodes(hi_edges, n_gl)
            seg_t.append(hi_t)
            seg_w.append(hi_w)
            start_far = x + sc_hi[0]
            if start_far < b * (1.0 - 1e-12):
                ut, uw = _upper_segment(start_far, grid.points, None, stride, n_gl)
                seg_t.append(ut)
                seg_w.append(uw)
        t = np.concatenate(seg_t)
        w = np.concatenate(seg_w)
        ts.append(t)
        ws.append(w)
        xs.append(np.full_like(t, x))
        offsets.append(offsets[-1] + len(t))

    t_all = np.concatenate(ts)
    w_all = np.concatenate(ws)
    x_all = np.concatenate(xs)
    kw_all = np.empty_like(w_all)
    lower_mask = t_all < x_all
    kw_all[lower_mask] = w_all[lower_mask] * kernel_lower(x_all[lower_mask], t_all[lower_mask])
    kw_all[~lower_mask] = w_all[~lower_mask] * kernel_upper(x_all[~lower_mask], t_all[~lower_mask])

    offsets = np.asarray(offsets)
    sub = _segmented_sum(w_all / (x_all - t_all), offsets)
    log_term = np.log(grid.points / np.maximum(b - grid.points, 1e-300))
    # at the top hull point B - x = 0: the upper side is empty and the
    # subtraction degenerates; the lower-side-only value keeps ln(x/delta)
    top = grid.points >= b * (1.0 - 1e-12)
    if np.any(top):
        log_term[top] = np.log(grid.points[top] / (1e-7 * grid.points[top]))
    return PVPlan(grid, t_all, kw_all, offsets, sub, log_term, rho)


# ----------------------------------------------------------------------
# grid differentiation (4th order, one-sided closures at the hull ends)
# ----------------------------------------------------------------------

_D_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


# first-derivative rows at the first two of five equispaced nodes
_ONE_SIDED = [_fd_weights(float(i), np.arange(5, dtype=float), 1) for i in range(2)]


def deriv_on_grid(values: np.ndarray, grid: Grid) -> np.ndarray:
    """d(values)/dx on the grid: 4th-order differences in the grid coordinate."""
    s = grid.coord(grid.points)
    h = s[1] - s[0]
    n = len(values)
    d = np.empty_like(values, dtype=float)
    d[2:-2] = (
        _D_CENTRAL[0] * values[:-4]
        + _D_CENTRAL[1] * values[1:-3]
        + _D_CENTRAL[3] * values[3:-1]
        + _D_CENTRAL[4] * values[4:]
    )
    for i in (0, 1):
        d[i] = float(np.dot(_ONE_SIDED[i], values[:5]))
        d[n - 1 - i] = -float(np.dot(_ONE_SIDED[i], values[::-1][:5]))
    d /= h
    if grid.spacing == "log":
        d = d / grid.points
    return d


def second_deriv_on_grid(values: np.ndarray, grid: Grid) -> np.ndarray:
    return deriv_on_grid(deriv_on_grid(values, grid), grid)
