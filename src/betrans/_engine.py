"""Shared quadrature engine for kernel operators on (0, inf).

A plan discretises one operator on one grid as an n x n matrix on the
operand's samples.  Its quadrature fixes, per output abscissa, nodes,
weights and kernel values.  Inside the grid hull the operand at a node is
its interpolating spline, linear in the samples (the knots are fixed), so
the weighted node sums fold into one matrix, assembled once when the plan
is built.  Applying the plan is a matrix-vector product plus the operand's
head model at the few nodes below the hull; plans are cached per
(operator, grid), and compositions stay cheap.

Three plan geometries cover every operator in the package:

* lower:  int_0^x K(x, t) f(t) dt   (optional (x-t)^alpha endpoint weight)
* upper:  int_x^B K(x, t) f(t) dt   (optional (t-x)^alpha endpoint weight)
* pv:     one-sided kernels with a simple pole at t = x; the pole is
          subtracted exactly (its term is the matrix's diagonal) and the
          bounded remainder is integrated on panels graded geometrically
          toward the diagonal.

Body panels are tied to every stride-th grid point and carry n_gl Gauss
points each; both are keyword parameters of the plan builders (defaults
4 and 8), so a finer, independent discretization needs no global state.
Every output row that reaches a body panel shares its nodes, so the
spline's basis is evaluated once per distinct node.

Below the grid hull the operand is continued by its head model
(numgrid.head_model); above the hull it is taken as zero.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .numgrid import Grid, SampledFunction, _gl_rule, _jacobi, deriv_extended, eval_extended, spline_knots

N_GL_HEAD = 12
N_JACOBI = 24


def _gl_panels(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, one row per panel [lo_j, hi_j]."""
    x0, w0 = _gl_rule(n)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return mid + half * x0[None, :], half * w0[None, :]


def _head_nodes(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for int_0^a under t = a s^3: integrands with ln t (the
    logarithmic head model) become smooth in s, polynomial ones stay so."""
    s, w = _gl_panels(np.array([0.0]), np.array([1.0]), N_GL_HEAD)
    return a * s**3, 3.0 * a * s * s * w


def _jacobi_panels(lo: np.ndarray, x: np.ndarray, alpha: float, left_end: bool = False):
    """Gauss-Jacobi nodes/weights, one row per panel with |x_j - t|^alpha at t = x_j.

    left_end=False: int_lo^x with singular factor (x-t)^alpha at t = x.
    left_end=True:  int_x^lo with singular factor (t-x)^alpha at t = x.
    The returned weights divide out the singular factor, so they pair with
    the full kernel (which contains it).
    """
    lo = np.asarray(lo, dtype=float)[:, None]
    x = np.asarray(x, dtype=float)[:, None]
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


def _needs_jacobi(alpha: Optional[float]) -> bool:
    """Endpoint powers that defeat plain Gauss panels: negative, or positive
    non-integer (Hoelder endpoints slow Gauss-Legendre to O(h^(1+alpha)))."""
    if alpha is None:
        return False
    return alpha < 0.0 or abs(alpha - round(alpha)) > 1e-9


class _Rules:
    """The quadrature rules of a plan's output rows over one node table.

    Body panels tied to grid points serve every row that reaches them, so
    their nodes are stored once; panels ending at a row's own abscissa
    belong to that row.  Each call adds one (possibly empty) segment to
    every row, and a row's rule is its segments in call order.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.size = 0
        self._t, self._w, self._starts, self._lengths = [], [], [], []

    def _add(self, t, w, starts, lengths):
        self._starts.append(self.size + np.broadcast_to(starts, self.n_rows))
        self._lengths.append(np.broadcast_to(lengths, self.n_rows))
        self._t.append(t.ravel())
        self._w.append(w.ravel())
        self.size += t.size

    def shared(self, t, w, first, count):
        """Panels (rows of t, w) of which row i uses count[i] from first[i] on."""
        k = t.shape[1]
        self._add(t, w, np.asarray(first) * k, np.asarray(count) * k)

    def owned(self, t, w, count):
        """count[i] panels for row i, the rows of t, w in row order."""
        k = t.shape[1]
        count = np.asarray(count, dtype=int)
        self._add(t, w, (np.cumsum(count) - count) * k, count * k)

    def pairs(self):
        """(nodes, weights, node_id, offsets): row i's rule is nodes and
        weights at node_id[offsets[i]:offsets[i + 1]]."""
        starts = np.stack(self._starts, axis=1).ravel()
        lengths = np.stack(self._lengths, axis=1).ravel()
        ends = np.cumsum(lengths)
        node_id = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
        offsets = np.concatenate([[0], ends[len(self._starts) - 1 :: len(self._starts)]])
        return np.concatenate(self._t), np.concatenate(self._w), node_id, offsets


def _lower_rules(rules: _Rules, x, pts, alpha, stride: int, n_gl: int, head: str = "taylor"):
    """Rules for int_0^(x_i); optional (x-t)^alpha endpoint factor at t = x_i.

    head="taylor" extends the integral over (0, hull_a) using the operand's
    edge quadratic model; head="zero" omits it (for kernels singular at the
    origin, where operands must vanish below the hull anyway).  Limits up to
    2a get one panel from the start; beyond, body panels run from a over
    every stride-th grid point, and the last one ends at x_i (a Gauss-Jacobi
    panel when the endpoint power needs one).
    """
    a = pts[0]
    singular = _needs_jacobi(alpha)
    lo = a if head == "zero" else 0.0
    near = (x <= 2.0 * a) & (x > lo)
    x_near = x[near]
    lo_near = np.full_like(x_near, lo)
    rules.owned(*(_jacobi_panels(lo_near, x_near, alpha) if singular else _gl_panels(lo_near, x_near, N_GL_HEAD)), near)
    far = x > 2.0 * a
    if head != "zero":
        rules.shared(*_head_nodes(a), 0, far)
    # tying the panels to the grid makes the quadrature resolve any operand
    # the grid itself resolves
    inner = pts[stride::stride]
    inner = inner[inner > a * (1.0 + 1e-12)]
    m = np.where(far, np.searchsorted(inner, x * (1.0 - 1e-12)), 0)  # inner edges below x_i
    edges = np.concatenate([[a], inner[: m.max(initial=0)]])
    rules.shared(*_gl_panels(edges[:-1], edges[1:], n_gl), 0, m)
    x_far, m_far = x[far], m[far]
    if singular:
        split = np.where(m_far > 0, edges[m_far], np.maximum(0.5 * x_far, a))
        alone = far & (m == 0)
        rules.owned(*_gl_panels(np.full(np.count_nonzero(alone), a), split[m_far == 0], n_gl), alone)
        rules.owned(*_jacobi_panels(split, x_far, alpha), far)
    else:
        rules.owned(*_gl_panels(edges[m_far], x_far, n_gl), far)


def _upper_rules(rules: _Rules, x, pts, alpha, stride: int, n_gl: int):
    """Rules for int_(x_i)^b; optional (t-x)^alpha singularity at t = x_i.

    The first body panel starts at x_i (a Gauss-Jacobi panel when the
    endpoint power needs one); the others run over every stride-th grid
    point up to b.
    """
    b = pts[-1]
    singular = _needs_jacobi(alpha)
    live = x < b * (1.0 - 1e-14)
    inner = pts[stride::stride]
    inner = inner[inner < b * (1.0 - 1e-12)]
    first = np.searchsorted(inner, x * (1.0 + 1e-12), side="right")  # first inner edge above x_i
    m = np.where(live, len(inner) - first, 0)
    skip = first[live].min(initial=len(inner))
    edges = np.concatenate([inner[skip:], [b]])
    x_live, m_live = x[live], m[live]
    nxt = edges[first[live] - skip]
    body = _gl_panels(edges[:-1], edges[1:], n_gl)
    if singular:
        split = np.where(m_live > 0, nxt, np.minimum(2.0 * x_live, b))
        rules.owned(*_jacobi_panels(split, x_live, alpha, left_end=True), live)
        rules.shared(*body, first - skip, m)
        alone = live & (m == 0)
        rules.owned(*_gl_panels(split[m_live == 0], np.full(np.count_nonzero(alone), b), n_gl), alone)
    else:
        rules.owned(*_gl_panels(x_live, nxt, n_gl), live)
        rules.shared(*body, first - skip, m)


def _pv_rules(rules: _Rules, pts, stride: int, n_gl: int):
    """Rules for the pole-subtracted PV integrals over (0, b).

    Grid-aligned panels cover t < x - eps0 and t > x + eps0, with
    eps0 = min(x, b - x)/8; on each side panels graded by halving reach from
    eps0 down to the innermost approach 1e-7 x, where the bracket integrand
    is bounded.
    """
    b = pts[-1]
    x = pts
    delta = 1e-7 * x
    eps0 = np.maximum(np.minimum(x, b - x), delta * 4.0) / 8.0
    _lower_rules(rules, x - eps0, pts, None, stride, n_gl)
    # scales eps0, eps0/2, ... while above delta, then delta itself
    halvings = eps0[:, None] * 0.5 ** np.arange(64)
    count = np.count_nonzero(halvings > delta[:, None], axis=1)
    kmax = int(count.max())
    cols = np.arange(kmax + 2)
    scales = np.where(cols < count[:, None], halvings[:, : kmax + 2], delta[:, None])
    scales[count == 0, 0] = eps0[count == 0]
    edge = x[:, None] - scales
    valid = cols[:-1] < count[:, None]
    rules.owned(*_gl_panels(edge[:, :-1][valid], edge[:, 1:][valid], n_gl), count)
    # upper side: the scales that fit below b - x, innermost first, or the
    # two scales min(eps0, b - x) and delta when fewer fit
    hi_cap = b - x
    up = hi_cap > delta
    n_hi = np.count_nonzero((cols < (count + 1)[:, None]) & (scales <= hi_cap[:, None]), axis=1)
    rev = np.take_along_axis(scales, np.clip(count[:, None] - cols, 0, kmax + 1), axis=1)
    short = up & (n_hi < 2)
    rev[short, 0] = delta[short]
    rev[short, 1] = np.minimum(eps0, hi_cap)[short]
    n_hi = np.where(short, 2, n_hi)
    panels = np.where(up, n_hi - 1, 0)
    edge = x[:, None] + rev
    valid = cols[:-1] < panels[:, None]
    rules.owned(*_gl_panels(edge[:, :-1][valid], edge[:, 1:][valid], n_gl), panels)
    start = np.take_along_axis(edge, np.maximum(n_hi - 1, 0)[:, None], axis=1)[:, 0]
    beyond = up & (start < b * (1.0 - 1e-12))
    _upper_rules(rules, np.where(beyond, start, b), pts, None, stride, n_gl)


def _segmented_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    nseg = len(offsets) - 1
    if len(values) == 0:
        return np.zeros(nseg)
    padded = np.append(values, 0.0)  # sentinel keeps trailing empty segments in range
    out = np.add.reduceat(padded, offsets[:-1])
    out[np.diff(offsets) == 0] = 0.0
    return out


def _basis_rows(knots: np.ndarray, k: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B-splines of degree k on the knots at each s: the index of the first
    of the k + 1 that can be nonzero there, and their values, shape
    (k + 1, len(s)) (de Boor's triangular recurrence)."""
    span = np.clip(np.searchsorted(knots, s, side="right") - 1, k, len(knots) - k - 2)
    left = [s - knots[span + 1 - j] for j in range(1, k + 1)]
    right = [knots[span + j] - s for j in range(1, k + 1)]
    vals = np.empty((k + 1, len(s)))
    vals[0] = 1.0
    for j in range(1, k + 1):
        saved = 0.0
        for r in range(j):
            temp = vals[r] / (right[r] + left[j - r - 1])
            vals[r] = saved + right[r] * temp
            saved = left[j - r - 1] * temp
        vals[j] = saved
    return span - k, vals


def _collocation_solve(grid: Grid, knots: np.ndarray, k: int, coef: np.ndarray) -> np.ndarray:
    """coef @ inv(A), A the (banded) collocation matrix of the grid's spline,
    whose coefficients are inv(A) times the samples."""
    n = grid.n
    first, vals = _basis_rows(knots, k, grid.coord(grid.points))
    rows = np.arange(n)[None, :]
    cols = first[None, :] + np.arange(k + 1)[:, None]
    lower, upper = int(np.max(cols - rows)), int(np.max(rows - cols))
    band = np.zeros((lower + upper + 1, n))  # A^T in LAPACK band storage
    band[upper + cols - rows, rows] = vals
    return solve_banded((lower, upper), band, coef.T, overwrite_b=True, check_finite=False).T


_ASSEMBLY_PAIRS = 1 << 14  # (row, node) pairs accumulated per block


def _assemble(grid: Grid, nodes, node_id, offsets, kw, use_deriv: bool):
    """(matrix, head_t, head_matrix) of the plan whose row i is
    sum kw[p] f(nodes[node_id[p]]) over p in offsets[i]:offsets[i + 1]
    (f' for use_deriv).

    Inside the hull f is the operand's interpolating spline: each node's
    basis row (of f' for use_deriv: the degree k-1 rows on the inner knots
    times the coefficients' difference matrix, divided by t on log grids),
    weighted and summed per output row, then solved against the collocation
    matrix, gives `matrix` on the samples.  Nodes below the hull keep the
    operand's head model, whose form depends on the operand: they enter as
    head_matrix times f (or f') at the distinct nodes head_t.  Above the
    hull f is zero.
    """
    n = grid.n
    a, b = grid.hull
    knots, k = spline_knots(grid)
    below = nodes < a
    inside = (nodes >= a) & (nodes <= b)
    t_in = nodes[inside]
    if use_deriv:
        first, vals = _basis_rows(knots[1:-1], k - 1, grid.coord(t_in))
        if grid.spacing == "log":
            vals /= t_in
    else:
        first, vals = _basis_rows(knots, k, grid.coord(t_in))
    ncol = len(knots) - k - 1 - int(use_deriv)
    in_index = np.cumsum(inside) - 1
    head_index = np.cumsum(below) - 1
    coef = np.empty((n, ncol))
    head_rows, head_cols, head_kw = [], [], []
    r0 = 0
    while r0 < n:
        r1 = min(max(int(np.searchsorted(offsets, offsets[r0] + _ASSEMBLY_PAIRS, side="right")) - 1, r0 + 1), n)
        block = slice(offsets[r0], offsets[r1])
        q, w = node_id[block], kw[block]
        row = np.repeat(np.arange(r1 - r0), np.diff(offsets[r0 : r1 + 1]))
        keep = inside[q]
        qi = in_index[q[keep]]
        cols = (row[keep] * ncol + first[qi]) + np.arange(len(vals))[:, None]
        coef[r0:r1] = np.bincount(
            cols.ravel(), (np.take(vals, qi, axis=1) * w[keep]).ravel(), minlength=(r1 - r0) * ncol
        ).reshape(r1 - r0, ncol)
        low = below[q]
        head_rows.append(row[low] + r0)
        head_cols.append(head_index[q[low]])
        head_kw.append(w[low])
        r0 = r1
    head_t = nodes[below]
    nh = len(head_t)
    head_matrix = np.bincount(
        np.concatenate(head_rows) * nh + np.concatenate(head_cols), np.concatenate(head_kw), minlength=n * nh
    ).reshape(n, nh)
    if use_deriv:
        # spline derivative coefficients: dk_i (c_(i+1) - c_i)
        dk = k / (knots[k + 1 : k + 1 + ncol] - knots[1 : 1 + ncol])
        scaled = coef * dk
        coef = np.zeros((n, ncol + 1))
        coef[:, 1:] += scaled
        coef[:, :-1] -= scaled
    return _collocation_solve(grid, knots, k, coef), head_t, head_matrix


class KernelPlan:
    """Cached quadrature for g(x_i) = int K(x_i, t) f(t) dt on one grid, as
    an n x n matrix on the operand's samples.

    t_all holds every quadrature node, row after row (row i's are
    t_all[offsets[i]:offsets[i + 1]]).  The nodes below the hull, head_t,
    go through the operand's head model (`head`: eval_extended, or
    deriv_extended for plans that integrate f').
    """

    def __init__(self, grid: Grid, t_all, offsets, matrix, head_t, head_matrix, head=eval_extended):
        self.grid = grid
        self.t_all = t_all
        self.offsets = offsets
        self.matrix = matrix
        self.head_t = head_t
        self.head_matrix = head_matrix
        self.head = head

    def apply(self, f: SampledFunction) -> np.ndarray:
        out = self.matrix @ f.values
        if len(self.head_t):
            out += self.head_matrix @ self.head(f, self.head_t)
        return out


def _kernel_plan(grid: Grid, rules: _Rules, kernel, use_deriv: bool) -> KernelPlan:
    nodes, weights, node_id, offsets = rules.pairs()
    t_all = nodes[node_id]
    x_all = np.repeat(grid.points, np.diff(offsets))
    kw = weights[node_id] * kernel(x_all, t_all)
    del x_all
    head = deriv_extended if use_deriv else eval_extended
    return KernelPlan(grid, t_all, offsets, *_assemble(grid, nodes, node_id, offsets, kw, use_deriv), head)


def build_lower_plan(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
    use_deriv: bool = False,
    head: str = "taylor",
    stride: int = _BODY_STRIDE,
    n_gl: int = _N_GL_SMALL,
) -> KernelPlan:
    rules = _Rules(grid.n)
    _lower_rules(rules, grid.points, grid.points, alpha, stride, n_gl, head=head)
    return _kernel_plan(grid, rules, kernel, use_deriv)


def build_upper_plan(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
    use_deriv: bool = False,
    stride: int = _BODY_STRIDE,
    n_gl: int = _N_GL_SMALL,
) -> KernelPlan:
    rules = _Rules(grid.n)
    _upper_rules(rules, grid.points, grid.points, alpha, stride, n_gl)
    return _kernel_plan(grid, rules, kernel, use_deriv)


class PVPlan(KernelPlan):
    """Principal-value plan by exact pole subtraction.

    With K(x, y) = rho(x)/(x - y) + integrable near the diagonal,

        PV int K f dy = int [K(x,y) f(y) - rho f(x)/(x-y)] dy
                        + rho f(x) ln(x / (B - x)),

    and the bracket is evaluated on panels graded toward the diagonal (it
    retains integrable |x-y|^(-1/2)-type corrections but no pole).  The
    pole terms -rho f(x_i) (sub_i - log_term_i) are the matrix's diagonal.
    """

    def __init__(self, grid, t_all, offsets, matrix, head_t, head_matrix, sub, log_term, rho):
        super().__init__(grid, t_all, offsets, matrix, head_t, head_matrix)
        self.sub = sub  # per-point sum of w/(x - t): the discretized pole integral
        self.log_term = log_term
        self.rho = rho

    # the same apply, bound on this class too, so that replacing and
    # restoring the method on one plan class leaves the other untouched
    apply = KernelPlan.apply


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
    rules = _Rules(grid.n)
    _pv_rules(rules, grid.points, stride, n_gl)
    nodes, weights, node_id, offsets = rules.pairs()
    t_all = nodes[node_id]
    w_all = weights[node_id]
    x_all = np.repeat(grid.points, np.diff(offsets))
    kw = np.empty_like(w_all)
    lower_mask = t_all < x_all
    kw[lower_mask] = w_all[lower_mask] * kernel_lower(x_all[lower_mask], t_all[lower_mask])
    kw[~lower_mask] = w_all[~lower_mask] * kernel_upper(x_all[~lower_mask], t_all[~lower_mask])
    sub = _segmented_sum(w_all / (x_all - t_all), offsets)
    del w_all, x_all, lower_mask
    log_term = np.log(grid.points / np.maximum(b - grid.points, 1e-300))
    # at the top hull point B - x = 0: the upper side is empty and the
    # subtraction degenerates; the lower-side-only value keeps ln(x/delta)
    top = grid.points >= b * (1.0 - 1e-12)
    if np.any(top):
        log_term[top] = np.log(grid.points[top] / (1e-7 * grid.points[top]))
    matrix, head_t, head_matrix = _assemble(grid, nodes, node_id, offsets, kw, False)
    diag = np.arange(grid.n)
    matrix[diag, diag] -= rho * (sub - log_term)
    return PVPlan(grid, t_all, offsets, matrix, head_t, head_matrix, sub, log_term, rho)


# ----------------------------------------------------------------------
# grid differentiation (4th order, one-sided closures at the hull ends)
# ----------------------------------------------------------------------


def _deriv_weights(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(stencil, weights), both (n, 5): at each coordinate s_i, the first
    derivative of the interpolating quartic through five nodes (centred,
    or the first or last five at the ends), from the nodes' actual
    coordinates."""
    n = len(s)
    start = np.clip(np.arange(n) - 2, 0, n - 5)
    stencil = start[:, None] + np.arange(5)
    d = s[stencil] - s[:, None]  # node offsets from the evaluation point
    weights = np.zeros((n, 5))
    for j in range(5):
        others = [m for m in range(5) if m != j]
        denom = np.prod([d[:, j] - d[:, m] for m in others], axis=0)
        for m in others:
            weights[:, j] += np.prod([-d[:, l] for l in others if l != m], axis=0)
        weights[:, j] /= denom
    # the weight of the evaluation point itself makes each row sum to zero
    # exactly, so constants differentiate to zero whatever the rounding of s
    rows = np.arange(n)
    at = rows - start
    weights[rows, at] = 0.0
    weights[rows, at] = -np.sum(weights, axis=1)
    return stencil, weights


def deriv_on_grid(values: np.ndarray, grid: Grid) -> np.ndarray:
    """d(values)/dx on the grid: 4th-order differences in the grid coordinate."""
    stencil, weights = _deriv_weights(grid.coord(grid.points))
    d = np.sum(weights * np.asarray(values, dtype=float)[stencil], axis=1)
    if grid.spacing == "log":
        d = d / grid.points
    return d


def second_deriv_on_grid(values: np.ndarray, grid: Grid) -> np.ndarray:
    return deriv_on_grid(deriv_on_grid(values, grid), grid)
