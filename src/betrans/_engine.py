"""Shared quadrature engine for kernel operators on (0, inf).

A plan discretises one operator on one grid as an n x (n + 6) matrix on
the operand's spline coefficients followed by the six coefficients of its
head model (numgrid.operand_vector), the operand below the grid hull.  Its
quadrature fixes, per output abscissa, nodes, weights and kernel values.
Inside the hull the operand at a node is numgrid's interpolating spline,
linear in its coefficients, and below it the head model is linear in its
own (numgrid.head_basis), so the weighted node sums fold into one matrix,
assembled once when the plan is built: the nodes' basis rows
(numgrid.basis_rows), weighted and summed per output row, next to the head
nodes' weights times their head-basis rows.  Applying the plan is one
matrix-vector product.  Plans are cached on their grid (cached_plan), and
compositions stay cheap.

Three plan geometries cover every operator in the package:

* lower:  int_0^x K(x, t) f(t) dt   (optional (x-t)^alpha endpoint weight)
* upper:  int_x^B K(x, t) f(t) dt   (optional (t-x)^alpha endpoint weight)
* pv:     one-sided kernels with a simple pole at t = x; the pole is
          subtracted exactly (its term is the spline's row at x) and the
          bounded remainder is integrated on panels graded geometrically
          toward the diagonal.

Body panels are tied to every stride-th grid point (_BODY_STRIDE, 4) and
carry _N_GL_SMALL (8) Gauss points each, one discretization for every
plan.  Every output row that reaches a body panel shares its nodes, so the
spline's basis is evaluated once per distinct node.

Kernels homogeneous of degree d, K(x, t) = k(r) x^d with r a function of
t/x (RatioKernel), repeat on a grid uniform in log x, in all three
geometries: seen from x_i, the node j of the body panel from grid point g
sits at a ratio t/x fixed by g - i and j, and a row's own panels (the last
panel ending at x_i, the panel from x_i, and in PV plans, while x_i <= b/2,
those ending at x_i -/+ eps0 and the graded ones, all scaled by
eps0 = x_i/8) are those of the row one stride before it, dilated by
x_(i+stride)/x_i.  So one template per stride class holds every ratio those
rows see, k is evaluated once per template ratio, and a slot's weight times
kernel scales with x^(d+1) from row to row.  Where the spline's knots are
uniform (clear of its not-a-knot end intervals) the weighted basis rows of
a template row, or of a body panel at one g - i, are summed once and added
to every row as a shifted stamp, times that power of x.  The rule itself
does not change: each row keeps its nodes and weights, and only the
arithmetic that evaluates the same kernel at them does, to rounding.  Head
nodes below a, the panel cut short at b and, in PV plans, rows with
x > b/2, where eps0 = (b - x)/8, keep the per-pair path, as do any other
kernel and any other grid (_dilation_template).

Above the grid hull the operand is taken as zero.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .numgrid import (
    Grid,
    SampledFunction,
    _gl_panels,
    _jacobi,
    basis_rows,
    head_basis,
    log_uniform,
    operand_vector,
    spline_knots,
)

N_GL_HEAD = 12
N_JACOBI = 24
_PV_DELTA = 1e-7  # a PV rule's innermost approach to the pole, as a fraction of x


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


_BODY_STRIDE = 4  # the stride: body panel edges at every 4th grid point
_N_GL_SMALL = 8  # Gauss points per body panel


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

    Each node also gets a lattice label: g k + j for node j of a shared
    k-point panel that spans `stride` grid steps from grid point g, -1 for
    any other node.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.size = 0
        self._t, self._w, self._starts, self._lengths, self._lattice, self._owned = [], [], [], [], [], []

    def _add(self, t, w, starts, lengths, lattice, owned):
        self._starts.append(self.size + np.broadcast_to(starts, self.n_rows))
        self._lengths.append(np.broadcast_to(lengths, self.n_rows))
        self._t.append(t.ravel())
        self._w.append(w.ravel())
        self._lattice.append(np.broadcast_to(lattice, t.shape).ravel())
        self._owned.append(owned)
        self.size += t.size

    def shared(self, t, w, first, count, grid_start=None):
        """Panels (rows of t, w) of which row i uses count[i] from first[i] on;
        grid_start[p] is the grid point panel p starts at when it spans one
        stride of grid points (else -1, or None for panels not tied to the grid)."""
        k = t.shape[1]
        lattice = -1
        if grid_start is not None:
            g = np.asarray(grid_start)[:, None]
            lattice = np.where(g >= 0, g * k + np.arange(k), -1)
        self._add(t, w, np.asarray(first) * k, np.asarray(count) * k, lattice, False)

    def owned(self, t, w, count):
        """count[i] panels for row i, the rows of t, w in row order."""
        k = t.shape[1]
        count = np.asarray(count, dtype=int)
        self._add(t, w, (np.cumsum(count) - count) * k, count * k, -1, True)

    @staticmethod
    def _joined(parts: list) -> np.ndarray:
        """The parts as one array, joined once: the list keeps the result."""
        if len(parts) > 1:
            parts[:] = [np.concatenate(parts)]
        return parts[0]

    def layout(self):
        """(nodes, starts, lengths): the node table, and per row i and
        segment s the run starts[i, s]:starts[i, s] + lengths[i, s] of it
        that row i's rule holds there."""
        return self._joined(self._t), np.stack(self._starts, axis=1), np.stack(self._lengths, axis=1)

    def weights(self) -> np.ndarray:
        """The weight of every node, in node-table order."""
        return self._joined(self._w)

    def pairs(self):
        """(nodes, weights, node_id, offsets): row i's rule is nodes and
        weights at node_id[offsets[i]:offsets[i + 1]]."""
        nodes, starts, lengths = self.layout()
        return (nodes, self.weights(), *_unroll(starts, lengths))

    def lattice(self) -> np.ndarray:
        """Every node's lattice label, in node-table order."""
        return self._joined(self._lattice)

    def segments(self):
        """(starts, counts, owned) per segment: row i's nodes there are
        starts[i]:starts[i] + counts[i] of the node table; owned segments
        hold rows' own panels, one block of the table row after row."""
        return list(zip(self._starts, self._lengths, self._owned))


def _unroll(starts, lengths):
    """(node_id, offsets) of a rule layout (_Rules.layout): row i's nodes
    are node_id[offsets[i]:offsets[i + 1]], its segments' runs in order."""
    nseg = starts.shape[1]
    starts, lengths = starts.ravel(), lengths.ravel()
    ends = np.cumsum(lengths)
    node_id = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
    return node_id, np.concatenate([[0], ends[nseg - 1 :: nseg]])


def _stride_starts(idx: np.ndarray) -> np.ndarray:
    """grid_start of the panels between consecutive grid indices idx."""
    return np.where(np.diff(idx) == _BODY_STRIDE, idx[:-1], -1)


def _lower_rules(rules: _Rules, x, pts, alpha, head: str = "taylor"):
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
    inner_idx = np.arange(_BODY_STRIDE, len(pts), _BODY_STRIDE)
    inner_idx = inner_idx[pts[inner_idx] > a * (1.0 + 1e-12)]
    inner = pts[inner_idx]
    m = np.where(far, np.searchsorted(inner, x * (1.0 - 1e-12)), 0)  # inner edges below x_i
    edges = np.concatenate([[a], inner[: m.max(initial=0)]])
    edge_idx = np.concatenate([[0], inner_idx[: m.max(initial=0)]])
    rules.shared(*_gl_panels(edges[:-1], edges[1:], _N_GL_SMALL), 0, m, _stride_starts(edge_idx))
    x_far, m_far = x[far], m[far]
    if singular:
        split = np.where(m_far > 0, edges[m_far], np.maximum(0.5 * x_far, a))
        alone = far & (m == 0)
        rules.owned(*_gl_panels(np.full(np.count_nonzero(alone), a), split[m_far == 0], _N_GL_SMALL), alone)
        rules.owned(*_jacobi_panels(split, x_far, alpha), far)
    else:
        rules.owned(*_gl_panels(edges[m_far], x_far, _N_GL_SMALL), far)


def _upper_rules(rules: _Rules, x, pts, alpha):
    """Rules for int_(x_i)^b; optional (t-x)^alpha singularity at t = x_i.

    The first body panel starts at x_i (a Gauss-Jacobi panel when the
    endpoint power needs one); the others run over every stride-th grid
    point up to b.
    """
    b = pts[-1]
    singular = _needs_jacobi(alpha)
    live = x < b * (1.0 - 1e-14)
    inner_idx = np.arange(_BODY_STRIDE, len(pts), _BODY_STRIDE)
    inner_idx = inner_idx[pts[inner_idx] < b * (1.0 - 1e-12)]
    inner = pts[inner_idx]
    first = np.searchsorted(inner, x * (1.0 + 1e-12), side="right")  # first inner edge above x_i
    m = np.where(live, len(inner) - first, 0)
    skip = first[live].min(initial=len(inner))
    edges = np.concatenate([inner[skip:], [b]])
    x_live, m_live = x[live], m[live]
    nxt = edges[first[live] - skip]
    body = (*_gl_panels(edges[:-1], edges[1:], _N_GL_SMALL), first - skip, m)
    grid_start = _stride_starts(np.concatenate([inner_idx[skip:], [len(pts) - 1]]))
    if singular:
        split = np.where(m_live > 0, nxt, np.minimum(2.0 * x_live, b))
        rules.owned(*_jacobi_panels(split, x_live, alpha, left_end=True), live)
        rules.shared(*body, grid_start)
        alone = live & (m == 0)
        rules.owned(*_gl_panels(split[m_live == 0], np.full(np.count_nonzero(alone), b), _N_GL_SMALL), alone)
    else:
        rules.owned(*_gl_panels(x_live, nxt, _N_GL_SMALL), live)
        rules.shared(*body, grid_start)


def _pv_rules(rules: _Rules, pts):
    """Rules for the pole-subtracted PV integrals over (0, b).

    Grid-aligned panels cover t < x - eps0 and t > x + eps0, with
    eps0 = min(x, b - x)/8; on each side panels graded by halving reach from
    eps0 down to the innermost approach _PV_DELTA x, where the bracket
    integrand is bounded.
    """
    b = pts[-1]
    x = pts
    delta = _PV_DELTA * x
    eps0 = np.maximum(np.minimum(x, b - x), delta * 4.0) / 8.0
    _lower_rules(rules, x - eps0, pts, None)
    # scales eps0, eps0/2, ... while above delta, then delta itself
    halvings = eps0[:, None] * 0.5 ** np.arange(64)
    count = np.count_nonzero(halvings > delta[:, None], axis=1)
    kmax = int(count.max())
    cols = np.arange(kmax + 2)
    scales = np.where(cols < count[:, None], halvings[:, : kmax + 2], delta[:, None])
    scales[count == 0, 0] = eps0[count == 0]
    edge = x[:, None] - scales
    valid = cols[:-1] < count[:, None]
    rules.owned(*_gl_panels(edge[:, :-1][valid], edge[:, 1:][valid], _N_GL_SMALL), count)
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
    rules.owned(*_gl_panels(edge[:, :-1][valid], edge[:, 1:][valid], _N_GL_SMALL), panels)
    start = np.take_along_axis(edge, np.maximum(n_hi - 1, 0)[:, None], axis=1)[:, 0]
    beyond = up & (start < b * (1.0 - 1e-12))
    _upper_rules(rules, np.where(beyond, start, b), pts, None)


def _segmented_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    nseg = len(offsets) - 1
    if len(values) == 0:
        return np.zeros(nseg)
    out = np.zeros(nseg)
    live = np.searchsorted(offsets[:-1], len(values))  # trailing empty segments start at len(values)
    out[:live] = np.add.reduceat(values, offsets[:live])
    out[np.diff(offsets) == 0] = 0.0
    return out


_ASSEMBLY_PAIRS = 1 << 14  # (row, node) pairs accumulated per block


def _assemble(grid: Grid, nodes, node_id, offsets, kw, use_deriv: bool, coef0=None):
    """The n x (n + 6) matrix, on numgrid.operand_vector, of the plan whose
    row i is sum kw[p] f(nodes[node_id[p]]) over p in offsets[i]:offsets[i + 1]
    (f' for use_deriv), plus the spline-coefficient rows coef0 when given
    (summed into in place).

    Inside the hull f is the operand's interpolating spline: each node's
    basis row (of f' for use_deriv: the degree k-1 rows on the inner knots
    times the coefficients' difference matrix, divided by t on log grids),
    weighted and summed per output row, gives the first n columns, on the
    spline's coefficients.  Below the hull f is its head model,
    linear in the model's six coefficients (numgrid.head_basis): the
    weights summed per row and node, times the basis rows at the nodes,
    give the last six.  Above the hull f is zero.
    """
    n = grid.n
    a, b = grid.hull
    knots, k = spline_knots(grid)
    below = nodes < a
    inside = (nodes >= a) & (nodes <= b)
    t_in = nodes[inside]
    if use_deriv:
        first, vals = basis_rows(knots[1:-1], k - 1, grid.coord(t_in))
        if grid.spacing == "log":
            vals /= t_in
    else:
        first, vals = basis_rows(knots, k, grid.coord(t_in))
    ncol = len(knots) - k - 1 - int(use_deriv)
    in_index = np.cumsum(inside) - 1
    head_index = np.cumsum(below) - 1
    coef = np.empty((n, ncol)) if coef0 is None else coef0
    head_rows, head_cols, head_kw = [], [], []
    r0 = 0
    while r0 < n:
        r1 = min(max(int(np.searchsorted(offsets, offsets[r0] + _ASSEMBLY_PAIRS, side="right")) - 1, r0 + 1), n)
        block = slice(offsets[r0], offsets[r1])
        q, w = node_id[block], kw[block]
        row = np.repeat(np.arange(r1 - r0), np.diff(offsets[r0 : r1 + 1]))
        keep = inside[q]
        qi = in_index[q[keep]]
        cols = ((row[keep] * ncol + first[qi]) + np.arange(len(vals))[:, None]).ravel()
        terms = (np.take(vals, qi, axis=1) * w[keep]).ravel()
        if coef0 is None:
            coef[r0:r1] = np.bincount(cols, terms, minlength=(r1 - r0) * ncol).reshape(r1 - r0, ncol)
        else:
            np.add.at(coef[r0:r1].reshape(-1), cols, terms)
        low = below[q]
        head_rows.append(row[low] + r0)
        head_cols.append(head_index[q[low]])
        head_kw.append(w[low])
        r0 = r1
    # per row, the head nodes' weights times their head-basis rows
    head_rows, head_kw = np.concatenate(head_rows), np.concatenate(head_kw)
    basis = head_basis(nodes[below], a, use_deriv)[np.concatenate(head_cols)]
    head = np.stack([np.bincount(head_rows, head_kw * col, minlength=n) for col in basis.T], axis=1)
    if use_deriv:
        # spline derivative coefficients: dk_i (c_(i+1) - c_i)
        dk = k / (knots[k + 1 : k + 1 + ncol] - knots[1 : 1 + ncol])
        scaled = coef * dk
        coef = np.zeros((n, ncol + 1))
        coef[:, 1:] += scaled
        coef[:, :-1] -= scaled
    return np.hstack([coef, head])


class KernelPlan:
    """Cached quadrature for g(x_i) = int K(x_i, t) f(t) dt on one grid, as
    an n x (n + 6) matrix on the operand's spline coefficients followed by
    its head model's six coefficients (numgrid.operand_vector).

    The rule is kept as its node table and layout (_Rules.layout); t_all,
    every quadrature node row after row, and offsets (row i's are
    t_all[offsets[i]:offsets[i + 1]]) are unrolled from them on access.
    """

    def __init__(self, grid: Grid, layout, matrix):
        self.grid = grid
        self.nodes, self.starts, self.lengths = layout
        self.matrix = matrix

    @property
    def t_all(self) -> np.ndarray:
        return self.nodes[_unroll(self.starts, self.lengths)[0]]

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.lengths.sum(axis=1))])

    def apply(self, f: SampledFunction) -> np.ndarray:
        return self.matrix @ operand_vector(f)


def cached_plan(key, build):
    """The plan cached under key, built by build() the first time.

    key[0] is the plan's grid, and the plan is kept in that grid's `plans`,
    so it lives exactly as long as the grid, and no other grid, however
    alike, is handed it.
    """
    plans = key[0].plans
    if key not in plans:
        plans[key] = build()
    return plans[key]


def _sided(fns, low, *args):
    """fns[0](*args) where low holds and fns[1](*args) elsewhere, element
    by element: one call when the two are one function."""
    if fns[0] is fns[1]:
        return fns[0](*args)
    out = np.empty(np.shape(args[0]))
    out[low] = fns[0](*(a[low] for a in args))
    out[~low] = fns[1](*(a[~low] for a in args))
    return out


def _plan_matrix(grid: Grid, rules: _Rules, kernels, use_deriv=False, pole=False):
    """(matrix, diag): a plan's matrix (_assemble) for the kernels
    (lower, upper), the first on t < x and the second on t > x, and a
    correction to its pole term; pole marks a PV plan.  Two RatioKernels of
    one variable and one degree on a grid uniform in log x are evaluated
    and assembled from the dilation template (_dilation_template); any
    other kernels or grid pair by pair, with no correction.
    """
    kl, ku = kernels
    if (
        isinstance(kl, RatioKernel)
        and isinstance(ku, RatioKernel)
        and (kl.variable, kl.degree) == (ku.variable, ku.degree)
        and log_uniform(grid)
    ):
        *pairs, coef0, diag = _dilation_template(grid, rules, kernels, use_deriv, pole)
        return _assemble(grid, *pairs, use_deriv, coef0), diag
    nodes, weights, node_id, offsets = rules.pairs()
    x_all = np.repeat(grid.points, np.diff(offsets))
    t_all = nodes[node_id]
    kw = weights[node_id] * _sided(kernels, t_all < x_all, x_all, t_all)
    del x_all, t_all
    return _assemble(grid, nodes, node_id, offsets, kw, use_deriv), 0.0


def build_lower_plan(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
    use_deriv: bool = False,
    head: str = "taylor",
) -> KernelPlan:
    rules = _Rules(grid.n)
    _lower_rules(rules, grid.points, grid.points, alpha, head=head)
    return KernelPlan(grid, rules.layout(), _plan_matrix(grid, rules, (kernel, kernel), use_deriv)[0])


def build_upper_plan(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
    use_deriv: bool = False,
) -> KernelPlan:
    rules = _Rules(grid.n)
    _upper_rules(rules, grid.points, grid.points, alpha)
    return KernelPlan(grid, rules.layout(), _plan_matrix(grid, rules, (kernel, kernel), use_deriv)[0])


class PVPlan(KernelPlan):
    """Principal-value plan by exact pole subtraction.

    With K(x, y) = rho(x)/(x - y) + integrable near the diagonal,

        PV int K f dy = int [K(x,y) f(y) - rho f(x)/(x-y)] dy
                        + rho f(x) ln(x / (B - x)),

    and the bracket is evaluated on panels graded toward the diagonal (it
    retains integrable |x-y|^(-1/2)-type corrections but no pole).  The
    pole terms -rho f(x_i) (sub_i - log_term_i) are on the matrix's rows as
    multiples of A's, since f(x_i) = (A c)_i, A the collocation matrix.
    """

    def __init__(self, grid, layout, matrix, sub, log_term, rho):
        super().__init__(grid, layout, matrix)
        self.sub = sub  # per-point sum of w/(x - t): the discretized pole integral
        self.log_term = log_term
        self.rho = rho

    # the same apply, bound on this class too, so that replacing and
    # restoring the method on one plan class leaves the other untouched
    apply = KernelPlan.apply


class RatioKernel:
    """A kernel homogeneous of degree d (K(lambda x, lambda t) =
    lambda^d K(x, t)): K(x, t) = k(r) x^d, with r a function of t/x alone.

    variable "t/x":   r = t/x;
    variable "1-t/x": r = (x - t)/x, which keeps its digits next to the
                      diagonal (for k with a factor x - t, or rational in t/x);
    variable "x/t":   r = x/t, and K(x, t) = k(r) t^d.

    Take as r the argument that k hands its special function, so that k is
    a smooth function of the rounded r.  The degree is the kernel's own
    (the default -1 is that of every Mellin convolution k(t/x)/x).  On
    grids uniform in log x the plan builders evaluate k once per template
    ratio (_dilation_template); everywhere else K(x, t) is called like any
    kernel.
    """

    _FORMS = {
        # r(x, t), the base of the power b^d, and 1/(x - t) as pole(r)/b
        "t/x": (lambda x, t: t / x, lambda x, t: x, lambda r: 1.0 / (1.0 - r)),
        "1-t/x": (lambda x, t: (x - t) / x, lambda x, t: x, lambda r: 1.0 / r),
        "x/t": (lambda x, t: x / t, lambda x, t: t, lambda r: 1.0 / (r - 1.0)),
    }

    def __init__(self, k: Callable[[np.ndarray], np.ndarray], variable: str = "t/x", degree: float = -1.0):
        self.k = k
        self.variable = variable
        self.degree = float(degree)
        self.ratio, self.base, self.pole = self._FORMS[variable]

    def power(self, x, t):
        """K(x, t)/k(r) = b^d."""
        b = self.base(x, t)
        return 1.0 / b if self.degree == -1.0 else b**self.degree

    def __call__(self, x, t):
        b = self.base(x, t)
        k = self.k(self.ratio(x, t))
        return k / b if self.degree == -1.0 else k * b**self.degree


class _Template:
    """The dilation template of a plan's node table (see _template).

    key[q] is node q's slot plus _N_GL_SMALL times its row, negative for
    nodes off the template.  Slots [0, n_own) hold rows' own nodes; the body
    slots follow, n_own + (g - i + n - 1) _N_GL_SMALL + j for node j of the
    panel from grid point g seen from row i.  rep_node and rep_row place
    each slot's ratio t/x where has_rep.
    in_stamp marks the nodes whose pairs enter as stamps: those of the clear
    body panels, of which each row sums the runs of panels runs lists as
    (rows, first panel g / stride, last panel g / stride), and the own
    nodes own_node (of rows own_row) of the rows listed in own_stamps as
    (rows, first slot, number of slots) per segment and stride class.
    """

    def __init__(self, key, rep_node, rep_row, has_rep, in_stamp, own, runs, n_own):
        self.key, self.rep_node, self.rep_row, self.has_rep = key, rep_node, rep_row, has_rep
        self.own_stamps, self.own_node, self.own_row = own
        self.in_stamp, self.runs, self.n_own = in_stamp, runs, n_own
        self.per_pair = len(rep_node)


def _template(grid: Grid, rules: _Rules, nodes) -> _Template:
    """The dilation template of a plan on a grid uniform in log x.

    Node j of the body panel from grid point g sits at a ratio t/x_i fixed
    by g - i and j, so (g - i, j) is its slot, shared by every row.  A
    row's own panels scale with x_i while eps0 = x_i/8, so the rows of one
    stride class repeat them node for node: in each segment of own panels,
    the class's rows that hold its most common number of nodes share slots
    by place, with the first of them (preferably one clear of the end
    intervals) as the class's template row.  A node whose t/x is not its
    template node's to 1e-12 leaves the template (those of the rows with
    x > b/2 do, where eps0 = (b - x)/8).  Head nodes and the panel cut short
    at b stay on the per-pair path.  Clear of the end intervals the spline's
    basis rows are translates of one another, so a row whose own nodes in a
    segment all match a clear template row, and a body panel there, enter
    as stamps (_stamps).
    """
    n, x = grid.n, grid.points
    cls = np.arange(n) % _BODY_STRIDE
    knots, k = spline_knots(grid)
    lo = np.exp(knots[2 * k]) * (1.0 + 1e-12)
    hi = np.exp(knots[len(knots) - 2 * k - 1]) * (1.0 - 1e-12)
    clear = (nodes > lo) & (nodes < hi)
    key = np.full(len(nodes), -(1 << 30), dtype=np.int32)
    in_stamp = np.zeros(len(nodes), dtype=bool)
    rep_node, rep_row, has_rep, own_stamps, own_node, own_row = [], [], [], [], [], []
    n_own = 0
    for starts, counts, owned in rules.segments():
        if not owned:
            continue
        held = counts > 0
        if not np.any(held):
            continue
        # the segment's nodes are one block of the table, row after row
        base, row = starts[0], np.repeat(np.arange(n), counts)
        block = slice(base, base + len(row))
        row_first = np.cumsum(counts) - counts  # in the block
        n_clear = np.zeros(n, dtype=int)
        n_clear[held] = np.add.reduceat(clear[block], row_first[held], dtype=int)
        rows_clear = n_clear == counts
        common = np.zeros(_BODY_STRIDE, dtype=int)
        first = np.zeros(_BODY_STRIDE, dtype=int)
        for c in range(_BODY_STRIDE):
            in_class = held & (cls == c)
            if np.any(in_class):
                common[c] = np.bincount(counts[in_class]).argmax()
                pick = in_class & (counts == common[c])
                first[c] = np.argmax(pick & rows_clear if np.any(pick & rows_clear) else pick)
        width = int(common.max())
        rep = np.minimum(starts[first][:, None] + np.arange(width), len(nodes) - 1)
        rep_node.append(rep.ravel())
        rep_row.append(np.repeat(first, width))
        has_rep.append((np.arange(width) < common[:, None]).ravel())
        place = np.arange(len(row)) - row_first[row]
        at = cls[row] * width + np.minimum(place, width - 1)  # the slot, from n_own on
        u_rep = (nodes[rep] / x[first][:, None]).ravel()[at]
        match = (counts == common[cls])[row] & (np.abs(nodes[block] / x[row] - u_rep) <= 1e-12 * u_rep)
        key[block] = np.where(match, n_own + at + _N_GL_SMALL * row, key[block])
        stamped = np.zeros(n, dtype=bool)
        stamped[held] = np.logical_and.reduceat(match & clear[block], row_first[held])
        stamped &= rows_clear[first[cls]]
        in_stamp[block] = stamped[row]
        own_node.append(base + np.flatnonzero(in_stamp[block]))
        own_row.append(row[in_stamp[block]])
        for c in range(_BODY_STRIDE):
            own_stamps.append((np.flatnonzero(stamped & (cls == c)), n_own + c * width, common[c]))
        n_own += _BODY_STRIDE * width

    label = rules.lattice()
    body = np.flatnonzero(label >= 0)
    g = label[body] // _N_GL_SMALL
    clear_panel = (x[g] >= lo) & (x[g + _BODY_STRIDE] <= hi)
    key[body] = label[body] + n_own + (n - 1) * _N_GL_SMALL
    in_stamp[body[clear_panel]] = True
    # per d = g - i a panel to place the ratio at, a clear one if there is one
    node_of = np.full(n * _N_GL_SMALL, -1)
    node_of[label[body]] = body
    d = np.arange(1 - n, n)
    g_rep, found = _panel_for(np.unique(g), d, n)
    g_clear, found_clear = _panel_for(np.unique(g[clear_panel]), d, n)
    g_rep = np.where(found_clear, g_clear, g_rep)
    body_node = np.where(found[:, None], node_of[g_rep[:, None] * _N_GL_SMALL + np.arange(_N_GL_SMALL)], 0).ravel()
    body_row = np.repeat(np.where(found, g_rep - d, 0), _N_GL_SMALL)
    body_rep = np.repeat(found, _N_GL_SMALL)
    # the clear panels each row sums as stamps: per body segment a row's
    # panels are one run of consecutive ones, cut to the clear ones
    g_lo, g_hi = int(g[clear_panel].min(initial=n)), int(g[clear_panel].max(initial=-1))
    runs = []
    for starts, counts, owned in rules.segments():
        if owned:
            continue
        first_label = label[np.minimum(starts, len(label) - 1)]
        g_first = first_label // _N_GL_SMALL
        m_lo = -(-np.maximum(g_first, g_lo) // _BODY_STRIDE)
        m_hi = np.minimum(g_first + (counts // _N_GL_SMALL - 1) * _BODY_STRIDE, g_hi) // _BODY_STRIDE
        rows = np.flatnonzero((counts > 0) & (first_label >= 0) & (m_lo <= m_hi))
        runs.append((rows, m_lo[rows], m_hi[rows]))
    rows, m_lo, m_hi = (np.concatenate(part) for part in zip(*runs)) if runs else (np.zeros(0, dtype=int),) * 3
    order = np.argsort(rows, kind="stable")
    own_node = np.concatenate(own_node) if own_node else np.zeros(0, dtype=int)
    own_row = np.concatenate(own_row) if own_row else np.zeros(0, dtype=int)
    return _Template(
        key,
        np.concatenate(rep_node + [body_node]),
        np.concatenate(rep_row + [body_row]),
        np.concatenate(has_rep + [body_rep]),
        in_stamp,
        (own_stamps, own_node, own_row),
        (rows[order], m_lo[order], m_hi[order]),
        n_own,
    )


def _panel_for(starts: np.ndarray, d: np.ndarray, n: int):
    """(g, found): per offset d, the first panel start g of the sorted
    `starts` with 0 <= g - d < n."""
    if not len(starts):
        return np.zeros_like(d), np.zeros(len(d), dtype=bool)
    at = np.searchsorted(starts, np.maximum(d, 0))
    g = starts[np.minimum(at, len(starts) - 1)]
    return g, (at < len(starts)) & (g - d < n)


def _dilation_template(grid, rules, kernels, use_deriv=False, pole=False):
    """(nodes, node_id, offsets, kw, coef0, diag): what _assemble sums pair
    by pair for a plan of ratio kernels on a grid uniform in log x (a node
    table cut to the pairs off the stamps, and their weights times the
    kernels), the spline-coefficient rows of the stamps, and a correction
    to the pole term (_template).  kernels is (lower, upper): the
    first acts on t < x, the second on t > x; pole marks a PV plan.

    k is evaluated once per slot, at its template ratio r_T, and a pair
    takes k(r_T) times its own power b^d.  A stamp carries the template's
    weighted kernel, which scales with x^(d + 1) from row to row (a slot's
    weight with x, the kernel with x^d; the derivative basis on a log grid
    carries 1/t, one power less).  In a PV plan a pair's own rounded ratio
    r differs from r_T in the last bits, which moves the pole 1/(x - t) by
    up to 1e-9 of itself at the innermost nodes, so a pair takes
    k(r_T)/pole(r_T) from the template and multiplies it by its own
    pole(r): next to the diagonal, where the pole sets k, that is the value
    the per-pair kernel has.  A stamped own pair's own value differs from
    the stamp's only next to the diagonal, where f(t) is f(x_i) to within
    |x_i - t| f', so the difference joins the pole term.  Body panels lie at
    least x/8 off the diagonal, where r and r_T give the same k to
    rounding; without a pole, every pair does.
    """
    kl, ku = kernels
    n, x = grid.n, grid.points
    nodes, starts, lengths = rules.layout()
    weights = rules.weights()
    tm = _template(grid, rules, nodes)
    # the pairs off the stamps: per row and segment, the run of the
    # segment's nodes that are in no stamp, which are consecutive among those
    off = ~tm.in_stamp
    before = np.concatenate([[0], np.cumsum(off)])
    node_id, offsets = _unroll(before[starts], before[starts + lengths] - before[starts])
    node_id = np.flatnonzero(off)[node_id]
    del before
    row = np.repeat(np.arange(n), np.diff(offsets))
    slot = tm.key[node_id] - _N_GL_SMALL * row
    slot[slot < 0] = tm.per_pair
    own_slot = tm.key[tm.own_node] - _N_GL_SMALL * tm.own_row
    # d + n - 1 of the body stamps: a run of panels covers every stride-th
    # d from its first to its last, marked by a difference array per class
    run_row, m_first, m_last = tm.runs
    size = -(-(2 * n - 1) // _BODY_STRIDE) * _BODY_STRIDE + _BODY_STRIDE
    marks = np.bincount(m_first * _BODY_STRIDE - run_row + n - 1, minlength=size)
    marks -= np.bincount(m_last * _BODY_STRIDE - run_row + n - 1 + _BODY_STRIDE, minlength=size)
    body_d = np.flatnonzero(np.cumsum(marks.reshape(-1, _BODY_STRIDE), axis=0).ravel()[: 2 * n - 1])
    body_slots = tm.n_own + (body_d[:, None] * _N_GL_SMALL + np.arange(_N_GL_SMALL)).ravel()
    needed = np.zeros(tm.per_pair + 1, dtype=bool)
    needed[slot] = True
    needed[own_slot] = True
    needed[body_slots] = True
    needed = needed[:-1] & tm.has_rep
    slot[~np.append(needed, False)[slot]] = tm.per_pair
    slots = np.flatnonzero(needed)
    x_k, t_k = x[row], nodes[node_id]
    per_pair = np.flatnonzero(slot == tm.per_pair)
    # one call of k per kernel, at the template ratios and the per-pair ones
    x_r = np.concatenate([x[tm.rep_row[slots]], x_k[per_pair]])
    t_r = np.concatenate([nodes[tm.rep_node[slots]], t_k[per_pair]])
    r = kl.ratio(x_r, t_r)
    k_r = _sided((kl.k, ku.k), t_r < x_r, r)
    ns = len(slots)
    scale = np.zeros(tm.per_pair + 1)  # k(r_T), over pole(r_T) in PV plans
    scale[slots] = k_r[:ns] / kl.pole(r[:ns]) if pole else k_r[:ns]
    values = scale[slot] * kl.power(x_k, t_k)
    if pole:
        values *= kl.pole(kl.ratio(x_k, t_k))
    values[per_pair] = k_r[ns:] * kl.power(x_r[ns:], t_r[ns:])
    kw = weights[node_id] * values
    # the template's weights times kernel values, for the stamps
    kw_t = np.zeros(tm.per_pair)
    kw_t[slots] = weights[tm.rep_node[slots]] * k_r[:ns] * kl.power(x_r[:ns], t_r[:ns])
    diag = 0.0
    if pole:
        diag = np.zeros(n)
        # a block at a time: the stamped own nodes fill most of the node table
        for lo in range(0, len(own_slot), _ASSEMBLY_PAIRS):
            q, r, s = (a[lo : lo + _ASSEMBLY_PAIRS] for a in (tm.own_node, tm.own_row, own_slot))
            x_o, t_o = x[r], nodes[q]
            kw_own = weights[q] * scale[s] * kl.pole(kl.ratio(x_o, t_o)) * kl.power(x_o, t_o)
            diag += np.bincount(r, kw_own - kw_t[s], minlength=n)
    coef0 = _stamps(grid, tm, kw_t, body_slots, nodes, kl.degree + 1.0, use_deriv)
    in_use = np.zeros(len(nodes), dtype=bool)
    in_use[node_id] = True
    return nodes[in_use], (np.cumsum(in_use) - 1)[node_id], offsets, kw, coef0, diag


def _stamps(grid, tm, kw_t, body_slots, nodes, power, use_deriv):
    """The spline-coefficient rows of a plan's stamps: each slot's weighted
    kernel times its template node's basis row (of f' for use_deriv, as
    _assemble forms it), at the columns counted from the panel's grid point
    (body stamps) or from the template row (own stamps), summed once per
    stamp and added to every row that uses it, times (x_i/x_T)^power from
    the slot's template row T to the row i (power d + 1 for a kernel of
    degree d, one less for use_deriv)."""
    n, x = grid.n, grid.points
    knots, k = spline_knots(grid)
    own = [(rows, np.arange(s0, s0 + count)) for rows, s0, count in tm.own_stamps if len(rows) and count]
    slots = np.concatenate([body_slots] + [s for _, s in own]).astype(int)
    t_rep = nodes[tm.rep_node[slots]]
    rep_row = tm.rep_row[slots]
    kw = kw_t[slots]
    if use_deriv:
        knots, k = knots[1:-1], k - 1
        kw = kw / t_rep
        power -= 1.0
    first, vals = basis_rows(knots, k, grid.coord(t_rep))
    ncol = len(knots) - k - 1
    if power:
        kw = kw * x[rep_row] ** -power
    nb = len(body_slots)
    coef = _body_stamps(tm, kw[:nb], first[:nb], vals[:, :nb], rep_row[:nb], body_slots, n, ncol)
    at = nb
    for rows, s in own:
        e = first[at : at + len(s)] - rep_row[at : at + len(s)]  # columns from the row's own
        row_stamp, e_first = _stamp_row(e, kw[at : at + len(s)], vals[:, at : at + len(s)])
        coef[rows[:, None], rows[:, None] + e_first + np.arange(len(row_stamp))] += row_stamp
        at += len(s)
    if power:
        coef *= (x**power)[:, None]
    return coef


def _body_stamps(tm, kw, first, vals, rep_row, body_slots, n, ncol):
    """Every row's sum of the body stamps of the clear panels it uses
    (tm.runs), as spline-coefficient rows.

    Stamp d = g - i holds its columns from g + e0 on, so in the columns
    v = col - i relative to the row it sits at d + e0 on.  Rows of one
    class i mod stride see the stamps d = -i mod stride, and C_D, the
    class's stamps d <= D summed, is R, the class's whole sum, below D + e0,
    and a partial sum P_D over D's own columns [D + e0, D + e0 + width).
    A run of panels from d_a to d_b adds C_(d_b) - C_(d_a - stride): R on
    [d_a - stride + e0, d_b + e0), plus P_(d_b), minus P_(d_a - stride).
    """
    k = len(vals) - 1
    d = (body_slots - tm.n_own) // _N_GL_SMALL  # d + n - 1
    e = first - (rep_row + d - (n - 1))  # columns from the panel's grid point
    e0 = min(int(e.min(initial=0)), 0)  # <= 0 keeps every row's window start below in range
    width = int(e.max(initial=-1)) - e0 + k + 1
    at = (d * width + e - e0) + np.arange(k + 1)[:, None]
    stamp = np.bincount(at.ravel(), (kw * vals).ravel(), minlength=(2 * n - 1) * width).reshape(2 * n - 1, width)
    partial = stamp.copy()
    for lag in range(_BODY_STRIDE, width, _BODY_STRIDE):  # stamps d - lag reach into d's columns
        partial[lag:, : width - lag] += stamp[:-lag, lag:]
    # R per class, at v - (1 - n + e0), padded so that every row's ncol
    # columns, from n - 1 - e0 - i on, are in range
    length = max(2 * n - 1 + width, n - e0 + ncol)
    class_of = (n - 1 - np.arange(2 * n - 1)) % _BODY_STRIDE
    where = (class_of * length + np.arange(2 * n - 1))[:, None] + np.arange(width)
    total = np.bincount(where.ravel(), stamp.ravel(), minlength=_BODY_STRIDE * length).reshape(_BODY_STRIDE, length)
    rows = np.arange(n)
    windows = np.lib.stride_tricks.sliding_window_view(total, ncol, axis=1)
    coef = windows[rows % _BODY_STRIDE, n - 1 - e0 - rows]
    r, m_a, m_b = tm.runs  # rows, in order, and their runs' first and last panels
    runs = np.bincount(r, minlength=n)
    j = np.arange(len(r)) - (np.cumsum(runs) - runs)[r]  # the run's place in its row
    bounds = np.zeros((2, runs.max(initial=0), n, 1), dtype=int)  # where R holds, per row and run
    bounds[0, j, r, 0] = (m_a - 1) * _BODY_STRIDE + e0
    bounds[1, j, r, 0] = m_b * _BODY_STRIDE + e0
    columns = np.arange(ncol)
    inside = np.zeros((n, ncol), dtype=bool)
    for lo, hi in zip(*bounds):
        inside |= (columns >= lo) & (columns < hi)
    coef *= inside
    before = (m_a - 1) * _BODY_STRIDE - r + n - 1  # d_a - stride + n - 1
    cols = np.concatenate([m_b * _BODY_STRIDE, (m_a - 1) * _BODY_STRIDE])[:, None] + e0 + np.arange(width)
    adds = np.concatenate(
        [partial[m_b * _BODY_STRIDE - r + n - 1], -partial[np.maximum(before, 0)] * (before >= 0)[:, None]]
    )
    rr = np.broadcast_to(np.concatenate([r, r])[:, None], cols.shape)
    keep = (cols >= 0) & (cols < ncol)
    np.add.at(coef, (rr[keep], cols[keep]), adds[keep])
    return coef


def _stamp_row(e, kw, vals):
    """(stamp, e0): sum of kw[s] vals[:, s] placed at columns e[s] + o, as
    a dense row from column e0."""
    e0 = int(e.min())
    at = (e - e0) + np.arange(len(vals))[:, None]
    return np.bincount(at.ravel(), (kw * vals).ravel(), minlength=int(e.max()) - e0 + len(vals)), e0


def _pole_sum(grid: Grid, rules: _Rules) -> np.ndarray:
    """sub_i = sum of w/(x_i - t) over row i's rule: the pole's integral as
    the plan's quadrature sees it.

    Summed a block of rows at a time, each row in the order of its rule, so
    no array spans every (row, node) pair; sub depends on the rule alone,
    whatever the plan's kernels.
    """
    n, x = grid.n, grid.points
    nodes, starts, lengths = rules.layout()
    weights = rules.weights()
    ends = np.concatenate([[0], np.cumsum(lengths.sum(axis=1))])  # row i's pairs end at ends[i + 1]
    sub = np.empty(n)
    r0 = 0
    while r0 < n:
        r1 = min(max(int(np.searchsorted(ends, ends[r0] + _ASSEMBLY_PAIRS, side="right")) - 1, r0 + 1), n)
        node_id, offsets = _unroll(starts[r0:r1], lengths[r0:r1])
        terms = weights[node_id] / (np.repeat(x[r0:r1], np.diff(offsets)) - nodes[node_id])
        sub[r0:r1] = _segmented_sum(terms, offsets)
        r0 = r1
    return sub


def build_pv_plan(
    grid: Grid,
    kernel_lower: Callable[[np.ndarray, np.ndarray], np.ndarray],
    kernel_upper: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rho: float = 1.0 / np.pi,
) -> PVPlan:
    """Plan for PV kernel pairs with residue rho at the diagonal.

    K_lower acts on t < x, K_upper on t > x; both behave like
    rho/(x - t) as t -> x (same one-sided residue).  The kernels are
    evaluated and assembled as in every plan (_plan_matrix), and the rule,
    and so t_all, offsets, sub and log_term, is the same either way.
    """
    b = grid.hull[1]
    rules = _Rules(grid.n)
    _pv_rules(rules, grid.points)
    sub = _pole_sum(grid, rules)
    matrix, correction = _plan_matrix(grid, rules, (kernel_lower, kernel_upper), pole=True)
    log_term = np.log(grid.points / np.maximum(b - grid.points, 1e-300))
    # at the top hull point B - x = 0: the upper side is empty and the
    # subtraction degenerates; the lower-side-only value keeps ln(x/delta)
    top = grid.points >= b * (1.0 - 1e-12)
    if np.any(top):
        log_term[top] = np.log(grid.points[top] / (_PV_DELTA * grid.points[top]))
    first, vals = basis_rows(*spline_knots(grid), grid.coord(grid.points))  # row i of A
    matrix[np.arange(grid.n), first + np.arange(len(vals))[:, None]] -= (rho * (sub - log_term) - correction) * vals
    return PVPlan(grid, rules.layout(), matrix, sub, log_term, rho)


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
