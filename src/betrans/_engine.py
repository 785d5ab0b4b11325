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

The rule is a grid-interval lattice: every grid interval [x_m, x_(m+1)]
carries N_GAUSS Gauss points, and a row holds the whole intervals its
integral covers.  The intervals next to a row's own abscissa take its
special panels: Gauss-Jacobi on the interval that ends at the diagonal
when the endpoint power needs one, and in PV plans panels graded by
halving across each neighbouring interval down to _PV_DELTA x.  Below the
hull the head rule (_head_nodes) covers (0, a); rows with x <= 2a in lower
plans take one panel from the start instead.

Kernels homogeneous of degree d, K(x, t) = x^d K(1, t/x) (RatioKernel),
see the same rule from every row of a grid uniform in log x: a node of
interval m, seen from row i, sits at t/x_i fixed by m - i, and a row's
special panels scale with x_i.  So K(1, .) is evaluated once per offset
and node, at the nodes of one relative row x = 1 (about 2 n N_GAUSS
values), and a weight times kernel scales with x_i^(d + 1) from row to
row.  Clear of the spline's not-a-knot end intervals its basis functions
are translates of one cardinal quintic, so the plan's columns there are
Toeplitz, C[i, j] = x_i^(d + 1) c(i - j), with c one bincount of the
relative row's weights times kernel against the cardinal quintic
(_lattice_plan).  The end columns, the head columns, the rows whose rule
is not the relative row's cut to the grid and, in PV plans, the pole sums
are summed from the same values; only the head nodes (and the few panels
of such rows that are not on the lattice) are evaluated row by row.  Next
to a PV plan's pole, where a node's rounding sets its pole term, each row
sums its own panels' pole terms and takes their values to its own nodes'
poles, so that the plan is the pair-by-pair one to rounding.  Any other
kernel and any other grid take every pair on its own.

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
N_GAUSS = 6  # Gauss points per grid interval
N_GRADED = 8  # Gauss points per graded PV panel
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


def _needs_jacobi(alpha: Optional[float]) -> bool:
    """Endpoint powers that defeat plain Gauss panels: negative, or positive
    non-integer (Hoelder endpoints slow Gauss-Legendre to O(h^(1+alpha)))."""
    if alpha is None:
        return False
    return alpha < 0.0 or abs(alpha - round(alpha)) > 1e-9


class _Rules:
    """The quadrature rules of the rows `rows` (indices into the points
    pts) over one node table.

    The table opens with the Gauss points of every interval of pts,
    N_GAUSS per interval in interval order, shared by every row; the head
    nodes below pts[0] are shared too, and panels next to a row's own
    abscissa belong to that row.  Each call adds one (possibly empty)
    segment of one kind ("intervals", "head" or "owned") to every row, and
    a row's rule is its segments in call order.
    """

    def __init__(self, pts: np.ndarray, rows: np.ndarray):
        self.pts, self.rows = pts, rows
        t, w = _gl_panels(pts[:-1], pts[1:], N_GAUSS)
        self._t, self._w = [t.ravel()], [w.ravel()]
        self.size = t.size
        self._starts, self._lengths, self.kinds = [], [], []

    def _add(self, kind, t, w, starts, lengths):
        self._starts.append(np.broadcast_to(starts, len(self.rows)))
        self._lengths.append(np.broadcast_to(lengths, len(self.rows)))
        self._t.append(t.ravel())
        self._w.append(w.ravel())
        self.kinds.append(kind)
        self.size += t.size

    def intervals(self, lo, hi):
        """Row r holds the whole intervals lo[r] <= m < hi[r]."""
        lo = np.asarray(lo)
        self._add("intervals", np.zeros(0), np.zeros(0), lo * N_GAUSS, np.maximum(hi - lo, 0) * N_GAUSS)

    def head(self, held):
        """The head rule below pts[0] for the rows where held."""
        self._add("head", *_head_nodes(self.pts[0]), self.size, np.asarray(held) * N_GL_HEAD)

    def owned(self, t, w, count):
        """count[r] panels for row r, the rows of t, w in row order."""
        k = t.shape[1]
        count = np.asarray(count, dtype=int)
        self._add("owned", t, w, self.size + (np.cumsum(count) - count) * k, count * k)

    @staticmethod
    def _joined(parts: list) -> np.ndarray:
        """The parts as one array, joined once: the list keeps the result."""
        if len(parts) > 1:
            parts[:] = [np.concatenate(parts)]
        return parts[0]

    def layout(self):
        """(nodes, starts, lengths): the node table, and per row r and
        segment s the run starts[r, s]:starts[r, s] + lengths[r, s] of it
        that row r's rule holds there."""
        return self._joined(self._t), np.stack(self._starts, axis=1), np.stack(self._lengths, axis=1)

    def weights(self) -> np.ndarray:
        """The weight of every node, in node-table order."""
        return self._joined(self._w)

    def pairs(self):
        """(nodes, weights, node_id, offsets): row r's rule is nodes and
        weights at node_id[offsets[r]:offsets[r + 1]]."""
        nodes, starts, lengths = self.layout()
        return (nodes, self.weights(), *_unroll(starts, lengths))


def _unroll(starts, lengths):
    """(node_id, offsets) of a rule layout (_Rules.layout): row i's nodes
    are node_id[offsets[i]:offsets[i + 1]], its segments' runs in order."""
    nseg = starts.shape[1]
    starts, lengths = starts.ravel(), lengths.ravel()
    ends = np.cumsum(lengths)
    node_id = np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)
    return node_id, np.concatenate([[0], ends[nseg - 1 :: nseg]])


def _lower_rules(rules: _Rules, alpha, head: str = "taylor"):
    """Rules for int_0^(x_i); optional (x-t)^alpha endpoint factor at t = x_i.

    head="taylor" extends the integral over (0, hull_a) using the operand's
    head model; head="zero" omits it (for kernels singular at the origin,
    where operands must vanish below the hull anyway).  Limits up to 2a get
    one panel from the start; beyond, the head rule and the whole intervals
    below x_i, the last a Gauss-Jacobi panel when the endpoint power needs
    one.
    """
    pts, i = rules.pts, rules.rows
    a, x = pts[0], pts[i]
    singular = _needs_jacobi(alpha)
    lo = a if head == "zero" else 0.0
    near = (x <= 2.0 * a) & (x > lo)
    x_near, lo_near = x[near], np.full(np.count_nonzero(near), lo)
    rules.owned(*(_jacobi_panels(lo_near, x_near, alpha) if singular else _gl_panels(lo_near, x_near, N_GL_HEAD)), near)
    far = x > 2.0 * a
    if head != "zero":
        rules.head(far)
    rules.intervals(0, np.where(far, i - int(singular), 0))
    if singular:
        rules.owned(*_jacobi_panels(pts[i[far] - 1], x[far], alpha), far)


def _upper_rules(rules: _Rules, alpha):
    """Rules for int_(x_i)^b; optional (t-x)^alpha singularity at t = x_i:
    the whole intervals above x_i, the first a Gauss-Jacobi panel when the
    endpoint power needs one."""
    pts, i = rules.pts, rules.rows
    top = len(pts) - 1
    if _needs_jacobi(alpha):
        live = i < top
        rules.owned(*_jacobi_panels(pts[i[live] + 1], pts[i[live]], alpha, left_end=True), live)
        rules.intervals(i + 1, top)
    else:
        rules.intervals(i, top)


def _graded(x, span, side):
    """(t, w, count): per row, count panels of N_GRADED Gauss points graded
    by halving from x - span (side -1) or x + span (side +1) toward x,
    down to the innermost approach _PV_DELTA x."""
    delta = _PV_DELTA * x
    halvings = span[:, None] * 0.5 ** np.arange(64)
    count = np.count_nonzero(halvings > delta[:, None], axis=1)
    cols = np.arange(int(count.max(initial=0)) + 1)
    scales = np.where(cols < count[:, None], halvings[:, : len(cols)], delta[:, None])
    valid = cols[:-1] < count[:, None]
    outer, inner = x[:, None] + side * scales[:, :-1], x[:, None] + side * scales[:, 1:]
    lo, hi = (outer, inner) if side < 0 else (inner, outer)
    return (*_gl_panels(lo[valid], hi[valid], N_GRADED), count)


def _pv_rules(rules: _Rules):
    """Rules for the pole-subtracted PV integrals over (0, b).

    Whole intervals cover t < x_(i-1) and t > x_(i+1); the two intervals
    next to x_i take panels graded toward it (_graded), where the bracket
    integrand is bounded.  Row 0 grades over (a^2/x_1, a) and takes one
    panel from 0 below that.
    """
    pts, i = rules.pts, rules.rows
    top = len(pts) - 1
    x = pts[i]
    first = i == 0
    below = np.where(first, x * (1.0 - pts[0] / pts[1]), x - pts[np.maximum(i - 1, 0)])
    above = pts[np.minimum(i + 1, top)] - x
    rules.owned(*_gl_panels(np.zeros(np.count_nonzero(first)), (x - below)[first], N_GL_HEAD), first)
    rules.head(~first)
    rules.intervals(0, i - 1)
    t, w, count = _graded(x, below, -1.0)
    rules.owned(t, w, count)
    t, w, count = _graded(x, above, 1.0)
    rules.owned(t, w, count)
    rules.intervals(i + 1, top)


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


def _basis(grid: Grid, t, use_deriv: bool):
    """(first, vals, dk): the spline's basis rows at t inside the hull,
    vals[p, q] the basis function first[q] + p at t[q].  For use_deriv
    they are f''s: the degree k-1 rows on the inner knots, divided by t on
    log grids, which dk carries to the coefficients (_on_coefficients)."""
    knots, k = spline_knots(grid)
    if not use_deriv:
        return (*basis_rows(knots, k, grid.coord(t)), None)
    first, vals = basis_rows(knots[1:-1], k - 1, grid.coord(t))
    if grid.spacing == "log":
        vals /= t
    return first, vals, k / (knots[k + 1 : -1] - knots[1 : -k - 1])


def _on_coefficients(coef, dk):
    """Rows on the basis of _basis as rows on the spline's coefficients:
    for f' (dk given), the derivative's coefficients dk_i (c_(i+1) - c_i)."""
    if dk is None:
        return coef
    scaled = coef * dk
    out = np.zeros((len(coef), coef.shape[1] + 1))
    out[:, 1:] += scaled
    out[:, :-1] -= scaled
    return out


def _assemble(grid: Grid, nodes, node_id, offsets, kw, use_deriv: bool):
    """The len(offsets) - 1 rows, on numgrid.operand_vector, of the plan
    whose row r is sum kw[p] f(nodes[node_id[p]]) over p in
    offsets[r]:offsets[r + 1] (f' for use_deriv).

    Inside the hull f is the operand's interpolating spline: each node's
    basis row (_basis), weighted and summed per output row, gives the
    first n columns, on the spline's coefficients.  Below the hull f is its
    head model, linear in the model's six coefficients
    (numgrid.head_basis): the weights summed per row and node, times the
    basis rows at the nodes, give the last six.  Above the hull f is zero.
    """
    n_rows = len(offsets) - 1
    a, b = grid.hull
    used = np.zeros(len(nodes), dtype=bool)  # the basis rows of the nodes in use only
    used[node_id] = True
    nodes, node_id = nodes[used], (np.cumsum(used) - 1)[node_id]
    below = nodes < a
    inside = (nodes >= a) & (nodes <= b)
    first, vals, dk = _basis(grid, nodes[inside], use_deriv)
    ncol = grid.n - int(use_deriv)
    in_index = np.cumsum(inside) - 1
    head_index = np.cumsum(below) - 1
    coef = np.empty((n_rows, ncol))
    head_rows, head_cols, head_kw = [], [], []
    r0 = 0
    while r0 < n_rows:
        r1 = min(max(int(np.searchsorted(offsets, offsets[r0] + _ASSEMBLY_PAIRS, side="right")) - 1, r0 + 1), n_rows)
        block = slice(offsets[r0], offsets[r1])
        q, w = node_id[block], kw[block]
        row = np.repeat(np.arange(r1 - r0), np.diff(offsets[r0 : r1 + 1]))
        keep = inside[q]
        qi = in_index[q[keep]]
        cols = ((row[keep] * ncol + first[qi]) + np.arange(len(vals))[:, None]).ravel()
        terms = (np.take(vals, qi, axis=1) * w[keep]).ravel()
        coef[r0:r1] = np.bincount(cols, terms, minlength=(r1 - r0) * ncol).reshape(r1 - r0, ncol)
        low = below[q]
        head_rows.append(row[low] + r0)
        head_cols.append(head_index[q[low]])
        head_kw.append(w[low])
        r0 = r1
    # per row, the head nodes' weights times their head-basis rows
    head_rows, head_kw = np.concatenate(head_rows), np.concatenate(head_kw)
    basis = head_basis(nodes[below], a, use_deriv)[np.concatenate(head_cols)]
    head = np.stack([np.bincount(head_rows, head_kw * col, minlength=n_rows) for col in basis.T], axis=1)
    return np.hstack([_on_coefficients(coef, dk), head])


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
    grids uniform in log x the plan builders evaluate K(1, .) once per
    lattice node of the relative row (_lattice_plan); everywhere else
    K(x, t) is called like any kernel.
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

    def __call__(self, x, t):
        b = self.base(x, t)
        k = self.k(self.ratio(x, t))
        return k / b if self.degree == -1.0 else k * b**self.degree


_END = 8  # grid intervals at either end that reach the spline's not-a-knot basis functions


def _lattice(grid: Grid, kernels) -> bool:
    """Whether a plan of the kernels on the grid is built on the lattice
    (_lattice_plan): two RatioKernels of one degree and variable, on a
    quintic spline uniform in log x."""
    kl, ku = kernels
    return (
        isinstance(kl, RatioKernel)
        and isinstance(ku, RatioKernel)
        and kl.degree == ku.degree
        and kl.variable == ku.variable
        and grid.n >= 2 * _END
        and log_uniform(grid)
    )


def _cardinal_row(h: float, t, kw, use_deriv: bool, n: int) -> np.ndarray:
    """c, with c[i - j + n + 1] the cardinal column j's entry of a row that
    sums kw[q] f(t[q]) (f' for use_deriv) over nodes t given as ratios to
    its own abscissa x_i = 1.

    Node q at ln t = (o + tau) h reaches the basis functions j = i + o - 2
    + p, p = 0..5, which there are the cardinal quintic M at tau + 5 - p
    (its derivative M'(u) = M4(u) - M4(u - 1) over t h for f')."""
    sigma = np.log(t) / h
    o = np.floor(sigma)
    tau = sigma - o
    if use_deriv:
        _, d4 = basis_rows(np.arange(-4.0, 6.0), 4, tau)
        vals = np.zeros((6, len(t)))
        vals[1:] += d4
        vals[:-1] -= d4
        kw = kw / (t * h)
    else:
        _, vals = basis_rows(np.arange(-5.0, 7.0), 5, tau)
    at = (n + 3 - o).astype(int) - np.arange(6)[:, None]  # i - j + n + 1
    return np.bincount(at.ravel(), (vals * kw).ravel(), minlength=2 * n + 3)


def _lattice_plan(grid: Grid, rules: _Rules, geometry, kernels, use_deriv: bool, pole: bool):
    """(matrix, sub, own) of the rule geometry(rules) for RatioKernels of
    one degree d and variable on a grid uniform in log x (see the module
    docstring), sub the pole sums and own the own-pole terms (_pair_plan)
    when pole.

    The relative row is the same geometry at x = 1 on the points
    exp(h k), |k| < n: its intervals hold every offset m - i a row can
    see, and its weights times K(1, .) are every value the plan needs but
    the head's.  A row whose every segment is the relative row's cut to
    the grid (same runs of offsets, same count of own nodes) is a lattice
    row.  In every row the cardinal columns are x_i^(d + 1) c(i - j)
    (_cardinal_row; x_i^d for use_deriv), the end columns sum the Gauss
    points of the _END intervals at either end, and the head columns the
    head nodes.  The other rows, and those with own panels in the end
    intervals, are summed pair by pair (_assemble), with the relative
    row's values but at the own panels that are not its.  The kernels are
    called once, at the relative row's nodes, the head nodes of every row
    and those own panels.
    """
    n, x = grid.n, grid.points
    s = grid.coord(x)
    h = (s[-1] - s[0]) / (n - 1)
    scale = x ** (kernels[0].degree + 1.0)  # weight times kernel, from x = 1 to x_i
    rel = _Rules(np.exp(h * np.arange(1 - n, n)), np.array([n - 1]))
    geometry(rel)
    r_nodes, r_weights, r_id, _ = rel.pairs()
    r_id = r_id[r_nodes[r_id] >= rel.pts[0]]  # the head nodes are evaluated per row
    t_r = r_nodes[r_id]
    nodes, starts, lengths = rules.layout()
    weights = rules.weights()
    _, r_starts, r_lengths = rel.layout()
    i = np.arange(n)
    # per segment: the rows that match the relative row, and the shift
    # from a node's id to its relative node's
    lattice_row, own_held = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    shift, direct = np.zeros_like(starts), np.zeros(starts.shape, dtype=bool)
    for seg, kind in enumerate(rules.kinds):
        st, ln = starts[:, seg], lengths[:, seg]
        if kind == "intervals":
            lo, hi = st // N_GAUSS - i, (st + ln) // N_GAUSS - i
            g_lo, g_hi = (r_starts[0, seg] + np.array([0, r_lengths[0, seg]])) // N_GAUSS + 1 - n
            want_lo, want_hi = np.maximum(g_lo, -i), np.minimum(g_hi, n - 1 - i)
            lattice_row &= ((ln == 0) & (want_hi <= want_lo)) | ((lo == want_lo) & (hi == want_hi))
            shift[:, seg] = (n - 1 - i) * N_GAUSS
        elif kind == "owned":
            match = ln == r_lengths[0, seg]
            lattice_row &= match
            own_held |= match & (ln > 0)
            shift[:, seg] = r_starts[0, seg] - st
            direct[:, seg] = ~match
    # the other rows, and the rows with own panels in the end intervals
    # (intervals i - 1 and i), go pair by pair, without their head nodes
    edge = np.flatnonzero(~lattice_row | (own_held & ((i <= _END) | (i >= n - 2 - _END))))
    segs = [seg for seg, kind in enumerate(rules.kinds) if kind != "head"]
    run_lengths = lengths[edge][:, segs]
    node_id, offsets = _unroll(starts[edge][:, segs], run_lengths)
    on = ~np.repeat(direct[edge][:, segs].ravel(), run_lengths.ravel())
    row = np.repeat(edge, np.diff(offsets))
    held = np.any(lengths[:, [seg for seg, kind in enumerate(rules.kinds) if kind == "head"]] > 0, axis=1)
    head_t, w_h = _head_nodes(x[0])
    x_h, t_h = np.broadcast_arrays(x[held][:, None], head_t)
    # one call of each kernel, at every value the relative row cannot give
    x_k = np.concatenate([np.ones_like(t_r), x_h.ravel(), x[row[~on]]])
    t_k = np.concatenate([t_r, t_h.ravel(), nodes[node_id[~on]]])
    values = _sided(kernels, t_k < x_k, x_k, t_k)
    r_kw = np.zeros(rel.size)
    r_kw[r_id] = r_weights[r_id] * values[: len(t_r)]
    matrix = np.zeros((n, n + 6))
    c = _cardinal_row(h, t_r, r_kw[r_id], use_deriv, n)
    windows = np.lib.stride_tricks.sliding_window_view(c[::-1], n - 12)  # row i's from n + 7 - i
    np.multiply(windows[n + 7 - i], (scale / x if use_deriv else scale)[:, None], out=matrix[:, 6 : n - 6])
    for m, cols in ((np.arange(_END), slice(0, 6)), (np.arange(n - 1 - _END, n - 1), slice(n - 6, n))):
        q = (m[:, None] * N_GAUSS + np.arange(N_GAUSS)).ravel()
        first, vals, dk = _basis(grid, nodes[q], use_deriv)
        rows = np.zeros((len(q), n - int(use_deriv)))
        rows[np.arange(len(q)), first + np.arange(len(vals))[:, None]] = vals
        matrix[:, cols] = (r_kw[q + ((n - 1 - i) * N_GAUSS)[:, None]] * scale[:, None]) @ _on_coefficients(rows, dk)[:, cols]
    at = len(t_r) + x_h.size
    matrix[held, n:] = (w_h * values[len(t_r) : at].reshape(x_h.shape)) @ head_basis(head_t, x[0], use_deriv)
    if len(edge):
        kw = np.empty(len(node_id))
        rel_id = node_id[on] + np.repeat(shift[edge][:, segs].ravel(), run_lengths.ravel())[on]
        kw[on] = r_kw[rel_id] * scale[row[on]]
        kw[~on] = weights[node_id[~on]] * values[at:]
        block = _assemble(grid, nodes, node_id, offsets, kw, use_deriv)
        matrix[edge, :n] = block[:, :n]
        matrix[edge, n:] += block[:, n:]
    if not pole:
        return matrix, None, None
    # pole sums: the intervals' by prefix sums over offsets, the rest node
    # by node.  A row's own panels are formed next to x_i, not x = 1, and
    # their nodes and weights round apart from the relative row's by up to
    # 1e-9 of the innermost distance x_i - t: so each own node's pole term
    # is its own, and its weight times kernel its own weight times
    # k(r_T) pole(r)/pole(r_T) b^d, with r its own ratio and r_T the
    # relative row's, the value the pair path has where the pole sets k.
    # There f(t) is f(x_i) to within |x_i - t| f', so the difference from
    # the relative row's value joins the pole term as own.
    sub, own = np.zeros(n), np.zeros(n)
    sub[held] = np.sum(w_h / (x_h - t_h), axis=1)
    pole_rel = np.zeros(rel.size)
    pole_rel[r_id] = r_weights[r_id] / (1.0 - t_r)
    prefix = np.concatenate([[0.0], np.cumsum(pole_rel[: (2 * n - 2) * N_GAUSS].reshape(-1, N_GAUSS).sum(axis=1))])
    form = kernels[0]
    for seg, kind in enumerate(rules.kinds):
        st, ln = starts[:, seg], lengths[:, seg]
        if kind == "intervals":
            lo = st // N_GAUSS + n - 1 - i
            sub += prefix[lo + ln // N_GAUSS] - prefix[lo]
        elif kind == "owned":
            rows = np.flatnonzero(~direct[:, seg] & (ln > 0))
            q_rel = r_starts[0, seg] + np.arange(r_lengths[0, seg])
            q = st[rows, None] + np.arange(len(q_rel))
            x_o, t_o, w_o, t_rel = x[rows, None], nodes[q], weights[q], r_nodes[q_rel]
            sub[rows] += np.sum(w_o / (x_o - t_o), axis=1)
            # k(r_T)/(pole(r_T) b^d) per relative node, times each own node's pole(r) b^d
            residue = r_kw[q_rel] / (r_weights[q_rel] * form.pole(form.ratio(1.0, t_rel)) * form.base(1.0, t_rel) ** form.degree)
            w_o *= form.pole(form.ratio(x_o, t_o))
            w_o *= form.base(x_o, t_o) ** form.degree
            own[rows] += w_o @ residue - scale[rows] * r_kw[q_rel].sum()
    terms = np.zeros(len(node_id))
    terms[~on] = weights[node_id[~on]] / (x[row[~on]] - nodes[node_id[~on]])
    sub[edge] += _segmented_sum(terms, offsets)
    return matrix, sub, own


_PAIR_BLOCK = 1 << 16  # (row, node) pairs evaluated per block off the lattice


def _pair_plan(grid: Grid, rules: _Rules, kernels, use_deriv: bool, pole: bool):
    """(matrix, sub, own): the plan with every pair evaluated on its own,
    and when pole sub_i = sum of w/(x_i - t) over row i's rule, the pole's
    integral as the plan's quadrature sees it (whatever the kernels), and
    own_i = 0, the coefficient on f(x_i) that the lattice adds
    (_lattice_plan).  A block of rows at a time, each row in the order of
    its rule, so no array spans every (row, node) pair."""
    n, x = grid.n, grid.points
    nodes, starts, lengths = rules.layout()
    weights = rules.weights()
    ends = np.concatenate([[0], np.cumsum(lengths.sum(axis=1))])  # row i's pairs end at ends[i + 1]
    blocks, sub = [], np.empty(n)
    r0 = 0
    while r0 < n:
        r1 = min(max(int(np.searchsorted(ends, ends[r0] + _PAIR_BLOCK, side="right")) - 1, r0 + 1), n)
        node_id, offsets = _unroll(starts[r0:r1], lengths[r0:r1])
        x_b, t_b = np.repeat(x[r0:r1], np.diff(offsets)), nodes[node_id]
        blocks.append(_assemble(grid, nodes, node_id, offsets, weights[node_id] * _sided(kernels, t_b < x_b, x_b, t_b), use_deriv))
        if pole:
            sub[r0:r1] = _segmented_sum(weights[node_id] / (x_b - t_b), offsets)
        r0 = r1
    if not pole:
        return np.vstack(blocks), None, None
    return np.vstack(blocks), sub, np.zeros(n)


def _plan(grid: Grid, geometry, kernels, use_deriv=False, pole=False):
    """(rules, matrix, sub, own): the rule geometry(rules) on the grid's
    rows and the plan's matrix for the kernels (lower, upper), the first on
    t < x and the second on t > x, with the pole sums and the coefficients
    on f(x_i) to add when pole marks a PV plan.
    On the lattice (_lattice) the matrix comes from the relative row
    (_lattice_plan); otherwise every pair is evaluated on its own."""
    rules = _Rules(grid.points, np.arange(grid.n))
    geometry(rules)
    if _lattice(grid, kernels):
        return (rules, *_lattice_plan(grid, rules, geometry, kernels, use_deriv, pole))
    return (rules, *_pair_plan(grid, rules, kernels, use_deriv, pole))


def build_lower_plan(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
    use_deriv: bool = False,
    head: str = "taylor",
) -> KernelPlan:
    rules, matrix, _, _ = _plan(grid, lambda r: _lower_rules(r, alpha, head), (kernel, kernel), use_deriv)
    return KernelPlan(grid, rules.layout(), matrix)


def build_upper_plan(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
    use_deriv: bool = False,
) -> KernelPlan:
    rules, matrix, _, _ = _plan(grid, lambda r: _upper_rules(r, alpha), (kernel, kernel), use_deriv)
    return KernelPlan(grid, rules.layout(), matrix)


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


def build_pv_plan(
    grid: Grid,
    kernel_lower: Callable[[np.ndarray, np.ndarray], np.ndarray],
    kernel_upper: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rho: float = 1.0 / np.pi,
) -> PVPlan:
    """Plan for PV kernel pairs with residue rho at the diagonal.

    K_lower acts on t < x, K_upper on t > x; both behave like
    rho/(x - t) as t -> x (same one-sided residue).  The kernels are
    evaluated and assembled as in every plan (_plan), and the rule, and so
    t_all, offsets and log_term, is the same either way.
    """
    b = grid.hull[1]
    rules, matrix, sub, own = _plan(grid, _pv_rules, (kernel_lower, kernel_upper), pole=True)
    log_term = np.log(grid.points / np.maximum(b - grid.points, 1e-300))
    # at the top hull point B - x = 0: the upper side is empty and the
    # subtraction degenerates; the lower-side-only value keeps ln(x/delta)
    top = grid.points >= b * (1.0 - 1e-12)
    if np.any(top):
        log_term[top] = np.log(grid.points[top] / (_PV_DELTA * grid.points[top]))
    first, vals = basis_rows(*spline_knots(grid), grid.coord(grid.points))  # row i of A
    matrix[np.arange(grid.n), first + np.arange(len(vals))[:, None]] += (own - rho * (sub - log_term)) * vals
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
