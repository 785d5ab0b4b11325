"""Grids on (0, inf), weighted L2 norms, and singularity-tolerant quadrature.

Grids are log- or linearly-spaced with end-corrected trapezoidal weights
(Euler-Maclaurin corrections through h^6, giving ~8th order on smooth
integrands).  Sampled functions carry a head model that continues them
below the grid hull and a decay hint used for norm tail estimates.
quad_singular handles endpoint power singularities (Gauss-Jacobi rules,
gauss_jacobi) and interior principal values (symmetric excision with
epsilon-ladder extrapolation).

The package's one interpolating spline lives here: its knots
(spline_knots), its B-spline basis rows at any points (basis_rows) and the
banded solve against its collocation matrix (collocation_solve; each grid
keeps a block LU of that matrix, and the operator plans built on it).  The
LU takes no pivots: a B-spline collocation matrix is totally positive (de
Boor & Pinkus 1977, Numer. Math. 27:485), so Gaussian elimination without
pivoting is stable on it.  Each sampled function is solved for its
coefficients once (spline_coefficients).  The plans and the spectral
transforms fold basis rows into matrices on them and six columns on the
head model (operand_vector); a sampled function evaluates the spline off
the grid by Horner's rule from its Taylor terms at each knot interval's
left end (taylor_terms).
"""

from __future__ import annotations

import functools
import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Optional

import numpy as np

__all__ = [
    "Grid",
    "SampledFunction",
    "WeightedNorm",
    "DecayHint",
    "EndpointPower",
    "PVInterior",
    "GridError",
    "NonIntegrableSingularityError",
    "PVConvergenceError",
    "DivergentTailError",
    "TailWarning",
    "make_grid",
    "quad_singular",
    "integrate_smooth",
    "norm_weighted",
    "norm_l2",
    "norm_half_line",
    "head_model",
    "head_basis",
    "eval_extended",
    "deriv_extended",
    "edge_fit",
    "EDGE_BLOCK",
    "read_csv",
    "write_csv",
]

DEFAULT_GRID_N = 512
_LU_BLOCK = 64  # least rows per block of the collocation LU (_block_lu)
DEFAULT_GRID_RANGE = (1e-4, 1e2)


class GridError(ValueError):
    pass


class NonIntegrableSingularityError(ValueError):
    pass


class PVConvergenceError(RuntimeError):
    pass


class DivergentTailError(ValueError):
    pass


class TailWarning(UserWarning):
    """Norm computed with a zero tail because no decay hint was available."""


# ----------------------------------------------------------------------
# end-corrected trapezoidal weights on a uniform mesh
# ----------------------------------------------------------------------


def _fd_weights(x0: float, nodes: np.ndarray, m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at x0 from the given nodes."""
    n = len(nodes)
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, nodes[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5 = 1.0, c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@functools.cache
def _end_stencils() -> tuple:
    """(derivative order, coefficient, left stencil, reversed right stencil)
    of the end corrections; the stencils are on unit spacing, free of h."""
    stencil = np.arange(8, dtype=float)
    # integral = T - h^2/12 (f'_B - f'_A) + h^4/720 (f'''_B - f'''_A)
    #              - h^6/30240 (f^(5)_B - f^(5)_A)
    return tuple(
        (deriv, coef, _fd_weights(0.0, stencil, deriv), _fd_weights(0.0, -stencil, deriv)[::-1])
        for deriv, coef in ((1, 1.0 / 12.0), (3, -1.0 / 720.0), (5, 1.0 / 30240.0))
    )


def _uniform_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid + Euler-Maclaurin end corrections through the h^6 term."""
    if n < 16:
        raise GridError("need at least 16 points for end-corrected weights")
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    for deriv, coef, cl, cr in _end_stencils():
        w[:8] += coef * h ** (deriv + 1) * cl / h**deriv
        w[-8:] -= coef * h ** (deriv + 1) * cr / h**deriv
    return w


# ----------------------------------------------------------------------
# grids and sampled functions
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and weights; grids compare and hash by identity."""

    points: np.ndarray
    weights: np.ndarray
    spacing: Literal["log", "linear"]

    def __post_init__(self):
        p = self.points
        if np.any(p <= 0):
            raise GridError("grid points must be positive")
        if np.any(np.diff(p) <= 0):
            raise GridError("grid points must be strictly increasing")
        if len(p) != len(self.weights):
            raise GridError("points/weights length mismatch")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def hull(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    def coord(self, x):
        """The grid's natural coordinate (log x on log grids)."""
        return np.log(x) if self.spacing == "log" else np.asarray(x, dtype=float)

    @functools.cached_property
    def _collocation_lu(self) -> "_BlockLU":
        """The block LU of A, the collocation matrix of the grid's spline
        (row i: the basis at grid point i; see _block_lu and
        collocation_solve), computed once per grid."""
        knots, k = spline_knots(self)
        first, vals = basis_rows(knots, k, self.coord(self.points))
        return _block_lu(first, vals)

    @functools.cached_property
    def plans(self) -> dict:
        """The operator plans built on this grid, by key (see
        _engine.cached_plan): they live exactly as long as the grid."""
        return {}

    def interior_mask(self, fraction: float = 0.6) -> np.ndarray:
        """Mask selecting the central `fraction` of the hull in grid coordinate."""
        s = self.coord(self.points)
        lo = s[0] + (1.0 - fraction) / 2.0 * (s[-1] - s[0])
        hi = s[-1] - (1.0 - fraction) / 2.0 * (s[-1] - s[0])
        return (s >= lo) & (s <= hi)


def log_uniform(grid: Grid) -> bool:
    """Whether the grid's points are uniform in log x, to rounding."""
    if grid.spacing != "log":
        return False
    s = grid.coord(grid.points)
    h = (s[-1] - s[0]) / (grid.n - 1)
    return bool(np.max(np.abs(s - (s[0] + h * np.arange(grid.n)))) <= 1e-12 * h)


def points_digest(points: np.ndarray) -> str:
    """Cache-key part for a set of grid points: a digest of their values."""
    return hashlib.blake2b(np.ascontiguousarray(points, dtype=float).tobytes(), digest_size=16).hexdigest()


def grid_key(grid: Grid) -> tuple[str, str]:
    """Transform-cache key part for a grid: its spacing label and a digest
    of its points, so two grids with the same size and hull never share a
    matrix."""
    return grid.spacing, points_digest(grid.points)


def make_grid(
    n: int = DEFAULT_GRID_N,
    rng: tuple[float, float] = DEFAULT_GRID_RANGE,
    spacing: Literal["log", "linear"] = "log",
) -> Grid:
    a, b = rng
    if not (0 < a < b):
        raise GridError(f"invalid range ({a}, {b})")
    if n < 16:
        raise GridError("n must be >= 16")
    if spacing == "log":
        s = np.linspace(np.log(a), np.log(b), n)
        h = s[1] - s[0]
        pts = np.exp(s)
        w = _uniform_weights(n, h) * pts  # dx = x ds
    elif spacing == "linear":
        pts = np.linspace(a, b, n)
        w = _uniform_weights(n, pts[1] - pts[0])
    else:
        raise GridError(f"unknown spacing {spacing!r}")
    return Grid(points=pts, weights=w, spacing=spacing)


def spline_knots(grid: Grid) -> tuple[np.ndarray, int]:
    """(knots, degree) of the spline that interpolates samples on the grid:
    quintic (cubic below 8 points) in the grid coordinate, with not-a-knot
    ends, so its coefficients are the samples times a fixed matrix."""
    s = grid.coord(grid.points)
    k = 5 if grid.n >= 8 else 3
    half = (k + 1) // 2
    return np.concatenate([np.full(k + 1, s[0]), s[half:-half], np.full(k + 1, s[-1])]), k


def _basis_levels(knots: np.ndarray, k: int, s: np.ndarray):
    """Yields (first, vals) after each level j = 0, ..., k of de Boor's
    triangular recurrence at each s: vals, shape (j + 1, len(s)), are the
    B-splines of degree j on the knots that can be nonzero there, from
    index first on (the same index at every level, and the same rows as the
    degree j splines on knots[k - j : len(knots) - k + j]).  The levels
    share one buffer.  The recurrence is the one scipy's BSpline evaluates,
    so the rows are its design matrix's to the bit."""
    span = np.clip(np.searchsorted(knots, s, side="right") - 1, k, len(knots) - k - 2)
    first = span - k
    step = np.arange(1, k + 1)[:, None]
    left = s - knots[span + 1 - step]  # left[j - 1] = s - knots[span + 1 - j]
    right = knots[span + step] - s  # right[j - 1] = knots[span + j] - s
    vals = np.empty((k + 1, len(s)))
    vals[0] = 1.0
    yield first, vals[:1]
    temp = np.empty(len(s))
    for j in range(1, k + 1):
        width = knots[j:] - knots[:-j]  # width[i] = knots[i + j] - knots[i]
        saved = 0.0
        for r in range(j):  # row by row: each pass stays in cache on long s
            np.divide(vals[r], width.take(span + (r + 1 - j)), out=temp)
            np.multiply(right[r], temp, out=vals[r])
            vals[r] += saved
            saved = left[j - r - 1] * temp
        vals[j] = saved
        yield first, vals[: j + 1]


def basis_rows(knots: np.ndarray, k: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B-splines of degree k on the knots at each s: the index of the first
    of the k + 1 that can be nonzero there, and their values, shape
    (k + 1, len(s))."""
    *_, last = _basis_levels(knots, k, s)
    return last


class _BlockLU(NamedTuple):
    """A block LU of a banded n x n matrix A (_block_lu).  The J blocks are
    stacked, each padded with zeros to the largest one's m rows."""

    cols: np.ndarray  # (k + 1, n): A's row i holds vals[:, i] in columns cols[:, i]
    vals: np.ndarray
    slots: np.ndarray  # (n,): the rows of A in the stacked blocks, flattened
    w: int  # the band's half-width
    inverses: np.ndarray  # (J, m, m): inv(U_j)
    lower: np.ndarray  # (J - 1, w, m): the first w rows of L_j, from j = 1
    spill: np.ndarray  # (J - 1, m, w): inv(U_j) F_j on the first w unknowns of block j + 1
    forward: np.ndarray  # (J w, J w): L's coupling of the blocks' first w unknowns, inverted
    backward: np.ndarray  # (J w, J w): U's coupling of the blocks' first w unknowns, inverted


def _block_lu(first: np.ndarray, vals: np.ndarray) -> _BlockLU:
    """Block LU without pivoting of the banded n x n matrix A whose row i
    holds vals[:, i] from column first[i] on.

    The rows split into J blocks of _LU_BLOCK to 2 _LU_BLOCK - 1 (one block
    below 2 _LU_BLOCK), and A into block rows D_j (diagonal), E_j (left of
    it) and F_j (right of it); with w the band's half-width, E_j and F_j are
    zero outside a w x w corner.  Then A = L U, with L unit lower
    bidiagonal in blocks (below the diagonal L_j = E_j inv(U_(j-1)), zero
    outside its first w rows) and U upper bidiagonal in blocks (the pivot
    blocks U_j = D_j - L_j F_(j-1), which differ from D_j in their top-left
    w x w corner only, and F_j above them).  In a solve with L, and then
    with U, the blocks couple only through their first w unknowns, by a
    block bidiagonal system in J blocks of w, whose inverse is kept.  No
    pivots are taken between blocks, which needs a totally positive A, as
    the B-spline collocation matrices are; a singular U_j raises GridError.
    """
    n = vals.shape[1]
    rows = np.broadcast_to(np.arange(n), vals.shape)
    cols = first + np.arange(len(vals))[:, None]
    w = int(np.max(np.abs(rows - cols)))
    edges = np.linspace(0, n, max(1, n // _LU_BLOCK) + 1).round().astype(int)
    sizes = np.diff(edges)
    nb, m = len(sizes), int(sizes.max())
    inverses, lower, corners = np.zeros((nb, m, m)), np.zeros((nb - 1, w, m)), np.zeros((nb, w, w))
    spill = np.zeros((nb - 1, m, w))
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        size = hi - lo
        strip = np.zeros((size, size + 2 * w))  # the block's rows, columns lo - w to hi + w
        strip[rows[:, lo:hi] - lo, cols[:, lo:hi] - lo + w] = vals[:, lo:hi]
        d = strip[:, w : size + w]
        if lo:
            prev = sizes[j - 1]
            lower[j - 1, :, :prev] = strip[:w, :w] @ inverses[j - 1, prev - w : prev, :prev]
            d[:w, :w] -= lower[j - 1, :, prev - w : prev] @ corners[j - 1]
            spill[j - 1] = inverses[j - 1, :, prev - w : prev] @ corners[j - 1]
        try:
            inverses[j, :size, :size] = np.linalg.inv(d)
        except np.linalg.LinAlgError:
            raise GridError("the grid's spline collocation matrix is singular") from None
        corners[j] = strip[size - w :, size + w :]
    forward, backward = np.zeros((nb, w, nb * w)), np.zeros((nb, w, nb * w))
    for j in range(nb):  # the inverse of u_j + L_j[:, :w] u_(j-1) = r_j (see collocation_solve)
        forward[j, :, j * w : (j + 1) * w] = np.eye(w)
        if j:
            forward[j] -= lower[j - 1, :, :w] @ forward[j - 1]
    for j in range(nb - 1, -1, -1):  # of s_j + spill_j[:w] s_(j+1) = p_j[:w]
        backward[j, :, j * w : (j + 1) * w] = np.eye(w)
        if j < nb - 1:
            backward[j] -= spill[j, :w] @ backward[j + 1]
    slots = np.arange(n) + np.repeat(np.arange(nb) * m - edges[:-1], sizes)
    return _BlockLU(cols, vals, slots, w, inverses, lower, spill, forward.reshape(nb * w, -1), backward.reshape(nb * w, -1))


def collocation_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """inv(A) @ rhs, A the collocation matrix of grid's spline: the
    spline's coefficients from the samples rhs (a vector, left alone),
    solved with the grid's block LU (_block_lu).

    A product with inv(U_j) sums terms of alternating sign, so it is
    accurate to a few units of roundoff in norm but not in each component.
    The coefficients need more, since the spline's derivatives difference
    them, and get one step of iterative refinement.  Against a solve
    refined with residuals in extended precision they are then within
    3.2e-16 to 1.4e-15 of max|c| on the test grids, as LAPACK's banded
    solve is, and within 9.5e-16 to 7.5e-15 without it.
    """
    lu = grid._collocation_lu
    w = lu.w

    def left(b):  # L y = b, then U c = y, on all blocks at once
        z = np.zeros(lu.inverses.shape[:2])
        z.reshape(-1)[lu.slots] = b
        # y_j is b_j but in its first w rows, u_j = r_j - L_j[:, :w] u_(j-1)
        # with r_j = b_j[:w] - L_j[:, w:] b_(j-1)[w:]: u = forward @ r
        r = z[:, :w].copy()
        r[1:] -= (lu.lower[:, :, w:] @ z[:-1, w:, None])[..., 0]
        z[:, :w] = (lu.forward @ r.ravel()).reshape(r.shape)
        # c_j = p_j - spill_j s_(j+1) with p_j = inv(U_j) y_j and s_j the
        # first w rows of c_j, s_j = p_j[:w] - spill_j[:w] s_(j+1): s = backward @ p[:, :w]
        p = (lu.inverses @ z[..., None])[..., 0]
        s = (lu.backward @ p[:, :w].ravel()).reshape(r.shape)
        p[:-1] -= (lu.spill @ s[1:, :, None])[..., 0]
        return p.reshape(-1)[lu.slots]

    c = left(rhs)
    return c + left(rhs - np.einsum("on,on->n", lu.vals, c[lu.cols]))


def taylor_terms(grid: Grid, coef: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """P[m, i] = (d/ds)^m f(ends[i]) / m!, m = 0, ..., k, for the spline f
    with coefficients coef on grid (spline_coefficients), at knots ends (in
    the grid coordinate s; at a knot the terms are those of the interval to
    its right).

    The m-th derivative is the B-spline of degree k - m whose coefficients
    come from the (m-1)-th's by differences (scipy's splder: diff(c) k / dt),
    evaluated as scipy's BSpline evaluates it: f, f' and f'' are its
    derivatives' to the bit.
    """
    knots, k = spline_knots(grid)
    coef = [coef]
    for m in range(1, k + 1):
        deg, t = k - m, knots[m : len(knots) - m]
        coef.append(np.diff(coef[-1]) * (deg + 1) / (t[deg + 1 :] - t[: -deg - 1]))
    table = np.empty((k + 1, len(ends)))
    for first, vals in _basis_levels(knots, k, ends):
        m = k + 1 - len(vals)
        acc = coef[m][first] * vals[0]
        for o in range(1, len(vals)):
            acc += coef[m][first + o] * vals[o]
        table[m] = acc / math.factorial(m)
    return table


@dataclass(frozen=True)
class DecayHint:
    kind: Literal["compact_support", "exponential", "power"]
    a: float = 0.0
    b: float = np.inf
    p: float = 0.0

    @staticmethod
    def compact(a: float, b: float) -> "DecayHint":
        return DecayHint(kind="compact_support", a=a, b=b)

    @staticmethod
    def exponential() -> "DecayHint":
        return DecayHint(kind="exponential")

    @staticmethod
    def power(p: float) -> "DecayHint":
        return DecayHint(kind="power", p=p)


class SampledFunction:
    """A function on (0, inf) represented by grid samples plus decay metadata."""

    def __init__(self, grid: Grid, values, decay_hint: Optional[DecayHint] = None):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.points.shape:
            raise GridError("values shape does not match grid")
        if not np.all(np.isfinite(values)):
            raise GridError("values must be finite")
        self.grid = grid
        self.values = values
        self.decay_hint = decay_hint
        self._coef = None  # the spline's coefficients, see spline_coefficients
        self._table = None  # the spline's Taylor table, see _taylor_table
        self._head = None  # head-model coefficients, see head_model

    @classmethod
    def from_callable(cls, fn: Callable, grid: Grid, decay_hint: Optional[DecayHint] = None):
        return cls(grid, np.asarray(fn(grid.points), dtype=float), decay_hint)

    def _taylor_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(ends, P): the left ends of the spline's knot intervals and its
        Taylor terms there (taylor_terms), so that on interval i the spline
        is sum_m P[m, i] (s - ends[i])^m in the grid coordinate s."""
        if self._table is None:
            ends = np.unique(spline_knots(self.grid)[0])[:-1]
            self._table = ends, taylor_terms(self.grid, spline_coefficients(self), ends)
        return self._table

    def _in_hull(self, x, deriv: bool) -> np.ndarray:
        """The spline (deriv: its derivative df/dx) at x, by Horner on the
        Taylor table; zero outside the grid hull."""
        x = np.asarray(x, dtype=float)
        a, b = self.grid.hull
        inside = (x >= a) & (x <= b)
        out = np.zeros_like(x, dtype=float)
        if np.any(inside):
            ends, table = self._taylor_table()
            xi = x[inside]
            s = self.grid.coord(xi)
            i = np.searchsorted(ends[1:], s, side="right")  # the interval, 0 to len(ends) - 1
            h = s - ends[i]
            p = table[:, i]
            if deriv:
                p = p[1:] * np.arange(1.0, len(p))[:, None]
            acc = p[-1]
            for c in p[-2::-1]:
                acc = acc * h + c
            out[inside] = acc / xi if deriv and self.grid.spacing == "log" else acc
        return out

    def __call__(self, x):
        """Interpolated values; zero outside the grid hull."""
        return self._in_hull(x, False)

    def deriv(self, x):
        """Interpolated first derivative df/dx; zero outside the hull."""
        return self._in_hull(x, True)

    _KEEP_HINT = object()

    def with_values(self, values, decay_hint=_KEEP_HINT) -> "SampledFunction":
        """New function on the same grid; omit decay_hint to inherit, pass
        None to clear it explicitly."""
        hint = self.decay_hint if decay_hint is SampledFunction._KEEP_HINT else decay_hint
        return SampledFunction(self.grid, values, hint)

    def __add__(self, other):
        self._check_same_grid(other)
        return SampledFunction(self.grid, self.values + other.values, self.decay_hint)

    def __sub__(self, other):
        self._check_same_grid(other)
        return SampledFunction(self.grid, self.values - other.values, self.decay_hint)

    def __mul__(self, c: float):
        return SampledFunction(self.grid, self.values * float(c), self.decay_hint)

    __rmul__ = __mul__

    def _check_same_grid(self, other):
        if other.grid is not self.grid and not np.array_equal(other.grid.points, self.grid.points):
            raise GridError("operands live on different grids")


def spline_coefficients(f: SampledFunction) -> np.ndarray:
    """f's spline coefficients (collocation_solve), solved once per function."""
    if f._coef is None:
        f._coef = collocation_solve(f.grid, f.values)
    return f._coef


# ----------------------------------------------------------------------
# head model: the operand below the grid hull
# ----------------------------------------------------------------------
#
# Below the grid hull (0, a) a sampled function is continued by one model,
#     f(t) = sum_k (c_k + d_k ln u) u^k,   u = t / a,   k = 0, 1, 2,
# stored as (c0, d0, c1, d1, c2, d2).  When the edge samples carry x^k ln x
# terms (images of integer-degree operators do) the d_k come from a fit of
# the log basis; otherwise d = 0 and the model is a quadratic fitted to the
# edge samples (functions of interest are smooth at 0 or vanish there).
# Above the hull a function is taken as zero (decaying operands).  The
# model is linear in its six coefficients (head_basis), so the plans and the
# spectral transforms act on them: their matrices take a function's spline
# coefficients followed by head_model(f) (operand_vector).
# mellin_numeric integrates the model in closed form.

_LOG_HEAD_SPAN = 30.0  # edge samples fitted by the logarithmic model: [a, 30a]
_LOG_HEAD_GAIN = 1e-3  # the log basis must fit them this much better than a cubic
_TAYLOR_FIT_SPAN = 1.5  # edge samples fitted by the quadratic model: [a, 1.5a]
_TAYLOR_FIT_MIN = 8  # fewer samples there (coarse or linear grids): spline derivatives at a


def _log_head(f: SampledFunction) -> Optional[np.ndarray]:
    """The head model's coefficients fitted on the samples in [a, 30a], or
    None.  Used only when the log basis fits the edge samples at least 1000
    times better than a cubic of the same span: no Taylor model at the hull
    edge can follow a logarithm, and on operands that are smooth at the
    origin the quadratic model stays in charge."""
    x = f.grid.points
    k = int(np.searchsorted(x, _LOG_HEAD_SPAN * x[0]))
    y = f.values[:k]
    scale = float(np.max(np.abs(y))) if k else 0.0
    if k < 12 or scale == 0.0:
        return None
    u = x[:k] / x[0]
    lu = np.log(u)
    poly = np.stack([np.ones_like(u), u, u * u, u**3], axis=1)
    logb = np.stack([np.ones_like(u), lu, u, u * lu, u * u, u * u * lu], axis=1)
    res, coefs = [], []
    for basis in (poly, logb):
        c, *_ = np.linalg.lstsq(basis, y, rcond=None)
        coefs.append(c)
        res.append(float(np.max(np.abs(basis @ c - y))) / scale)
    return coefs[1] if res[0] > 1e-10 and res[1] < _LOG_HEAD_GAIN * res[0] else None


def _taylor_head(f: SampledFunction) -> np.ndarray:
    """The head model's coefficients (d = 0) for f, f', f'' at the hull edge a.

    These come from a least-squares quadratic in t over the samples in
    [a, 1.5a], a span no longer than the extrapolation distance a: a fit,
    rather than the spline's derivatives at a, keeps an inaccurate edge
    sample (grid differences are one-sided there) from being extrapolated
    across (0, a) with a 1/h^2 gain.  Grids with fewer than _TAYLOR_FIT_MIN
    samples in that span use the spline's derivatives.
    """
    x = f.grid.points
    a = x[0]
    k = int(np.searchsorted(x, _TAYLOR_FIT_SPAN * a, side="right"))
    if k >= _TAYLOR_FIT_MIN:
        dt = x[:k] - a
        c, *_ = np.linalg.lstsq(np.stack([np.ones_like(dt), dt, dt * dt], axis=1), f.values[:k], rcond=None)
        v0, fp, fpp = c[0], c[1], 2.0 * c[2]
    else:
        v0, d1, half_d2 = taylor_terms(f.grid, spline_coefficients(f), f.grid.coord(x[:1]))[:3, 0]  # the table's first column
        d2 = 2.0 * half_d2
        fp, fpp = (d1 / a, (d2 - d1) / (a * a)) if f.grid.spacing == "log" else (d1, d2)
    # v0 + fp (t - a) + fpp (t - a)^2 / 2 in powers of u = t / a
    return np.array([v0 - fp * a + 0.5 * fpp * a * a, 0.0, (fp - fpp * a) * a, 0.0, 0.5 * fpp * a * a, 0.0])


def head_model(f: SampledFunction) -> np.ndarray:
    """(c0, d0, c1, d1, c2, d2) of f's head model: the logarithmic fit where
    it applies, else the quadratic one (d = 0).  Cached on the function."""
    if f._head is None:
        fit = _log_head(f)
        f._head = _taylor_head(f) if fit is None else fit
    return f._head


def operand_vector(f: SampledFunction) -> np.ndarray:
    """[spline_coefficients(f) | head_model(f)]: what the plans' and the
    spectral transforms' n x (n + 6) matrices act on."""
    return np.concatenate([spline_coefficients(f), head_model(f)])


def head_basis(t, a: float, deriv: bool = False) -> np.ndarray:
    """Rows B, one per point t below the hull edge a, with f(t) = B @
    head_model(f) (f'(t) with deriv, for t > 0): the columns are 1, ln u,
    u, u ln u, u^2, u^2 ln u at u = t / a (their derivatives in t), and
    u^k ln u is taken as 0 at u = 0."""
    u = np.asarray(t, dtype=float) / a
    lu = np.log(u, out=np.zeros_like(u), where=u > 0.0)
    if deriv:
        cols = (np.zeros_like(u), 1.0 / u, np.ones_like(u), lu + 1.0, 2.0 * u, u * (2.0 * lu + 1.0))
        return np.stack(cols, axis=-1) / a
    return np.stack((np.ones_like(u), lu, u, u * lu, u * u, u * u * lu), axis=-1)


def _extended(f: SampledFunction, t: np.ndarray, deriv: bool) -> np.ndarray:
    a = f.grid.hull[0]
    out = f.deriv(t) if deriv else f(t)
    below = t < a
    if np.any(below):
        out[below] = head_basis(t[below], a, deriv) @ head_model(f)
    return out


def eval_extended(f: SampledFunction, t: np.ndarray) -> np.ndarray:
    """f at arbitrary nodes: spline inside the hull, head model below, 0 above."""
    return _extended(f, t, False)


def deriv_extended(f: SampledFunction, t: np.ndarray) -> np.ndarray:
    """f' at arbitrary nodes t > 0: spline inside the hull, head model below,
    0 above."""
    return _extended(f, t, True)


@dataclass(frozen=True)
class WeightedNorm:
    """The power-weighted L2 norm: ||f||^2 = int_0^inf |f|^2 x^(2k+1) dx."""

    k: float = -0.5


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

@functools.cache
def gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi rule for the weight (1 - x)^alpha (1 + x)^beta
    on (-1, 1), alpha, beta > -1 (Gauss-Legendre at alpha = beta = 0):
    nodes ascending and weights, both read-only.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969,
    Math. Comp. 23:221), refined by two Newton steps on P_n^(alpha, beta);
    the weights are proportional to 1 / ((1 - x^2) P_n'(x)^2) at the nodes,
    scaled to sum to the weight's integral.
    """
    a, b = alpha, beta
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off2 = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    if n > 1:  # at k = 1 the factor k + a + b cancels against s - 1
        off2[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off2), -1))  # reads the lower triangle
    for _ in range(2):
        p, dp = _jacobi_p_and_deriv(n, a, b, x)
        x = x - p / dp
    _, dp = _jacobi_p_and_deriv(n, a, b, x)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    w *= mu0 / np.sum(w)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _jacobi_p_and_deriv(n: int, a: float, b: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n^(a, b)(x) and its derivative, by the three-term recurrence (DLMF
    18.9.2) and DLMF 18.9.16."""
    prev, p = np.ones_like(x), 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for m in range(2, n + 1):
        s = 2.0 * m + a + b
        c = 2.0 * m * (m + a + b) * (s - 2.0)
        prev, p = p, ((s - 1.0) * (s * (s - 2.0) * x + a * a - b * b) * p - 2.0 * (m + a - 1.0) * (m + b - 1.0) * s * prev) / c
    s = 2.0 * n + a + b
    dp = (n * (a - b - s * x) * p + 2.0 * (n + a) * (n + b) * prev) / (s * (1.0 - x) * (1.0 + x))
    return p, dp


def _gl_panels(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, one row per panel [lo_j, hi_j]."""
    x0, w0 = gauss_jacobi(n, 0.0, 0.0)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return mid + half * x0[None, :], half * w0[None, :]


def _jacobi(n: int, alpha: float, beta: float):
    return gauss_jacobi(n, round(alpha, 14), round(beta, 14))


def geometric_breakpoints(a: float, b: float, ratio: float = 3.0, min_panels: int = 2) -> np.ndarray:
    """Breakpoints with bounded panel-length ratio from a toward b (a > 0)."""
    if a <= 0:
        raise GridError("geometric breakpoints require a > 0")
    n = max(min_panels, int(np.ceil(np.log(b / a) / np.log(ratio))))
    return np.geomspace(a, b, n + 1)


def integrate_smooth(f: Callable, a: float, b: float, *, n: int = 24, ratio: float = 3.0) -> float:
    """Panel Gauss-Legendre with geometric panels when (a, b) spans decades."""
    if b <= a:
        return 0.0
    if a > 0 and b / a > ratio:
        edges = geometric_breakpoints(a, b, ratio)
    else:
        edges = np.linspace(a, b, 5)
    xs, ws = _gl_panels(edges[:-1], edges[1:], n)
    return float(np.sum(f(xs.ravel()).reshape(xs.shape) * ws))


@dataclass(frozen=True)
class EndpointPower:
    """Integrand behaves like (x - at)^alpha near an endpoint of the interval."""

    alpha: float
    at: float


@dataclass(frozen=True)
class PVInterior:
    """Simple-pole singularity at an interior point; principal-value integral."""

    at: float


def _cluster_panels(f: Callable, a: float, b: float, cluster: str, scale: float, n: int = 20) -> float:
    """GL panels grading geometrically toward one endpoint.

    `scale` is the distance from the clustered endpoint to the actual
    singularity; panels shrink until they are comparable to it, so the
    integrand varies by a bounded factor on each panel.
    """
    if b <= a:
        return 0.0
    length = b - a
    dists = [length]
    d = length
    while d > 0.5 * scale:
        d *= 0.5
        dists.append(d)
    dists.append(0.0)
    offs = np.unique(np.asarray(dists))
    pts = (b - offs[::-1]) if cluster == "right" else (a + offs)
    xs, ws = _gl_panels(pts[:-1], pts[1:], n)
    return float(np.sum(f(xs.ravel()).reshape(xs.shape) * ws))


def quad_singular(f: Callable, interval: tuple[float, float], singularity=None, *, n: int = 96) -> float:
    """Integrate f over (a, b) with declared singularity handling.

    singularity is None, an EndpointPower(alpha, at) with at equal to one of
    the endpoints, or a PVInterior(at) for a simple pole inside (a, b).
    """
    a, b = float(interval[0]), float(interval[1])
    if singularity is None:
        return integrate_smooth(f, a, b)

    if isinstance(singularity, EndpointPower):
        alpha, at = singularity.alpha, singularity.at
        if alpha <= -1.0:
            raise NonIntegrableSingularityError(f"endpoint power {alpha} <= -1 is not integrable")
        if not (np.isclose(at, a) or np.isclose(at, b)):
            raise GridError("EndpointPower.at must be an interval endpoint")
        # split: Gauss-Jacobi panel near the singular end, smooth panels beyond
        split = a + 0.5 * (b - a)
        if np.isclose(at, a):
            xs, ws = _jacobi(n, 0.0, alpha)
            half = 0.5 * (split - a)
            x = a + half * (xs + 1.0)
            g = f(x) * (x - a) ** (-alpha)
            near = float(np.sum(ws * g)) * half ** (alpha + 1.0)
            far = integrate_smooth(f, split, b)
        else:
            xs, ws = _jacobi(n, alpha, 0.0)
            half = 0.5 * (b - split)
            x = split + half * (xs + 1.0)
            g = f(x) * (b - x) ** (-alpha)
            near = float(np.sum(ws * g)) * half ** (alpha + 1.0)
            far = integrate_smooth(f, a, split)
        return near + far

    if isinstance(singularity, PVInterior):
        c = singularity.at
        if not (a < c < b):
            raise GridError("PVInterior.at must lie inside the interval")
        eps0 = min(c - a, b - c) / 8.0
        ladder = eps0 * 2.0 ** (-np.arange(7, dtype=float))
        vals = np.empty_like(ladder)
        for j, eps in enumerate(ladder):
            left = _cluster_panels(f, a, c - eps, cluster="right", scale=eps)
            right = _cluster_panels(f, c + eps, b, cluster="left", scale=eps)
            vals[j] = left + right
        # I(eps) = I + c1 eps + c3 eps^3 + c5 eps^5 for a simple pole
        design = np.vander(ladder, 4, increasing=True)[:, [0, 1, 3]]
        design = np.column_stack([design, ladder**5])
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        resid = np.max(np.abs(design @ coef - vals))
        scale = max(1.0, np.max(np.abs(vals)))
        if resid > 1e-6 * scale:
            raise PVConvergenceError(f"PV ladder extrapolation residual {resid:.2e}")
        return float(coef[0])

    raise GridError(f"unknown singularity descriptor {singularity!r}")


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------


def _decay_rate(f: SampledFunction) -> Optional[float]:
    """The exponential decay rate of f's samples on the top half of the
    hull, from a line fitted to ln|f|; None where fewer than three of those
    samples are nonzero."""
    pts, vals = f.grid.points, np.abs(f.values)
    mask = (pts > 0.5 * f.grid.hull[1]) & (vals > 1e-140)
    if np.count_nonzero(mask) < 3:
        return None
    return -np.polyfit(pts[mask], np.log(vals[mask]), 1)[0]


def _tail_estimate(f: SampledFunction, k: float) -> float:
    """Integral of |f|^2 x^(2k+1) beyond the hull, from the decay hint."""
    hint = f.decay_hint
    a, b = f.grid.hull
    if hint is None:
        warnings.warn("no decay hint: norm computed with zero tail", TailWarning, stacklevel=3)
        return 0.0
    if hint.kind == "compact_support":
        return 0.0
    fb = abs(float(f.values[-1]))
    if fb < 1e-140:
        return 0.0
    if hint.kind == "exponential":
        lam = _decay_rate(f)
        if lam is None:
            return 0.0
        if lam <= 0:
            raise DivergentTailError("exponential hint but samples do not decay")
        return fb**2 * b ** (2 * k + 1) / (2.0 * lam)
    if hint.kind == "power":
        p = hint.p
        expo = 2 * k + 2 - 2 * p
        if expo >= 0:
            raise DivergentTailError(f"power decay p={p} gives a divergent weighted tail")
        c = fb * b**p
        return c**2 * b**expo / (-expo)
    raise GridError(f"unknown decay hint {hint!r}")


def norm_weighted(f: SampledFunction, w: WeightedNorm = WeightedNorm()) -> float:
    """sqrt(int |f|^2 x^(2k+1) dx) over the hull plus a hint-driven tail."""
    x = f.grid.points
    core = float(np.sum(f.grid.weights * f.values**2 * x ** (2 * w.k + 1)))
    return float(np.sqrt(core + _tail_estimate(f, w.k)))


EDGE_BLOCK = 8  # samples per edge fit
_EDGE_CLEAN = 1e-3  # largest deviation, relative to the block's largest sample, a fit may leave
_EDGE_NEGLIGIBLE = 1e-14  # edge mass, relative to the total, that needs no completion


def edge_fit(xs: np.ndarray, vs: np.ndarray, log_ok: bool = False):
    """(kind, c, p) of the model that a block of samples at a hull end
    follows, or None when none follows it to _EDGE_CLEAN: the one fit by
    which every integral is completed beyond the grid.

    The block (EDGE_BLOCK samples) is given from its outer end inward.
    kind "power": v = c x^p through the outer sample and the sixth, so the
    exponent is the one at the outer end.  kind "log": v = c + p ln x
    through the same two, tried only when log_ok.  A model is accepted when
    every sample of the block lies within _EDGE_CLEAN of the block's
    largest; of two, the closer one.  An all-zero block is the zero
    function.
    """
    if not np.any(vs):
        return "power", 0.0, 0.0
    lx = np.log(xs)
    span = lx[5] - lx[0]
    fits = []
    if np.min(vs) * np.max(vs) > 0:
        p = np.log(vs[5] / vs[0]) / span
        dev = np.max(np.abs(vs[0] * np.exp(p * (lx - lx[0])) - vs))
        fits.append((dev, "power", vs[0] * np.exp(-p * lx[0]), p))
    if log_ok:
        p = (vs[5] - vs[0]) / span
        c = vs[0] - p * lx[0]
        fits.append((np.max(np.abs(c + p * lx - vs)), "log", c, p))
    if not fits:
        return None
    dev, kind, c, p = min(fits)
    return (kind, float(c), float(p)) if dev <= _EDGE_CLEAN * np.max(np.abs(vs)) else None


def norm_half_line(f: SampledFunction, mask: Optional[np.ndarray] = None) -> float:
    """sqrt(int_0^inf |f|^2 dx) from the samples, completed at both ends.

    Only the samples under `mask` (default: the whole hull) are trusted.
    From each end of that window inward, the first block of EDGE_BLOCK
    samples that edge_fit accepts is fitted: a power law c x^p at either
    end, or c + p ln x at the origin (images of integer-degree operators
    tend to that), whichever leaves the smaller deviation.  The models carry
    the integral from the blocks' outer samples out to 0 and to infinity;
    the samples between them are summed with end-corrected weights, so
    samples outside a fitted block (where the grid differences that made
    them may be inaccurate) are left out.  An end whose edge mass is
    negligible gets no completion.  Unlike norm_weighted, no decay hint is
    read: images keep mass outside any finite hull that no hint of the
    operand describes.
    """
    grid = f.grid
    idx = np.arange(grid.n) if mask is None else np.flatnonzero(mask)
    xw, vw = grid.points[idx], f.values[idx]
    step = float(np.diff(grid.coord(grid.points[:2]))[0])

    def weights(lo, hi):
        w = _uniform_weights(hi - lo, step)
        return w * xw[lo:hi] if grid.spacing == "log" else w

    def first_fit(outers, inward, log_ok):
        # the outer sample's index and fit of the first block edge_fit accepts
        for i in outers:
            block = slice(i, i + inward * EDGE_BLOCK, inward)
            fit = edge_fit(xw[block], vw[block], log_ok)
            if fit is not None:
                return i, fit
        raise ValueError("no block near a window end follows a completion model")

    m = len(xw)
    scale = float(np.sum(weights(0, m) * vw**2))
    lo, hi, head, tail = 0, m, 0.0, 0.0
    if vw[0] ** 2 * xw[0] > _EDGE_NEGLIGIBLE * scale:
        lo, (kind, c, p) = first_fit(range(0, m // 2 - EDGE_BLOCK), 1, True)
        x0 = xw[lo]
        if kind == "log":
            v0 = c + p * np.log(x0)
            head = x0 * (v0 * v0 - 2.0 * p * v0 + 2.0 * p * p)
        elif c != 0.0:
            if 2.0 * p + 1.0 <= 0.0:
                raise DivergentTailError("samples are not square integrable at the origin")
            head = c * c * x0 ** (2.0 * p + 1.0) / (2.0 * p + 1.0)
    if vw[-1] ** 2 * xw[-1] > _EDGE_NEGLIGIBLE * scale:
        top, (_, c, p) = first_fit(range(m - 1, m // 2 + EDGE_BLOCK - 1, -1), -1, False)
        hi = top + 1
        if c != 0.0:
            if 2.0 * p + 1.0 >= 0.0:
                raise DivergentTailError("samples are not square integrable at infinity")
            tail = -c * c * xw[top] ** (2.0 * p + 1.0) / (2.0 * p + 1.0)
    core = float(np.sum(weights(lo, hi) * vw[lo:hi] ** 2))
    return float(np.sqrt(core + head + tail))


def norm_l2(f: SampledFunction, interior: float = 1.0) -> float:
    """Plain L2(0, inf) hull norm; optionally restricted to the grid interior."""
    x = f.grid.points
    vals2 = f.values**2
    if interior < 1.0:
        mask = f.grid.interior_mask(interior)
        return float(np.sqrt(np.sum(f.grid.weights[mask] * vals2[mask])))
    return float(np.sqrt(np.sum(f.grid.weights * vals2)))


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------


def _irregular_weights(x: np.ndarray) -> np.ndarray:
    """Quadrature weights on strictly increasing nodes via local cubic interpolation."""
    n = len(x)
    w = np.zeros(n)
    for i in range(n - 1):
        j0 = min(max(i - 1, 0), n - 4)
        idx = np.arange(j0, j0 + 4)
        # integrate the Lagrange basis on [x_i, x_{i+1}] exactly
        v = np.vander(x[idx], 4, increasing=True)
        powers = np.arange(1, 5, dtype=float)
        moments = (x[i + 1] ** powers - x[i] ** powers) / powers
        w[idx] += np.linalg.solve(v.T, moments)
    return w


def read_csv(path) -> SampledFunction:
    """Read `x,value` rows (header optional) into a SampledFunction."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 2:
                raise GridError(f"{path}:{lineno}: expected two comma-separated columns")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise GridError(f"{path}:{lineno}: non-numeric row")
    if len(rows) < 16:
        raise GridError("need at least 16 samples")
    x = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    if np.any(np.diff(x) <= 0):
        raise GridError("x column must be strictly increasing")
    if np.any(x <= 0):
        raise GridError("x values must be positive")
    logs = np.diff(np.log(x))
    spacing = "log" if np.max(np.abs(logs - logs[0])) < 1e-8 * abs(logs[0]) else "linear"
    if spacing == "log":
        grid = Grid(points=x, weights=_uniform_weights(len(x), logs[0]) * x, spacing="log")
    else:
        grid = Grid(points=x, weights=_irregular_weights(x), spacing="linear")
    return SampledFunction(grid, v)


def write_csv(path, f: SampledFunction, header: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write("x,value\n")
        for x, v in zip(f.grid.points, f.values):
            fh.write(f"{x:.17g},{v:.17g}\n")
