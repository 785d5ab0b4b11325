"""Fourier sine/cosine and Hankel transforms, and the weighted third-kind
operators built by composing them.

A transform's quadrature is an end-corrected rule T on a uniform abscissa
y of 16384 points from 0 to min(hull top, 60), fine enough for the spectral
band.  Inside the operand's hull f(y) is its quintic spline, which is linear
in its coefficients, so T folds (as the engine's plans do) into one
n_out x n_in matrix on the coefficients: T B, B the spline's basis rows at
the abscissae inside the hull.  Below the hull (y = 0 on a log grid, 8
abscissae on the linear spectral grid) f is its head model, linear in the
model's six coefficients, so those columns H of T fold into six: H E, E
the head model's basis rows there (numgrid.head_basis).  One array
[T B | H E] is cached per kernel ("sin", "cos" or the Hankel order), output
points (their digest) and input grid (numgrid.grid_key): 8.4 MB for 2048
outputs over 512 samples, where the 16384-column rule took 268 MB, and
the fold writes straight into that array.
Applying a transform is one matrix-vector product with it, on the
operand's spline coefficients followed by its head model's coefficients
(numgrid.operand_vector), the layout of the engine's plans.

Below the switch point z0 = 25 a Hankel entry is w y^(2nu+1) G_nu(t y),
where G_nu(z) = z^-nu J_nu(z) is an entire function of x = z^2/2.  Each
matrix builds a Taylor table of G_nu on the nodes x_m = m/4 (8 terms past
the constant, from d^k G_nu/dx^k = (-1)^k G_(nu+k), DLMF 10.6.6, with
scipy's ``jv`` at the nodes), and an entry is one Horner evaluation from its
nearest node, so ``jv`` runs about 11k times per matrix.  At and above z0
the kernel is Hankel's large-argument expansion (DLMF 10.17.3):
sqrt(2/(pi z)) (P cos w - Q sin w), w = z - nu pi/2 - pi/4, with the
coefficients computed once per matrix and the series cut, band by band in
z, at the first term below 1e-17.  Degrees whose expansion terms grow
before they fall that low at z0 (|nu| above about 7) take ``jv`` there.
Below z0 the table is as close to J_nu as ``jv`` (both within 1.3e-14
against mpmath); up to z = 2500 the expansion is within 4e-15 of J_nu, the
rounding of w at large z.

Sine, cosine and, where nu + 1/2 is an integer, the Hankel kernel at
z >= z0 share one form, sqrt(2/pi) (y/t)^p sum_k a_k (t y)^-k
cos(t y - (m - k) pi/2): one term a_0 = 1 with p = 0 and m = 1 (sine) or
m = 0 (cosine), or the expansion's a_k with p = m = nu + 1/2, where it ends
after nu + 1/2 terms and is exact.  F_(-1/2) is the cosine transform
(t^1/2 y^1/2 J_(-1/2)(t y) = sqrt(2/pi) cos(t y), DLMF 10.16.1) and shares
its cached matrix.  One fold (_quarter_fold) takes that form in chunks
of 256 consecutive abscissae: y is uniform, so in a chunk starting at y0
cos(t (y0 + d) - n pi/2) = c cos(t d) - s sin(t d), with c and s the
cosine and sine of t y0 turned n quarter turns (exactly: no multiple of
pi/2 is subtracted) and the cos(t d) and sin(t d) tables built once per
matrix.  Term k's a_k sqrt(2/pi) y^(p-k) goes into the chunk's weighted
basis block and its t^-(p+k) onto the rows.  Consecutive chunks' blocks
stand side by side, up to 256 columns a group, so a group costs one
product with each table, a chunk two trig calls per row, and no entry a
trig call or power of its own.  Other Hankel rows are filled 32 at a
time, over at most 2048 abscissae a step, and each block is folded before
the next, so no array spans all rows and all 16384 abscissae; at
half-integer orders a block is filled only up to its first chunk where
every row has z >= z0, and the fold takes the rest.  ``_hankel_matrix`` is
that fill over all columns, the reference the kernel tests probe.  The
folded values match
the rule applied to the spline at every abscissa to about 2e-15 of the
largest output.

The quadrature starts at y = 0, so an operand whose head model carries ln y
is rejected.  The weighted third-kind operators S = F_{s|c}^{-1} (1/phi) F_nu
and P = F_nu^{-1} phi F_{s|c} act through a linear spectral grid.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from ..numgrid import (
    EDGE_BLOCK,
    Grid,
    GridError,
    SampledFunction,
    _gl_panels,
    _uniform_weights,
    basis_rows,
    edge_fit,
    grid_key,
    head_basis,
    head_model,
    make_grid,
    operand_vector,
    points_digest,
    spline_knots,
)
from ..specfun import rgamma
from ..specfun.bessel import jv
from .specs import OperatorSpec, OperatorSpecError, real_nu

__all__ = [
    "fourier_sine",
    "fourier_cosine",
    "hankel",
    "hankel_inverse",
    "default_spectral_grid",
    "weight_function",
    "apply_weighted_third",
    "WEIGHT_REGISTRY",
]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_NY = 16384  # internal quadrature abscissa count
_Y_CAP = 60.0  # integration cap; operands must have decayed by here
_ROW_BLOCK = 32  # Hankel kernel rows filled and folded per step
_CHUNK = 256  # abscissae per folded basis block
_COL_BLOCK = 2048  # matrix columns per step of the kernel table
_Z_SWITCH = 25.0  # J_nu by the kernel table below, by Hankel's expansion at and above
_SERIES_TOL = 1e-17  # Hankel's expansion is cut at the first term below this
_TABLE_STEP = 0.25  # node spacing of the z^-nu J_nu table in x = z^2/2
_TABLE_TERMS = 8  # Taylor terms past the constant at each node

_MATRIX_CACHE: dict = {}


@functools.cache
def default_spectral_grid(n: int = 2048, t_max: float = 60.0) -> Grid:
    """Linear grid on (t_max/n, t_max) used as the transform-side abscissa;
    one object per (n, t_max), so the LU factors of its spline's collocation
    matrix are computed once."""
    return make_grid(n, (t_max / n, t_max), "linear")


def _quad_top(f: SampledFunction) -> float:
    return min(f.grid.hull[1], _Y_CAP)


def _reject_log_head(f: SampledFunction) -> None:
    if np.any(head_model(f)[1::2]):
        raise GridError(
            "the operand has a logarithmic head (x^k ln x terms at the origin), "
            "which the transform's quadrature would evaluate at y = 0, where it diverges"
        )


def _quad_abscissa(f: SampledFunction):
    """The rule's abscissae y and weights w on f's grid (they depend on its
    hull only)."""
    y = np.linspace(0.0, _quad_top(f), _NY)
    return y, _uniform_weights(_NY, y[1] - y[0])


def _osc_tail_integral(p: float, a: np.ndarray, nquad: int = 96) -> np.ndarray:
    """int_a^inf u^(-p) e^(iu) du for a > 0, vectorized over a.

    Gauss-Legendre on (a, cut) plus an integration-by-parts asymptotic
    series beyond the cut keeps the oscillation resolved everywhere.
    """
    cut = 40.0
    out = np.zeros_like(a, dtype=complex)
    small = a < cut
    if np.any(small):
        lo = a[small]
        seg = np.zeros(np.count_nonzero(small), dtype=complex)
        # graded first panel handles the u^-p variation near small a
        for plo, phi_ in ((lo, np.minimum(4.0 * lo + 0.5, cut)), (np.minimum(4.0 * lo + 0.5, cut), np.full_like(lo, cut))):
            u, wq = _gl_panels(plo, phi_, nquad)
            seg += np.sum(u ** (-p) * np.exp(1j * u) * wq, axis=1)
        out[small] = seg
    start = np.where(small, cut, a)
    # repeated integration by parts:
    # int_s^inf u^-p e^(iu) du = e^(is) sum_k i (-i)^k (p)_k s^(-p-k)
    acc = np.zeros_like(a, dtype=complex)
    poch = 1.0
    for k in range(8):
        acc = acc + 1j * (-1j) ** k * poch * start ** (-(p + k))
        poch *= p + k
    out += np.exp(1j * start) * acc
    return out


def _algebraic_tail(kind: str, t: np.ndarray, f: SampledFunction, y_top: float) -> np.ndarray:
    """Tail of the trig transform beyond the quadrature cap: the edge fit's
    power law c y^p (numgrid.edge_fit) of f's top samples, integrated in
    closed form; none where the cap lies inside the hull, where the top
    sample is below 1e-13 or where no power law follows the samples."""
    pts, vals = f.grid.points, f.values
    if y_top < f.grid.hull[1] * (1.0 - 1e-9) or abs(vals[-1]) < 1e-13:
        return np.zeros_like(t)
    fit = edge_fit(pts[: -EDGE_BLOCK - 1 : -1], vals[: -EDGE_BLOCK - 1 : -1])
    if fit is None:
        return np.zeros_like(t)
    _, c, p = fit
    # int_Y^inf y^p trig(t y) dy = t^(-p-1) int_{tY}^inf u^p trig(u) du
    a = np.maximum(t * y_top, 1e-8)
    base = _osc_tail_integral(-p, a)
    core = np.real(base) if kind == "cos" else np.imag(base)
    return _SQRT_2_OVER_PI * c * t ** (-p - 1.0) * core


def _aliasing_check(f: SampledFunction, t_max: float) -> None:
    # the internal abscissa must resolve oscillations at the top frequency
    if t_max * _quad_top(f) / (_NY - 1) > 0.5:
        warnings.warn("spectral band exceeds the transform's internal resolution")


def _basis_blocks(grid: Grid, y: np.ndarray, w: np.ndarray, n_head: int):
    """The weighted quintic basis of grid's spline at the abscissae y[n_head:],
    which lie inside its hull, in chunks of _CHUNK consecutive abscissae.

    Returns (knots, degree, blocks); block (j0, c0, b) has
    b[j, c] = w[j0 + j] B_(c0 + c)(y[j0 + j]), so that a kernel's columns
    j0:j0 + len(b) times b add to columns c0:c0 + b.shape[1] of T B.
    """
    knots, k = spline_knots(grid)
    first, vals = basis_rows(knots, k, grid.coord(y[n_head:]))
    vals *= w[n_head:]
    blocks = []
    for j in range(0, len(first), _CHUNK):
        fc = first[j : j + _CHUNK]
        b = np.zeros((len(fc), fc[-1] - fc[0] + k + 1))
        b[np.arange(len(fc))[:, None], (fc - fc[0])[:, None] + np.arange(k + 1)] = vals[:, j : j + _CHUNK].T
        blocks.append((n_head + j, int(fc[0]), b))
    return knots, k, blocks


def _transform_values(op, f: SampledFunction, t: np.ndarray) -> np.ndarray:
    """The quadrature of transform op ("sin", "cos" or a Hankel order nu) of
    f at the points t, through its cached matrix on f's operand vector.

    The matrix is [T B | H E], cached per (op, t, f's grid), and acts on
    f's spline coefficients followed by its head model's six coefficients
    (numgrid.operand_vector): T is the rule (kernel times weights) at the
    abscissae inside the hull and B the spline's basis there; H, the rule
    at the n_head abscissae below the hull, times E, the head model's basis
    there (numgrid.head_basis).  The fold writes straight into the cached
    array.
    """
    if op == -0.5:  # t^1/2 y^1/2 J_-1/2(t y) = sqrt(2/pi) cos(t y) (DLMF 10.16.1)
        op = "cos"
    _reject_log_head(f)
    grid = f.grid
    key = (op, points_digest(t), grid_key(grid))
    if key not in _MATRIX_CACHE:
        y, w = _quad_abscissa(f)
        n_head = int(np.searchsorted(y, grid.hull[0]))  # the abscissae below the hull
        knots, k, blocks = _basis_blocks(grid, y, w, n_head)
        n_coef = len(knots) - k - 1
        head_rows = head_basis(y[:n_head], grid.hull[0])
        mat = np.zeros((len(t), n_coef + head_rows.shape[1]))
        head = _fold(op, t, y, n_head, blocks, mat[:, :n_coef])
        head *= w[:n_head]
        np.matmul(head, head_rows, out=mat[:, n_coef:])
        _MATRIX_CACHE[key] = mat
    return _MATRIX_CACHE[key] @ operand_vector(f)


def fourier_sine(f: SampledFunction, out_grid: Grid | None = None) -> SampledFunction:
    """F_s f(t) = sqrt(2/pi) int_0^inf f(y) sin(t y) dy; self-inverse."""
    out_grid = out_grid or default_spectral_grid()
    _aliasing_check(f, out_grid.hull[1])
    vals = _transform_values("sin", f, out_grid.points)
    vals = vals + _algebraic_tail("sin", out_grid.points, f, _quad_top(f))
    return SampledFunction(out_grid, vals)


def fourier_cosine(f: SampledFunction, out_grid: Grid | None = None) -> SampledFunction:
    """F_c f(t) = sqrt(2/pi) int_0^inf f(y) cos(t y) dy; self-inverse."""
    out_grid = out_grid or default_spectral_grid()
    _aliasing_check(f, out_grid.hull[1])
    vals = _transform_values("cos", f, out_grid.points)
    vals = vals + _algebraic_tail("cos", out_grid.points, f, _quad_top(f))
    return SampledFunction(out_grid, vals)


def _hankel_coefficients(nu: float) -> np.ndarray | None:
    """The coefficients a_k(nu) of Hankel's expansion, k = 0, 1, ..., up to
    the first term below _SERIES_TOL at z = _Z_SWITCH (all of them where the
    series ends).

    a_k = (4nu^2 - 1^2)(4nu^2 - 3^2)...(4nu^2 - (2k-1)^2) / (k! 8^k), and
    J_nu(z) = sqrt(2/(pi z)) sum_k a_k z^-k cos(z - (nu + 1/2 - k) pi/2).
    None when a term grows before the cut: the expansion then cannot reach
    double precision at the switch point, and J_nu stays on jv.
    """
    mu = 4.0 * nu * nu
    a = [1.0]
    while True:
        k = len(a)
        ak = a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k)
        if abs(ak) > abs(a[-1]) * _Z_SWITCH:
            return None
        if abs(ak) < _SERIES_TOL * _Z_SWITCH**k:
            return np.array(a)
        a.append(ak)


def _horner(coef: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """out = sum_j coef[j] u^j."""
    if len(coef) == 1:
        out.fill(coef[0])
        return
    np.multiply(u, coef[-1], out=out)
    for c in coef[-2:0:-1]:
        out += c
        out *= u
    out += coef[0]


def _expansion_bracket(nu: float, a: np.ndarray, z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = P cos w - Q sin w of Hankel's expansion at z, from the
    coefficients given (see _hankel_coefficients).

    J_nu(z) = sqrt(2/(pi z)) out.  P = sum_k a_2k u^k and
    Q = z^-1 sum_k a_2k+1 u^k, u = -z^-2; z is overwritten.  scratch holds
    three arrays shaped like z.
    """
    u, q, c = scratch
    phase = (0.5 * nu + 0.25) * np.pi
    if len(a) == 1:  # nu = +-1/2: P = 1, Q = 0
        z -= phase
        np.cos(z, out=out)
        return
    np.multiply(z, z, out=u)
    np.divide(-1.0, u, out=u)
    _horner(a[0::2], u, out)
    _horner(a[1::2], u, q)
    q /= z
    z -= phase
    np.cos(z, out=c)
    out *= c
    np.sin(z, out=c)
    q *= c
    out -= q


def _kernel_table(nu: float) -> np.ndarray:
    """Taylor table of G_nu(z) = z^-nu J_nu(z) in x = z^2/2, an entire function.

    Row k, column m holds the k-th Taylor coefficient at the node
    x_m = m _TABLE_STEP in r = x/_TABLE_STEP - m: (-_TABLE_STEP)^k / k!
    G_(nu+k)(z_m), since d^k G_nu / dx^k = (-1)^k G_(nu+k) (DLMF 10.6.6).
    The nodes reach one past z0^2/2; the z = 0 node holds the series'
    constant terms 2^-(nu+k) / Gamma(nu+k+1).
    """
    n_nodes = int(0.5 * _Z_SWITCH**2 / _TABLE_STEP) + 2
    z = np.sqrt(2.0 * _TABLE_STEP * np.arange(1, n_nodes))
    table = np.empty((_TABLE_TERMS + 1, n_nodes))
    scale = 1.0
    for k, row in enumerate(table):
        order = nu + k
        row[0] = 2.0**-order * rgamma(order + 1.0)
        row[1:] = jv(order, z) * z**-order
        row *= scale
        scale *= -_TABLE_STEP / (k + 1)
    return table


def _table_rows(table: np.ndarray, tb: np.ndarray, steps: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """G_nu(z) at z^2/2 = _TABLE_STEP tb[i]^2 steps[j], by Horner's rule from
    the nearest node of the table (see _kernel_table).

    Returns a (len(tb), len(steps)) view into scratch, which is flat and at
    least 4 times that long.  Entries past the last node are read at it and
    are not G_nu.
    """
    shape = (len(tb), len(steps))
    m = shape[0] * shape[1]
    acc, r, g, idx = (scratch[j * m : (j + 1) * m].reshape(shape) for j in range(4))
    idx = idx.view(np.intp)
    np.outer(tb * tb, steps, out=r)
    np.rint(r, out=idx, casting="unsafe")
    r -= idx
    np.take(table[-1], idx, out=acc, mode="clip")
    for row in table[-2::-1]:
        acc *= r
        np.take(row, idx, out=g, mode="clip")
        acc += g
    return acc


def _far_rows(nu: float, a: np.ndarray | None, tb: np.ndarray, y: np.ndarray, n_mixed: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """The kernel at z = tb[i] * y[j] >= _Z_SWITCH (tb, y ascending) into out.

    J_nu from jv when a is None, else the bracket of Hankel's expansion
    (J_nu = sqrt(2/(pi z)) bracket), cut for each doubling band of z, at
    most _COL_BLOCK columns wide, at the first term below _SERIES_TOL.  In
    the first n_mixed columns z is raised to _Z_SWITCH where it lies below;
    those entries belong to the table.  scratch is flat, 4 rows *
    min(n, _COL_BLOCK) long.
    """
    rows, n = out.shape
    if a is None:
        np.outer(tb, y, out=out)
        np.maximum(out[:, :n_mixed], _Z_SWITCH, out=out[:, :n_mixed])
        jv(nu, out, out=out)
        return
    lo = 0
    while lo < n:
        hi = n_mixed if lo < n_mixed else int(np.searchsorted(y, 2.0 * y[lo]))
        hi = min(hi, lo + _COL_BLOCK)
        m = rows * (hi - lo)
        z, *work = (scratch[j * m : (j + 1) * m].reshape(rows, hi - lo) for j in range(4))
        np.outer(tb, y[lo:hi], out=z)
        if lo < n_mixed:
            np.maximum(z, _Z_SWITCH, out=z)
        z_lo = max(tb[0] * y[lo], _Z_SWITCH)
        terms = np.abs(a) < _SERIES_TOL * z_lo ** np.arange(len(a))
        n_terms = int(np.argmax(terms)) if terms.any() else len(a)
        _expansion_bracket(nu, a[:n_terms], z, out[:, lo:hi], work)
        lo = hi


def _hankel_rows(nu: float, y: np.ndarray, w: np.ndarray):
    """The filler of Hankel kernel rows w_j t^-nu y_j^(nu+1) J_nu(t y_j) on
    the abscissae y (y[0] = 0 takes the kernel's limit): fill(tb, out) writes
    the rows at up to _ROW_BLOCK points tb into out, over its first
    out.shape[1] abscissae.

    Below z0 = _Z_SWITCH an entry is w_j y_j^(2nu+1) G_nu(t y_j) from the
    kernel table, built here once; at and above z0 it is the expansion's
    bracket (or jv) with its own row and column factors.  Each row switches
    at its own z0.
    """
    a = _hankel_coefficients(nu)
    table = _kernel_table(nu)
    ys, ws = y[1:], w[1:]
    near_cols = ys ** (2.0 * nu + 1.0) * ws  # times G_nu(t y)
    steps = ys * ys / (2.0 * _TABLE_STEP)  # times t^2: x = (t y)^2/2 in table steps
    if a is None:  # times J_nu and t^-nu
        far_cols, far_pow = ys ** (nu + 1.0) * ws, -nu
    else:  # times the bracket and t^-(nu+1/2)
        far_cols, far_pow = _SQRT_2_OVER_PI * ys ** (nu + 0.5) * ws, -nu - 0.5
    # y^(nu+1) J_nu(t y) t^-nu -> y^(2nu+1) / (2^nu Gamma(nu+1)) as y -> 0
    limit = w[0] * (_SQRT_2_OVER_PI if nu == -0.5 else 0.0)
    scratch = np.empty(4 * _ROW_BLOCK * min(_COL_BLOCK, len(ys)))

    def fill(tb: np.ndarray, out: np.ndarray) -> None:
        out[:, 0] = limit
        blk = out[:, 1:]
        n = blk.shape[1]
        ks = np.minimum(np.searchsorted(ys, _Z_SWITCH / tb), n)  # row i: z < z0 before ks[i]
        k_lo, k_hi = ks[-1], ks[0]
        far = blk[:, k_lo:]
        _far_rows(nu, a, tb, ys[k_lo:n], k_hi - k_lo, far, scratch)
        far *= far_cols[k_lo:n]
        far *= (tb**far_pow)[:, None]
        for c0 in range(0, k_hi, _COL_BLOCK):
            c1 = min(c0 + _COL_BLOCK, k_hi)
            g = _table_rows(table, tb, steps[c0:c1], scratch)
            for row, g_row, k in zip(blk, g, np.clip(ks, c0, c1)):
                np.multiply(g_row[: k - c0], near_cols[c0:k], out=row[c0:k])

    return fill


def _hankel_matrix(nu: float, t: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The dense Hankel kernel matrix w_j t_i^-nu y_j^(nu+1) J_nu(t_i y_j),
    uncached, one _hankel_rows block at a time."""
    fill = _hankel_rows(nu, y, w)
    mat = np.empty((len(t), len(y)))
    for i0 in range(0, len(t), _ROW_BLOCK):
        fill(t[i0 : i0 + _ROW_BLOCK], mat[i0 : i0 + _ROW_BLOCK])
    return mat


def _quarter_fold(a: np.ndarray, p: float, m: int, t: np.ndarray, y: np.ndarray, blocks, first_rows, coef: np.ndarray) -> None:
    """Adds into coef (see _basis_blocks) T B of the kernel
    sqrt(2/pi) (y/t)^p sum_k a_k (t y)^-k cos(t y - (m - k) pi/2); row i
    takes block c when i >= first_rows[c].

    y is uniform, so a chunk's abscissae are y0 + d with the same d in
    every chunk: cos(t (y0 + d) - n pi/2) = c cos(t d) - s sin(t d), with
    (c, s) = (cos t y0, sin t y0) turned exactly n quarter turns, one pair
    per row, and the tables cos(t d) and sin(t d) built once.  Term k's
    a_k sqrt(2/pi) y^(p-k) goes into the block and its t^-(p+k) onto
    (c, s), so no entry costs a trig call or a power of its own.
    Consecutive chunks' weighted blocks stand side by side, up to _CHUNK
    columns a group, and each group is one product with each table from
    its lowest first row, combined in place.
    """
    phase = np.outer(t, np.arange(_CHUNK) * y[1])
    cos_tab, sin_tab = np.cos(phase), np.sin(phase, out=phase)
    k = np.arange(len(a))
    col_factors = _SQRT_2_OVER_PI * a * y[:, None] ** (p - k)
    row_factors = [t[:, None] ** -(p + j) if p + j else None for j in k]
    groups, widths = [], [_CHUNK]
    for (j0, c0, b), i0 in zip(blocks, first_rows):
        if i0 >= len(t):
            continue
        if widths[-1] + len(a) * b.shape[1] > _CHUNK:
            groups.append([])
            widths.append(0)
        groups[-1].append((j0, c0, b, i0))
        widths[-1] += len(a) * b.shape[1]
    if not groups:
        return
    widths = widths[1:]
    products = np.empty((2, len(t) * max(widths)))
    for group, width in zip(groups, widths):
        g0 = min(i0 for *_, i0 in group)
        bk = np.zeros((max(len(b) for _, _, b, _ in group), width))
        col = 0
        for j0, _, b, _ in group:
            for j in k:
                np.multiply(b, col_factors[j0 : j0 + len(b), j, None], out=bk[: len(b), col : col + b.shape[1]])
                col += b.shape[1]
        cp, sp = (buf[: (len(t) - g0) * width].reshape(-1, width) for buf in products)
        np.matmul(cos_tab[g0:, : len(bk)], bk, out=cp)
        np.matmul(sin_tab[g0:, : len(bk)], bk, out=sp)
        col = 0
        for j0, c0, b, i0 in group:
            span = b.shape[1]
            ty0 = t[i0:, None] * y[j0]
            c, s = np.cos(ty0), np.sin(ty0)
            for _ in range(m % 4):  # cos(x - pi/2) = sin x, sin(x - pi/2) = -cos x
                c, s = s, -c
            out = coef[i0:, c0 : c0 + span]
            for r in row_factors:
                pj, qj = cp[i0 - g0 :, col : col + span], sp[i0 - g0 :, col : col + span]
                pj *= c if r is None else c * r[i0:]
                qj *= s if r is None else s * r[i0:]
                pj -= qj
                out += pj
                c, s = -s, c  # term k + 1 turns one quarter less
                col += span


def _fold(op, t: np.ndarray, y: np.ndarray, n_head: int, blocks, coef: np.ndarray) -> np.ndarray:
    """Adds T B of transform op's kernel ("sin", "cos" or the Hankel order
    nu, t^-nu y^(nu+1) J_nu(t y)) into coef (see _basis_blocks) and returns
    the kernel at y[:n_head].

    Sine and cosine are one _quarter_fold each, at m = 1 and m = 0.  Hankel
    rows are filled a block at a time (_hankel_rows) and each block is
    folded at once; at orders whose expansion ends (nu + 1/2 an integer) a
    block is filled only up to the first chunk where all its rows have
    z >= z0, and _quarter_fold takes the chunks from there on.
    """
    if isinstance(op, str):
        _quarter_fold(np.ones(1), 0.0, int(op == "sin"), t, y, blocks, [0] * len(blocks), coef)
        trig = np.sin if op == "sin" else np.cos
        return _SQRT_2_OVER_PI * trig(np.outer(t, y[:n_head]))
    fill = _hankel_rows(op, y, np.ones_like(y))  # the weights are in the blocks
    a = _hankel_coefficients(op)
    starts = np.full(-(-len(t) // _ROW_BLOCK), len(y))
    if a is not None and float(op + 0.5).is_integer():
        chunks = np.array([j0 for j0, _, _ in blocks] + [len(y)])
        switch = np.searchsorted(y, _Z_SWITCH / t[::_ROW_BLOCK])  # each block's first row is the latest to switch
        starts = chunks[np.searchsorted(chunks, switch)]
        first_rows = [_ROW_BLOCK * int(np.searchsorted(-starts, -j0)) for j0, _, _ in blocks]  # starts do not rise
        # first: its tables are freed before the fill's scratch fills
        _quarter_fold(a, op + 0.5, int(op + 0.5), t, y, blocks, first_rows, coef)
    buf = np.empty((min(_ROW_BLOCK, len(t)), len(y)))
    head = np.empty((len(t), n_head))
    for i0, end in zip(range(0, len(t), _ROW_BLOCK), starts):
        tb = t[i0 : i0 + _ROW_BLOCK]
        rows = buf[: len(tb), :end]
        fill(tb, rows)
        head[i0 : i0 + len(tb)] = rows[:, :n_head]
        for j0, c0, b in blocks:
            if j0 >= end:
                break
            coef[i0 : i0 + len(tb), c0 : c0 + b.shape[1]] += rows[:, j0 : j0 + len(b)] @ b
    return head


def hankel(nu: float, f: SampledFunction, out_grid: Grid | None = None) -> SampledFunction:
    """Hankel (Fourier-Bessel) transform F_nu f(t) = t^-nu int f(y) J_nu(ty) y^(nu+1) dy.

    Unitary and self-inverse in the power-weighted space with weight x^(2nu+1).
    Defined for nu >= -1/2; F_(-1/2) is the cosine transform.  Below -1/2 the
    kernel's y^(2nu+1) endpoint singularity is not integrable by the rule.
    """
    if nu < -0.5:
        raise OperatorSpecError(f"the Hankel transform needs nu >= -1/2, got {nu:g}")
    out_grid = out_grid or default_spectral_grid()
    _aliasing_check(f, out_grid.hull[1])
    return SampledFunction(out_grid, _transform_values(float(nu), f, out_grid.points))


def hankel_inverse(nu: float, g: SampledFunction, out_grid: Grid) -> SampledFunction:
    """Inverse Hankel transform (same kernel, roles of the grids swapped)."""
    return hankel(nu, g, out_grid)


WEIGHT_REGISTRY = {
    "one": lambda t: np.ones_like(t),
    "rational": lambda t: (1.0 + t * t) / (2.0 + t * t),
    "sqrt": lambda t: np.sqrt(t),
}


def weight_function(name: str):
    if name not in WEIGHT_REGISTRY:
        raise OperatorSpecError(f"unknown weight function {name!r}")
    return WEIGHT_REGISTRY[name]


def apply_weighted_third(
    spec: OperatorSpec,
    f: SampledFunction,
    spectral_grid: Grid | None = None,
) -> SampledFunction:
    """Weighted third-kind operators via composed transforms.

    variant S: F_{s|c}^{-1} ((1/phi) F_nu f); variant P: F_nu^{-1} (phi F_{s|c} f).
    """
    if spec.family != "weighted_third":
        raise OperatorSpecError("apply_weighted_third expects a weighted_third spec")
    nu = real_nu(spec)
    phi = weight_function(spec.phi)
    sg = spectral_grid or default_spectral_grid()
    phivals = phi(sg.points)
    if np.any(phivals <= 0):
        raise OperatorSpecError("weight function must be positive on the spectral grid")
    trig_fwd = fourier_sine if spec.trig == "sin" else fourier_cosine
    if spec.variant == "S":
        spec_side = hankel(nu, f, sg)
        filtered = SampledFunction(sg, spec_side.values / phivals, spec_side.decay_hint)
        return trig_fwd(filtered, f.grid)
    if spec.variant == "P":
        spec_side = trig_fwd(f, sg)
        filtered = SampledFunction(sg, spec_side.values * phivals, spec_side.decay_hint)
        return hankel_inverse(nu, filtered, f.grid)
    raise OperatorSpecError(f"unknown weighted-third variant {spec.variant!r}")
