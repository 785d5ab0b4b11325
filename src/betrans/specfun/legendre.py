"""Legendre functions of the first and second kind, on and off the cut.

Evaluation strategy (real degree nu, real order mu < 1), zone by zone of
the argument; each element takes its zone's expansion and its own stopping
term, so its value does not depend on the other arguments:

* on the cut, |x| < 1/2: P_nu, dP_nu/dx, Q_nu and dQ_nu/dx from the even
  and odd solutions of Legendre's equation as series in x^2 about x = 0
  (_about_zero), from the values at 0 of DLMF 14.5.1-4.  Their terms fall
  like x^(2m), about 27 of them to round-off at |x| = 1/2; beyond it they
  slow toward the singular ends, while the expansions about x = 1 speed up.
* on the cut, |x| >= 1/2, and next to z = 1 off it: expansions in
  t = (z - 1)/2 (t < 0 on the cut), at most about 27 terms at x = 1/2: the
  hypergeometric series about z = 1 for P_nu^mu and dP_nu/dz, and for Q_nu
  and dQ_nu/dz the logarithmic form Q_nu = c1 P_nu - (P_nu ln|t| + g(t))/2
  (_q_log_form).  P_nu^mu of order mu != 0 takes the series on the whole
  cut.  On (-1, -1/2] P takes the series (it cannot converge within
  SERIES_CAP terms next to x = -1) and Q the reflection
  Q_nu(-y) = -cos(nu pi) Q_nu(y) - (pi/2) sin(nu pi) P_nu(y) (DLMF 14.9.10
  at mu = 0) of the logarithmic form at y = -x.
* off the cut (z > 1): P the series about z = 1 up to z = 2.5 and above
  it the two-branch descending expansion in 1/z^2, interpolated in nu
  across half-integer degrees (_p_offcut_descending), with a number of
  terms fixed per zone of 1/z^2 (_HYP_ZONES); Q the logarithmic form up to
  z = 1.2 (where its cancellation between c1 P and P ln t still costs no
  digit at nu <= 3) and above it one series in zeta^2, zeta = z - (z^2 -
  1)^(1/2), and its derivative (_q_tail_series_offcut), below 0.41^k from
  z = 1.1 on.

All evaluators are vectorized over the argument; degree and order are
scalars, which matches how operator kernels are built (fixed parameters,
many abscissae, most of them repeated: a plan asks for the same ratio x/t
at many of its (row, node) pairs).  The public functions evaluate once per
distinct argument (_per_distinct) and index the values back.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .gamma import digamma_real, gamma_real, rgamma

__all__ = [
    "DomainError",
    "SingularityError",
    "SeriesConvergenceError",
    "legendre_p",
    "legendre_p_assoc",
    "legendre_q",
    "legendre_q1",
]

EULER_GAMMA = 0.5772156649015328606
SERIES_CAP = 500
SERIES_RTOL = 1e-16
_SERIES_BLOCK = 8192  # arguments summed together by _power_series

# z = 1 exclusion radius for the second-kind functions
Q_EXCLUSION = 1e-8

_OFFCUT_SERIES_MAX = 2.5  # series about z=1 below, descending expansion in 1/z^2 above
_Q_OFFCUT_LOG_MAX = 1.2  # Q off the cut: log expansion about z=1 below, series in zeta^2 above
_ONCUT_ZERO_MAX = 0.5  # on the cut: series in x^2 about x=0 below |x| = 1/2, about x=1 above


class DomainError(ValueError):
    """Argument outside the declared branch range."""


class SingularityError(ValueError):
    """Evaluation requested at (or inside the exclusion radius of) z = 1."""


class SeriesConvergenceError(RuntimeError):
    """A kernel series failed to reach the target tolerance within the cap."""


def _per_distinct(evaluate: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
    """evaluate(u) on the distinct values u of z, indexed back to z's shape.

    A plan asks for the same kernel argument at many (row, node) pairs, so
    each distinct value is evaluated once.  The values are those that
    evaluate(z.ravel()) gives: every series stops per element
    (_power_series) and every other step works element by element, so an
    element's value does not depend on the others.  u is ascending, so the
    |w| order the power series walk in is monotone, or two monotone runs,
    and their stable argsort is cheap.
    """
    u, inv = np.unique(z.ravel(), return_inverse=True)
    return evaluate(u)[inv].reshape(z.shape)


# ----------------------------------------------------------------------
# first kind
# ----------------------------------------------------------------------


def _below(term: np.ndarray, total: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(term) <= tol * (np.abs(total) + 1e-300)


def _ratio_coefs(ratio: Callable[[int], float]) -> Iterator[float]:
    """c_0 = 1 and c_(k+1) = ratio(k) c_k, up to the first zero, where the
    series terminates."""
    c, k = 1.0, 0
    while c != 0.0:
        yield c
        c *= ratio(k)
        k += 1


def _power_series(coefs: Iterator[float], w: np.ndarray, deriv: bool = False):
    """Sum F(w) = sum_k c_k w^k over the coefficients c_0, c_1, ... of coefs.

    With deriv=True also returns F'(w) = sum_k k c_k w^(k-1).  Each element
    stops at its own first term below SERIES_RTOL of its partial sum (and,
    with deriv, its own derivative term below SERIES_RTOL of that sum), so
    its value does not depend on the other arguments.  The term of a zero
    coefficient shows no convergence and stops nothing; where coefs ends,
    the series has terminated and every element stops.  The arguments are
    walked in order of |w|, _SERIES_BLOCK at a time, and a block's active
    set shrinks as its elements converge: small arguments stop after a few
    terms instead of running as long as the slowest one.  An element's sums
    are recorded at its own stopping term, and the block is compacted to
    its live elements once half of it has stopped.  Raises
    SeriesConvergenceError when an element still has a term above 1e-12 of
    its sum at SERIES_CAP terms.
    """
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    total = np.empty_like(flat)
    dtotal = np.empty_like(flat)
    cs = [next(coefs)]  # drawn as far as the slowest element needs
    order = np.argsort(np.abs(flat), kind="stable")
    for start in range(0, flat.size, _SERIES_BLOCK):
        idx = order[start : start + _SERIES_BLOCK]
        x = flat[idx]
        s = np.full_like(x, cs[0])
        ds = np.zeros_like(x)
        xk = np.ones_like(x)  # x^(k-1)
        live = np.ones(x.shape, dtype=bool)
        n_live = x.size
        for k in range(1, SERIES_CAP + 1):
            if k == len(cs):
                cs.append(next(coefs, None))
            c = cs[k]
            if c is None:
                done = live
            else:
                dterm = (k * c) * xk
                xk *= x
                term = c * xk
                s += term
                ds += dterm
                if c == 0.0 and k < SERIES_CAP:
                    continue
                done = _below(term, s, SERIES_RTOL)
                if deriv:
                    done &= _below(dterm, ds, SERIES_RTOL)
                done &= live
                if k == SERIES_CAP:
                    bad = ~_below(term, s, 1e-12)
                    if deriv:
                        bad |= ~_below(dterm, ds, 1e-12)
                    if np.any(bad & live):
                        raise SeriesConvergenceError(f"kernel series did not converge in {SERIES_CAP} terms")
                    done = live
            n_done = int(np.count_nonzero(done))
            if n_done:
                total[idx[done]] = s[done]
                dtotal[idx[done]] = ds[done]
                n_live -= n_done
                if n_live == 0:
                    break
                live &= ~done
                if 2 * n_live <= x.size:
                    idx, x, s, ds, xk, live = idx[live], x[live], s[live], ds[live], xk[live], live[live]
    total = total.reshape(w.shape)
    return (total, dtotal.reshape(w.shape)) if deriv else total


def _hyp2f1_series(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """Direct Gauss series F(a, b; c; w), vectorized over w (|w| < 1)."""
    return _power_series(_ratio_coefs(lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0))), w)


def _p_hyp_about_one(nu: float, mu: float, z: np.ndarray) -> np.ndarray:
    """P_nu^mu via the series about z=1 on either branch; argument
    w = (1-z)/2 must have |w| < 1."""
    series = _hyp2f1_series(-nu, nu + 1.0, 1.0 - mu, 0.5 * (1.0 - z))
    return np.abs((1.0 + z) / (1.0 - z)) ** (mu / 2.0) / gamma_real(1.0 - mu) * series


# (top of the zone in w, terms summed there): w^n <= 1e-60 at each top
# (w <= 0.16 above z = 2.5), so the terms left out lie far below round-off
_HYP_ZONES = ((1e-6, 10), (1e-3, 20), (1e-2, 30), (0.04, 43), (np.inf, 75))


def _hyp2f1_regularized(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """F(a, b; c; w) / Gamma(c), entire in c, as a truncated series (|w| << 1).

    Evaluated by Horner's rule: no power table, and no subnormal powers of
    the tiny arguments w = 1/z^2 that large z produces.  Each element sums
    the number of terms of its zone of w (_HYP_ZONES), so its value does
    not depend on the other arguments.
    """
    nterms = _HYP_ZONES[-1][1]
    rg = rgamma(c + np.arange(nterms))
    # (a)_k (b)_k / k!
    coef = np.ones(nterms)
    for i in range(1, nterms):
        coef[i] = coef[i - 1] * (a + i - 1.0) * (b + i - 1.0) / i
    coef = coef * rg
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    # the last zone takes every w above the others', NaN too
    zone = np.minimum(np.searchsorted([top for top, _ in _HYP_ZONES], w), len(_HYP_ZONES) - 1)
    for i, (_, n) in enumerate(_HYP_ZONES):
        sel = zone == i
        if not np.any(sel):
            continue
        wz = w[sel]
        acc = np.full_like(wz, coef[n - 1])
        for ck in coef[n - 2 :: -1]:
            acc *= wz
            acc += ck
        out[sel] = acc
    return out


def _p_offcut_descending_raw(nu: float, mu: float, z: np.ndarray) -> np.ndarray:
    """Two-branch descending expansion of P_nu^mu(z), z well above 1.

    P = sqrt(pi) (z^2-1)^(mu/2) / cos(pi nu) *
        [ (mu+nu) rGamma(1-mu-nu) Ft(...; nu+3/2) / (2^(nu+1) z^(nu+mu+1))
          + rGamma(1+nu-mu) 2^nu z^(nu-mu) Ft(...; 1/2-nu) ]
    with Ft the Gamma-regularized Gauss series in 1/z^2.  Not usable near
    half-integer nu (cancellation); see _p_offcut_descending.
    """
    w = 1.0 / (z * z)
    t1 = (
        (mu + nu)
        * rgamma(1.0 - mu - nu)
        * _hyp2f1_regularized((nu + mu) / 2.0 + 1.0, (nu + mu + 1.0) / 2.0, nu + 1.5, w)
        / (2.0 ** (nu + 1.0) * z ** (nu + mu + 1.0))
    )
    t2 = (
        rgamma(1.0 + nu - mu)
        * 2.0**nu
        * z ** (nu - mu)
        * _hyp2f1_regularized((mu - nu + 1.0) / 2.0, (mu - nu) / 2.0, 0.5 - nu, w)
    )
    pref = np.sqrt(np.pi) * (z * z - 1.0) ** (mu / 2.0) / np.cos(np.pi * nu)
    return pref * (t1 + t2)


_HALF_INT_GUARD = 1e-3
_CHEB_HALFSPAN = 5e-3
_CHEB_NODES = np.cos((2.0 * np.arange(8) + 1.0) * np.pi / 16.0)


def _p_offcut_descending(nu: float, mu: float, z: np.ndarray) -> np.ndarray:
    """Descending expansion with Chebyshev interpolation across half-integer nu."""
    half_dist = abs(nu - (np.floor(nu) + 0.5))
    if min(half_dist, 1.0 - half_dist) > _HALF_INT_GUARD:
        return _p_offcut_descending_raw(nu, mu, z)
    center = np.floor(nu) + 0.5 if half_dist <= 0.5 else np.ceil(nu) - 0.5
    nodes = center + _CHEB_HALFSPAN * _CHEB_NODES
    vals = np.stack([_p_offcut_descending_raw(nv, mu, z) for nv in nodes])
    # barycentric interpolation in nu (Chebyshev points of the first kind)
    bw = (-1.0) ** np.arange(8) * np.sin((2.0 * np.arange(8) + 1.0) * np.pi / 16.0)
    dif = nu - nodes
    if np.any(np.abs(dif) < 1e-14):
        return vals[int(np.argmin(np.abs(dif)))]
    wts = bw / dif
    # a fixed-order sum over the nodes, element by element, so that a value
    # does not depend on its argument's place in the call
    acc = wts[0] * vals[0]
    for wj, vj in zip(wts[1:], vals[1:]):
        acc += wj * vj
    return acc / np.sum(wts)


def _zoned(z: np.ndarray, inner: np.ndarray, f_inner, f_outer) -> np.ndarray:
    """f_inner(z) where inner holds and f_outer(z) elsewhere, element by element."""
    out = np.empty_like(z)
    if np.any(inner):
        out[inner] = f_inner(z[inner])
    if not np.all(inner):
        out[~inner] = f_outer(z[~inner])
    return out


def _p_offcut(nu: float, mu: float, z: np.ndarray) -> np.ndarray:
    return _zoned(
        z, z <= _OFFCUT_SERIES_MAX, lambda u: _p_hyp_about_one(nu, mu, u), lambda u: _p_offcut_descending(nu, mu, u)
    )


def _p_oncut(nu: float, mu: float, x: np.ndarray) -> np.ndarray:
    """The Ferrers P_nu^mu: at mu = 0 from the series about x = 0 where
    |x| < 1/2, elsewhere from the series about x = 1."""
    if mu != 0.0:
        return _p_hyp_about_one(nu, mu, x)
    return _zoned(
        x,
        np.abs(x) < _ONCUT_ZERO_MAX,
        lambda u: _about_zero(_p_at_zero(nu), nu, u, deriv=False),
        lambda u: _p_hyp_about_one(nu, 0.0, u),
    )


def _p_assoc(nu: float, mu: float, z: np.ndarray, branch: str) -> np.ndarray:
    if branch == "off_cut":
        if np.any(z < 1.0):
            raise DomainError("off_cut branch requires z >= 1")
    elif branch == "on_cut":
        if np.any((z < -1.0) | (z > 1.0)):
            raise DomainError("on_cut branch requires -1 <= z <= 1")
    else:
        raise DomainError(f"unknown branch {branch!r}")
    out = np.empty_like(z)
    at_one = z == 1.0
    if np.any(at_one):
        if mu > 0.0:
            raise SingularityError("P_nu^mu singular at z = 1 for mu > 0")
        out[at_one] = 1.0 if mu == 0.0 else 0.0
    rest = ~at_one
    if np.any(rest):
        zr = z[rest]
        out[rest] = _p_offcut(nu, mu, zr) if branch == "off_cut" else _p_oncut(nu, mu, zr)
    return out


def legendre_p_assoc(nu: float, mu: float, z, branch: str):
    """Associated Legendre function of the first kind, order mu < 1.

    branch "off_cut" evaluates P_nu^mu(z) for z >= 1, branch "on_cut" the
    Ferrers function for -1 <= z <= 1.
    """
    if mu >= 1.0:
        raise DomainError("order mu must satisfy mu < 1")
    z_arr = np.asarray(z, dtype=float)
    out = _per_distinct(lambda u: _p_assoc(nu, mu, u, branch), z_arr)
    return float(out) if z_arr.ndim == 0 else out


def legendre_p(nu: float, z, branch: str):
    """Legendre function P_nu = P_nu^0, both branches, P_nu(1) = 1."""
    return legendre_p_assoc(nu, 0.0, z, branch)


def _p_series_about_one(nu: float, t: np.ndarray):
    """(P_nu, dP_nu/dt) as the series in t = (z-1)/2 about z = 1, on
    either branch (t < 0 on the cut)."""
    return _power_series(_ratio_coefs(lambda k: (nu - k) * (nu + k + 1.0) / ((k + 1.0) ** 2)), t, deriv=True)


def _about_zero(values, nu: float, x: np.ndarray, deriv: bool = True):
    """(f, df/dx) on the cut, or f alone without deriv, for the solution f
    of Legendre's equation of degree nu with (f(0), f'(0)) = values: the
    even and odd solutions as series in u = x^2 about x = 0, E(u) and
    x O(u), with (2m+1)(2m+2) e_(m+1) = (2m - nu)(2m + nu + 1) e_m and
    (2m+2)(2m+3) o_(m+1) = (2m + 1 - nu)(2m + nu + 2) o_m.  Their terms fall
    like u^m, so about 27 of them reach round-off at |x| = 1/2."""
    f0, f1 = values
    u = x * x
    even = _ratio_coefs(lambda m: (2.0 * m - nu) * (2.0 * m + nu + 1.0) / ((2.0 * m + 1.0) * (2.0 * m + 2.0)))
    odd = _ratio_coefs(lambda m: (2.0 * m + 1.0 - nu) * (2.0 * m + nu + 2.0) / ((2.0 * m + 2.0) * (2.0 * m + 3.0)))
    if not deriv:
        return f0 * _power_series(even, u) + f1 * x * _power_series(odd, u)
    e, de = _power_series(even, u, deriv=True)
    o, do = _power_series(odd, u, deriv=True)
    return f0 * e + f1 * x * o, 2.0 * f0 * x * de + f1 * (o + 2.0 * u * do)


def _p_at_zero(nu: float):
    """(P_nu(0), P_nu'(0)) of the Ferrers function (DLMF 14.5.1-2), as the
    series about x = 1 at x = 0 (t = -1/2); at integer degree it
    terminates, so P_n keeps its exact values there (P_0 = 1, P_1'(0) = 1)."""
    p, dp = _p_series_about_one(nu, np.array([-0.5]))
    return float(p[0]), 0.5 * float(dp[0])  # d/dx = (1/2) d/dt


def _quarter_turn(q: float) -> tuple[float, float]:
    """(cos(q pi/2), sin(q pi/2)), exactly 0 and +-1 at integer q.

    |q| is reduced to the nearest whole number n of quarter turns (halves
    rounded up), the cosine and sine taken at the remainder, within
    1/2, and turned back by n; at half-integer q this gives the values of
    scipy's cosdg and sindg at 90 q degrees, which reduce the same way.
    """
    n = np.floor(abs(q) + 0.5)
    r = (abs(q) - n) * (0.5 * np.pi)
    c, s = np.cos(r), np.sin(r)
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[int(n) % 4]
    return float(c), float(s if q >= 0 else -s)


def _q_at_zero(nu: float):
    """(Q_nu(0), Q_nu'(0)) of the Ferrers function (DLMF 14.5.3-4), the
    sine and cosine in quarter turns so that they vanish exactly."""
    sqpi = np.sqrt(np.pi)
    cos_q, sin_q = _quarter_turn(nu)
    q0 = -0.5 * sqpi * sin_q * gamma_real(nu / 2.0 + 0.5) * rgamma(nu / 2.0 + 1.0)
    q1 = sqpi * cos_q * gamma_real(nu / 2.0 + 1.0) * rgamma(nu / 2.0 + 0.5)
    return q0, q1


def _p_deriv_about_one(nu: float, z: np.ndarray) -> np.ndarray:
    """dP_nu/dz from the series about z = 1, on either branch."""
    return 0.5 * _p_series_about_one(nu, 0.5 * (z - 1.0))[1]


def _p_deriv_oncut(nu: float, x: np.ndarray) -> np.ndarray:
    if np.any((x <= -1.0) | (x > 1.0)):
        raise DomainError("legendre_p_deriv_oncut requires -1 < x <= 1")
    return _zoned(
        x, np.abs(x) < _ONCUT_ZERO_MAX, lambda u: _about_zero(_p_at_zero(nu), nu, u)[1], lambda u: _p_deriv_about_one(nu, u)
    )


def legendre_p_deriv_oncut(nu: float, x) -> np.ndarray:
    """dP_nu/dx for the Ferrers function on (-1, 1]; finite at x = 1."""
    return _per_distinct(lambda u: _p_deriv_oncut(nu, u), np.atleast_1d(np.asarray(x, dtype=float)))


def _p_deriv(nu: float, z: np.ndarray) -> np.ndarray:
    if np.any(z < 1.0):
        raise DomainError("legendre_p_deriv requires z >= 1")

    def descending(u):
        return nu * (u * _p_offcut_descending(nu, 0.0, u) - _p_offcut_descending(nu - 1.0, 0.0, u)) / (u * u - 1.0)

    return _zoned(z, z <= _OFFCUT_SERIES_MAX, lambda u: _p_deriv_about_one(nu, u), descending)


def legendre_p_deriv(nu: float, z) -> np.ndarray:
    """dP_nu/dz off the cut (z >= 1), finite at z = 1 with value nu(nu+1)/2."""
    return _per_distinct(lambda u: _p_deriv(nu, u), np.atleast_1d(np.asarray(z, dtype=float)))


# ----------------------------------------------------------------------
# second kind
# ----------------------------------------------------------------------


def _q_log_coefs(nu: float) -> Iterator[float]:
    """g_0 = 0, g_1, ... of the logarithmic form, from the Frobenius
    recurrence (k+1)^2 g_(k+1) = (nu(nu+1) - k(k+1)) g_k - 2(k+1) p_(k+1)
    - (2k+1) p_k, with p_k the coefficients of P_nu in t."""
    pk, gk, k = 1.0, 0.0, 0
    while True:
        yield gk
        pk1 = pk * (nu - k) * (nu + k + 1.0) / ((k + 1.0) ** 2)
        gk = ((nu * (nu + 1.0) - k * (k + 1.0)) * gk - 2.0 * (k + 1.0) * pk1 - (2.0 * k + 1.0) * pk) / ((k + 1.0) ** 2)
        pk = pk1
        k += 1


def _q_log_form(nu: float, t: np.ndarray):
    """(Q_nu, dQ_nu/dz, P_nu, dP_nu/dz) at z = 1 + 2t, next to z = 1.

    Q_nu = c1 P_nu - (1/2) (P_nu ln|t| + g(t)) with c1 = -euler_gamma -
    psi(nu+1), P_nu and g the series in t (_p_series_about_one,
    _q_log_coefs).  Off the cut t > 0; on the cut t < 0, and ln|t|, the
    mean of ln t on the two sides of the cut, gives the Ferrers functions.
    """
    c1 = -EULER_GAMMA - digamma_real(nu + 1.0)
    p, dp = _p_series_about_one(nu, t)
    g, dg = _power_series(_q_log_coefs(nu), t, deriv=True)
    lnt = np.log(np.abs(t))
    q = c1 * p - 0.5 * (p * lnt + g)
    # d/dz = (1/2) d/dt
    dq = 0.5 * (c1 * dp - 0.5 * (dp * lnt + p / t + dg))
    return q, dq, p, 0.5 * dp


def _q_tail_series_offcut(nu: float, z: np.ndarray):
    """(Q_nu(z), dQ_nu/dz) for z away from 1, from one series in zeta^2,
    zeta = z - (z^2 - 1)^(1/2) = e^-eta at z = cosh eta:

        Q_nu = C zeta^(nu+1) F(zeta^2),  F = F(1/2, nu + 1; nu + 3/2; .),
        dQ_nu/dz = -C zeta^(nu+1) ((nu+1) F + 2 zeta^2 F') / (z^2 - 1)^(1/2),

    C = sqrt(pi) Gamma(nu+1)/Gamma(nu+3/2).  Its terms fall like zeta^(2k),
    below 0.41^k from z = 1.1 on, where the series in 1/z^2 falls like
    0.83^k; its coefficients are positive, so nothing cancels."""
    root = np.sqrt((z - 1.0) * (z + 1.0))
    zeta = 1.0 / (z + root)
    u = zeta * zeta
    f, df = _power_series(_ratio_coefs(lambda k: (0.5 + k) * (nu + 1.0 + k) / ((nu + 1.5 + k) * (k + 1.0))), u, deriv=True)
    lead = np.sqrt(np.pi) * gamma_real(nu + 1.0) / gamma_real(nu + 1.5) * zeta ** (nu + 1.0)
    return lead * f, -lead * ((nu + 1.0) * f + 2.0 * u * df) / root


def _q_log_reflected(nu: float, x: np.ndarray):
    """(Q, dQ/dx) on the cut from the logarithmic form at |x|, reflected to
    x < 0."""
    q, dq, p, dp = _q_log_form(nu, 0.5 * (np.abs(x) - 1.0))
    neg = x < 0.0
    if np.any(neg):
        # in quarter turns, so that cos(nu pi) is exactly 0 at half-integer
        # nu and the term in Q(y), unbounded as x -> -1, drops out (np.cos
        # gives 6e-17 there), as sin(nu pi) does at integer nu
        c, s = _quarter_turn(2.0 * nu)
        s *= 0.5 * np.pi
        q[neg] = -c * q[neg] - s * p[neg]
        dq[neg] = c * dq[neg] + s * dp[neg]
    return q, dq


def _q_with_deriv(nu: float, z: np.ndarray, branch: str):
    """(Q, dQ/dz) on either branch; raises outside the branch domain."""
    _check_q_domain(nu, z, branch)
    if branch == "on_cut":
        inner = np.abs(z) < _ONCUT_ZERO_MAX
        zones = (lambda u: _about_zero(_q_at_zero(nu), nu, u), lambda u: _q_log_reflected(nu, u))
    else:
        inner = z < _Q_OFFCUT_LOG_MAX
        zones = (lambda u: _q_log_form(nu, 0.5 * (u - 1.0))[:2], lambda u: _q_tail_series_offcut(nu, u))
    q = np.empty_like(z)
    dq = np.empty_like(z)
    for sel, evaluate in zip((inner, ~inner), zones):
        if np.any(sel):
            q[sel], dq[sel] = evaluate(z[sel])
    return q, dq


def _check_q_domain(nu: float, z_arr: np.ndarray, branch: str) -> None:
    if nu <= -1.0:
        raise DomainError("second-kind functions require nu > -1")
    if np.any(np.abs(z_arr - 1.0) < Q_EXCLUSION):
        raise SingularityError("Q_nu singular at z = 1 (inside exclusion radius)")
    if branch == "off_cut":
        if np.any(z_arr <= 1.0):
            raise DomainError("off_cut branch requires z > 1")
    elif branch == "on_cut":
        if np.any((z_arr <= -1.0) | (z_arr >= 1.0)):
            raise DomainError("on_cut branch requires -1 < z < 1")
    else:
        raise DomainError(f"unknown branch {branch!r}")


def _q1(nu: float, z: np.ndarray, branch: str) -> np.ndarray:
    _, dq = _q_with_deriv(nu, z, branch)
    if branch == "off_cut":
        return np.sqrt((z - 1.0) * (z + 1.0)) * dq
    return -np.sqrt((1.0 - z) * (1.0 + z)) * dq


def legendre_q(nu: float, z, branch: str):
    """Legendre function of the second kind Q_nu (Ferrers function on the cut)."""
    z_arr = np.asarray(z, dtype=float)
    out = _per_distinct(lambda u: _q_with_deriv(nu, u, branch)[0], z_arr)
    return float(out) if z_arr.ndim == 0 else out


def legendre_q1(nu: float, z, branch: str):
    """Order-1 Legendre function of the second kind.

    Off the cut Q_nu^1(z) = (z^2-1)^(1/2) Q_nu'(z); on the cut the Ferrers
    function Q_nu^1(x) = -(1-x^2)^(1/2) Q_nu'(x).
    """
    z_arr = np.asarray(z, dtype=float)
    out = _per_distinct(lambda u: _q1(nu, u, branch), z_arr)
    return float(out) if z_arr.ndim == 0 else out
