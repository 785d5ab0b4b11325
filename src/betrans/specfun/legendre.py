"""Legendre functions of the first and second kind, on and off the cut.

Evaluation strategy (real degree nu, real order mu < 1):

* on the cut (-1 <= x <= 1): hypergeometric series about x = 1 for P;
  for Q a series about x = 0 built from the even/odd solution pair, switching
  to a logarithmic expansion about x = 1 when x is close to 1.
* off the cut (z > 1): series about z = 1 for moderate z; for large z a
  Gauss-Jacobi discretization of the Laplace-type integral representation
  (valid mu < 1/2, any real degree, no degenerate parameter cases), plus a
  single order-recurrence step for 1/2 <= mu < 1.  Q uses a descending
  series in 1/z^2 away from 1 and the logarithmic expansion near 1.

All evaluators are vectorized over the argument; degree and order are
scalars, which matches how operator kernels are built (fixed parameters,
many abscissae, most of them repeated: a plan asks for the same ratio x/t
at many of its (row, node) pairs).  The public functions evaluate once per
distinct argument (_per_distinct) and index the values back.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .gamma import digamma_real, gamma_complex

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

_OFFCUT_SERIES_MAX = 2.5  # series about z=1 below, integral representation above
_Q_OFFCUT_LOG_MAX = 1.10  # log expansion about z=1 below, 1/z^2 series above
_Q_ONCUT_LOG_MIN = 0.90  # center series below, log expansion about x=1 above


class DomainError(ValueError):
    """Argument outside the declared branch range."""


class SingularityError(ValueError):
    """Evaluation requested at (or inside the exclusion radius of) z = 1."""


class SeriesConvergenceError(RuntimeError):
    """A kernel series failed to reach the target tolerance within the cap."""


def _real_gamma(x: float) -> float:
    return float(np.real(gamma_complex(complex(x))))


def _per_distinct(evaluate: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
    """evaluate(u) on the distinct values u of z, indexed back to z's shape.

    A plan asks for the same kernel argument at many (row, node) pairs, so
    each distinct value is evaluated once.  The values are those that
    evaluate(z.ravel()) gives: each power series stops per element
    (_power_series), so an element's value does not depend on the others;
    the logarithmic forms near z = 1 stop when the whole call has converged,
    which its slowest element decides, and u keeps that element; every other
    step works element by element.  u is ascending, so the |w| order the
    power series walk in is monotone, or two monotone runs, and their stable
    argsort is cheap.
    """
    u, inv = np.unique(z.ravel(), return_inverse=True)
    return evaluate(u)[inv].reshape(z.shape)


# ----------------------------------------------------------------------
# first kind
# ----------------------------------------------------------------------


def _below(term: np.ndarray, total: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(term) <= tol * (np.abs(total) + 1e-300)


def _power_series(ratio: Callable[[int], float], w: np.ndarray, deriv: bool = False):
    """Sum F(w) = sum_k c_k w^k with c_0 = 1 and c_(k+1) = ratio(k) c_k.

    With deriv=True also returns F'(w) = sum_k k c_k w^(k-1).  Each element
    stops at its own first term below SERIES_RTOL of its partial sum (and,
    with deriv, its own derivative term below SERIES_RTOL of that sum), so
    its value does not depend on the other arguments.  The arguments are
    walked in order of |w|, _SERIES_BLOCK at a time, and a block's active
    set shrinks as its elements converge: small arguments stop after a few
    terms instead of running as long as the slowest one.  Raises
    SeriesConvergenceError when an element still has a term above 1e-12 of
    its sum at SERIES_CAP terms.
    """
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    total = np.empty_like(flat)
    dtotal = np.empty_like(flat)
    order = np.argsort(np.abs(flat), kind="stable")
    for start in range(0, flat.size, _SERIES_BLOCK):
        idx = order[start : start + _SERIES_BLOCK]
        x = flat[idx]
        s = np.ones_like(x)
        ds = np.zeros_like(x)
        xk = np.ones_like(x)  # x^(k-1)
        c = 1.0
        for k in range(1, SERIES_CAP + 1):
            c *= ratio(k - 1)
            dterm = (k * c) * xk
            xk = xk * x
            term = c * xk
            s += term
            ds += dterm
            done = _below(term, s, SERIES_RTOL)
            if deriv:
                done &= _below(dterm, ds, SERIES_RTOL)
            if k == SERIES_CAP:
                bad = ~_below(term, s, 1e-12)
                if deriv:
                    bad |= ~_below(dterm, ds, 1e-12)
                if np.any(bad):
                    raise SeriesConvergenceError(f"kernel series did not converge in {SERIES_CAP} terms")
                done[:] = True
            if np.any(done):
                total[idx[done]] = s[done]
                dtotal[idx[done]] = ds[done]
                keep = ~done
                idx, x, s, ds, xk = idx[keep], x[keep], s[keep], ds[keep], xk[keep]
                if idx.size == 0:
                    break
    total = total.reshape(w.shape)
    return (total, dtotal.reshape(w.shape)) if deriv else total


def _hyp2f1_series(a: float, b: float, c: float, w: np.ndarray, deriv: bool = False):
    """Direct Gauss series F(a, b; c; w), vectorized over w (|w| < 1).

    With deriv=True returns (F, dF/dw).
    """
    return _power_series(lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)), w, deriv)


def _p_hyp_about_one(nu: float, mu: float, z: np.ndarray, on_cut: bool) -> np.ndarray:
    """P_nu^mu via the series about z=1; argument w = (1-z)/2 must have |w| < 1."""
    w = 0.5 * (1.0 - z)
    if on_cut:
        pref = ((1.0 + z) / (1.0 - z)) ** (mu / 2.0)
    else:
        pref = ((z + 1.0) / (z - 1.0)) ** (mu / 2.0)
    return pref / _real_gamma(1.0 - mu) * _hyp2f1_series(-nu, nu + 1.0, 1.0 - mu, w)


def _rgamma_real(x: np.ndarray) -> np.ndarray:
    """1 / Gamma(x) for real x, zero at the poles (entire function)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    pole = (x <= 0.5) & (np.abs(x - np.round(x)) < 1e-13)
    out[pole] = 0.0
    if np.any(~pole):
        out[~pole] = np.real(1.0 / gamma_complex(x[~pole].astype(complex)))
    return out


def _hyp2f1_regularized(a: float, b: float, c: float, w: np.ndarray, nterms: int = 90) -> np.ndarray:
    """F(a, b; c; w) / Gamma(c), entire in c, as a truncated series (|w| << 1).

    Evaluated by Horner's rule: no power table, and no subnormal powers of
    the tiny arguments w = 1/z^2 that large z produces.
    """
    k = np.arange(nterms)
    rg = _rgamma_real(c + k)
    # (a)_k (b)_k / k!
    coef = np.ones(nterms)
    for i in range(1, nterms):
        coef[i] = coef[i - 1] * (a + i - 1.0) * (b + i - 1.0) / i
    coef = coef * rg
    w = np.asarray(w, dtype=float)
    out = np.full_like(w, coef[-1])
    for ck in coef[-2::-1]:
        out *= w
        out += ck
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
        * float(_rgamma_real(1.0 - mu - nu)[0])
        * _hyp2f1_regularized((nu + mu) / 2.0 + 1.0, (nu + mu + 1.0) / 2.0, nu + 1.5, w)
        / (2.0 ** (nu + 1.0) * z ** (nu + mu + 1.0))
    )
    t2 = (
        float(_rgamma_real(1.0 + nu - mu)[0])
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


def _p_offcut(nu: float, mu: float, z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    near = z <= _OFFCUT_SERIES_MAX
    if np.any(near):
        out[near] = _p_hyp_about_one(nu, mu, z[near], on_cut=False)
    if np.any(~near):
        out[~near] = _p_offcut_descending(nu, mu, z[~near])
    return out


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
        out[rest] = _p_offcut(nu, mu, zr) if branch == "off_cut" else _p_hyp_about_one(nu, mu, zr, on_cut=True)
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


def _p_deriv_oncut(nu: float, x: np.ndarray) -> np.ndarray:
    if np.any((x <= -1.0) | (x > 1.0)):
        raise DomainError("legendre_p_deriv_oncut requires -1 < x <= 1")
    w = 0.5 * (1.0 - x)
    _, dp = _p_series_about_one_with_deriv(nu, -w)
    return 0.5 * dp


def legendre_p_deriv_oncut(nu: float, x) -> np.ndarray:
    """dP_nu/dx for the Ferrers function on (-1, 1]; finite at x = 1."""
    return _per_distinct(lambda u: _p_deriv_oncut(nu, u), np.atleast_1d(np.asarray(x, dtype=float)))


def _p_deriv(nu: float, z: np.ndarray) -> np.ndarray:
    if np.any(z < 1.0):
        raise DomainError("legendre_p_deriv requires z >= 1")
    out = np.empty_like(z)
    near = z <= _OFFCUT_SERIES_MAX
    if np.any(near):
        t = 0.5 * (z[near] - 1.0)
        _, dp = _p_series_about_one_with_deriv(nu, t)
        out[near] = 0.5 * dp
    if np.any(~near):
        zf = z[~near]
        p0 = _p_offcut_descending(nu, 0.0, zf)
        p1 = _p_offcut_descending(nu - 1.0, 0.0, zf)
        out[~near] = nu * (zf * p0 - p1) / (zf * zf - 1.0)
    return out


def legendre_p_deriv(nu: float, z) -> np.ndarray:
    """dP_nu/dz off the cut (z >= 1), finite at z = 1 with value nu(nu+1)/2."""
    return _per_distinct(lambda u: _p_deriv(nu, u), np.atleast_1d(np.asarray(z, dtype=float)))


# ----------------------------------------------------------------------
# second kind
# ----------------------------------------------------------------------


def _p_series_about_one_with_deriv(nu: float, t: np.ndarray):
    """P_nu(z) as a series in t and its t-derivative.

    Off the cut t = (z-1)/2 > 0; on the cut call with t = -w where
    w = (1-x)/2 (the same coefficients serve both sides).
    """
    return _power_series(lambda k: (nu - k) * (nu + k + 1.0) / ((k + 1.0) ** 2), t, deriv=True)


def _q_log_form_offcut(nu: float, z: np.ndarray):
    """(Q_nu(z), dQ_nu/dz) for z slightly above 1, via the log expansion.

    Q_nu(z) = c1 P_nu(z) - (1/2) (P_nu(z) ln t + g(t)),   t = (z-1)/2,
    with c1 = -euler_gamma - psi(nu+1) and g from the Frobenius recurrence
    (k+1)^2 g_{k+1} = (nu(nu+1) - k(k+1)) g_k - 2(k+1) p_{k+1} - (2k+1) p_k.
    """
    t = 0.5 * (z - 1.0)
    c1 = -EULER_GAMMA - digamma_real(nu + 1.0)
    p, dp = _p_series_about_one_with_deriv(nu, t)

    g = np.zeros_like(t)
    dg = np.zeros_like(t)
    pk = 1.0
    gk = 0.0
    tk = np.ones_like(t)
    for k in range(SERIES_CAP):
        pk1 = pk * (nu - k) * (nu + k + 1.0) / ((k + 1.0) ** 2)
        gk1 = ((nu * (nu + 1.0) - k * (k + 1.0)) * gk - 2.0 * (k + 1.0) * pk1 - (2.0 * k + 1.0) * pk) / (
            (k + 1.0) ** 2
        )
        dg += (k + 1.0) * gk1 * tk
        tk = tk * t
        term = gk1 * tk
        g += term
        pk, gk = pk1, gk1
        if np.all(np.abs(term) <= SERIES_RTOL * (np.abs(g) + 1e-300)) and k > 4:
            break

    lnt = np.log(t)
    q = c1 * p - 0.5 * (p * lnt + g)
    # d/dz = (1/2) d/dt
    dq = 0.5 * (c1 * dp - 0.5 * (dp * lnt + p / t + dg))
    return q, dq


def _q_tail_series_offcut(nu: float, z: np.ndarray):
    """(Q_nu(z), Q_nu^1(z)) for z away from 1, descending 1/z^2 series."""
    w = 1.0 / (z * z)
    g_nu1 = _real_gamma(nu + 1.0)
    g_nu32 = _real_gamma(nu + 1.5)
    f0 = _hyp2f1_series(nu / 2.0 + 1.0, nu / 2.0 + 0.5, nu + 1.5, w)
    q = np.sqrt(np.pi) * g_nu1 / (g_nu32 * (2.0 * z) ** (nu + 1.0)) * f0
    f1 = _hyp2f1_series(nu / 2.0 + 1.5, nu / 2.0 + 1.0, nu + 1.5, w)
    q1 = (
        -np.sqrt(np.pi)
        * _real_gamma(nu + 2.0)
        * np.sqrt(z * z - 1.0)
        / (2.0 ** (nu + 1.0) * g_nu32 * z ** (nu + 2.0))
        * f1
    )
    return q, q1


def _q_oncut_center(nu: float, x: np.ndarray):
    """(Q_nu(x), dQ_nu/dx) Ferrers, |x| < 1 away from the endpoints.

    Built from the even/odd solutions about x = 0 with the classical
    connection constants Q(0), Q'(0).
    """
    x2 = x * x
    # even solution F(-nu/2, (nu+1)/2; 1/2; x^2) and odd x*F((1-nu)/2, nu/2+1; 3/2; x^2)
    fe, dfe = _hyp2f1_series(-nu / 2.0, (nu + 1.0) / 2.0, 0.5, x2, deriv=True)
    fo, dfo = _hyp2f1_series((1.0 - nu) / 2.0, nu / 2.0 + 1.0, 1.5, x2, deriv=True)
    # d/dx F(x^2) = 2x F'(x^2)
    ye, dye = fe, 2.0 * x * dfe
    yo, dyo = x * fo, fo + 2.0 * x2 * dfo

    sp = np.sqrt(np.pi)
    q0 = -0.5 * sp * np.sin(nu * np.pi / 2.0) * _real_gamma(nu / 2.0 + 0.5) / _real_gamma(nu / 2.0 + 1.0)
    q1 = sp * np.cos(nu * np.pi / 2.0) * _real_gamma(nu / 2.0 + 1.0) / _real_gamma(nu / 2.0 + 0.5)
    return q0 * ye + q1 * yo, q0 * dye + q1 * dyo


def _q_log_form_oncut(nu: float, x: np.ndarray):
    """(Q_nu(x), dQ_nu/dx) Ferrers near x = 1 via the log expansion.

    Q_nu(x) = c1 P_nu(x) - (1/2)(P_nu(x) ln w + ghat(w)), w = (1-x)/2, with
    ghat the standard c = 1 logarithmic-case series; the p_k h_k products are
    accumulated jointly so integer degrees need no special handling.
    """
    w = 0.5 * (1.0 - x)
    c1 = -EULER_GAMMA - digamma_real(nu + 1.0)
    # Ferrers P about x=1 has argument +w
    p, dp_dw = _p_series_about_one_with_deriv(nu, -w)
    dp_dw = -dp_dw  # chain rule through t = -w

    g = np.zeros_like(w)
    dg = np.zeros_like(w)
    pk = 1.0
    tk = 0.0  # T_k = p_k h_k
    wk = np.ones_like(w)
    for k in range(SERIES_CAP):
        u, v = k - nu, nu + 1.0 + k
        pk1 = pk * u * v / ((k + 1.0) ** 2)
        tk1 = (u * v * tk + pk * (u + v - 2.0 * u * v / (k + 1.0))) / ((k + 1.0) ** 2)
        dg += (k + 1.0) * tk1 * wk
        wk = wk * w
        term = tk1 * wk
        g += term
        pk, tk = pk1, tk1
        if np.all(np.abs(term) <= SERIES_RTOL * (np.abs(g) + 1e-300)) and k > 4:
            break

    lnw = np.log(w)
    q = c1 * p - 0.5 * (p * lnw + g)
    dq_dw = c1 * dp_dw - 0.5 * (dp_dw * lnw + p / w + dg)
    return q, -0.5 * dq_dw  # d/dx = -(1/2) d/dw


def _q_with_deriv(nu: float, z: np.ndarray, branch: str):
    """(Q, dQ/dz) on either branch; raises outside the branch domain."""
    _check_q_domain(nu, z, branch)
    q = np.empty_like(z)
    dq = np.empty_like(z)
    if branch == "off_cut":
        near = z < _Q_OFFCUT_LOG_MAX
        if np.any(near):
            q[near], dq[near] = _q_log_form_offcut(nu, z[near])
        if np.any(~near):
            zf = z[~near]
            qv, q1v = _q_tail_series_offcut(nu, zf)
            q[~near] = qv
            dq[~near] = q1v / np.sqrt(zf * zf - 1.0)
    else:
        near = z > _Q_ONCUT_LOG_MIN
        if np.any(near):
            q[near], dq[near] = _q_log_form_oncut(nu, z[near])
        if np.any(~near):
            q[~near], dq[~near] = _q_oncut_center(nu, z[~near])
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
