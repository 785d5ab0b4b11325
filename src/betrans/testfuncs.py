"""Frozen test functions used by the verification harness and the CLI.

The five-member suite satisfies x f(x) -> 0 at the origin; the smoothed
indicator vanishes identically outside (1, 2).  Helpers construct
moment-free variants (compactly supported combinations with prescribed
kernel moments equal to zero), which is the admissible domain for the raw
integral forms of several unitary operators, and adversarial Mellin wave
packets that realize operator norms.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .numgrid import DecayHint, Grid, SampledFunction

__all__ = [
    "SUITE",
    "suite_function",
    "suite_on_grid",
    "moment_free_combo",
    "mellin_packet",
    "zero_mean_bump",
]


def _bump12(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = (t > 1.0) & (t < 2.0)
    out[m] = np.sin(np.pi * (t[m] - 1.0)) ** 8
    return out


SUITE: dict[str, tuple[Callable, DecayHint]] = {
    "gauss": (lambda t: np.exp(-np.asarray(t, float) ** 2), DecayHint.exponential()),
    "xexp": (lambda t: np.asarray(t, float) * np.exp(-np.asarray(t, float)), DecayHint.exponential()),
    "bump12": (_bump12, DecayHint.compact(1.0, 2.0)),
    "x2gauss": (
        lambda t: np.asarray(t, float) ** 2 * np.exp(-np.asarray(t, float) ** 2),
        DecayHint.exponential(),
    ),
    "singauss": (
        lambda t: np.sin(np.asarray(t, float)) * np.exp(-np.asarray(t, float) ** 2 / 4.0),
        DecayHint.exponential(),
    ),
}


def suite_function(name: str) -> tuple[Callable, DecayHint]:
    if name not in SUITE:
        raise KeyError(f"unknown test function {name!r}; choices: {sorted(SUITE)}")
    return SUITE[name]


def suite_on_grid(name: str, grid: Grid) -> SampledFunction:
    fn, hint = suite_function(name)
    return SampledFunction.from_callable(fn, grid, hint)


def _window_bumps(centers: Iterable[float], width: float = None, rel_width: float = None):
    """sin^8 windows at the given centers; width absolute or relative to the
    center (relative widths keep every bump equally resolved on log grids)."""

    def one(c):
        w = rel_width * c if rel_width is not None else width

        def b(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros_like(t)
            m = (t > c - w) & (t < c + w)
            out[m] = np.sin(np.pi * (t[m] - c + w) / (2.0 * w)) ** 8
            return out

        return b

    return [one(c) for c in centers]


def moment_free_combo(
    grid: Grid,
    powers: Iterable[float] = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0),
    which: int = 0,
) -> SampledFunction:
    """Smooth compact function with int y^p f(y) dy = 0 for the given powers.

    Built from eight narrow bumps on (0.8, 5.2) whose coefficient vector is
    taken in the null space of the moment matrix.  These lie in the natural
    domain of the raw integral forms of the unitary Hardy-type operators.
    """
    powers = list(powers)
    a, b_hull = grid.hull
    rel = 0.30
    c0 = max(1.3, 3.0 * a)
    c_hi = c0 * 3.4
    centers = np.geomspace(c0, c_hi, len(powers) + 2)
    if c_hi * (1.0 + rel) > 0.8 * b_hull:
        raise ValueError("grid hull too small for the moment-free construction")
    bumps = _window_bumps(centers, rel_width=rel)
    y = grid.points
    # moments of the *splined* bumps (what operator quadrature integrates),
    # via a dense rule; residual moments get amplified by negative powers of
    # the hull bottom, so the kill must match the discrete representation
    from .numgrid import _uniform_weights

    lo = centers[0] * (1.0 - rel) - 0.05
    hi = centers[-1] * (1.0 + rel) + 0.05
    dense = np.linspace(lo, hi, 20001)
    dw = _uniform_weights(len(dense), dense[1] - dense[0])
    sampled = [SampledFunction(grid, b(y)) for b in bumps]
    dvals = [sf(dense) for sf in sampled]
    mat = np.array([[float(np.sum(dw * dense**p * dv)) for dv in dvals] for p in powers])
    _, _, vt = np.linalg.svd(mat)
    null = vt[len(powers) :]
    if which >= len(null):
        raise ValueError(f"only {len(null)} independent moment-free combinations available")
    coef = null[which]
    vals = np.zeros_like(y)
    for c, b in zip(coef, bumps):
        vals += c * b(y)
    out = SampledFunction(
        grid, vals, DecayHint.compact(centers[0] * (1.0 - rel), centers[-1] * (1.0 + rel))
    )
    scale = float(np.max(np.abs(vals)))
    return out.with_values(vals / scale) if scale > 0 else out


def wide_bump(grid: Grid) -> SampledFunction:
    """Smoothed indicator on (1, 4): compact but gentle enough for 4th-order
    finite differences at the default resolutions."""

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        m = (t > 1.0) & (t < 4.0)
        out[m] = np.sin(np.pi * (t[m] - 1.0) / 3.0) ** 8
        return out

    return SampledFunction.from_callable(fn, grid, DecayHint.compact(1.0, 4.0))


def zero_mean_bump(grid: Grid) -> SampledFunction:
    """Compact smooth function with int f dy = 0 (two opposing bumps)."""
    b1, b2 = _window_bumps([1.5, 3.0], width=0.45)
    y, w = grid.points, grid.weights
    c = float(np.sum(w * b1(y)) / np.sum(w * b2(y)))
    vals = b1(y) - c * b2(y)
    return SampledFunction(grid, vals, DecayHint.compact(1.0, 3.5))


def mellin_packet(grid: Grid, u0: float, width: float, deriv_window: bool = False) -> SampledFunction:
    """x^(-1/2) cos(u0 ln x) under a log-coordinate window: a near-eigenfunction
    of Mellin-convolution operators concentrated at frequency u0.

    deriv_window=True uses a zero-mean (first-moment) window, which pushes
    the packet's spectrum off u = 0.
    """
    tau = np.log(grid.points)
    t0 = 0.5 * (tau[0] + tau[-1])
    arg = (tau - t0) / width
    win = arg * np.exp(-0.5 * arg * arg) if deriv_window else np.exp(-0.5 * arg * arg)
    vals = grid.points ** (-0.5) * np.cos(u0 * (tau - t0)) * win
    return SampledFunction(grid, vals, DecayHint.power(1.0))
