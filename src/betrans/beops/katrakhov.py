"""Third-kind unitary combinations of first- and second-kind operators.

The Sonine-side operator is cos(pi nu/2) times the zero-order "-" Sonine
operator minus sin(pi nu/2) times the second-kind operator; the Poisson
side combines the mirrored pieces and inverts it for every real nu.  The
operator is assembled from the public operators; its independent path is
its symbol on the critical line (mellin.line_apply).
"""

from __future__ import annotations

import numpy as np

from ..numgrid import SampledFunction
from .second_kind import apply_second_kind
from .specs import OperatorSpec, OperatorSpecError, real_nu
from .zero_order import apply_zero_order

__all__ = ["apply_katrakhov"]


def _coeffs(nu: float) -> tuple[float, float]:
    return np.cos(np.pi * nu / 2.0), np.sin(np.pi * nu / 2.0)


def apply_katrakhov(spec: OperatorSpec, f: SampledFunction) -> SampledFunction:
    """Apply the unitary third-kind operator S_U (variant S) or P_U (variant
    P), assembled from the zero-order and second-kind operators."""
    if spec.family != "katrakhov":
        raise OperatorSpecError("apply_katrakhov expects a katrakhov spec")
    nu = real_nu(spec)
    kappa, tau = _coeffs(nu)
    if spec.variant == "S":
        zo = apply_zero_order(OperatorSpec("zero_order", "S-", nu=nu), f)
        sk = apply_second_kind(OperatorSpec("second_kind", "S", nu=nu), f)
    else:
        zo = apply_zero_order(OperatorSpec("zero_order", "P0+", nu=nu), f)
        sk = apply_second_kind(OperatorSpec("second_kind", "P", nu=nu), f)
    return f.with_values(kappa * zo.values - tau * sk.values, decay_hint=None)
