"""The operator catalog: one row per operator family.

The paper sorts the Buschman-Erdelyi transmutations into the first kind
(with zero-order smoothness as a special case), the second kind, and the
third kind (with the unitary Sonine-Katrakhov and Poisson-Katrakhov
combinations as a special case); next to them sit the classical
Sonine-Poisson-Delsarte, Hardy and Stieltjes operators.  Each row below
holds everything the package knows about one family:

- ``token``, ``variants`` and ``params``: the CLI grammar (beops.specs);
- ``apply``: (spec, f, **options) -> SampledFunction (beops.apply);
- ``symbol``, ``strip`` and ``norm``: for the Mellin-convolution families,
  the closed-form symbol m(s), the strip where the defining integral
  converges, and the closed-form L2 norm (``None`` falls back to
  mellin.numeric_line_sup); families without a symbol leave all three
  ``None``;
- ``listing``: the ``betrans list`` lines, (template, description,
  witness check ids).

Adding a family means adding a row here.  The callables look their
functions up on the owning module at call time (``classicops.hardy``, not
a stored reference), so that a wrapper bound on that module, such as the
benchmark's tracer, sees every call.  The lower layers (beops, mellin)
import this module inside their functions, since it imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import classicops, mellin
from .beops import first_kind, katrakhov, second_kind, transforms, zero_order
from .beops.specs import OperatorSpecError, real_nu

__all__ = ["Family", "FAMILIES", "BY_NAME", "BY_TOKEN", "mellin_row"]


@dataclass(frozen=True)
class Family:
    name: str
    token: str
    variants: tuple[str, ...]
    params: tuple[str, ...]
    apply: Callable
    listing: tuple[tuple[str, str, tuple[str, ...]], ...]
    symbol: Optional[Callable] = None  # (spec, s) -> m(s)
    strip: Optional[Callable] = None  # (variant, Re nu) -> (sigma_min, sigma_max)
    norm: Optional[Callable] = None  # spec -> ||A||; None: numeric line sup
    validate: Optional[Callable] = None  # spec -> None, raises OperatorSpecError


def _mu_below_one(spec) -> None:
    if spec.mu >= 1.0:
        raise OperatorSpecError("first_kind requires mu < 1")


def _zero_order_strip(variant: str, nu: float) -> tuple[float, float]:
    return {
        "S0+": (-np.inf, min(2.0 + nu, 1.0 - nu)),
        "P0+": (-np.inf, 1.0),
        "S-": (0.0, np.inf),
        "P-": (max(nu, -1.0 - nu), np.inf),
    }[variant]


def _unit_strip(variant: str, nu: float) -> tuple[float, float]:
    return (0.0, 1.0)


def _hardy_strip(variant: str, nu: float) -> tuple[float, float]:
    return (-np.inf, 1.0) if variant == "H1" else (0.0, np.inf)


def _spd_strip(variant: str, nu: float) -> tuple[float, float]:
    return (-np.inf, 1.0) if variant == "P" else (-np.inf, 2.0 + 2.0 * nu)


def _zero_order_norm(spec) -> float:
    a = complex(np.sin(np.pi * complex(spec.nu)))
    if abs(a.imag) >= 1e-14:
        raise mellin.CatalogError("complex nu norm not defined for this variant")
    a = a.real
    if spec.variant in ("S0+", "P-"):
        den = min(1.0, np.sqrt(max(1.0 - a, 0.0))) if a < 1.0 else 0.0
        return np.inf if den < mellin.UNBOUNDED_TOL else 1.0 / den
    return max(1.0, np.sqrt(1.0 - a))


def _second_kind_norm(spec) -> float:
    """Both realizations: the S symbol and its conjugate have the same sup."""
    a = np.sin(np.pi * complex(spec.nu))
    if np.imag(spec.nu) != 0:
        # nu = i beta + 1/2, where sin(pi nu) = cosh(pi beta): the sup of |m|
        # over the line in closed form
        if abs(np.imag(a)) > 1e-10:
            raise mellin.CatalogError("closed-form complex-nu norm implemented for nu = i*beta + 1/2 only")
        return float(np.sqrt(1.0 + np.real(a)))
    a = float(np.real(a))
    return max(1.0, np.sqrt(1.0 + a)) if 1.0 + a > 0 else 1.0


def _spd_apply(spec, f):
    nu = real_nu(spec)
    return classicops.spd_poisson(nu, f) if spec.variant == "P" else classicops.spd_sonine(nu, f)


FAMILIES: tuple[Family, ...] = (
    Family(
        name="first_kind",
        token="first",
        variants=("B0+", "E0+", "B-", "E-"),
        params=("nu", "mu"),
        validate=_mu_below_one,
        apply=lambda spec, f, **kw: first_kind.apply_first_kind(spec, f, **kw),
        listing=(
            ("first:B0+:nu=<r>:mu=<r>", "first-kind lower operator, Legendre-P kernel", ("fact[thm1_a;nu=1,mu=0]", "first_kind_reductions")),
            ("first:E0+:nu=<r>:mu=<r>", "first-kind lower operator, on-cut kernel", ("fact[thm1_c;nu=1,mu=0]", "fact[thm4_b;nu=0,mu=-1]")),
            ("first:B-:nu=<r>:mu=<r>", "first-kind upper operator", ("fact[thm1_b;nu=1,mu=0]",)),
            ("first:E-:nu=<r>:mu=<r>", "first-kind upper operator, on-cut kernel", ("fact[thm1_d;nu=1,mu=0]", "fact[thm4_d;nu=0,mu=-1]")),
        ),
    ),
    Family(
        name="zero_order",
        token="zero",
        variants=("S0+", "P0+", "S-", "P-"),
        params=("nu",),
        apply=lambda spec, f, **kw: zero_order.apply_zero_order(spec, f, **kw),
        symbol=lambda spec, s: mellin.m_zero_order(spec.variant, spec.nu, s),
        strip=_zero_order_strip,
        norm=_zero_order_norm,
        listing=(
            ("zero:S0+:nu=<r>", "zero-order-smoothness Sonine form (lower)", ("unitarity[zero_order;nu=1]", "mult_primary[nu=1]", "funceq[zero:S0+;nu=1]")),
            ("zero:P0+:nu=<r>", "zero-order-smoothness Poisson form (lower)", ("hardy_identities", "mult_consistency[zero_order;nu=0.3]")),
            ("zero:S-:nu=<r>", "zero-order-smoothness Sonine form (upper)", ("hardy_identities", "intertwine[zero:S-;nu=0.5]")),
            ("zero:P-:nu=<r>", "zero-order-smoothness Poisson form (upper)", ("unitarity[zero_order;nu=1]", "seminorm[alpha=2]")),
        ),
    ),
    Family(
        name="second_kind",
        token="second",
        variants=("S", "P"),
        params=("nu",),
        apply=lambda spec, f, **kw: second_kind.apply_second_kind(spec, f, **kw),
        symbol=lambda spec, s: mellin.m_second_kind(spec.variant, spec.nu, s),
        strip=_unit_strip,
        norm=_second_kind_norm,
        listing=(
            ("second:S:nu=<r>", "second-kind operator, Legendre-Q kernel, principal value", ("second_kind_degeneration", "mult_consistency[second_kind;nu=0.3]")),
            ("second:P:nu=<r>", "second-kind mirrored operator", ("mult_consistency[second_kind;nu=0.3]", "katrakhov_unitarity")),
        ),
    ),
    Family(
        name="second_kind_2param",
        token="second2",
        variants=("S",),
        params=("nu", "mu"),
        apply=lambda spec, f, **kw: second_kind.apply_second_kind_2param(spec, f, **kw),
        symbol=lambda spec, s: mellin.m_second_kind_2param(spec.nu, spec.mu, s),
        strip=_unit_strip,
        listing=(("second2:S:nu=<r>:mu=1", "two-parameter second-kind operator (unit order)", ("second_kind_2param",)),),
    ),
    Family(
        name="katrakhov",
        token="kat",
        variants=("S", "P"),
        params=("nu",),
        apply=lambda spec, f, **kw: katrakhov.apply_katrakhov(spec, f, **kw),
        symbol=lambda spec, s: mellin.m_katrakhov(spec.variant, spec.nu, s),
        strip=_unit_strip,
        norm=lambda spec: 1.0,
        listing=(
            ("kat:S:nu=<r>", "unitary third-kind Sonine combination", ("katrakhov_unitarity", "intertwine[kat:S;nu=0.5]")),
            ("kat:P:nu=<r>", "unitary third-kind Poisson combination", ("katrakhov_unitarity",)),
        ),
    ),
    Family(
        name="weighted_third",
        token="third",
        variants=("S", "P"),
        params=("nu", "trig", "phi"),
        apply=lambda spec, f, **kw: transforms.apply_weighted_third(spec, f, **kw),
        listing=(
            ("third:S:nu=<r>:phi=<name>:trig=sin|cos", "weighted third kind via transform composition", ("weighted_third_inverse", "intertwine[weighted_third;nu=0.5]")),
            ("third:P:nu=<r>:phi=<name>:trig=sin|cos", "weighted third kind, inverse direction", ("weighted_third_inverse",)),
        ),
    ),
    Family(
        name="spd",
        token="spd",
        variants=("S", "P"),
        params=("nu",),
        apply=_spd_apply,
        symbol=lambda spec, s: mellin.m_spd(spec.variant, spec.nu, s),
        strip=_spd_strip,
        listing=(
            ("spd:S:nu=<r>", "classical Sonine transmutation", ("intertwine[spd:S;nu=0.25]", "spd_identities")),
            ("spd:P:nu=<r>", "classical Poisson transmutation", ("intertwine[spd:P;nu=0.25]", "spd_poisson_bessel")),
        ),
    ),
    Family(
        name="hardy",
        token="hardy",
        variants=("H1", "H2"),
        params=(),
        apply=lambda spec, f: classicops.hardy(spec.variant, f),
        symbol=lambda spec, s: mellin.m_hardy(spec.variant, s, shifted=False),
        strip=_hardy_strip,
        norm=lambda spec: 2.0,
        listing=(("hardy:H1 / hardy:H2", "Hardy averages", ("hardy_identities",)),),
    ),
    Family(
        name="hardy_shifted",
        token="hardy1",
        variants=("H1", "H2"),
        params=(),
        apply=lambda spec, f: classicops.hardy_shifted(spec.variant, f),
        symbol=lambda spec, s: mellin.m_hardy(spec.variant, s, shifted=True),
        strip=_hardy_strip,
        norm=lambda spec: 1.0,
        listing=(("hardy1:H1 / hardy1:H2", "shifted (unitary) Hardy operators", ("hardy_shifted_unitarity", "hardy_shifted_intertwining")),),
    ),
    Family(
        name="unitary_hardy",
        token="uhardy",
        variants=tuple(f"U{k}" for k in range(3, 11)),
        params=(),
        apply=lambda spec, f: classicops.unitary_u(int(spec.variant[1:]), f),
        symbol=lambda spec, s: mellin.m_unitary_hardy(spec.variant, s),
        strip=_unit_strip,
        norm=lambda spec: 1.0,
        listing=(("uhardy:U3 .. uhardy:U10", "elementary unitary Hardy-type operators", ("unitary_hardy_suite",)),),
    ),
    Family(
        name="stieltjes",
        token="stieltjes",
        variants=("",),
        params=(),
        apply=lambda spec, f: classicops.stieltjes(f),
        symbol=lambda spec, s: mellin.m_stieltjes(s),
        strip=_unit_strip,
        norm=lambda spec: np.pi,
        listing=(("stieltjes", "Stieltjes transform", ("stieltjes_value", "mult_consistency[stieltjes]", "funceq[stieltjes-composed]")),),
    ),
)

BY_NAME = {row.name: row for row in FAMILIES}
BY_TOKEN = {row.token: row for row in FAMILIES}


def mellin_row(spec) -> Family:
    """The row of spec's family, which must have a closed-form symbol."""
    row = BY_NAME[spec.family]
    if row.symbol is None:
        raise mellin.CatalogError(f"family {spec.family!r} is not a Mellin-multiplier family")
    return row
