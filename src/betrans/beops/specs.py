"""Operator descriptors and the CLI string grammar.

Grammar: ``family:variant[:nu=<r>][:mu=<r>][:phi=<name>][:trig=sin|cos]``,
e.g. ``zero:S0+:nu=1`` or ``third:S:nu=0.5:phi=one:trig=sin``.  Families
without parameters (``stieltjes``) may omit everything after the name.

This module owns the grammar and the rule each parameter must meet; which
families exist, their tokens, variants and required parameters are read
from the operator catalog (betrans.catalog).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["OperatorSpec", "OperatorSpecError", "parse_operator", "format_operator"]


class OperatorSpecError(ValueError):
    pass


# required parameter -> (test its value passes, message naming the family)
_PARAM_RULES = {
    "nu": (lambda v: v is not None, "family {!r} requires nu"),
    "mu": (lambda v: v is not None, "family {!r} requires mu"),
    "trig": (lambda v: v in ("sin", "cos"), "{} requires trig=sin|cos"),
    "phi": (bool, "{} requires a phi name"),
}


@dataclass(frozen=True)
class OperatorSpec:
    """Tagged description of one operator: family, variant, and parameters."""

    family: str
    variant: str = ""
    nu: Optional[Union[float, complex]] = None
    mu: Optional[float] = None
    phi: Optional[str] = None
    trig: Optional[str] = None

    def __post_init__(self):
        from ..catalog import BY_NAME

        row = BY_NAME.get(self.family)
        if row is None:
            raise OperatorSpecError(f"unknown family {self.family!r}")
        if self.variant not in row.variants:
            raise OperatorSpecError(
                f"variant {self.variant!r} not valid for family {self.family!r}"
            )
        for name in row.params:
            valid, message = _PARAM_RULES[name]
            if not valid(getattr(self, name)):
                raise OperatorSpecError(message.format(self.family))
        if row.validate is not None:
            row.validate(self)

    @property
    def label(self) -> str:
        return format_operator(self)


def parse_operator(text: str) -> OperatorSpec:
    from ..catalog import BY_TOKEN

    parts = [p for p in text.strip().split(":") if p != ""]
    if not parts:
        raise OperatorSpecError("empty operator string")
    token = parts[0].lower()
    if token not in BY_TOKEN:
        raise OperatorSpecError(f"unknown operator family token {parts[0]!r}")
    family = BY_TOKEN[token].name
    variant = ""
    kwargs: dict = {}
    for part in parts[1:]:
        if "=" in part:
            key, _, val = part.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if key == "nu":
                kwargs["nu"] = complex(val) if "j" in val else float(val)
            elif key == "mu":
                kwargs["mu"] = float(val)
            elif key == "phi":
                kwargs["phi"] = val
            elif key == "trig":
                kwargs["trig"] = val.lower()
            else:
                raise OperatorSpecError(f"unknown parameter {key!r}")
        else:
            variant = part
    return OperatorSpec(family=family, variant=variant, **kwargs)


def format_operator(spec: OperatorSpec) -> str:
    from ..catalog import BY_NAME

    parts = [BY_NAME[spec.family].token]
    if spec.variant:
        parts.append(spec.variant)
    if spec.nu is not None:
        nu = spec.nu
        parts.append(f"nu={nu.real:g}{nu.imag:+g}j" if isinstance(nu, complex) else f"nu={nu:g}")
    if spec.mu is not None:
        parts.append(f"mu={spec.mu:g}")
    if spec.phi is not None:
        parts.append(f"phi={spec.phi}")
    if spec.trig is not None:
        parts.append(f"trig={spec.trig}")
    return ":".join(parts)
