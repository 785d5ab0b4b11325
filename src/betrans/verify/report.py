"""Structured pass/fail records for the verification harness."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["VerificationReport", "PASS", "FAIL", "SKIPPED", "XFAIL_PASS"]

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
XFAIL_PASS = "XFAIL-PASS"


@dataclass
class VerificationReport:
    check_id: str
    provenance: str
    params: dict
    residuals: list[float]
    tolerance: float
    status: str = ""
    notes: str = ""

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("provenance must be non-empty")
        self.residuals = [float(r) for r in np.atleast_1d(self.residuals)]
        if not self.status:
            self.status = PASS if self.passed else FAIL

    @property
    def residual_max(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        if self.status == SKIPPED:
            return True
        if self.status == XFAIL_PASS:
            return True
        if self.status == FAIL:
            return False
        return self.residual_max <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "provenance": self.provenance,
            "params": self.params,
            "residual_max": self.residual_max,
            "tolerance": self.tolerance,
            "status": self.status,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)
