"""The check registry: the `verify all` suite as one table.

Each row of the table is a check id, a check function of verify.checks and
its arguments; REGISTRY binds them (functools.partial), keyed by id.  The
id is decided here, by the key, and run_checks writes it into the report.
run_checks runs checks in canonical (sorted) order, so report bundles are
deterministic and reproducible.  Building the table evaluates nothing: no
grid, no plan, no scipy.
"""

from __future__ import annotations

import json
import time
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np

from ..beops import OperatorSpec
from ..testfuncs import SUITE
from . import checks
from .report import FAIL, VerificationReport

__all__ = ["REGISTRY", "run_all", "run_checks", "check_ids", "bundle_json", "compare_bundles"]

# parameter points (nu, mu) of each group of factorization formulas
_FACTORIZATIONS = (
    (("thm1_a", "thm1_b", "thm1_c", "thm1_d"), ((1.0, 0.0), (1.0, 0.5), (2.0, 0.0), (0.5, 0.3))),
    (("thm4_a", "thm4_c"), ((1.0, 0.0),)),
    (("thm4_b", "thm4_d"), ((0.0, -1.0), (0.5, -1.0), (0.0, -0.5), (0.25, -0.75))),
)
_ZERO_ORDER_NORMS = (("S0+", (-0.75, -0.25, 0.0, 0.25, 1.0, 1.5)), ("P0+", (-0.5, 0.25)), ("S-", (0.7,)), ("P-", (0.3,)))

# (id, check, *arguments); intertwining rows read (T, target "A_to_B", operands, degree[, grid])
_TABLE = [
    ("copson_const", checks.copson_check, checks.CopsonData(0.5, 1.5, np.ones_like), 1e-6),
    ("copson_gauss", checks.copson_check, checks.CopsonData(0.5, 1.5, SUITE["gauss"][0])),
    *((f"fact[{formula};nu={nu:g},mu={mu:g}]", checks.check_factorization, formula, nu, mu)
      for formulas, points in _FACTORIZATIONS for formula in formulas for nu, mu in points),
    ("first_kind_reductions", checks.check_first_kind_reductions),
    *((f"funceq[zero:S0+;nu={nu:g}]", checks.check_functional_equation, OperatorSpec("zero_order", "S0+", nu=nu))
      for nu in (0.0, 1.0, 1.5)),
    ("funceq[stieltjes-composed]", checks.check_functional_equation, OperatorSpec("zero_order", "S0+", nu=1.0), None, True),
    ("hardy_identities", checks.check_hardy_identities),
    ("hardy_shifted_unitarity", checks.check_shifted_hardy_unitarity),
    ("hardy_shifted_intertwining", checks.check_intertwining, OperatorSpec("hardy_shifted", "H1"), "d2_to_angular",
     ["wide_bump"], 1.0),
    ("intertwine[zero:S-;nu=0.5]", checks.check_intertwining, OperatorSpec("zero_order", "S-", nu=0.5), "angular_to_d2",
     ["wide_bump", "x2gauss"], 0.5),
    ("intertwine[zero:S0+;nu=1]", checks.check_intertwining, OperatorSpec("zero_order", "S0+", nu=1.0), "angular_to_d2",
     ["wide_bump"], 1.0),
    ("intertwine[kat:S;nu=0.5]", checks.check_intertwining, OperatorSpec("katrakhov", "S", nu=0.5), "angular_to_d2",
     ["wide_bump", "x2gauss"], 0.5),
    ("intertwine[spd:S;nu=0.25]", checks.check_intertwining, OperatorSpec("spd", "S", nu=0.25), "bessel_to_d2",
     ["wide_bump"], 0.25, "fine"),
    ("intertwine[spd:P;nu=0.25]", checks.check_intertwining, OperatorSpec("spd", "P", nu=0.25), "d2_to_bessel",
     ["wide_bump"], 0.25, "fine"),
    ("intertwine[weighted_third;nu=0.5]", checks.check_intertwining,
     OperatorSpec("weighted_third", "S", nu=0.5, phi="one", trig="sin"), "bessel_to_d2", ["x2gauss"], 0.5, "mid"),
    ("katrakhov_nu0_identity", checks.check_katrakhov_identity),
    ("katrakhov_unitarity", checks.check_katrakhov),
    ("lifted_pair", checks.check_lifted_pair),
    ("mult_consistency[zero_order;nu=0.3]", checks.check_multiplicator_ratio, "zero_order", ("S0+", "P0+", "S-", "P-"), 0.3),
    ("mult_consistency[second_kind;nu=0.3]", checks.check_multiplicator_ratio, "second_kind", ("S", "P"), 0.3),
    ("mult_consistency[stieltjes]", checks.check_stieltjes_symbol),
    *((f"mult_primary[nu={nu:g}]", checks.check_multiplicator_ratio, "zero_order", ("S0+",), nu) for nu in (0.0, 1.0, -0.5)),
    ("mult_inverse_pair", checks.check_inverse_pair),
    *((f"norm[zero:{var};nu={nu:g}]", checks.check_norm_vs_sup, OperatorSpec("zero_order", var, nu=nu))
      for var, nus in _ZERO_ORDER_NORMS for nu in nus),
    ("norm[second:S;nu=0.3]", checks.check_norm_vs_sup, OperatorSpec("second_kind", "S", nu=0.3)),
    ("norm[second:S;nu=i+0.5]", checks.check_norm_vs_sup, OperatorSpec("second_kind", "S", nu=0.5 + 1.0j)),
    ("norm[kat:S;nu=0.7]", checks.check_norm_vs_sup, OperatorSpec("katrakhov", "S", nu=0.7)),
    ("norm[stieltjes]", checks.check_norm_vs_sup, OperatorSpec("stieltjes")),
    ("norm_periodicity", checks.check_norm_periodicity),
    ("norm_realization[nu=-0.5]", checks.check_norm_realization, -0.5),
    ("second_kind_degeneration", checks.check_second_kind_degeneration),
    ("second_kind_2param", checks.check_second_kind_2param),
    *((f"seminorm[alpha={alpha}]", checks.check_seminorm_identity, alpha) for alpha in (1, 2, 3)),
    *((f"embedding[alpha={alpha}]", checks.check_embedding_inequality, alpha) for alpha in (1, 2, 3)),
    ("spd_identities", checks.check_spd_identities),
    ("spd_poisson_bessel", checks.check_spd_poisson_bessel),
    ("stieltjes_value", checks.check_stieltjes_value),
    ("stieltjes_composed_transmutation", checks.check_stieltjes_composed),
    ("transforms_basic", checks.check_transforms),
    ("weighted_third_inverse", checks.check_weighted_third_inverse),
    ("unbounded[zero:S0+;nu=0.5]", checks.check_unbounded_growth, 0.5),
    *((f"unitarity[zero_order;nu={nu:g}]", checks.check_unitarity, nu) for nu in (1.0, 2.0)),
    ("unitary_hardy_suite", checks.check_unitary_hardy_suite),
]

REGISTRY = {cid: partial(check, *args) for cid, check, *args in sorted(_TABLE, key=lambda row: row[0])}


def check_ids() -> list[str]:
    return list(REGISTRY)


def run_checks(ids: Iterable[str], verbose: bool = True) -> list[VerificationReport]:
    reports = []
    for cid in sorted(ids):
        if cid not in REGISTRY:
            raise KeyError(f"unknown check id {cid!r}")
        t0 = time.time()
        try:
            rep = REGISTRY[cid]()
        except Exception as exc:  # one failing check must not abort the bundle
            rep = VerificationReport(
                check_id=cid,
                provenance="check raised before producing a report",
                params={},
                residuals=[],
                tolerance=0.0,
                status=FAIL,
                notes=f"{type(exc).__name__}: {exc}",
            )
        rep.check_id = cid
        dt = time.time() - t0
        if verbose:
            print(f"[{rep.status:>10s}] {rep.check_id:<42s} residual {rep.residual_max:.3e} tol {rep.tolerance:g} ({dt:.1f}s)")
        reports.append(rep)
    return reports


def bundle_json(reports: Iterable[VerificationReport]) -> str:
    """The JSON report bundle: every report's dict, in check-id order.  What
    `betrans verify --output` writes and `--compare` reads."""
    return json.dumps([r.as_dict() for r in sorted(reports, key=lambda r: r.check_id)], indent=2, sort_keys=True)


def run_all(out_path=None, verbose: bool = True) -> list[VerificationReport]:
    reports = run_checks(REGISTRY, verbose=verbose)
    if out_path is not None:
        Path(out_path).write_text(bundle_json(reports), encoding="utf-8")
    return reports


def _summary(entry: dict) -> str:
    return f"{entry['status']} {entry['residual_max']:.2e}"


def compare_bundles(base: list[dict], change: list[dict]) -> list[str]:
    """One line per check whose status, residual_max to 3 significant
    digits, params or notes differ between two bundles, or that only one
    bundle has."""
    old = {e["check_id"]: e for e in base}
    new = {e["check_id"]: e for e in change}
    lines = []
    for cid in sorted(old.keys() | new.keys()):
        if cid not in new:
            lines.append(f"{cid}: only in the base bundle")
        elif cid not in old:
            lines.append(f"{cid}: not in the base bundle")
        else:
            a, b = old[cid], new[cid]
            moved = _summary(a) != _summary(b)
            differ = [f"{key} differ" for key in ("params", "notes") if a[key] != b[key]]
            if moved or differ:
                head = f"{_summary(a)} -> {_summary(b)}" if moved else _summary(b)
                lines.append("; ".join([f"{cid}: {head}", *differ]))
    return lines
