"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the final criterion executes the complete verification suite and
enforces its runtime budget.
"""

import time

import numpy as np
import pytest

import betrans.verify as V
from betrans import mellin
from betrans.beops import OperatorSpec
from betrans.verify.registry import REGISTRY


def _line(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


def _run(check_id: str):
    return REGISTRY[check_id]()


def test_criterion_1_multiplicator_reproduction():
    t0 = time.time()
    worst = 0.0
    for cid in ("mult_primary[nu=0]", "mult_primary[nu=1]", "mult_primary[nu=-0.5]"):
        rep = _run(cid)
        worst = max(worst, rep.residual_max)
        assert rep.passed, cid
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    _line("1 (symbol reproduction)", ok, f"max rel {worst:.2e}, {elapsed:.1f}s")
    assert ok


def _second_kind_line_modulus(beta: float, u):
    """|m(1/2 + iu)| of second:S at nu = 1/2 + i beta in elementary form.

    With s = 1/2 + iu, |Gamma(s/2) Gamma(s/2 + 1/2)| = pi sqrt(2/cosh(pi u))
    (reflection), cos(pi (s - nu)/2) = cosh(pi y1), and the ratio
    Gamma(1 + i y1)/Gamma(1 + i y2) has modulus
    sqrt(y1 sinh(pi y2)/(y2 sinh(pi y1))), y1 = (beta - u)/2 and
    y2 = (beta + u)/2 (DLMF 5.4.3).  At u = 0 it is sqrt(1 + cosh(pi beta)).
    """
    y1, y2 = (beta - u) / 2.0, (beta + u) / 2.0
    return np.sqrt(2.0 * np.cosh(np.pi * y1) ** 2 / np.cosh(np.pi * u) * y1 / np.sinh(np.pi * y1) * np.sinh(np.pi * y2) / y2)


def test_criterion_2_norm_formulas():
    vals = {
        "unit at degree 0": (mellin.operator_norm(OperatorSpec("zero_order", "S0+", nu=0.0)), 1.0),
        "sqrt2 at P0+ -1/2": (mellin.operator_norm(OperatorSpec("zero_order", "P0+", nu=-0.5)), np.sqrt(2.0)),
    }
    ok = all(abs(a - b) < 1e-12 for a, b in vals.values())
    # second kind at nu = 1/2 + i: no closed form, so the norm is the
    # two-sided numeric sup.  Its reference is the sup of the elementary
    # modulus over both sides of the line, on a 1e-3 ladder over |u| < 10
    # (never u = +-1, where y1 or y2 vanishes) and a 1e-8 ladder around
    # its maximizer; the bound is the numeric sup's own resolution (its
    # finest ladder is 1e-4 apart; measured 1.4e-8 below the reference)
    spec = OperatorSpec("second_kind", "S", nu=0.5 + 1j)
    u = np.arange(-10_000, 10_000) * 1e-3 + 5e-4
    modulus = _second_kind_line_modulus(1.0, u)
    assert np.max(np.abs(modulus / np.abs(mellin.multiplicator(spec, 0.5 + 1j * u)) - 1.0)) < 1e-12
    fine = u[np.argmax(modulus)] + np.linspace(-1e-3, 1e-3, 200_001)
    ok = ok and abs(mellin.operator_norm(spec) - np.max(_second_kind_line_modulus(1.0, fine))) < 1e-7
    ok = ok and np.isinf(mellin.operator_norm(OperatorSpec("zero_order", "S0+", nu=0.5)))
    worst_sup = 0.0
    for nu in (-0.75, -0.25, 0.0, 0.25, 1.0, 1.5):
        spec = OperatorSpec("zero_order", "S0+", nu=nu)
        worst_sup = max(worst_sup, abs(mellin.operator_norm(spec) - mellin.numeric_line_sup(spec)))
    for var, nu in (("P0+", -0.5), ("S-", 0.7), ("P-", 0.3)):
        spec = OperatorSpec("zero_order", var, nu=nu)
        worst_sup = max(worst_sup, abs(mellin.operator_norm(spec) - mellin.numeric_line_sup(spec)))
    ok = ok and worst_sup < 1e-4
    _line("2 (norm formulas)", ok, f"closed forms exact, sup dev {worst_sup:.2e}")
    assert ok


def test_criterion_3_integer_unitarity_and_xfail():
    worst = 0.0
    for cid in ("unitarity[zero_order;nu=1]", "unitarity[zero_order;nu=2]"):
        rep = _run(cid)
        worst = max(worst, rep.residual_max)
        assert rep.passed and rep.tolerance <= 1e-5, cid
    xrep = _run("unbounded[zero:S0+;nu=0.5]")
    growth_ok = xrep.status == "XFAIL-PASS" and all(g >= 2.0 for g in xrep.params["growth"])
    ok = worst < 1e-5 and growth_ok
    _line("3 (integer unitarity + half-odd divergence)", ok,
          f"residual {worst:.2e}, growth {xrep.params['growth']}")
    assert ok


def test_criterion_4_hardy_identities():
    rep = _run("hardy_identities")
    rep2 = _run("hardy_shifted_unitarity")
    ok = rep.passed and rep.residual_max < 1e-8 and rep2.passed and rep2.residual_max < 1e-6
    _line("4 (Hardy identities)", ok, f"pointwise {rep.residual_max:.2e}, unitarity {rep2.residual_max:.2e}")
    assert ok


def test_criterion_5_factorizations():
    passed_counts = {}
    skipped = []
    for cid in REGISTRY:
        if not cid.startswith("fact["):
            continue
        rep = _run(cid)
        formula = rep.params["formula"]
        if rep.status == "SKIPPED":
            skipped.append(cid)
            continue
        assert rep.passed, (cid, rep.residual_max)
        assert rep.tolerance <= 1e-5
        passed_counts[formula] = passed_counts.get(formula, 0) + 1
    implementable = ("thm1_a", "thm1_b", "thm1_c", "thm1_d", "thm4_b", "thm4_d")
    ok = all(passed_counts.get(f, 0) >= 4 for f in implementable) and len(skipped) >= 2
    _line("5 (factorizations)", ok, f"points per formula {passed_counts}, skipped {len(skipped)}")
    assert ok


def test_criterion_6_katrakhov_unitarity():
    rep = _run("katrakhov_unitarity")
    ok = (
        rep.passed
        and rep.params["isometry_max"] < 1e-4
        and rep.params["inverse_max"] < 1e-4
        and rep.params["path_agreement_max"] < 1e-5
        and tuple(rep.params["nu"]) == (0.5, 0.7, 1.5)
    )
    _line("6 (third-kind unitarity)", ok,
          f"iso {rep.params['isometry_max']:.2e}, inv {rep.params['inverse_max']:.2e}, "
          f"paths {rep.params['path_agreement_max']:.2e}")
    assert ok


def test_criterion_7_second_kind_degeneration():
    rep = _run("second_kind_degeneration")
    ok = rep.passed and rep.residual_max < 1e-5 and len(rep.params["suite"]) == 2
    _line("7 (Hilbert-pair degeneration)", ok, f"residual {rep.residual_max:.2e}")
    assert ok


def test_criterion_8_functional_equation():
    worst = 0.0
    for cid in (
        "funceq[zero:S0+;nu=0]",
        "funceq[zero:S0+;nu=1]",
        "funceq[zero:S0+;nu=1.5]",
        "funceq[stieltjes-composed]",
    ):
        rep = _run(cid)
        worst = max(worst, rep.residual_max)
        assert rep.passed and rep.params.get("n_samples", 20) >= 20 or "stieltjes" in cid
    ok = worst < 1e-10
    _line("8 (functional equation)", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_9_seminorms_and_embeddings():
    worst_id, worst_margin = 0.0, 0.0
    for alpha in (1, 2, 3):
        rep = _run(f"seminorm[alpha={alpha}]")
        assert rep.passed and rep.tolerance <= 1e-3
        worst_id = max(worst_id, rep.residual_max)
        rep = _run(f"embedding[alpha={alpha}]")
        assert rep.passed and rep.tolerance <= 1e-6
        worst_margin = max(worst_margin, rep.residual_max)
    ok = worst_id < 1e-3 and worst_margin < 1e-6
    _line("9 (seminorms/embeddings)", ok, f"identities {worst_id:.2e}, margin over constants {worst_margin:.2e}")
    assert ok


def test_criterion_10_copson():
    rep_g = _run("copson_gauss")
    rep_c = _run("copson_const")
    ok = rep_g.passed and rep_g.residual_max < 1e-4 and rep_c.passed and rep_c.residual_max < 1e-6
    _line("10 (characteristic-data relation)", ok,
          f"gaussian {rep_g.residual_max:.2e}, constant {rep_c.residual_max:.2e}")
    assert ok


def test_criterion_11_unitary_hardy_family():
    rep = _run("unitary_hardy_suite")
    ok = rep.passed and rep.residual_max < 1e-6
    _line("11 (eight unitary operators)", ok, f"residual {rep.residual_max:.2e}")
    assert ok


def test_criterion_12_full_suite_runtime_and_determinism():
    t0 = time.time()
    reports = V.run_all(verbose=False)
    elapsed = time.time() - t0
    failed = [r.check_id for r in reports if r.status == "FAIL"]
    # determinism: repeating a representative check reproduces residuals exactly
    a = REGISTRY["fact[thm1_a;nu=1,mu=0]"]()
    b = REGISTRY["fact[thm1_a;nu=1,mu=0]"]()
    deterministic = a.residuals == b.residuals
    ok = not failed and elapsed < 600.0 and deterministic
    _line("12 (full suite)", ok, f"{len(reports)} checks in {elapsed:.0f}s, failures {failed}")
    assert ok
