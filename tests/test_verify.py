import json

import numpy as np
import pytest

import betrans.verify as V
from betrans.testfuncs import suite_on_grid
from betrans.verify.checks import CopsonData, copson_check, default_grid
from betrans.verify.report import FAIL, PASS, SKIPPED, XFAIL_PASS, VerificationReport


def test_report_schema_and_json():
    rep = VerificationReport(
        check_id="demo",
        provenance="demonstration",
        params={"alpha": 1},
        residuals=[1e-7, 2e-8],
        tolerance=1e-6,
    )
    assert rep.status == PASS and rep.passed
    payload = json.loads(rep.to_json())
    assert set(payload) == {
        "check_id",
        "provenance",
        "params",
        "residual_max",
        "tolerance",
        "status",
        "notes",
    }
    assert payload["residual_max"] == 1e-7


def test_report_requires_provenance():
    with pytest.raises(ValueError):
        VerificationReport("x", "", {}, [0.0], 1.0)


def test_report_fail_status():
    rep = VerificationReport("x", "p", {}, [1.0], 1e-3)
    assert rep.status == FAIL and not rep.passed


def test_registry_canonical_order_and_coverage():
    ids = V.check_ids()
    assert ids == sorted(ids)
    assert len(ids) > 60
    # every listed operator of every catalog row is witnessed by at least one check
    from betrans.catalog import FAMILIES

    for row in FAMILIES:
        for _, _, witnesses in row.listing:
            assert witnesses
            for w in witnesses:
                assert w in V.REGISTRY, w


def test_seminorm_identity_alpha_one_exact():
    grid = default_grid("main")
    suite = [("x2gauss", suite_on_grid("x2gauss", grid))]
    rep = V.check_seminorm_identity(1, suite)
    assert rep.passed and rep.residual_max < 1e-6


def test_seminorm_identity_rejects_noninteger():
    with pytest.raises(ValueError):
        V.check_seminorm_identity(1.5, [])


def test_embedding_excluded_alpha():
    with pytest.raises(ValueError):
        V.check_embedding_inequality(1.5, [])  # sin(1.5 pi) = -1


def test_copson_constant_beta_oracle():
    rep = copson_check(CopsonData(0.5, 1.5, lambda t: np.ones_like(np.asarray(t, float))), tolerance=1e-6)
    assert rep.passed


def test_copson_gaussian():
    rep = copson_check(CopsonData(0.5, 1.5, lambda t: np.exp(-np.asarray(t, float) ** 2)))
    assert rep.passed and rep.residual_max < 1e-4


def test_copson_requires_ordered_parameters():
    with pytest.raises(ValueError):
        CopsonData(1.5, 0.5, lambda t: t)


def test_copson_degenerate_pole_path():
    with pytest.raises(ZeroDivisionError):
        copson_check(CopsonData(0.5, 0.5 + 1e-12, lambda t: np.ones_like(np.asarray(t, float))))


def test_factorization_skip_status():
    grid = default_grid("main")
    suite = [("bump12", suite_on_grid("bump12", grid))]
    rep = V.check_factorization("thm4_a", 1.0, 0.0, suite)
    assert rep.status == SKIPPED
    assert rep.passed  # skipped is not a failure, and never a silent pass
    assert "negative order" in rep.notes


def test_factorization_runs_and_passes():
    grid = default_grid("main")
    suite = [("bump12", suite_on_grid("bump12", grid))]
    rep = V.check_factorization("thm1_a", 1.0, 0.0, suite)
    assert rep.passed and rep.residual_max < 1e-5


def test_unbounded_growth_xfail():
    rep = V.check_unbounded_growth(0.5, levels=2)
    assert rep.status in (XFAIL_PASS,)
    assert all(g >= 2.0 for g in rep.params["growth"])


def test_determinism_of_reports():
    grid = default_grid("main")
    suite = [("bump12", suite_on_grid("bump12", grid))]
    r1 = V.check_factorization("thm1_c", 1.0, 0.5, suite)
    r2 = V.check_factorization("thm1_c", 1.0, 0.5, suite)
    assert r1.residuals == r2.residuals
    assert r1.to_json() == r2.to_json()


def test_run_checks_turns_a_raise_into_one_fail_report(monkeypatch):
    from betrans.verify import registry

    def boom():
        raise RuntimeError("kernel exploded")

    monkeypatch.setitem(registry.REGISTRY, "zz_raises", boom)
    reps = V.run_checks(["zz_raises", "mult_inverse_pair"], verbose=False)
    assert [r.check_id for r in reps] == ["mult_inverse_pair", "zz_raises"]
    bad = reps[1]
    assert bad.status == FAIL and not bad.passed
    assert "RuntimeError" in bad.notes and "kernel exploded" in bad.notes
    assert reps[0].status == PASS


def test_intertwining_callable_operator_matches_its_spec():
    from betrans.beops import OperatorSpec, apply
    from betrans.testfuncs import wide_bump
    from betrans.verify.checks import _INTERTWINING

    suite = [("wide_bump", wide_bump(default_grid("main")))]
    spec = OperatorSpec("zero_order", "S-", nu=0.5)
    for target in _INTERTWINING:
        by_spec = V.check_intertwining(spec, target, suite, nu=0.5)
        by_callable = V.check_intertwining(lambda f: apply(spec, f), target, suite, nu=0.5)
        assert by_callable.residuals == by_spec.residuals, target
    with pytest.raises(ValueError):
        V.check_intertwining(spec, "d2_to_laplace", suite, nu=0.5)


def test_compare_bundles_names_every_difference():
    from betrans.verify.registry import compare_bundles

    def entry(cid, status="PASS", residual=1e-6, params=None, notes=""):
        return {"check_id": cid, "status": status, "residual_max": residual, "params": params or {"nu": 1.0},
                "notes": notes, "provenance": "p", "tolerance": 1e-3}

    base = [entry("same"), entry("rounding"), entry("status"), entry("residual"), entry("notes"),
            entry("params"), entry("gone")]
    change = [entry("same"), entry("rounding", residual=1.0004e-6), entry("status", "FAIL", 2e-3),
              entry("residual", residual=1.5e-6), entry("notes", notes="x2gauss: excluded"),
              entry("params", params={"nu": 2.0}), entry("new")]
    assert compare_bundles(base, change) == [
        "gone: only in the base bundle",
        "new: not in the base bundle",
        "notes: PASS 1.00e-06; notes differ",
        "params: PASS 1.00e-06; params differ",
        "residual: PASS 1.00e-06 -> PASS 1.50e-06",
        "status: PASS 1.00e-06 -> FAIL 2.00e-03",
    ]
