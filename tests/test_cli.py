import json

import numpy as np
import pytest

from betrans.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_list_every_operator_has_checks(capsys):
    code, out = run_cli(["list"], capsys)
    assert code == 0
    assert "missing checks" not in out
    assert "zero:S0+:nu=<r>" in out


def test_norm_zero_order_hardy_point(capsys):
    code, out = run_cli(["norm", "--op", "zero:S0+:nu=-0.5"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(1.0)
    assert rec["numeric_sup"] == pytest.approx(1.0, abs=1e-4)


def test_norm_unbounded_case(capsys):
    code, out = run_cli(["norm", "--op", "zero:S0+:nu=0.5"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "inf"


def test_mult_csv_shape(capsys):
    code, out = run_cli(["mult", "--op", "zero:S0+:nu=1", "--n", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s_re,s_im,re_m,im_m"
    assert len(lines) == 6
    # m(1/2) = -1 for the degree-1 symbol
    mid = lines[3].split(",")
    assert float(mid[2]) == pytest.approx(-1.0)


def test_funceq_exit_zero(capsys):
    code, out = run_cli(["funceq", "--op", "zero:S0+:nu=1"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_apply_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code, _ = run_cli(
        ["apply", "--op", "zero:P0+:nu=1", "--fn", "xexp", "--grid-n", "64", "--output", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 65


def test_apply_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["apply", "--op", "second:S:nu=0.3", "--fn", "bump12", "--grid-n", "64", "--grid-range", "1e-2,20"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_apply_roundtrip_csv_input(tmp_path, capsys):
    src = tmp_path / "f.csv"
    code, _ = run_cli(
        ["apply", "--op", "zero:S0+:nu=0", "--fn", "x2gauss", "--grid-n", "64", "--output", str(src)],
        capsys,
    )
    assert code == 0
    code, _ = run_cli(["apply", "--op", "hardy:H1", "--input", str(src), "--output", str(tmp_path / "g.csv")], capsys)
    assert code == 0


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(["norm", "--op", "bogus:X"], capsys)
    assert code == 1


def test_apply_at_a_non_real_nu_exit_code(capsys):
    # the Re nu = 1 image is not the operator at nu = 1 + i: an argument error
    args = ["apply", "--op", "zero:S0+:nu=1+1j", "--fn", "gauss", "--grid-n", "64"]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "nu is not real" in captured.err


def test_math_domain_error_exit_code(capsys):
    # spd Sonine requires nu < 1/2
    code, _ = run_cli(
        ["apply", "--op", "spd:S:nu=0.9", "--fn", "bump12", "--grid-n", "64", "--grid-range", "1e-2,20"],
        capsys,
    )
    assert code == 2


def test_verify_subset_and_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        ["verify", "funceq[zero:S0+;nu=1]", "copson_const", "--output", str(out_path), "--quiet"],
        capsys,
    )
    assert code == 0
    bundle = json.loads(out_path.read_text())
    assert [r["check_id"] for r in bundle] == sorted(r["check_id"] for r in bundle)
    assert all(r["status"] in ("PASS", "XFAIL-PASS", "SKIPPED") for r in bundle)


def test_verify_compare_against_its_own_bundle(tmp_path, capsys):
    base = tmp_path / "base.json"
    ids = ["funceq[zero:S0+;nu=1]", "copson_const"]
    assert run_cli(["verify", *ids, "--output", str(base), "--quiet"], capsys)[0] == 0
    code, out = run_cli(["verify", *ids, "--compare", str(base), "--quiet"], capsys)
    assert code == 0
    assert "byte-identical to" in out and "not byte-identical" not in out
    assert "0 of 2 checks differ" in out
    code, out = run_cli(["verify", "copson_const", "--compare", str(base), "--quiet"], capsys)
    assert code == 3
    assert "funceq[zero:S0+;nu=1]: only in the base bundle" in out
    # a bundle that cannot be read is an argument error, reported before any check runs
    assert run_cli(["verify", "copson_const", "--compare", str(tmp_path / "missing.json")], capsys) == (1, "")


def test_copson_subcommand(capsys):
    code, out = run_cli(["copson", "--alpha", "0.5", "--beta", "1.5", "--fn", "gauss"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "PASS"
