"""Smoke test of the benchmark at a tiny size (n = 64, a few ops each).

    python3 perfbench/smoke.py

For every workload it runs run.py --tiny untraced and traced and checks
that the result line has the contract's keys, that every end-to-end and
per-layer metric named in BENCHMARK.json is emitted with its unit, that
the traced and untraced runs executed the same op list, and that the
benchmark exits non-zero without a result when the checkout has no
sources.  Output checks are not asserted: at n = 64 the operands are not
resolved and most ops miss their tolerances.  Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
REPORT_ONLY = {"op_p50_ms": "ms", "failed_ops_frac": "ratio", "op_p90_ms": "ms"}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def parse(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = next(json.loads(line)["report"] for line in lines if line.startswith('{"report"'))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result, report


def check_units(metrics, expected):
    assert set(metrics) == set(expected), sorted(set(metrics) ^ set(expected))
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"} and m["unit"] == expected[name], (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain, plain_report = parse(run(workload, 0))
        check_units(plain["metrics"], E2E)
        also = plain_report["also"]
        for name in ("op_p50_ms", "failed_ops_frac"):
            assert also[name]["unit"] == REPORT_ONLY[name], also
        assert ("op_p90_ms" in also) == (plain["attempted"] >= 100), also
        for m in list(plain_report["end_to_end"].values()) + list(also.values()):
            assert "samples" in m

        traced, traced_report = parse(run(workload, 1))
        check_units(traced["metrics"], LAYER)
        assert not traced_report["guard_errors"], traced_report["guard_errors"]
        if workload != "warm_apply":  # warm_apply's op count depends on time
            assert traced_report["ops"] == plain_report["ops"], workload
        print(f"ok {workload}: {plain['attempted']} ops, {len(traced['metrics'])} per-layer metrics")

    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable] + SPEC["command"][1:] + ["--workload", "cold_apply", "--seed", "1"]
        proc = subprocess.run(cmd + ["--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: exits non-zero without sources")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke test failed: {exc}", file=sys.stderr)
        sys.exit(1)
