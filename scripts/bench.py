#!/usr/bin/env python3
"""Before/after benchmark: the parent commit (HEAD) against the working tree.

Exports HEAD with ``git archive`` into a temporary directory, then runs
``perfbench/run.py --trace 0`` on it and on the working tree, alternating
which goes first, --runs times for every workload in BENCHMARK.json (run k,
counted from 1, uses seed k on both sides, and runs the base first when k
is odd).  Writes ``BENCH_<tag>.json`` with every
run's end-to-end metrics and per-op times (``op_ms``, from the report
line); per metric and side the median and quartiles; per op and side the
median time (``op_ms_median``), so a gain can be read op by op; the
change/base ratio of the medians, how many pairs the change won (ties
count for neither side) and the verdicts ``gain`` and ``within_bound``
(see compare); nproc and the numpy/scipy versions.

    python3 scripts/bench.py --tag pr3

Run it on an otherwise idle machine: the two sides share it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT, check=True)
    dest.mkdir()
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree; its last JSON line, plus the wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", f"{seconds:g}", "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800, check=False)
    elapsed = time.perf_counter() - t0
    result, report = None, {}
    for line in proc.stdout.splitlines():
        if line.startswith('{"correct"'):
            result = json.loads(line)
        elif line.startswith('{"report"'):
            report = json.loads(line)["report"]
    if proc.returncode != 0 or result is None:
        return {"seed": seed, "error": proc.stderr[-2000:], "process_s": round(elapsed, 2)}
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "op_ms": op_medians(report.get("ops", []), report.get("op_ms", [])),
        "process_s": round(elapsed, 2),
    }


def op_medians(ops: list[str], op_ms: list[float]) -> dict:
    """Per op id, the median of its times (an op can run more than once)."""
    times = {}
    for op, ms in zip(ops, op_ms):
        times.setdefault(op, []).append(ms)
    return {op: statistics.median(v) for op, v in times.items()}


def quartiles(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": len(vals)}


def compare(runs: dict, name: str, better: str, bound: float) -> dict:
    """One end-to-end metric on both sides: quartiles, ratio, pairs won, and
    two verdicts.  gain: the change won at least 9 in 10 of the pairs, and
    its median is better than the base's by more than the base's quartile
    distance.  within_bound: the change's median is no worse than the
    base's by more than the metric's bound (a fraction of the base's)."""
    vals = {side: [r["metrics"][name] for r in rs if name in r.get("metrics", {})] for side, rs in runs.items()}
    if not (vals["base"] and vals["change"]):
        return {}
    out = {side: quartiles(v) for side, v in vals.items()}
    out["change_over_base"] = out["change"]["median"] / out["base"]["median"] if out["base"]["median"] else None
    won = pairs = 0  # pairs run on the same seed, and those in which the change's value beat the base's
    for b, c in zip(runs["base"], runs["change"]):
        if name in b.get("metrics", {}) and name in c.get("metrics", {}):
            diff = c["metrics"][name] - b["metrics"][name]
            won += bool(diff < 0 if better == "lower" else diff > 0)
            pairs += 1
    out["pairs_change_better"] = won
    base, change = out["base"]["median"], out["change"]["median"]
    sign = 1.0 if better == "lower" else -1.0  # sign * (base - change) > 0: the change is better
    out["gain"] = won >= 0.9 * pairs and sign * (base - change) > out["base"]["q3"] - out["base"]["q1"]
    out["within_bound"] = sign * (change - base) <= bound * abs(base)
    return out


def per_op_median(runs: list[dict]) -> dict:
    """Per op id, the median over one side's runs of its time in ms."""
    times = {}
    for r in runs:
        for op, ms in r.get("op_ms", {}).items():
            times.setdefault(op, []).append(ms)
    return {op: round(statistics.median(v), 3) for op, v in times.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="output file is BENCH_<tag>.json in the repository root")
    ap.add_argument("--runs", type=int, default=10, help="runs per side and workload")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", "HEAD")
    out = {
        "tag": args.tag,
        "base": base_rev,
        "change": "working tree on " + base_rev + (" (with uncommitted changes)" if git("status", "--porcelain") else ""),
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "runs_per_side": args.runs,
        "order": "run k (seed k, counted from 1): base first when k is odd, change first when k is even",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="betrans-bench-") as tmp:
        base_tree = Path(tmp) / "base"
        export(base_rev, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for tree in trees.values():  # byte-compile first, so no run pays for it
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
        for w in workloads:
            runs = {"base": [], "change": []}
            for i in range(args.runs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    r = run_once(trees[side], w, i + 1, seconds)
                    runs[side].append(r)
                    shown = {k: round(v, 3) for k, v in r.get("metrics", {}).items()}
                    print(f"{w} run {i + 1} {side}: {shown or r.get('error', '')[-300:]}", flush=True)
            out["workloads"][w] = {
                "metrics": {m["name"]: compare(runs, m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]},
                "op_ms_median": {side: per_op_median(rs) for side, rs in runs.items()},
                "all_correct": {side: all(r.get("correct", False) for r in rs) for side, rs in runs.items()},
                "runs": runs,
            }
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
