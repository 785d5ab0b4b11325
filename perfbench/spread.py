"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...] [--out FILE]

Runs the benchmark untraced once per seed, one run at a time, and prints
for each workload and metric the median and the spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median.  With --out the values and spreads are written
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect run", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        table[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            table[workload][name] = {"median": med, "spread": (q3 - q1) / med, "bound": bounds[name], "values": vals}
            print(f"  {workload:<14s} {name:<12s} median {med:10.4g}  spread {(q3 - q1) / med:7.4f}  bound {bounds[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
