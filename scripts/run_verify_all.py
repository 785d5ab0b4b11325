#!/usr/bin/env python3
"""Run the complete verification suite and write the JSON report bundle.

With --compare BASE.json (a bundle this script wrote, say at the parent
commit), print whether the new bundle is byte-identical to BASE, then every
check whose status or whose residual_max to 3 significant digits differs
from BASE's, or that only one side has; the exit status is then 1 if there
is any such check and 0 if there is none.
Without it, the exit status is 3 if any check fails.
"""

import argparse
import json
import sys
import time

from betrans.verify import run_all


def _summary(entry: dict) -> tuple[str, str]:
    return entry["status"], f"{entry['residual_max']:.2e}"


def compare(base: list[dict], change: list[dict]) -> list[str]:
    """One line per check that differs between the two bundles."""
    old = {e["check_id"]: e for e in base}
    new = {e["check_id"]: e for e in change}
    lines = []
    for cid in sorted(old.keys() | new.keys()):
        if cid not in new:
            lines.append(f"{cid}: only in the base bundle")
        elif cid not in old:
            lines.append(f"{cid}: not in the base bundle")
        elif _summary(old[cid]) != _summary(new[cid]):
            (s0, r0), (s1, r1) = _summary(old[cid]), _summary(new[cid])
            lines.append(f"{cid}: {s0} {r0} -> {s1} {r1}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--output", default="verify_report.json")
    ap.add_argument("--compare", metavar="BASE.json", help="report the checks that differ from this bundle")
    args = ap.parse_args()
    base = None
    if args.compare:
        with open(args.compare, "rb") as fh:
            base_bytes = fh.read()
        base = json.loads(base_bytes)
    t0 = time.time()
    reports = run_all(out_path=args.output)
    failed = [r.check_id for r in reports if r.status == "FAIL"]
    print(f"{len(reports)} checks in {time.time() - t0:.0f}s -> {args.output}")
    if failed:
        print("FAILED:", ", ".join(failed))
    if base is not None:
        with open(args.output, "rb") as fh:
            same = fh.read() == base_bytes
        print(f"{args.output} is {'byte-identical to' if same else 'not byte-identical to'} {args.compare}")
        changed = compare(base, [r.as_dict() for r in reports])
        print(f"{len(changed)} of {len(reports)} checks differ from {args.compare} (status, residual_max to 3 significant digits)")
        for line in changed:
            print("  " + line)
        return 1 if changed else 0
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
