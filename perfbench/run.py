"""Run one betrans benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_apply --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run builds its inputs from --seed, times a closed loop of
ops (one caller, the next op after the previous returns), checks every
output, prints each metric by name and unit, then a ``{"report": ...}``
line with provenance and per-op detail, and as its last line the result
object ``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs the same
workload untraced in a child process, then runs it again with every layer
boundary wrapped (see tracer.py) on the same op list, and reports the
per-layer metrics of the timed phase plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set before numpy is imported, for this process and its child only.  One
# BLAS thread: the 2-core machine this benchmark was tuned on is shared with
# other tenants, and single-threaded BLAS keeps run-to-run spread low.  No
# transparent huge pages for numpy's large arrays: with them the spectral
# workload's 268 MB matrices sometimes stall in page compaction, which
# made its run times bimodal.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_ENV = {**{var: "1" for var in BLAS_VARS}, "NUMPY_MADVISE_HUGEPAGE": "0"}
SETUP_REPEATS = 5
IMPORT_EVERY_S = 5.0
P90_MIN_OPS = 100

# Metric name -> unit, as BENCHMARK.json lists them.  op_p50_ms, op_p90_ms
# and failed_ops_frac are printed and reported but not bounded there: on the
# single-pass workloads the median op is one op's one latency, and its
# run-to-run spread (0.10-0.18) is too close to the 0.25 cap.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cold_apply", "warm_apply", "spectral", "verify_subset"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed-phase length for warm_apply")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="n = 64 and a few ops per workload (smoke test)")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# running ops
# ----------------------------------------------------------------------


def run_ops(workload, seconds, n_ops=None, tracer=None, between=None):
    """Closed loop over the workload's op groups.

    Stops between groups: after the first group unless the workload repeats
    groups, else once `seconds` have elapsed and at least P90_MIN_OPS ops
    have run (so the 90th percentile has ten samples beyond it), or once
    n_ops ops have run.  between(elapsed) is called after each op; the time
    it takes is left out of every timing.
    """
    results = []
    group_s = []
    paused = 0.0
    t_start = time.perf_counter()
    for group in workload.groups():
        t_group = time.perf_counter()
        paused_before = paused
        for op in group:
            misses = tracer.count.get("beops.plan_misses", 0) if tracer else 0
            t0 = time.perf_counter()
            error = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    if tracer is not None and op.span:
                        with tracer.span(op.span):
                            op.run()
                    else:
                        op.run()
                except Exception as exc:  # an op that raises is a failed op
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    error = f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"
            dt = time.perf_counter() - t0
            rec = {"id": op.id, "s": dt, "error": error, "warnings": len(caught)}
            if tracer is not None:
                rec["plans_built"] = tracer.count.get("beops.plan_misses", 0) - misses
                if op.span == "verify.check" and error is not None:
                    tracer.count["verify.check.failed"] += 1
                    if not error.startswith("CheckFailed"):
                        tracer.count["verify.check.raised"] += 1
            results.append(rec)
            if between is not None:
                t_pause = time.perf_counter()
                between(t_pause - t_start - paused)
                paused += time.perf_counter() - t_pause
        group_s.append(time.perf_counter() - t_group - (paused - paused_before))
        elapsed = time.perf_counter() - t_start - paused
        if n_ops is not None:
            if len(results) >= n_ops:
                break
        elif not workload.repeat_groups or (elapsed >= seconds and len(results) >= P90_MIN_OPS):
            break
    return results, group_s, time.perf_counter() - t_start - paused


def end_to_end(setup_s, results, group_s, phase_s):
    lat_ms = [r["s"] * 1e3 for r in results]
    failed = [r["id"] for r in results if r["error"]]
    e2e = {
        "setup_s": (setup_s, None),
        "wall_s": (statistics.median(group_s), len(group_s)),
        "ops_per_s": (len(results) / phase_s, len(results)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None),
    }
    extra = {
        "op_p50_ms": (statistics.median(lat_ms), len(lat_ms), "ms"),
        "failed_ops_frac": (len(failed) / len(results), len(results), "ratio"),
    }
    if len(lat_ms) >= P90_MIN_OPS:
        extra["op_p90_ms"] = (statistics.quantiles(lat_ms, n=10)[8], len(lat_ms), "ms")
    return e2e, extra, failed


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(d, setup_d, matrix_bytes, overhead_frac):
    """The timed phase's per-layer metrics from a tracer snapshot diff.

    A name ending in .calls or .self_s reads the span of the same prefix, one
    ending in .apply_s that span's mean inclusive time per call, any other
    name a tracer count of that name, unless it is derived here (ratios, and
    what is measured outside the timed phase's spans).
    """
    from tracer import LEGENDRE

    calls, self_s, incl_s, count = d["calls"], d["self_s"], d["incl_s"], d["count"]
    legendre = [f"specfun.{fn}" for fn in LEGENDRE]
    derived = {
        "specfun.evals_per_s": _ratio(
            sum(count.get(f"{k}.evals", 0) for k in legendre), sum(self_s.get(k, 0.0) for k in legendre)
        ),
        "numgrid.setup.self_s": setup_d["self_s"].get("numgrid.setup", 0.0),
        "mellin.degraded_frac": _ratio(count.get("mellin.degraded", 0), calls.get("mellin.mellin_numeric", 0)),
        "beops.plan_reuse_frac": 1.0 - _ratio(count.get("beops.plan_misses", 0), count.get("beops.plan_lookups", 0))
        if count.get("beops.plan_lookups")
        else 0.0,
        "transforms.matrix_bytes_computed": matrix_bytes,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name in LAYER_UNITS:
        span, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field == "calls":
            out[name] = calls.get(span, 0)
        elif field == "self_s":
            out[name] = self_s.get(span, 0.0)
        elif field == "apply_s":
            out[name] = _ratio(incl_s.get(span, 0.0), calls.get(span, 0))
        else:
            out[name] = count.get(name, 0)
    return out


def premise_guards(name, metrics, results):
    """Errors when a workload stops exercising the layer it exists for."""
    from tracer import LEGENDRE

    legendre_calls = sum(metrics[f"specfun.{fn}.calls"] for fn in LEGENDRE)
    errors = []
    if name == "cold_apply":
        cold = [r["id"] for r in results if r.get("plans_built", 0) < 1]
        if cold or metrics["beops.plan_reuse_frac"] != 0.0:
            errors.append(f"cold_apply: ops built no plan or reused one: {cold}")
    elif name == "warm_apply":
        if metrics["engine.build_plan.calls"] or legendre_calls:
            errors.append("warm_apply: the timed phase built a plan or evaluated a Legendre kernel")
    elif name == "spectral":
        if not metrics["transforms.jv.evals"] or legendre_calls:
            errors.append("spectral: no jv evaluations, or a Legendre kernel was evaluated")
    return errors


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, or None where the checkout is no git repository.

    Only the checkout's own .git is asked, so that git does not walk up
    into a repository that merely encloses it.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest():
    """Digest of src/: names the code measured where git_commit cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, results):
    import numpy
    import scipy

    ops = {}
    for r in results:
        ops[r["id"]] = ops.get(r["id"], 0) + 1
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {v: os.environ.get(v) for v in RUN_ENV},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "n": workload.n,
        "tiny": args.tiny,
        "op_counts": ops,
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def timed(step) -> float:
    t0 = time.perf_counter()
    step()
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Time to import betrans.cli (the CLI imports every layer) in a fresh interpreter."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); import betrans.cli; "
    code += "print(time.perf_counter() - t0)"
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def untraced_report(args):
    """The same workload run untraced in a child process (cold caches)."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith('{"report"'):
            return json.loads(line)["report"]
    raise RuntimeError("untraced run printed no report")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "betrans" / "__init__.py").is_file():
        print(f"error: no betrans sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(RUN_ENV)
    sys.path.insert(0, str(SRC))

    reference = untraced_report(args) if args.trace else None

    t0 = time.perf_counter()
    import betrans.cli  # noqa: F401  (the CLI imports every layer)

    # The import is most of set-up outside warm_apply.  Its time swings with
    # the machine's speed phases, which last seconds to tens of seconds, so
    # back-to-back samples share one phase.  It is the median of
    # SETUP_REPEATS samples: this process's own, then fresh child
    # interpreters' taken between ops at least IMPORT_EVERY_S of timed phase
    # apart, the rest after it.
    import_s = [time.perf_counter() - t0]
    last_sample = 0.0

    def sample_import(elapsed):
        nonlocal last_sample
        if len(import_s) < SETUP_REPEATS and elapsed - last_sample >= IMPORT_EVERY_S:
            import_s.append(import_seconds())
            last_sample = elapsed

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    snap0 = tracer.snapshot() if tracer else None
    build_s = [timed(workload.build)]
    setup_d = tracing.diff(tracer.snapshot(), snap0) if tracer else None
    build_s += [timed(workload.build) for _ in range(SETUP_REPEATS - 1)]
    prepare_s = timed(workload.prepare)

    from betrans.beops import transforms

    cache_before = set(transforms._MATRIX_CACHE)
    snap1 = tracer.snapshot() if tracer else None
    n_ops = len(reference["ops"]) if reference else None
    try:
        results, group_s, phase_s = run_ops(workload, args.seconds, n_ops, tracer, sample_import)
    finally:
        if tracer:
            tracer.restore()
    import_s += [import_seconds() for _ in range(SETUP_REPEATS - len(import_s))]
    setup_s = statistics.median(import_s) + statistics.median(build_s) + prepare_s
    e2e, extra, failed = end_to_end(setup_s, results, group_s, phase_s)
    unexpected = sorted(set(failed) - workloads.KNOWN_FAILING)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args, workload, results),
        "ops": [r["id"] for r in results],
        "op_ms": [round(r["s"] * 1e3, 3) for r in results],
        "failed_ids": failed,
        "unexpected_failures": unexpected,
        "errors": {r["id"]: r["error"] for r in results if r["error"]},
        "warnings": sum(r["warnings"] for r in results),
        "phase_s": phase_s,
        "setup": {"import_s": import_s, "build_s": build_s, "prepare_s": prepare_s},
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k], "samples": n} for k, (v, n) in e2e.items()},
        "also": {k: {"value": v, "unit": u, "samples": n} for k, (v, n, u) in extra.items()},
    }
    guard_errors = []
    if tracer:
        matrix_bytes = sum(
            transforms._MATRIX_CACHE[k].nbytes for k in set(transforms._MATRIX_CACHE) - cache_before
        )
        layer = layer_metrics(
            tracing.diff(tracer.snapshot(), snap1),
            setup_d,
            matrix_bytes,
            phase_s / reference["phase_s"] - 1.0,
        )
        guard_errors = premise_guards(args.workload, layer, results)
        if report["ops"] != reference["ops"]:
            guard_errors.append("traced and untraced runs executed different op lists")
        report["per_layer"] = layer
        report["guard_errors"] = guard_errors
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in e2e.items()}

    print(f"workload {args.workload}  seed {args.seed}  n {workload.n}  trace {args.trace}")
    for k, (v, n) in e2e.items():
        print(f"  {k:<16s} {v:14.6g} {E2E_UNITS[k]:<6s}" + (f" (n={n})" if n else ""))
    for k, (v, n, u) in extra.items():
        print(f"  {k:<16s} {v:14.6g} {u:<6s} (n={n})")
    print(f"  failing ops: {failed}")
    for err in guard_errors:
        print(f"  premise guard: {err}", file=sys.stderr)
    print(json.dumps({"report": report}))
    result = {
        "correct": not unexpected and not guard_errors,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
