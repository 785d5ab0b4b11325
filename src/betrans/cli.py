"""Command-line interface: apply operators, evaluate symbols and norms,
run the verification suite, and emit plot-ready data.

Exit codes: 0 success, 1 argument/parse error (or a file that cannot be
read or written), 2 math-domain error, 3 verification failure (a check
FAILs, or differs from the --compare bundle).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import mellin
from .beops import OperatorSpecError, apply, parse_operator
from .catalog import FAMILIES, mellin_row
from .numgrid import GridError, make_grid, read_csv, write_csv
from .specfun import DomainError, GammaPoleError, SingularityError
from .testfuncs import SUITE, suite_on_grid
from .verify import checks as verify_checks
from .verify.registry import REGISTRY, bundle_json, compare_bundles, run_checks

_MATH_ERRORS = (
    DomainError,
    SingularityError,
    GammaPoleError,
    GridError,
    mellin.CatalogError,
    mellin.FormulaPoleError,
    mellin.StripViolationError,
    ValueError,
    ZeroDivisionError,
)

def _grid_n(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a point count (--grid-n or BETRANS_GRID_N)") from None


def _grid_range(text: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a hull 'a,b'") from None
    return a, b


def _suite_name(name: str) -> str:
    if name not in SUITE:
        raise OperatorSpecError(f"unknown built-in function {name!r}; choices: {sorted(SUITE)}")
    return name


def _load_function(args, grid):
    if args.input:
        return read_csv(args.input)
    return suite_on_grid(_suite_name(args.fn or "bump12"), grid)


def _add_grid_args(p):
    # a string default goes through `type`, so a malformed BETRANS_GRID_N is an argument error
    p.add_argument("--grid-n", type=_grid_n, default=os.environ.get("BETRANS_GRID_N", "512"),
                   help="grid points (default: env BETRANS_GRID_N, else 512)")
    p.add_argument("--grid-range", type=_grid_range, default="1e-4,1e2", help="hull as 'a,b' (default 1e-4,1e2)")
    p.add_argument("--grid-spacing", default="log", choices=["log", "linear"])


def _cmd_apply(args) -> int:
    spec = parse_operator(args.op)
    grid = make_grid(args.grid_n, args.grid_range, args.grid_spacing)
    f = _load_function(args, grid if not args.input else None)
    out = apply(spec, f)
    if args.format == "json":
        payload = {
            "operator": spec.label,
            "x": [float(v) for v in out.grid.points],
            "value": [float(v) for v in out.values],
        }
        _emit(args.output, json.dumps(payload, sort_keys=True))
    else:
        if args.output:
            write_csv(args.output, out)
        else:
            sys.stdout.write("x,value\n")
            for xv, vv in zip(out.grid.points, out.values):
                sys.stdout.write(f"{xv:.17g},{vv:.17g}\n")
    return 0


def _cmd_mult(args) -> int:
    spec = parse_operator(args.op)
    u = np.linspace(args.umin, args.umax, args.n)
    s = args.sigma + 1j * u
    values = mellin.multiplicator(spec, s)
    if args.format == "json":
        records = [
            {"operator": spec.label, "s": [args.sigma, float(uu)], "value": [float(v.real), float(v.imag)],
             "provenance": "closed-form Mellin symbol"}
            for uu, v in zip(u, values)
        ]
        _emit(args.output, json.dumps(records, sort_keys=True))
    else:
        lines = ["s_re,s_im,re_m,im_m"]
        for uu, v in zip(u, values):
            lines.append(f"{args.sigma:.17g},{uu:.17g},{v.real:.17g},{v.imag:.17g}")
        _emit(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_norm(args) -> int:
    spec = parse_operator(args.op)
    row = mellin_row(spec)
    closed = row.norm(spec) if row.norm is not None else None  # as mellin.operator_norm
    value = mellin.numeric_line_sup(spec) if closed is None else closed
    record = {
        "operator": spec.label,
        "nu": None
        if spec.nu is None
        else (float(np.real(spec.nu)) if np.imag(spec.nu) == 0 else str(spec.nu)),
        "value": "inf" if np.isinf(value) else float(value),
        "provenance": "numeric critical-line sup" if closed is None else "closed-form operator norm",
    }
    if np.isfinite(value):
        record["numeric_sup"] = float(value if closed is None else mellin.numeric_line_sup(spec))
    _emit(args.output, json.dumps(record, sort_keys=True))
    return 0


def _cmd_funceq(args) -> int:
    spec = parse_operator(args.op)
    s = args.re_s + 1j * np.linspace(-3.0, 3.0, args.n)
    rep = verify_checks.check_functional_equation(spec, s)
    rep.check_id = f"funceq[{spec.label}]"
    _emit(args.output, rep.to_json())
    return 0 if rep.passed else 3


def _cmd_verify(args) -> int:
    base = Path(args.compare).read_bytes() if args.compare else None
    subset = args.checks not in ([], ["all"])
    reports = run_checks(args.checks if subset else REGISTRY, verbose=not args.quiet)
    bundle = bundle_json(reports)
    if args.output:
        Path(args.output).write_text(bundle, encoding="utf-8")
    n_fail = sum(1 for r in reports if r.status == "FAIL")
    print(f"{len(reports)} checks: {len(reports) - n_fail} ok, {n_fail} failed")
    changed = []
    if base is not None:
        entries = json.loads(base)
        if subset:
            # a subset run is compared on its own checks only
            ran = {r.check_id for r in reports}
            print(f"{sum(e['check_id'] not in ran for e in entries)} checks of {args.compare} were not run")
            entries = [e for e in entries if e["check_id"] in ran]
            base = json.dumps(entries, indent=2, sort_keys=True).encode()  # as bundle_json writes them
        same = "byte-identical" if base == bundle.encode() else "not byte-identical"
        print(f"the bundle is {same} to {args.compare}")
        changed = compare_bundles(entries, json.loads(bundle))
        print(f"{len(changed)} of {len(reports)} checks differ from {args.compare} (status, residual_max to 3 significant digits, params, notes)")
        for line in changed:
            print("  " + line)
    return 3 if n_fail or changed else 0


def _cmd_copson(args) -> int:
    fn, _ = SUITE[_suite_name(args.fn)]
    rep = verify_checks.copson_check(verify_checks.CopsonData(args.alpha, args.beta, fn))
    rep.check_id = f"copson[alpha={args.alpha:g},beta={args.beta:g}]"
    _emit(args.output, rep.to_json())
    return 0 if rep.passed else 3


def _cmd_list(args) -> int:
    for row in FAMILIES:
        for template, desc, witnesses in row.listing:
            missing = [w for w in witnesses if w not in REGISTRY]
            mark = "" if not missing else f"  [missing checks: {missing}]"
            print(f"{template:<42s} {desc}; verified by: {', '.join(witnesses)}{mark}")
    return 0


def _emit(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="betrans", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply an operator to a function, emit x,value rows")
    p.add_argument("--op", required=True)
    p.add_argument("--fn", default=None, help=f"built-in test function {sorted(SUITE)}")
    p.add_argument("--input", default=None, help="CSV file with x,value rows")
    p.add_argument("--output", default=None)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    _add_grid_args(p)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("mult", help="evaluate the closed-form Mellin symbol along a line")
    p.add_argument("--op", required=True)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--umin", type=float, default=-4.0)
    p.add_argument("--umax", type=float, default=4.0)
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--output", default=None)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("norm", help="closed-form and numeric-sup operator norms")
    p.add_argument("--op", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("funceq", help="check the degree-shift functional equation of a symbol")
    p.add_argument("--op", required=True)
    p.add_argument("--re-s", type=float, default=-0.2)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_funceq)

    p = sub.add_parser("verify", help="run verification checks (default: all)")
    p.add_argument("checks", nargs="*", help="check ids; empty or 'all' runs everything")
    p.add_argument("--output", default=None, help="JSON report bundle path")
    p.add_argument("--compare", metavar="BASE.json", default=None,
                   help="report the checks that differ from this bundle; exit 3 if any does")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("copson", help="characteristic-data consistency check")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=1.5)
    p.add_argument("--fn", default="gauss")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_copson)

    p = sub.add_parser("list", help="enumerate catalogued operators and their witness checks")
    p.set_defaults(func=_cmd_list)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OperatorSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _MATH_ERRORS as exc:
        print(f"math-domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
