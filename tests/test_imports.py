"""No module of the package imports a name it does not use.

An AST scan: a name bound by an import statement must be read somewhere in
its module or be listed in the module's __all__.  Package __init__ modules
are skipped, since their imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "betrans"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional, Callable\n__all__ = ['Callable']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Optional"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# ----------------------------------------------------------------------
# shadowed definitions
# ----------------------------------------------------------------------

# a second top-level binding of a name silently replaces the first: a test
# defined twice runs once, in its last version, and a helper's first body
# is dead code
REPO = PACKAGE.parent.parent
SOURCES = sorted(PACKAGE.rglob("*.py")) + sorted((REPO / "tests").glob("*.py"))


def rebound_names(source: str) -> list[str]:
    """Top-level names bound more than once by def, class or assignment."""
    seen, again = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name, line in names:
            if name in seen:
                again.append(f"line {line}: {name}")
            seen.add(name)
    return again


def test_rebinding_scan_finds_a_second_definition():
    source = "def f():\n    pass\nclass C:\n    pass\nX = 1\ndef f(x):\n    return x\nX = {}\nY = 2\n"
    assert rebound_names(source) == ["line 6: f", "line 8: X"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(REPO).as_posix() for p in SOURCES])
def test_module_binds_each_top_level_name_once(path):
    assert rebound_names(path.read_text(encoding="utf-8")) == []


# ----------------------------------------------------------------------
# layer boundaries
# ----------------------------------------------------------------------

ALL_MODULES = sorted(PACKAGE.rglob("*.py"))
HARNESS = ("betrans", "verify")


def imported_modules(source: str, package: tuple[str, ...]) -> set[str]:
    """Dotted names of the modules (or module members) that the source
    imports, relative imports resolved against its package."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            mod = base + (tuple(node.module.split(".")) if node.module else ())
            out |= {".".join(mod + (alias.name,)) for alias in node.names}
    return out


def _package_of(path: Path) -> tuple[str, ...]:
    return ("betrans",) + path.parent.relative_to(PACKAGE).parts


def imports_harness(source: str, package: tuple[str, ...]) -> bool:
    return any(tuple(name.split("."))[:2] == HARNESS for name in imported_modules(source, package))


def test_harness_scan_finds_relative_and_absolute_imports():
    assert imports_harness("from .verify.report import VerificationReport\n", ("betrans",))
    assert imports_harness("from .. import verify\n", ("betrans", "beops"))
    assert imports_harness("import betrans.verify.checks\n", ("betrans",))
    assert not imports_harness("from .numgrid import make_grid\nfrom . import mellin\n", ("betrans",))


CORE_MODULES = [p for p in ALL_MODULES if p.relative_to(PACKAGE).parts[0] not in ("verify", "cli.py")]


@pytest.mark.parametrize("path", CORE_MODULES, ids=[str(p.relative_to(PACKAGE)) for p in CORE_MODULES])
def test_core_module_does_not_import_the_harness(path):
    # the theorem harness builds on the library, never the other way round
    assert not imports_harness(path.read_text(encoding="utf-8"), _package_of(path))


# SampledFunction's spline coefficients, spline table and cached head
# model, and the grid's collocation factors: numgrid owns them, and every
# other layer goes through its functions (the first three names are those
# of an earlier scipy-backed spline, kept so that it does not come back)
SAMPLED_PRIVATE = {"_spline", "_dspline", "_ensure_spline", "_coef", "_head", "_table", "_taylor_table", "_in_hull", "_collocation_lu"}


def private_reads(source: str) -> list[str]:
    return sorted(
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in SAMPLED_PRIVATE
    )


def test_private_scan_finds_a_spline_read():
    assert private_reads("f._ensure_spline()\nv = f._spline(s)\nw = f.spline\n") == ["line 1: ._ensure_spline", "line 2: ._spline"]


OUTSIDE_NUMGRID = [p for p in ALL_MODULES if p.name != "numgrid.py"]


@pytest.mark.parametrize("path", OUTSIDE_NUMGRID, ids=[str(p.relative_to(PACKAGE)) for p in OUTSIDE_NUMGRID])
def test_only_numgrid_reads_the_sampled_function_internals(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


# the special functions are the bottom layer: they build on numpy and each
# other (and the standard library's __future__, math and typing), never on
# the layers above them; the one exception is the J_nu gateway's scipy
# import (see test_only_the_bessel_gateway_imports_scipy)
SPECFUN_MAY_IMPORT = [("numpy",), ("betrans", "specfun"), ("__future__",), ("math",), ("typing",)]
SPECFUN_GATEWAY_IMPORTS = {"bessel.py": ["scipy.special.jv"]}


def imports_outside_specfun(source: str, package: tuple[str, ...]) -> list[str]:
    return sorted(
        name
        for name in imported_modules(source, package)
        if not any(tuple(name.split("."))[: len(allowed)] == allowed for allowed in SPECFUN_MAY_IMPORT)
    )


def test_specfun_scan_finds_an_import_from_above():
    source = "import os\nimport math\nimport numpy as np\nfrom scipy.special import jv\nfrom .gamma import gamma_complex\nfrom ..numgrid import make_grid\n"
    assert imports_outside_specfun(source, ("betrans", "specfun")) == ["betrans.numgrid.make_grid", "os", "scipy.special.jv"]


SPECFUN_MODULES = sorted((PACKAGE / "specfun").glob("*.py"))


@pytest.mark.parametrize("path", SPECFUN_MODULES, ids=[str(p.relative_to(PACKAGE)) for p in SPECFUN_MODULES])
def test_specfun_imports_only_numpy_scipy_and_specfun(path):
    found = imports_outside_specfun(path.read_text(encoding="utf-8"), _package_of(path))
    assert found == SPECFUN_GATEWAY_IMPORTS.get(path.name, [])


# numgrid owns the one interpolating spline: no module builds one with
# scipy.interpolate, and only numgrid solves against its banded collocation
# matrix
BANDED_SOLVERS = {"solve_banded", "solveh_banded", "gbsv", "dgbsv", "gbtrf", "dgbtrf", "gbtrs", "dgbtrs"}


def imports_spline_builder(source: str, package: tuple[str, ...]) -> bool:
    return any(name.split(".")[:2] == ["scipy", "interpolate"] for name in imported_modules(source, package))


def imports_banded_solver(source: str, package: tuple[str, ...]) -> bool:
    return any(name.split(".")[-1] in BANDED_SOLVERS for name in imported_modules(source, package))


def test_spline_scans_find_their_imports():
    assert imports_spline_builder("from scipy.interpolate import make_interp_spline\n", ("betrans",))
    assert imports_spline_builder("import scipy.interpolate as si\n", ("betrans",))
    assert not imports_spline_builder("from scipy.special import jv\n", ("betrans",))
    assert imports_banded_solver("from scipy.linalg import solve_banded\n", ("betrans",))
    assert imports_banded_solver("from scipy.linalg.lapack import dgbtrf, dgbtrs\n", ("betrans",))
    assert not imports_banded_solver("from ..numgrid import collocation_solve\n", ("betrans", "beops"))


@pytest.mark.parametrize("path", ALL_MODULES, ids=[str(p.relative_to(PACKAGE)) for p in ALL_MODULES])
def test_no_module_imports_scipy_interpolate(path):
    assert not imports_spline_builder(path.read_text(encoding="utf-8"), _package_of(path))


@pytest.mark.parametrize("path", OUTSIDE_NUMGRID, ids=[str(p.relative_to(PACKAGE)) for p in OUTSIDE_NUMGRID])
def test_only_numgrid_imports_a_banded_solver(path):
    assert not imports_banded_solver(path.read_text(encoding="utf-8"), _package_of(path))


# numpy is the package's one run-time import: scipy is loaded only for J_nu,
# through the gateway specfun.bessel.jv at its first call
def _loaded_after(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running code."""
    code = "import sys\n" + code + "\nprint(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def _scipy_loaded_after(code: str) -> list[str]:
    return [m for m in _loaded_after(code) if m.split(".")[0] == "scipy"]


def test_cli_import_loads_no_scipy():
    assert _scipy_loaded_after("import betrans.cli") == []


def third_party_beyond(loaded, baseline) -> list[str]:
    """The modules of loaded that baseline lacks and that are neither the
    package's nor the standard library's."""
    return sorted(m for m in set(loaded) - set(baseline) if m.split(".")[0] not in {"betrans", *sys.stdlib_module_names})


def test_import_scan_finds_a_third_party_module():
    loaded = ["numpy", "numpy.linalg", "json", "_json", "betrans.cli", "scipy", "scipy.special"]
    assert third_party_beyond(loaded, ["numpy", "numpy.linalg"]) == ["scipy", "scipy.special"]


def test_cli_import_adds_only_the_package_and_the_standard_library_to_numpy():
    # what `betrans` costs at start-up beyond numpy: its own modules and the
    # standard library's, no other distribution
    assert third_party_beyond(_loaded_after("import betrans.cli"), _loaded_after("import numpy")) == []


@pytest.mark.parametrize("op", ["first:B0+:nu=0.5:mu=0.3", "second:S:nu=0.3"])
def test_apply_loads_no_scipy(op):
    # first:B0+ builds on Gauss-Jacobi panels, second:S on Gauss-Legendre
    # panels and the operand's collocation solve
    code = "import contextlib, io, betrans.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n"
    code += f"    assert betrans.cli.main(['apply', '--op', '{op}', '--fn', 'gauss', '--grid-n', '128']) == 0"
    assert _scipy_loaded_after(code) == []


def test_katrakhov_unitarity_check_loads_no_scipy():
    # its second path, mellin.line_apply, is numpy's FFT times the catalog's
    # symbol, next to the plans
    code = "from betrans.verify.registry import run_checks\n"
    code += "assert run_checks(['katrakhov_unitarity'], verbose=False)[0].status == 'PASS'"
    assert _scipy_loaded_after(code) == []


def test_registry_import_builds_no_grid_and_loads_no_scipy():
    # the check table is data: importing it builds no harness grid (so no
    # plan) and loads no scipy, however many rows it has
    code = "import betrans.verify.registry\nfrom betrans.verify import checks\n"
    code += "assert checks.default_grid.cache_info().currsize == 0"
    assert _scipy_loaded_after(code) == []


def imports_scipy(source: str, package: tuple[str, ...]) -> bool:
    return any(name.split(".")[0] == "scipy" for name in imported_modules(source, package))


def test_scipy_scan_finds_its_imports():
    assert imports_scipy("from scipy.special import jv\n", ("betrans",))
    assert imports_scipy("def f():\n    import scipy.linalg as sl\n", ("betrans",))
    assert not imports_scipy("from .specfun.bessel import jv\nimport numpy as np\n", ("betrans", "beops"))


OUTSIDE_BESSEL = [p for p in ALL_MODULES if p.relative_to(PACKAGE).as_posix() != "specfun/bessel.py"]


@pytest.mark.parametrize("path", OUTSIDE_BESSEL, ids=[str(p.relative_to(PACKAGE)) for p in OUTSIDE_BESSEL])
def test_only_the_bessel_gateway_imports_scipy(path):
    assert not imports_scipy(path.read_text(encoding="utf-8"), _package_of(path))


# the operator catalog (betrans/catalog.py) is the one list of operator
# families: no other module keys a dict by family names or branches on a
# spec's family among several of them (the harness under verify/ names
# families in its check definitions, and is not scanned)
FAMILY_NAMES = {
    "first_kind",
    "zero_order",
    "second_kind",
    "second_kind_2param",
    "katrakhov",
    "weighted_third",
    "spd",
    "hardy",
    "hardy_shifted",
    "unitary_hardy",
    "stieltjes",
}


def _family_constants(node) -> set[str]:
    """The family names a comparison operand spells out: a string, or the
    strings of a tuple, list or set literal."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {e.value for e in elts if isinstance(e, ast.Constant) and e.value in FAMILY_NAMES}


def _family_names_bound(func) -> set[str]:
    """Names a function binds from a `.family` attribute, also by tuple
    unpacking (`fam, var = spec.family, spec.variant`)."""
    names = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            for t, v in pairs:
                if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr == "family":
                    names.add(t.id)
    return names


def family_dispatch(source: str) -> list[str]:
    """Dict literals keyed by two or more family names, and functions that
    compare a spec's family against two or more of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant) and k.value in FAMILY_NAMES}
            if len(keys) >= 2:
                found.append(f"line {node.lineno}: dict keyed by {sorted(keys)}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = _family_names_bound(node)

            def is_family(operand):
                return (isinstance(operand, ast.Attribute) and operand.attr == "family") or (
                    isinstance(operand, ast.Name) and operand.id in bound
                )

            compared = set()
            for cmp in ast.walk(node):
                if isinstance(cmp, ast.Compare):
                    operands = [cmp.left, *cmp.comparators]
                    if any(is_family(o) for o in operands):
                        compared |= set().union(*(_family_constants(o) for o in operands))
            if len(compared) >= 2:
                found.append(f"line {node.lineno}: {node.name} compares family to {sorted(compared)}")
    return found


def test_dispatch_scan_finds_family_tables_and_chains():
    table = "DISPATCH = {'hardy': f, 'spd': g, 'other': h}\nONE = {'hardy': f}\n"
    assert family_dispatch(table) == ["line 1: dict keyed by ['hardy', 'spd']"]
    chain = (
        "def m(spec):\n"
        "    fam, var = spec.family, spec.variant\n"
        "    if fam == 'zero_order':\n"
        "        return 1\n"
        "    if fam in ('hardy', 'hardy_shifted'):\n"
        "        return 2\n"
    )
    assert family_dispatch(chain) == ["line 1: m compares family to ['hardy', 'hardy_shifted', 'zero_order']"]
    attr = "def a(spec):\n    if spec.family == 'spd':\n        pass\n    elif spec.family != 'stieltjes':\n        pass\n"
    assert family_dispatch(attr) == ["line 1: a compares family to ['spd', 'stieltjes']"]
    # one family per function, as each operator module checks its own
    own = (
        "def s(spec):\n    if spec.family != 'second_kind':\n        raise ValueError\n"
        "def s2(spec):\n    if spec.family != 'second_kind_2param':\n        raise ValueError\n"
        "def r(spec):\n    return spec.family == 'rl_left' or spec.variant == 'hardy'\n"
    )
    assert family_dispatch(own) == []


def test_family_names_are_the_catalog_rows():
    from betrans.catalog import FAMILIES

    assert {row.name for row in FAMILIES} == FAMILY_NAMES


OUTSIDE_CATALOG = [p for p in ALL_MODULES if p.name != "catalog.py" and p.relative_to(PACKAGE).parts[0] != "verify"]


@pytest.mark.parametrize("path", OUTSIDE_CATALOG, ids=[str(p.relative_to(PACKAGE)) for p in OUTSIDE_CATALOG])
def test_only_the_catalog_dispatches_on_family(path):
    assert family_dispatch(path.read_text(encoding="utf-8")) == []


def test_mellin_does_not_import_the_operator_layer():
    # the symbols reach the catalog, and through it the operators, only
    # inside the functions that need them
    tree = ast.parse((PACKAGE / "mellin.py").read_text(encoding="utf-8"))
    top_level = "\n".join(ast.unparse(node) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom)))
    names = imported_modules(top_level, ("betrans",))
    assert not [name for name in names if name.startswith(("betrans.beops", "betrans.catalog"))]


# plans live on their grid (_engine.cached_plan): no module keeps a cache in
# a module-level dict of its own.  One stays: the transforms' matrices (the
# benchmark reads that dict).  Nothing imports zero_order's private `_plan`.
MODULE_DICTS_KEPT = {("beops/transforms.py", "_MATRIX_CACHE")}


def module_state(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level name bound to an empty dict
    literal, and (line, "import _plan") of each import of `_plan` from a
    zero_order module."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Dict) and not value.keys:
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "zero_order":
            found += [(node.lineno, "import _plan") for alias in node.names if alias.name == "_plan"]
    return sorted(found)


def test_state_scan_finds_module_dicts_and_plan_imports():
    source = (
        "_A: dict = {}\n_B = _C = {}\n_D = {1: 2}\n"
        "def f():\n    cache = {}\n    from .zero_order import _plan\n"
        "from ..beops.zero_order import _plan as p, apply_zero_order\n"
    )
    assert module_state(source) == [(1, "_A"), (2, "_B"), (2, "_C"), (6, "import _plan"), (7, "import _plan")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[str(p.relative_to(PACKAGE)) for p in ALL_MODULES])
def test_module_keeps_no_cache_dict_of_its_own(path):
    rel = path.relative_to(PACKAGE).as_posix()
    found = [(line, name) for line, name in module_state(path.read_text(encoding="utf-8")) if (rel, name) not in MODULE_DICTS_KEPT]
    assert found == []


# one Gamma layer: specfun/gamma.py defines Gamma and 1/Gamma (gamma_complex,
# gamma_real, rgamma), and every other module calls them; none defines a
# one-parameter helper that returns Gamma, or 1/Gamma, of its parameter,
# converted or masked at the poles
GAMMA_CALLS = {"gamma_complex", "gamma_real", "rgamma"}
CONVERSIONS = {"float", "complex", "real", "asarray", "atleast_1d", "array", "astype"}


def _called_name(node) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    return None


def _is_param(node, names: set[str]) -> bool:
    """node is the parameter, or the parameter converted or indexed."""
    while True:
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Subscript):
            node = node.value
        elif _called_name(node) == "astype":
            node = node.func.value
        elif _called_name(node) in CONVERSIONS and node.args:
            node = node.args[0]
        else:
            return False


def _is_gamma_of_param(node, names: set[str]) -> bool:
    """node is Gamma or 1/Gamma of the parameter, possibly converted."""
    while _called_name(node) in CONVERSIONS and node.args:
        node = node.args[0]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and isinstance(node.left, ast.Constant):
        node = node.right
    return _called_name(node) in GAMMA_CALLS and bool(node.args) and _is_param(node.args[0], names)


def gamma_helpers(source: str) -> list[str]:
    """'line N: name' of each def or lambda of one parameter that returns,
    or stores into a masked output, Gamma or 1/Gamma of that parameter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if len(params) != 1 or node.args.vararg or node.args.kwarg:
            continue
        names = {params[0].arg}
        if isinstance(node, ast.Lambda):
            values = [node.body]
        else:
            values = []
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and _is_param(sub.value, names):
                    names |= {t.id for t in sub.targets if isinstance(t, ast.Name)}  # z = np.asarray(z)
                elif isinstance(sub, ast.Assign) and any(isinstance(t, ast.Subscript) for t in sub.targets):
                    values.append(sub.value)  # out[~pole] = 1 / gamma_complex(z[~pole])
                elif isinstance(sub, ast.Return) and sub.value is not None:
                    values.append(sub.value)
        if any(_is_gamma_of_param(v, names) for v in values):
            found.append(f"line {node.lineno}: {getattr(node, 'name', 'lambda')}")
    return found


# the eight helpers that the Gamma layer replaced, as they were written
REMOVED_GAMMA_HELPERS = {
    "mellin._g": "def _g(z):\n    return gamma_complex(np.asarray(z, dtype=complex))\n",
    "mellin._rg": (
        "def _rg(z):\n    z = np.atleast_1d(np.asarray(z, dtype=complex))\n    out = np.empty_like(z)\n"
        "    pole = (np.abs(np.imag(z)) < 1e-13) & (np.real(z) <= 0.5)\n    out[pole] = 0.0\n"
        "    if np.any(~pole):\n        out[~pole] = 1.0 / gamma_complex(z[~pole])\n    return out\n"
    ),
    "legendre._real_gamma": "def _real_gamma(x: float) -> float:\n    return float(np.real(gamma_complex(complex(x))))\n",
    "legendre._rgamma_real": (
        "def _rgamma_real(x):\n    x = np.atleast_1d(np.asarray(x, dtype=float))\n    out = np.empty_like(x)\n"
        "    pole = (x <= 0.5) & (np.abs(x - np.round(x)) < 1e-13)\n    out[pole] = 0.0\n"
        "    if np.any(~pole):\n        out[~pole] = np.real(1.0 / gamma_complex(x[~pole].astype(complex)))\n    return out\n"
    ),
    "classicops._rgamma": "def _rgamma(x: float) -> float:\n    return float(np.real(1.0 / gamma_complex(complex(x))))\n",
    "fracint._rgamma": "def _rgamma(x):\n    return float(np.real(1.0 / gamma_complex(complex(x))))\n",
    "checks.copson_check": "def copson_check(data):\n    gam = lambda z: float(np.real(gamma_complex(complex(z))))\n    return gam(data.alpha)\n",
    "registry._report_spd_bessel": "def _report_spd_bessel():\n    g = lambda z: float(np.real(gamma_complex(complex(z))))\n    return g(0.7)\n",
}


@pytest.mark.parametrize("name", sorted(REMOVED_GAMMA_HELPERS))
def test_gamma_scan_finds_each_removed_helper(name):
    assert len(gamma_helpers(REMOVED_GAMMA_HELPERS[name])) == 1


def test_gamma_scan_passes_gamma_of_other_arguments():
    source = (
        "def spd_inverse_constant(nu):\n"
        "    return float(np.real(gamma_complex(complex(nu + 0.5)) / gamma_complex(complex(nu + 1.0))))\n"
        "def m_spd(variant, nu, s):\n    return gamma_complex(nu + 1.0 - s / 2.0) / gamma_complex(0.5 - s / 2.0)\n"
        "def prefactor(nu):\n    return rgamma(nu + 1.0) / 2.0**nu\n"
        "side = lambda boundary_fn, gamma_: gamma_real(gamma_ + 0.5)\n"
    )
    assert gamma_helpers(source) == []


OUTSIDE_GAMMA = [p for p in ALL_MODULES if p.relative_to(PACKAGE).as_posix() != "specfun/gamma.py"]


@pytest.mark.parametrize("path", OUTSIDE_GAMMA, ids=[str(p.relative_to(PACKAGE)) for p in OUTSIDE_GAMMA])
def test_only_the_gamma_module_defines_gamma_helpers(path):
    assert gamma_helpers(path.read_text(encoding="utf-8")) == []



# one edge fit: the completions beyond the grid hull read numgrid.edge_fit,
# and no module but numgrid fits a polynomial to samples of its own
def polyfit_calls(source: str) -> list[int]:
    """The line of each call of polyfit (np.polyfit or a bare name)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if _called_name(node) == "polyfit")


def test_polyfit_scan_finds_the_removed_head_slope():
    source = (
        "def _check_lower_decay(nu, f):\n    y = np.abs(f.values[:8])\n"
        "    if np.polyfit(np.log(x[:8]), np.log(y), 1)[0] > nu - 1.0 + 1e-2:\n        return\n"
        "from numpy import polyfit\nq = polyfit(lx, logs, 2)\n"
    )
    assert polyfit_calls(source) == [3, 6]


@pytest.mark.parametrize("path", OUTSIDE_NUMGRID, ids=[str(p.relative_to(PACKAGE)) for p in OUTSIDE_NUMGRID])
def test_only_numgrid_calls_polyfit(path):
    assert polyfit_calls(path.read_text(encoding="utf-8")) == []
