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


# SampledFunction's spline table and cached head model, and the grid's
# collocation factors: numgrid owns them, and every other layer goes through
# its functions (the first three names are those of an earlier scipy-backed
# spline, kept so that it does not come back)
SAMPLED_PRIVATE = {"_spline", "_dspline", "_ensure_spline", "_head", "_table", "_taylor_table", "_in_hull", "_collocation_lu"}


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


# the special functions are the bottom layer: they build on numpy, scipy and
# each other (and the language's own __future__ and typing), never on the
# layers above them
SPECFUN_MAY_IMPORT = [("numpy",), ("scipy",), ("betrans", "specfun"), ("__future__",), ("typing",)]


def imports_outside_specfun(source: str, package: tuple[str, ...]) -> list[str]:
    return sorted(
        name
        for name in imported_modules(source, package)
        if not any(tuple(name.split("."))[: len(allowed)] == allowed for allowed in SPECFUN_MAY_IMPORT)
    )


def test_specfun_scan_finds_an_import_from_above():
    source = "import os\nimport numpy as np\nfrom scipy.special import jv\nfrom .gamma import gamma_complex\nfrom ..numgrid import make_grid\n"
    assert imports_outside_specfun(source, ("betrans", "specfun")) == ["betrans.numgrid.make_grid", "os"]


SPECFUN_MODULES = sorted((PACKAGE / "specfun").glob("*.py"))


@pytest.mark.parametrize("path", SPECFUN_MODULES, ids=[str(p.relative_to(PACKAGE)) for p in SPECFUN_MODULES])
def test_specfun_imports_only_numpy_scipy_and_specfun(path):
    assert imports_outside_specfun(path.read_text(encoding="utf-8"), _package_of(path)) == []


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


def test_cli_import_does_not_load_scipy_interpolate():
    code = "import sys, betrans.cli; print('scipy.interpolate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


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
