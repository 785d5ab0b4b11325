"""The operator catalog: every (family, variant) row against the grammar,
the Mellin symbols, strips and norms, and the apply dispatch.

Strips and norms are written out as literals, as the per-family branches
they replaced computed them at nu = 0.3.
"""

import numpy as np
import pytest

from betrans import beops, classicops, mellin
from betrans.beops import OperatorSpec, OperatorSpecError, format_operator, parse_operator
from betrans.catalog import BY_NAME, BY_TOKEN, FAMILIES
from betrans.mellin import CatalogError, admissible_strip, multiplicator, numeric_line_sup, operator_norm

EXAMPLE = {"nu": 0.3, "mu": 0.5, "phi": "one", "trig": "sin"}
CASES = [(row.name, variant) for row in FAMILIES for variant in row.variants]
IDS = [f"{family}:{variant}" for family, variant in CASES]
INF = np.inf
S = 0.5 + 0.7j


def _spec(family, variant):
    return OperatorSpec(family, variant, **{p: EXAMPLE[p] for p in BY_NAME[family].params})


STRIP = {
    ("zero_order", "S0+"): (-INF, 0.7),
    ("zero_order", "P0+"): (-INF, 1.0),
    ("zero_order", "S-"): (0.0, INF),
    ("zero_order", "P-"): (0.3, INF),
    ("second_kind", "S"): (0.0, 1.0),
    ("second_kind", "P"): (0.0, 1.0),
    ("second_kind_2param", "S"): (0.0, 1.0),
    ("katrakhov", "S"): (0.0, 1.0),
    ("katrakhov", "P"): (0.0, 1.0),
    ("spd", "S"): (-INF, 2.6),
    ("spd", "P"): (-INF, 1.0),
    ("hardy", "H1"): (-INF, 1.0),
    ("hardy", "H2"): (0.0, INF),
    ("hardy_shifted", "H1"): (-INF, 1.0),
    ("hardy_shifted", "H2"): (0.0, INF),
    **{("unitary_hardy", f"U{k}"): (0.0, 1.0) for k in range(3, 11)},
    ("stieltjes", ""): (0.0, 1.0),
}

SYMBOL = {
    "zero_order": lambda v, s: mellin.m_zero_order(v, 0.3, s),
    "second_kind": lambda v, s: mellin.m_second_kind(v, 0.3, s),
    "second_kind_2param": lambda v, s: mellin.m_second_kind_2param(0.3, 0.5, s),
    "katrakhov": lambda v, s: mellin.m_katrakhov(v, 0.3, s),
    "spd": lambda v, s: mellin.m_spd(v, 0.3, s),
    "hardy": lambda v, s: mellin.m_hardy(v, s),
    "hardy_shifted": lambda v, s: mellin.m_hardy(v, s, shifted=True),
    "unitary_hardy": lambda v, s: mellin.m_unitary_hardy(v, s),
    "stieltjes": lambda v, s: mellin.m_stieltjes(s),
}

NORM = {
    ("zero_order", "S0+"): 2.2882456112707374,
    ("zero_order", "P0+"): 1.0,
    ("zero_order", "S-"): 1.0,
    ("zero_order", "P-"): 2.2882456112707374,
    ("second_kind", "S"): 1.3449970239279148,
    ("second_kind", "P"): 1.3449970239279148,
    ("katrakhov", "S"): 1.0,
    ("katrakhov", "P"): 1.0,
    ("hardy", "H1"): 2.0,
    ("hardy", "H2"): 2.0,
    ("hardy_shifted", "H1"): 1.0,
    ("hardy_shifted", "H2"): 1.0,
    **{("unitary_hardy", f"U{k}"): 1.0 for k in range(3, 11)},
    ("stieltjes", ""): 3.141592653589793,
}

NO_SYMBOL = {"first_kind", "weighted_third"}


def test_rows_have_unique_names_and_tokens():
    assert len(BY_NAME) == len(BY_TOKEN) == len(FAMILIES) == 11
    assert {row.name for row in FAMILIES if row.symbol is None} == NO_SYMBOL


@pytest.mark.parametrize("family,variant", CASES, ids=IDS)
def test_spec_round_trips_through_the_grammar(family, variant):
    spec = _spec(family, variant)
    assert parse_operator(format_operator(spec)) == spec


@pytest.mark.parametrize("family,variant", CASES, ids=IDS)
def test_strip_and_symbol(family, variant):
    spec = _spec(family, variant)
    if family in NO_SYMBOL:
        with pytest.raises(CatalogError, match="is not a Mellin-multiplier family"):
            admissible_strip(spec)
        with pytest.raises(CatalogError, match="is not a Mellin-multiplier family"):
            multiplicator(spec, S)
        return
    assert admissible_strip(spec) == STRIP[family, variant]
    assert multiplicator(spec, S) == np.asarray(SYMBOL[family](variant, S)).item()


@pytest.mark.parametrize("family,variant", CASES, ids=IDS)
def test_norm(family, variant):
    spec = _spec(family, variant)
    if family in NO_SYMBOL:
        with pytest.raises(CatalogError):
            operator_norm(spec)
    elif BY_NAME[family].norm is None:
        assert operator_norm(spec) == numeric_line_sup(spec)
    else:
        assert operator_norm(spec) == NORM[family, variant]


def test_second_kind_norm_on_the_complex_line():
    assert operator_norm(OperatorSpec("second_kind", "S", nu=0.5 + 1j)) == 3.548514234932913
    with pytest.raises(CatalogError):
        operator_norm(OperatorSpec("second_kind", "S", nu=0.3 + 1j))


def test_stieltjes_symbol_and_strip():
    spec = OperatorSpec("stieltjes")
    assert multiplicator(spec, 0.5 + 0j) == pytest.approx(np.pi)
    assert admissible_strip(spec) == (0.0, 1.0)


@pytest.mark.parametrize(
    "text,message",
    [
        ("zero:S0+", "family 'zero_order' requires nu"),
        ("second2:S:nu=0.3", "family 'second_kind_2param' requires mu"),
        ("first:B0+:nu=1:mu=1", "first_kind requires mu < 1"),
        ("third:S:nu=0.5:phi=one", "weighted_third requires trig=sin|cos"),
        ("third:S:nu=0.5:phi=one:trig=tan", "weighted_third requires trig=sin|cos"),
        ("third:S:nu=0.5:phi=:trig=sin", "weighted_third requires a phi name"),
        ("zero:S+:nu=1", "variant 'S+' not valid for family 'zero_order'"),
        ("zeroth:S0+:nu=1", "unknown operator family token 'zeroth'"),
    ],
)
def test_grammar_keeps_every_rejection(text, message):
    with pytest.raises(OperatorSpecError) as err:
        parse_operator(text)
    assert str(err.value) == message


def test_empty_phi_is_rejected():
    with pytest.raises(OperatorSpecError, match="requires a phi name"):
        OperatorSpec("weighted_third", "S", nu=0.5, phi="", trig="sin")
    with pytest.raises(OperatorSpecError, match="unknown family"):
        OperatorSpec("third_kind", "S", nu=0.5)


# where each family's apply lands: the module and the function name the row
# looks up at call time
TARGET = {
    "first_kind": (beops.first_kind, "apply_first_kind"),
    "zero_order": (beops.zero_order, "apply_zero_order"),
    "second_kind": (beops.second_kind, "apply_second_kind"),
    "second_kind_2param": (beops.second_kind, "apply_second_kind_2param"),
    "katrakhov": (beops.katrakhov, "apply_katrakhov"),
    "weighted_third": (beops.transforms, "apply_weighted_third"),
    "spd": (classicops, None),
    "hardy": (classicops, "hardy"),
    "hardy_shifted": (classicops, "hardy_shifted"),
    "unitary_hardy": (classicops, "unitary_u"),
    "stieltjes": (classicops, "stieltjes"),
}


@pytest.mark.parametrize("family,variant", CASES, ids=IDS)
def test_apply_looks_its_function_up_on_the_module(family, variant, monkeypatch):
    module, name = TARGET[family]
    if name is None:
        name = "spd_poisson" if variant == "P" else "spd_sonine"
    calls = []
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append((args, kw)) or "out")
    spec = _spec(family, variant)
    assert beops.apply(spec, "f") == "out"
    args, kw = calls[0]
    assert args[-1] == "f" and kw == {}


CLASSICAL = sorted(family for family, (module, _) in TARGET.items() if module is classicops)


@pytest.mark.parametrize("family", CLASSICAL)
def test_a_stray_keyword_raises_on_a_classical_row(family):
    # the classical operators take no option, so the row takes none either
    with pytest.raises(TypeError):
        beops.apply(_spec(family, BY_NAME[family].variants[0]), "f", bogus=1)
