"""Oracle test of serialize.json_text, the writer behind --format json.

The oracle is the standard library: json_text must give the same text as
json.dumps(value, indent=2, sort_keys=True) on every JSON value built from
dicts with str keys, lists, str, int, bool and None, and must refuse
anything else rather than guess a rendering.  A series in a document
stands for its series_to_json document, whose term lists json_text writes
from one row template; the oracle there is json.dumps of series_to_json.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mcseries import serialize
from mcseries.cli import main
from mcseries.kring import KRingSpec, standard_ring
from mcseries.monoid import AbelianGroupPresentation, GradedMonoid, free_graded_monoid
from mcseries.serialize import (element_to_json, json_text, series_from_json, series_to_json,
                                write_json)
from mcseries.series import MonoidPolynomial, RationalSeries, TruncatedSeries
from mcseries.toric import OrbitClassMonoid, mc_series_toric

from _tools import FANS, fan_file

# quotes, backslashes and control characters next to arbitrary code points,
# non-ASCII ones included
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x07\b\t\n\f\r\x1f\x7f'),
                         st.characters()))
INTS = st.integers(min_value=-10**100, max_value=10**100)
VALUES = st.recursive(
    st.none() | st.booleans() | INTS | TEXT,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=40)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(VALUES)
def test_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5,
    (1, 2),
    {1: "a"},
    {"a": [0, {"b": 0.5}]},
    [{"a": 1}, {("k",): 1}],
], ids=["float", "tuple", "int-key", "nested-float", "nested-tuple-key"])
def test_refuses_what_it_cannot_write_exactly(value):
    with pytest.raises(TypeError):
        json_text(value)


RING = standard_ring(("a1", "a2"))
Z_Z2 = AbelianGroupPresentation(2, ((2, -2),))
Z3 = AbelianGroupPresentation(1, ((3,),))
MONOIDS = [
    free_graded_monoid(()),            # rank 0: the zero class only
    GradedMonoid(Z3, (), ()),          # rank 0 with torsion classes
    free_graded_monoid(("t",)),
    free_graded_monoid(("u", "v")),
    GradedMonoid(Z_Z2, ("a", "b"), Z_Z2.basis_images()),  # Z + Z/2
]
# coefficients that repeat, big and negative ones, and elements of several
# terms with exponents
COEFFS = st.one_of(
    st.sampled_from([1, -1, 3, -2]),
    st.integers(min_value=-10**100, max_value=10**100),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(RING.generators)),
                    st.integers(min_value=-10**100, max_value=10**100),
                    min_size=1, max_size=4).map(RING.element))


@st.composite
def series(draw):
    monoid = draw(st.sampled_from(MONOIDS))
    basis = monoid.generators or monoid.group.basis_images()

    def cls():
        return sum((draw(st.integers(0, 3)) * g for g in basis), monoid.zero)

    def terms(min_size=0):
        return {cls(): draw(COEFFS)
                for _ in range(draw(st.integers(min_size, 12)))}

    kind = draw(st.sampled_from(["truncated", "polynomial", "rational"]))
    if kind == "polynomial":
        return MonoidPolynomial(RING, monoid, terms())
    if kind == "truncated":
        top = 3 * sum(max(monoid.degree(g), 0) for g in basis)
        return TruncatedSeries(RING, monoid, top, terms())
    factors = []
    for _ in range(draw(st.integers(1, 3)) if monoid.generators else 0):
        alpha = cls()
        if monoid.degree(alpha) >= 1:
            factors.append((draw(COEFFS), alpha, draw(st.integers(1, 3))))
    num = MonoidPolynomial(RING, monoid, terms(min_size=1))
    f = RationalSeries(RING, monoid, None if num.is_zero() else num, factors)
    return f.expand(4) if draw(st.booleans()) else f


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(series())
def test_series_documents_match_json_dumps(f):
    # the writer the CLI uses: a document that holds the series itself
    doc = series_to_json(f)
    want = {"command": "expand", "series": doc, "rational": [doc]}
    assert (json_text({"command": "expand", "series": f, "rational": [f]})
            == json.dumps(want, indent=2, sort_keys=True))
    assert json_text(f) == json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
    # series_to_json gives plain lists, for the C encoder too
    assert series_from_json(json.loads(json.dumps(doc))) == f


def test_each_monoid_is_written_once_per_document(monkeypatch, capsys):
    """A toric document holds the rational series and its expansion over
    one monoid, whose text json_text writes once and reuses; series over
    two monoids are written twice.  The bytes stay those of json.dumps."""
    calls = []
    write = serialize.monoid_to_json

    def counting(monoid):
        calls.append(monoid)
        return write(monoid)

    monkeypatch.setattr(serialize, "monoid_to_json", counting)
    assert main(["toric", "--fan", str(FANS / "gp.json"), "--p", "1",
                 "--truncate", "4", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert len(calls) == 1
    f = mc_series_toric(fan_file("gp"), 1)
    doc = {"command": "toric", "p": 1, "notes": list(OrbitClassMonoid.assumptions),
           "rational": series_to_json(f), "expansion": series_to_json(f.expand(4))}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    calls.clear()
    one = RationalSeries(RING, MONOIDS[2], None, [(1, MONOIDS[2].generators[0], 2)])
    two = RationalSeries(RING, MONOIDS[3], None, [(1, MONOIDS[3].generators[1], 1)])
    value = {"rational": one, "expansion": two}
    text = json_text(value)
    assert len(calls) == 2
    assert text == json.dumps({key: series_to_json(f) for key, f in value.items()},
                              indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# coefficient text made straight from the terms of an element

# generator orders that differ from the sorted order of the names (L, Z, a,
# eps, é1), a name that JSON escapes, and the A^1 quotient
NAMED_RINGS = [KRingSpec(("L", "eps", "Z", "a", "é1")), KRingSpec(("a", "Z", "eps", "L")),
               standard_ring(("Z",), a1_homotopy=True)]
WIDE = 10 ** 4299  # 4,300 digits, the most that prints


@st.composite
def named_elements(draw):
    """An element: zero, or terms with L and eps exponents (eps reduced mod
    2, L dropped under A^1), coefficients +-1, negative and 4,300 digits."""
    ring = draw(st.sampled_from(NAMED_RINGS))
    coeff = st.one_of(st.sampled_from((1, -1, -2, 7, WIDE, -(10 * WIDE - 1))),
                      st.integers(-10**30, 10**30))
    # reduced exponent vectors, so that no two terms merge into a wider one
    exps = st.tuples(*[st.just(0) if g == "L" and ring.a1_homotopy
                       else st.integers(0, 1) if g == "eps" else st.integers(0, 3)
                       for g in ring.generators])
    return ring.element(draw(st.dictionaries(exps, coeff, max_size=5)))


def old_element_str(x):
    """KElement.__str__ as it was, with its monomial helper."""
    def monomial(exp):
        parts = []
        for name, e in zip(x.spec.generators, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    if not x.terms:
        return "0"
    pieces = []
    for exp, coeff in x.terms:
        mono = monomial(exp)
        if not mono:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(named_elements(), st.sampled_from(("\n", "\n      ")))
def test_coefficient_text_is_that_of_the_element_dict(c, newline):
    names = serialize._sorted_names(c.spec)
    assert (serialize._element_text(c, names, newline)
            == serialize._joined(element_to_json(c), newline, {}))
    assert str(c) == old_element_str(c)


def test_document_with_named_coefficients_is_json_dumps():
    # term rows and denominator rows both take their coefficient text from
    # the terms
    ring = NAMED_RINGS[0]
    L, eps, Z, a, e1 = (ring.generator(g) for g in ring.generators)
    m = free_graded_monoid(("t",))
    t = m.generator_named("t")
    num = MonoidPolynomial(ring, m, {m.zero: 1, t: -Z * a * a + WIDE * e1,
                                     2 * t: eps * L ** 3 - 1})
    f = RationalSeries(ring, m, num, [(e1 * Z - 3 * eps, t, 2), (ring.one, t, 1),
                                      (-WIDE * a, 2 * t, 1)])
    parts = []
    write_json({"command": "expand", "rational": f, "numerator": num,
                "zero": MonoidPolynomial(ring, m, {})}, parts.append)
    text = "".join(parts)
    assert "\\u00e91" in text
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
    assert json.loads(text)["rational"] == series_to_json(f)
