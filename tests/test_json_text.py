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
from mcseries.kring import standard_ring
from mcseries.monoid import AbelianGroupPresentation, GradedMonoid, free_graded_monoid
from mcseries.serialize import json_text, series_from_json, series_to_json
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
