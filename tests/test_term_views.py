"""The library views of an expansion, whose terms are kept as packed class
keys: terms, coefficient, == and hash agree with the same series built from
a {MonoidElement: coefficient} mapping, reading the length of terms or
expanding makes no MonoidElement, and the JSON document reads back to the
same series whether json_text or json.dumps (with or without indent) wrote
it.  The cases are the divisor series of the 3-cube face fan at p=2, over
Z^5 x (Z/2)^2, and of the three-point blow-up (fans/gp.json) at p=1, over a
free group."""

import json
from pathlib import Path

import pytest

from mcseries.monoid import MonoidElement
from mcseries.serialize import fan_from_json, json_text, series_from_json, series_to_json
from mcseries.series import TruncatedSeries, rational_expand
from mcseries.toric import Fan, mc_series_toric

ROOT = Path(__file__).resolve().parent.parent


def _cube3():
    rays = [tuple(1 - 2 * (k >> j & 1) for j in range(3)) for k in range(8)]
    return Fan(rays, [[i for i, v in enumerate(rays) if v[axis] == sign]
                      for axis in range(3) for sign in (1, -1)])


def _gp():
    return fan_from_json(json.loads((ROOT / "fans" / "gp.json").read_text()))


CASES = {"cube3-p2": (_cube3, 2, 6, 5, (2, 2)), "gp-p1": (_gp, 1, 8, 4, ())}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make_fan, p, truncation, rank, invariants = CASES[request.param]
    series = mc_series_toric(make_fan(), p)
    group = series.monoid.group
    assert (group.rank, group.invariants) == (rank, invariants)
    return series, rational_expand(series, truncation)


@pytest.fixture
def made(monkeypatch):
    """Every MonoidElement constructed while the test runs."""
    out = []
    check = MonoidElement.__post_init__
    monkeypatch.setattr(MonoidElement, "__post_init__",
                        lambda self: out.append(self) or check(self))
    return out


def test_expanding_and_counting_terms_make_no_element(case, made):
    series, expansion = case
    again = rational_expand(series, expansion.truncation)
    assert len(again.terms) == len(expansion.terms) > 100
    assert made == []


def test_views_agree_with_a_mapping_built_series(case):
    _, expansion = case
    pairs = list(expansion.terms)
    rebuilt = TruncatedSeries(expansion.ring, expansion.monoid,
                              expansion.truncation, dict(pairs))
    assert rebuilt == expansion and hash(rebuilt) == hash(expansion)
    assert list(rebuilt.terms) == pairs
    assert expansion.terms[1:4] == tuple(pairs[1:4])
    assert expansion.terms[-1] == pairs[-1]
    degree = expansion.monoid.degree
    order = [(degree(e), e.packed()) for e, _ in pairs]
    assert order == sorted(order) and len(set(order)) == len(order)
    assert any(any(e.torsion) for e, _ in pairs) == bool(expansion.monoid.group.invariants)
    for e, c in pairs:
        assert e in expansion.monoid.group
        assert expansion.coefficient(e) == c == rebuilt.coefficient(e)
    top = pairs[-1][0]
    assert expansion.coefficient(top + top) == expansion.ring.zero
    other = expansion.monoid.generators[0]
    assert rebuilt != expansion + TruncatedSeries(
        expansion.ring, expansion.monoid, expansion.truncation, {other: 1})


def test_json_text_is_json_dumps(case):
    _, expansion = case
    doc = series_to_json(expansion)
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_compact_json_keeps_every_class(case):
    # with no indent json.dumps runs the C encoder, which reads the items
    # of the term-row list directly: the class dicts must be in them
    _, expansion = case
    text = json.dumps(series_to_json(expansion))
    assert series_from_json(json.loads(text)) == expansion
    assert text.count('"class"') == len(expansion.terms)
