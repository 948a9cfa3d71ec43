"""Round-trip tests: every encoder composed with its decoder is the identity,
and the encoding itself is deterministic."""

import json

import pytest

from mcseries.errors import EnumerationLimitError, MCSError
from mcseries.gm_action import colinear_mc_series
from mcseries.kring import KRingSpec, standard_ring
from mcseries.monoid import AbelianGroupPresentation, GradedMonoid, free_graded_monoid
from mcseries.serialize import (
    element_from_json,
    element_to_json,
    fan_from_json,
    fan_to_json,
    monoid_element_from_json,
    monoid_element_to_json,
    monoid_from_json,
    monoid_to_json,
    ring_from_json,
    ring_to_json,
    series_from_json,
    series_to_json,
)
from mcseries.series import MonoidPolynomial, RationalSeries, TruncatedSeries
from mcseries.toric import (
    Fan,
    chow_presentation,
    mc_series_toric,
    projective_space_fan,
    three_point_blowup_fan,
)

R = standard_ring()
RA = standard_ring(a1_homotopy=True)


def roundtrip(obj, to_json, from_json):
    blob = json.dumps(to_json(obj), sort_keys=True)
    back = from_json(json.loads(blob))
    assert back == obj
    assert json.dumps(to_json(back), sort_keys=True) == blob
    return back


class TestRing:
    def test_standard_rings(self):
        roundtrip(R, ring_to_json, lambda o: ring_from_json(o))
        roundtrip(RA, ring_to_json, lambda o: ring_from_json(o))
        assert ring_to_json(R) == {"generators": ["L", "eps"]}
        assert ring_to_json(RA) == {"generators": ["L", "eps"], "a1_homotopy": True}

    def test_extra_symbols_and_rules(self):
        spec = KRingSpec(("L", "eps", "q"), a1_homotopy=False)
        back = roundtrip(spec, ring_to_json, ring_from_json)
        # a free symbol has no rule: q^3 stays
        q = back.generator("q")
        assert (q * q * q).terms == (((0, 0, 3), 1),)
        # q^3 -> 2L - 1 declared in the file is refused, naming the field
        rule = {"symbol": "q", "power": 3,
                "replacement": [[[["L", 1]], 2], [[], -1]]}
        with pytest.raises(MCSError, match="ring field 'reductions' is not supported"):
            ring_from_json(dict(ring_to_json(spec), reductions=[rule]))

    def test_elements(self):
        x = 3 * R.generator("L") ** 2 - R.generator("eps") + 5 * R.one
        back = roundtrip(x, element_to_json, lambda o: element_from_json(R, o))
        assert back.spec is R or back.spec == R

    def test_element_duplicate_exponents_merge(self):
        obj = {"terms": [{"exp": {"L": 1}, "coeff": 2},
                         {"exp": {"L": 1}, "coeff": 3}]}
        assert element_from_json(R, obj) == 5 * R.generator("L")

    def test_missing_field(self):
        with pytest.raises(MCSError, match="generators"):
            ring_from_json({})
        with pytest.raises(MCSError, match="terms"):
            element_from_json(R, {})


class TestMonoid:
    def test_free_monoid(self):
        m = free_graded_monoid(("t",))
        roundtrip(m, monoid_to_json, monoid_from_json)

    def test_chow_monoid_with_relations(self):
        chow = chow_presentation(three_point_blowup_fan(), 1)
        roundtrip(chow.monoid, monoid_to_json, monoid_from_json)

    def test_torsion_monoid(self):
        group = AbelianGroupPresentation(2, [(0, 2)])
        g1 = group.project([1, 0])
        g2 = group.project([1, 1])
        m = GradedMonoid(group, ("a", "b"), (g1, g2))
        back = roundtrip(m, monoid_to_json, monoid_from_json)
        assert back.group.invariants == (2,)

    def test_short_form_names_are_ambient_basis(self):
        obj = {"generators": ["u", "v"], "relations": []}
        m = monoid_from_json(obj)
        assert m == free_graded_monoid(("u", "v"))

    def test_short_form_with_relations(self):
        # rank drops to 3 under u1 + u4 = u2 + u3
        obj = {"generators": ["u1", "u2", "u3", "u4"],
               "relations": [[1, -1, -1, 1]]}
        m = monoid_from_json(obj)
        assert m.group.rank == 3
        assert (m.generator_named("u1") + m.generator_named("u4")
                == m.generator_named("u2") + m.generator_named("u3"))

    def test_ambient_group_is_capped_in_both_forms(self, monkeypatch):
        # a group keeps two m x m matrices: m^2 is counted before it is made
        short = {"generators": ["u", "v"]}
        full = {"ambient_generators": 2,
                "generators": [{"name": "u", "ambient": [1, 0]}]}
        monkeypatch.setenv("MCS_MAX_TERMS", "3")
        for obj in (short, full):
            with pytest.raises(EnumerationLimitError, match=(
                    "^monoid on 2 ambient generators: 4 matrix entries, over"
                    " the cap of 3;")):
                monoid_from_json(obj)
        with pytest.raises(MCSError, match="negative generator count"):
            monoid_from_json(dict(full, ambient_generators=-5))
        monkeypatch.setenv("MCS_MAX_TERMS", "4")
        assert monoid_from_json(short) == free_graded_monoid(("u", "v"))
        assert monoid_from_json(full).group.num_generators == 2

    def test_elements(self):
        chow = chow_presentation(three_point_blowup_fan(), 1)
        m = chow.monoid
        e = m.generator_named("t1") + 2 * m.generator_named("s2")
        roundtrip(e, monoid_element_to_json,
                  lambda o: monoid_element_from_json(m, o))


class TestSeries:
    def test_truncated(self):
        f = mc_series_toric(projective_space_fan(2), 1).expand(6)
        roundtrip(f, series_to_json, series_from_json)

    def test_polynomial(self):
        m = free_graded_monoid(("t",))
        t = m.generator_named("t")
        p = MonoidPolynomial(R, m, {m.zero: R.one, t: -R.generator("L")})
        roundtrip(p, series_to_json, series_from_json)

    def test_rational_with_numerator_and_powers(self):
        f = colinear_mc_series(4)
        back = roundtrip(f, series_to_json, series_from_json)
        assert back.expand(5) == f.expand(5)

    def test_rational_trivial_numerator_omits_nothing(self):
        f = mc_series_toric(projective_space_fan(1), 0)
        blob = series_to_json(f)
        assert blob["numerator"] == [
            {"class": monoid_element_to_json(f.monoid.zero),
             "coeff": {"terms": [{"exp": {}, "coeff": 1}]}}]
        roundtrip(f, series_to_json, series_from_json)

    def test_zero_series_of_each_kind(self):
        m = free_graded_monoid(("t",))
        zero = MonoidPolynomial(R, m, {})
        rational = RationalSeries(R, m, zero, [(R.one, m.generator_named("t"), 1)])
        for f in (zero, TruncatedSeries(R, m, 3, {}), rational):
            roundtrip(f, series_to_json, series_from_json)
        blob = series_to_json(rational)
        assert blob["numerator"] == []
        assert series_from_json(blob).expand(3) == TruncatedSeries(R, m, 3, {})

    def test_missing_numerator_is_one(self):
        f = mc_series_toric(projective_space_fan(2), 1)
        blob = series_to_json(f)
        del blob["numerator"]
        assert series_from_json(blob) == f

    def test_kind_inferred_when_absent(self):
        f = mc_series_toric(projective_space_fan(2), 1)
        blob = series_to_json(f)
        del blob["kind"]
        assert series_from_json(blob) == f
        g = f.expand(4)
        blob = series_to_json(g)
        del blob["kind"]
        assert series_from_json(blob) == g
        m = free_graded_monoid(("t",))
        p = MonoidPolynomial(R, m, {m.generator_named("t"): R.one})
        blob = series_to_json(p)
        del blob["kind"]
        assert series_from_json(blob) == p

    def test_unknown_kind(self):
        blob = series_to_json(mc_series_toric(projective_space_fan(1), 0))
        blob["kind"] = "mystery"
        with pytest.raises(MCSError, match="mystery"):
            series_from_json(blob)


class TestFan:
    def test_roundtrip_with_names(self):
        fan = three_point_blowup_fan()
        back = roundtrip(fan, fan_to_json, fan_from_json)
        assert back.ray_names == fan.ray_names

    def test_reader_accepts_minimal_form(self):
        fan = fan_from_json({"rays": [[1], [-1]], "maximal_cones": [[0], [1]]})
        assert fan == Fan([[1], [-1]], [[0], [1]])
        assert fan.ray_names == ("r0", "r1")

    def test_dim_mismatch(self):
        with pytest.raises(MCSError, match="dim"):
            fan_from_json({"dim": 3, "rays": [[1], [-1]],
                           "maximal_cones": [[0], [1]]})

    def test_invalid_fan_still_rejected(self):
        with pytest.raises(Exception, match="complete"):
            fan_from_json({"rays": [[1]], "maximal_cones": [[0]]})
