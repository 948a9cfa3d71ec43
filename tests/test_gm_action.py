"""Stratified assembly: colinear blow-up builder, stratum factor rules,
and the cross-check against the torus-orbit product route."""

import pytest

from mcseries.errors import EnumerationLimitError, MCSError
from mcseries.gm_action import (
    FixedComponentStratum,
    GmDecomposition,
    OrbitFamilyOverPoint,
    OrbitFamilyOverPuncturedLine,
    assemble_mc,
    colinear_blowup_data,
    colinear_mc_series,
)
from mcseries.kring import standard_ring
from mcseries.monoid import MonoidHom, free_graded_monoid
from mcseries.series import (
    MonoidPolynomial,
    RationalSeries,
    binomial_factor_polynomial,
    pushforward,
)
from mcseries.toric import (
    blowup_at_fixed_point,
    chow_presentation,
    mc_series_toric,
    projective_space_fan,
    three_point_blowup_fan,
)

RA = standard_ring(a1_homotopy=True)


def classes(monoid, r):
    t0 = monoid.generator_named("t0")
    s = [monoid.generator_named(f"s{i}") for i in range(1, r + 1)]
    h = t0
    for si in s:
        h = h + si
    return t0, s, h


# ---------------------------------------------------------------------------
# closed forms


def test_colinear_r2_closed_form():
    series = colinear_mc_series(2)
    t0, s, h = classes(series.monoid, 2)
    assert series.numerator.is_one()
    want = {(t0, 1), (s[0], 1), (s[1], 1), (t0 + s[0], 1), (t0 + s[1], 1)}
    assert {(a, e) for _, a, e in series.factors} == want
    assert all(c.is_one() for c, _, _ in series.factors)


def test_colinear_r3_closed_form():
    series = colinear_mc_series(3)
    mono = series.monoid
    t0, s, h = classes(mono, 3)
    assert series.numerator == binomial_factor_polynomial(RA, mono, 1, h)
    want = {(t0, 1)}
    want |= {(s[i], 1) for i in range(3)}
    want |= {(h - s[i], 1) for i in range(3)}
    assert {(a, e) for _, a, e in series.factors} == want
    assert len(series.factors) == 7


def test_colinear_r4_numerator_is_square():
    series = colinear_mc_series(4)
    mono = series.monoid
    _, _, h = classes(mono, 4)
    b = binomial_factor_polynomial(RA, mono, 1, h)
    assert series.numerator == b * b
    assert len(series.factors) == 9


def test_colinear_generator_degrees():
    series = colinear_mc_series(3)
    mono = series.monoid
    t0, s, h = classes(mono, 3)
    assert mono.degree(t0) == 1
    assert all(mono.degree(si) == 1 for si in s)
    assert mono.degree(h - s[0]) == 3
    assert mono.degree(h) == 4


def test_colinear_strata_inventory_r3():
    decomp = colinear_blowup_data(3)
    assert len(decomp.strata) == 8
    kinds = [type(st).__name__ for st in decomp.strata]
    assert kinds.count("FixedComponentStratum") == 1
    assert kinds.count("OrbitFamilyOverPoint") == 6
    assert kinds.count("OrbitFamilyOverPuncturedLine") == 1
    punctured = [st for st in decomp.strata
                 if isinstance(st, OrbitFamilyOverPuncturedLine)][0]
    assert punctured.punctures == 3


def test_colinear_rejects_single_center():
    with pytest.raises(MCSError, match="at least two centers"):
        colinear_blowup_data(1)


def test_colinear_class_coordinates_are_capped(monkeypatch):
    # Z^(r+1) is presented by (r+1) x (r+1) matrices, counted first
    monkeypatch.setenv("MCS_MAX_TERMS", "15")
    with pytest.raises(EnumerationLimitError, match=(
            "^colinear blow-up at 3 points: 16 class coordinates, over the"
            " cap of 15;")):
        colinear_blowup_data(3)
    monkeypatch.setenv("MCS_MAX_TERMS", "16")
    assert len(colinear_blowup_data(3).strata) == 8


# ---------------------------------------------------------------------------
# assembled coefficients


def test_moved_line_class_has_coefficient_one():
    series = colinear_mc_series(3)
    t0 = series.monoid.generator_named("t0")
    assert series.expand(3).coefficient(t0) == 1


def test_configuration_dependence_against_three_general_points():
    # the class of (line) - (sum of exceptionals) is effective only in the
    # colinear picture; for general position it is a degree-0 difference
    colinear = colinear_mc_series(3)
    t0 = colinear.monoid.generator_named("t0")
    assert colinear.expand(2).coefficient(t0) == 1

    gp = mc_series_toric(three_point_blowup_fan(), 1, ring=RA)
    mono = gp.monoid
    diff = (mono.generator_named("t1") + mono.generator_named("s2")
            + mono.generator_named("s3")
            - mono.generator_named("s1") - mono.generator_named("s2")
            - mono.generator_named("s3"))
    assert mono.degree(diff) == 0 and not diff.is_zero()
    assert not mono.contains(diff)
    assert gp.expand(2).coefficient(diff) == 0


def test_assembled_expansion_is_monic_with_nonnegative_integers():
    for r in (2, 3, 4):
        series = colinear_mc_series(r)
        assert series.is_monic()
        f = series.expand(5)
        assert f.coefficient(series.monoid.zero).is_one()
        for _, c in f.terms:
            assert c.is_integer() and c.as_integer() >= 0


# ---------------------------------------------------------------------------
# toric cross-check


def test_colinear_r2_equals_toric_two_point_blowup():
    fan = blowup_at_fixed_point(projective_space_fan(2), (0, 1))
    fan = blowup_at_fixed_point(fan, (1, 2))
    chow = chow_presentation(fan, 1)
    toric = mc_series_toric(fan, 1, ring=RA, chow=chow)
    series = colinear_mc_series(2)
    # x1 = (0,1) sits in both blown-up cones: its strict transform is the
    # moved line; the barycenter rays are the exceptionals
    phi = MonoidHom(series.monoid, chow.monoid,
                    (chow.class_of((1,)), chow.class_of((3,)), chow.class_of((4,))))
    assert pushforward(series, phi) == toric


def test_trivial_orbit_strata_reproduce_toric_points():
    fan = projective_space_fan(2)
    chow = chow_presentation(fan, 0)
    strata = [OrbitFamilyOverPoint(chow.class_of(c), 0) for c in chow.cones]
    decomp = GmDecomposition(chow.monoid, strata, RA)
    assert assemble_mc(decomp, 0) == mc_series_toric(fan, 0, ring=RA)


# ---------------------------------------------------------------------------
# assembly rules


def one_factor_series(ring, monoid):
    t = monoid.generator_named("t")
    return RationalSeries(ring, monoid, None, [(ring.one, t, 1)])


def test_single_fixed_component_passes_through():
    mono = free_graded_monoid(("t",))
    base = one_factor_series(RA, mono)
    decomp = GmDecomposition(mono, [FixedComponentStratum(base, 1)], RA)
    assert assemble_mc(decomp, 1) == base


def test_other_dimension_strata_contribute_factor_one():
    mono = free_graded_monoid(("t",))
    t = mono.generator_named("t")
    base = one_factor_series(RA, mono)
    decomp = GmDecomposition(mono, [
        FixedComponentStratum(base, 1),
        OrbitFamilyOverPoint(t, 0),
        OrbitFamilyOverPuncturedLine(1, t, 2),
    ], RA)
    assert assemble_mc(decomp, 1) == base
    assert assemble_mc(decomp, 0) == one_factor_series(RA, mono)


def test_punctured_stratum_with_one_puncture_rejected_at_assembly():
    mono = free_graded_monoid(("t",))
    t = mono.generator_named("t")
    decomp = GmDecomposition(mono, [OrbitFamilyOverPuncturedLine(1, t, 1)], RA)
    with pytest.raises(MCSError, match="one-punctured rational base"):
        assemble_mc(decomp, 1)


def test_two_punctures_contribute_trivial_numerator():
    mono = free_graded_monoid(("t",))
    t = mono.generator_named("t")
    decomp = GmDecomposition(mono, [OrbitFamilyOverPuncturedLine(2, t, 1)], RA)
    assert assemble_mc(decomp, 1) == RationalSeries(RA, mono)


def test_stratum_validation():
    mono = free_graded_monoid(("t",))
    t = mono.generator_named("t")
    with pytest.raises(MCSError, match="must sweep a nonzero class"):
        OrbitFamilyOverPoint(mono.zero, 1)
    with pytest.raises(MCSError, match="needs at least one puncture"):
        OrbitFamilyOverPuncturedLine(0, t, 1)
    with pytest.raises(MCSError, match="fiber class must be nonzero"):
        OrbitFamilyOverPuncturedLine(2, mono.zero, 1)
    two = MonoidPolynomial(RA, mono, {mono.zero: 2})
    with pytest.raises(MCSError, match="must be monic"):
        FixedComponentStratum(RationalSeries(RA, mono, two, ()), 1)


def test_decomposition_membership_checks():
    mono = free_graded_monoid(("t",))
    other = free_graded_monoid(("u", "v"))
    u = other.generator_named("u")
    with pytest.raises(MCSError, match="stratum class is not in the monoid"):
        GmDecomposition(mono, [OrbitFamilyOverPoint(u, 1)], RA)
    series_elsewhere = RationalSeries(RA, other, None, [(RA.one, u, 1)])
    with pytest.raises(MCSError, match="series lives elsewhere"):
        GmDecomposition(mono, [FixedComponentStratum(series_elsewhere, 1)], RA)
    wrong_ring = one_factor_series(standard_ring(), mono)
    with pytest.raises(MCSError, match="series lives elsewhere"):
        GmDecomposition(mono, [FixedComponentStratum(wrong_ring, 1)], RA)
    with pytest.raises(TypeError):
        GmDecomposition(mono, ["not a stratum"], RA)
