"""Colinear blow-up series: its closed form, the class-coordinate cap, and
the cross-check against the torus-orbit product route."""

import pytest

from mcseries.errors import EnumerationLimitError, MCSError
from mcseries.gm_action import colinear_mc_series
from mcseries.kring import standard_ring
from mcseries.monoid import MonoidHom, express_keys_in_basis
from mcseries.series import MonoidPolynomial, binomial_factor_polynomial, pushforward
from mcseries.toric import (
    chow_presentation,
    mc_series_toric,
    projective_space_fan,
    three_point_blowup_fan,
)

from _tools import blowup_at_fixed_point

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


@pytest.mark.parametrize("r", range(2, 9))
def test_colinear_closed_form(r):
    # the numerator as r - 2 binomials at exponent 1, not one power r - 2
    series = colinear_mc_series(r)
    mono = series.monoid
    t0, s, h = classes(mono, r)
    numerator = MonoidPolynomial.one(RA, mono)
    for _ in range(r - 2):
        numerator = numerator * binomial_factor_polynomial(RA, mono, 1, h)
    assert series.numerator == numerator
    want = {t0, *s, *(h - si for si in s)}
    assert len(series.factors) == len(want) == 2 * r + 1
    assert {a for _, a, _ in series.factors} == want
    assert all(c.is_one() and e == 1 for c, _, e in series.factors)


def test_colinear_generator_degrees():
    series = colinear_mc_series(3)
    mono = series.monoid
    t0, s, h = classes(mono, 3)
    assert mono.degree(t0) == 1
    assert all(mono.degree(si) == 1 for si in s)
    assert mono.degree(h - s[0]) == 3
    assert mono.degree(h) == 4


@pytest.mark.parametrize("r", range(2, 9))
def test_colinear_keys_are_h_e_coordinates(r):
    # the group has no relations, so a packed key is the class's (H, E1..Er)
    # coordinate vector and the grading is the degree of each unit vector;
    # colinear --compare reads the expansion keys as coordinates so
    series = colinear_mc_series(r)
    mono = series.monoid
    t0, s, h = classes(mono, r)
    units = [tuple(int(i == j) for j in range(r + 1)) for i in range(r + 1)]
    assert [b.packed() for b in (h, *s)] == units
    assert t0.packed() == (1,) + (-1,) * r
    assert mono.grading == tuple(mono.degree(b) for b in (h, *s))
    e = series.expand(4)
    assert express_keys_in_basis(e.keys, (h, *s)) == list(e.keys)


def test_colinear_rejects_single_center():
    with pytest.raises(MCSError, match="at least two centers"):
        colinear_mc_series(1)


def test_colinear_class_coordinates_are_capped(monkeypatch):
    # Z^(r+1) is presented by (r+1) x (r+1) matrices, counted first
    monkeypatch.setenv("MCS_MAX_TERMS", "15")
    with pytest.raises(EnumerationLimitError, match=(
            "^colinear blow-up at 3 points: 16 class coordinates, over the"
            " cap of 15;")):
        colinear_mc_series(3)
    monkeypatch.setenv("MCS_MAX_TERMS", "16")
    assert len(colinear_mc_series(3).factors) == 7


# ---------------------------------------------------------------------------
# expanded coefficients


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

    gp = mc_series_toric(three_point_blowup_fan(), 1)
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
        assert series.numerator.is_monic()
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
    toric = mc_series_toric(fan, 1)
    series = colinear_mc_series(2)
    # x1 = (0,1) sits in both blown-up cones: its strict transform is the
    # moved line; the barycenter rays are the exceptionals
    phi = MonoidHom(series.monoid, chow.monoid,
                    (chow.class_of((1,)), chow.class_of((3,)), chow.class_of((4,))))
    assert pushforward(series, phi) == toric
