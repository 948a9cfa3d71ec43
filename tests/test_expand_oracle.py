"""rational_expand against a reference that shares none of its algorithm.

The reference multiplies the truncated numerator by one full truncated
geometric series per factor, sum_k C(k+e-1, e-1) c^k t^(k alpha), using
TruncatedSeries multiplication.  rational_expand instead divides by each
power of a binomial with a linear recurrence on integer class codes, with int
coefficients where it can.  Hypothesis draws the forms: torsion monoids,
one with two torsion invariants and one with negative class coordinates,
exponents e both at most and above the truncation over the factor's degree,
negative and L/eps coefficients, and numerators of several terms, some of
them above the truncation.
"""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mcseries.errors import EnumerationLimitError
from mcseries.kring import standard_ring
from mcseries.monoid import (
    AbelianGroupPresentation,
    GradedMonoid,
    free_graded_monoid,
)
from mcseries.series import (
    MonoidPolynomial,
    RationalSeries,
    TruncatedSeries,
    rational_expand,
)

from _tools import canonicalize

R = standard_ring()
L, EPS = R.generator("L"), R.generator("eps")


def reference_expand(f: RationalSeries, truncation: int) -> TruncatedSeries:
    result = f.numerator.as_series(truncation)
    for c, alpha, e in f.factors:
        d = f.monoid.degree(alpha)
        terms = {}
        k = 0
        power = f.ring.one
        while k * d <= truncation:
            terms[k * alpha] = f.ring.from_int(comb(k + e - 1, e - 1)) * power
            power = power * c
            k += 1
        result = result * TruncatedSeries(f.ring, f.monoid, truncation, terms)
    return result


def _presented(names, relations):
    group = AbelianGroupPresentation(len(names), relations)
    return GradedMonoid(group, names, group.basis_images())


MONOIDS = {
    "free1": free_graded_monoid(("t",)),
    "free2": free_graded_monoid(("x", "y")),
    # Z + Z/2: a and b differ by a class of order two
    "torsion2": _presented(("a", "b"), ((2, -2),)),
    # Z^2 + Z/3 on three generators
    "torsion3": _presented(("a", "b", "c"), ((3, -3, 0),)),
    # the three-point blow-up: rank 4, no torsion
    "blowup": _presented(("t1", "t2", "t3", "s1", "s2", "s3"),
                         ((1, -1, 0, -1, 1, 0), (1, 0, -1, -1, 0, 1))),
    # Z^3 on four generators of degree one, the third at Smith coordinates
    # (-3, 2, 2): class codes offset negative coordinates by their span
    "negative": _presented(("a", "b", "c", "d"), ((2, -3, -1, 2),)),
    # the 3-cube's curve classes: Z^5 x (Z/2)^2, two torsion code digits
    "cube3": _presented(tuple(f"v{i}" for i in range(8)),
                        ((1, -1, 1, -1, 1, -1, 1, -1), (1, 1, -1, -1, 1, 1, -1, -1),
                         (1, 1, 1, 1, -1, -1, -1, -1))),
}

INT_COEFFS = [R.from_int(n) for n in (1, 2, 3, -1, -2)]
RING_COEFFS = INT_COEFFS + [L, EPS, -EPS, L - R.one, R.from_int(2) * L,
                            L * EPS + R.one]


@st.composite
def forms(draw, coeffs):
    monoid = MONOIDS[draw(st.sampled_from(sorted(MONOIDS)))]
    k = len(monoid.generators)
    word = st.lists(st.integers(0, 2), min_size=k, max_size=k)
    numerator = {}
    for w in draw(st.lists(word, min_size=1, max_size=4)):
        e = canonicalize(w, monoid)
        numerator[e] = numerator.get(e, R.zero) + draw(st.sampled_from(coeffs))
    factors = []
    for w in draw(st.lists(word.filter(any), min_size=0, max_size=4)):
        factors.append((draw(st.sampled_from(coeffs)), canonicalize(w, monoid),
                        draw(st.integers(1, 9))))
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):  # a numerator class above the truncation
        e = (n + 1) * monoid.generators[0]
        numerator[e] = numerator.get(e, R.zero) + draw(st.sampled_from(coeffs))
    f = RationalSeries(R, monoid, MonoidPolynomial(R, monoid, numerator),
                       factors)
    return f, n


@settings(max_examples=150, deadline=None)
@given(forms(RING_COEFFS))
def test_expand_matches_reference(case):
    f, n = case
    assert rational_expand(f, n) == reference_expand(f, n)


@settings(max_examples=100, deadline=None)
@given(forms(INT_COEFFS))
def test_integer_expand_matches_reference(case):
    f, n = case
    assert rational_expand(f, n) == reference_expand(f, n)


def test_torsion_classes_expand_like_reference():
    m = MONOIDS["torsion2"]
    a, b = m.generator_named("a"), m.generator_named("b")
    assert a != b and 2 * a == 2 * b
    f = RationalSeries(R, m, None, [(R.one, a, 2), (EPS, b, 1)])
    got = rational_expand(f, 5)
    assert got == reference_expand(f, 5)
    assert any(e.torsion == (1,) for e, _ in got.terms)


@pytest.mark.parametrize("c", [R.one, L], ids=["int", "ring"])
def test_cancelling_form_leaves_no_zero_terms(c):
    m = MONOIDS["free1"]
    t = m.generator_named("t")
    num = MonoidPolynomial(R, m, {m.zero: R.one, t: -c})
    f = RationalSeries(R, m, num, [(c, t, 1)])
    assert rational_expand(f, 6) == MonoidPolynomial.one(R, m).as_series(6)


@pytest.mark.parametrize("c", [R.from_int(-3), L], ids=["int", "ring"])
def test_huge_power_costs_only_the_truncation(c):
    m = MONOIDS["free1"]
    t = m.generator_named("t")
    e = 10 ** 9
    got = rational_expand(RationalSeries(R, m, None, [(c, t, e)]), 2)
    assert got == TruncatedSeries(R, m, 2, {
        k * t: R.from_int(comb(e + k - 1, k)) * c ** k for k in range(3)})


# ---------------------------------------------------------------------------
# the term cap is checked as each new term appears


def _line():
    m = MONOIDS["free1"]
    return RationalSeries(R, m, None, [(R.one, m.generator_named("t"), 1)])


def test_cap_admits_exactly_max_terms(monkeypatch):
    # 1/(1-t) to degree 9 has exactly ten terms
    monkeypatch.setenv("MCS_MAX_TERMS", "10")
    assert len(rational_expand(_line(), 9).terms) == 10


def test_cap_rejects_one_term_more(monkeypatch):
    monkeypatch.setenv("MCS_MAX_TERMS", "9")
    with pytest.raises(EnumerationLimitError,
                       match="^expansion to degree 9: 10 terms, over the cap"
                             " of 9; raise MCS_MAX_TERMS$"):
        rational_expand(_line(), 9)


def test_cap_stops_before_the_factor_is_done(monkeypatch):
    # a whole pass over this factor would make 10^9 terms
    monkeypatch.setenv("MCS_MAX_TERMS", "100")
    with pytest.raises(EnumerationLimitError, match=": 101 terms"):
        rational_expand(_line(), 10 ** 9)


def test_cap_counts_numerator_terms(monkeypatch):
    m = MONOIDS["free1"]
    t = m.generator_named("t")
    num = MonoidPolynomial(R, m, {k * t: R.one for k in range(5)})
    f = RationalSeries(R, m, num, [])
    monkeypatch.setenv("MCS_MAX_TERMS", "5")
    assert len(rational_expand(f, 9).terms) == 5
    monkeypatch.setenv("MCS_MAX_TERMS", "4")
    with pytest.raises(EnumerationLimitError, match=": 5 terms"):
        rational_expand(f, 9)


def test_negative_truncation_rejected():
    with pytest.raises(ValueError):
        rational_expand(_line(), -1)
