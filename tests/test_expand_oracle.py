"""rational_expand against a reference that shares none of its algorithm.

The reference multiplies the truncated numerator by one full truncated
geometric series per factor, sum_k C(k+e-1, e-1) c^k t^(k alpha), using
TruncatedSeries multiplication.  rational_expand instead divides by each
power of a binomial with a linear recurrence on packed keys, with int
coefficients where it can.  Hypothesis draws the forms: torsion monoids,
exponents e both at most and above the truncation over the factor's degree,
negative and L/eps coefficients, and numerators of several terms.
"""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mcseries.errors import EnumerationLimitError
from mcseries.kring import standard_ring
from mcseries.monoid import (
    AbelianGroupPresentation,
    GradedMonoid,
    canonicalize,
    free_graded_monoid,
)
from mcseries.series import (
    MonoidPolynomial,
    RationalSeries,
    TruncatedSeries,
    rational_expand,
)

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
    f = RationalSeries(R, monoid, MonoidPolynomial(R, monoid, numerator),
                       factors)
    return f, draw(st.integers(0, 6))


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
    assert rational_expand(f, 6) == TruncatedSeries.one(R, m, 6)


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


def test_cap_admits_exactly_max_terms():
    # 1/(1-t) to degree 9 has exactly ten terms
    assert len(rational_expand(_line(), 9, max_terms=10).terms) == 10


def test_cap_rejects_one_term_more():
    with pytest.raises(EnumerationLimitError,
                       match="expansion exceeds 9 terms; raise MCS_MAX_TERMS"):
        rational_expand(_line(), 9, max_terms=9)


def test_cap_stops_before_the_factor_is_done():
    # a whole pass over this factor would make 10^9 terms
    with pytest.raises(EnumerationLimitError):
        rational_expand(_line(), 10 ** 9, max_terms=100)


def test_cap_counts_numerator_terms():
    m = MONOIDS["free1"]
    t = m.generator_named("t")
    num = MonoidPolynomial(R, m, {k * t: R.one for k in range(5)})
    f = RationalSeries(R, m, num, [])
    assert len(rational_expand(f, 9, max_terms=5).terms) == 5
    with pytest.raises(EnumerationLimitError):
        rational_expand(f, 9, max_terms=4)


def test_negative_truncation_rejected():
    with pytest.raises(ValueError):
        rational_expand(_line(), -1)
