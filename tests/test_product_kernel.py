"""The product kernel of MonoidPolynomial and TruncatedSeries, and the
certify_rational that reads it one degree at a time.

The reference product is the pairwise one: every pair of terms multiplied
as KElements and each class summed with KElement.__add__, so it shares no
code with the kernel's raw accumulators.  The certify reference scans that
full product in term order.
"""

from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from mcseries.cli import main
from mcseries.kring import Specialization, standard_ring
from mcseries.monoid import AbelianGroupPresentation, GradedMonoid, free_graded_monoid
from mcseries.series import (
    MonoidPolynomial,
    RationalityVerdict,
    RationalSeries,
    TruncatedSeries,
    _Terms,
    certify_rational,
)
from mcseries.toric import pn_divisor_series

from _tools import denominator_polynomial

RINGS = (standard_ring(symbols=("x",)), standard_ring(a1_homotopy=True))

LINE = free_graded_monoid(("t",))
# Z + Z/2: a and b have degree 1 and differ by the class of order two
_GROUP = AbelianGroupPresentation(2, ((2, -2),))
TORSION = GradedMonoid(_GROUP, ("a", "b"), _GROUP.basis_images())
# a term this far out makes a kernel that walks every degree up to it slow
FAR = 10 ** 6


def reference_product(f, g):
    """{class: coefficient} of f * g from pairwise KElement products."""
    acc = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = e1 + e2
            if f.monoid.degree(e) <= f._bound():
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return acc


def reference_verdict(f, g):
    """certify_rational's verdict from the full reference product, scanned
    in term order."""
    bound = g.degree()
    h = TruncatedSeries(f.ring, f.monoid, f.truncation,
                        reference_product(f, g.as_series(f.truncation)))
    for e, c in h.terms:
        if (d := f.monoid.degree(e)) > bound:
            return RationalityVerdict(False, f.truncation, bound, d, e, c)
    return RationalityVerdict(True, f.truncation, bound)


def coefficients(ring):
    """Integers or ring elements of a few small terms."""
    n = len(ring.generators)
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(-3, 3))

    def build(pairs):
        raw = {}
        for exp, c in pairs:
            raw[exp] = raw.get(exp, 0) + c
        return ring.element(raw)

    return st.one_of(st.integers(-4, 4),
                     st.lists(term, min_size=1, max_size=3).map(build))


def classes(monoid):
    if monoid is LINE:
        t = monoid.generator_named("t")
        return st.sampled_from((0, 1, 2, 3, 4, FAR)).map(lambda k: k * t)
    a, b = monoid.generators
    return st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda ij: ij[0] * a + ij[1] * b)


@st.composite
def factor_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    monoid = draw(st.sampled_from((LINE, TORSION)))
    sides = [draw(st.dictionaries(classes(monoid), coefficients(ring), max_size=5))
             for _ in range(2)]
    bound = draw(st.sampled_from((None, 3, 6, 2 * FAR)))
    if bound is None:
        return tuple(MonoidPolynomial(ring, monoid, s) for s in sides)
    return tuple(TruncatedSeries(ring, monoid, bound,
                                 {e: c for e, c in s.items()
                                  if monoid.degree(e) <= bound})
                 for s in sides)


@given(factor_pairs())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_product_matches_pairwise_reference(pair):
    f, g = pair
    want = type(f)(f.ring, f.monoid, *([] if isinstance(f, MonoidPolynomial)
                                      else [f.truncation]),
                   reference_product(f, g))
    got = f * g
    assert got == want
    assert [c.terms for c in got.coeffs] == [c.terms for c in want.coeffs]


@pytest.mark.parametrize("ring", RINGS, ids=["free-symbol", "a1"])
@pytest.mark.parametrize("mix", ["int*int", "int*poly", "poly*poly"])
def test_each_coefficient_mix(ring, mix):
    a, b = TORSION.generators
    u = ring.generator(ring.generators[-1])  # x or eps
    L = ring.generator("L")
    poly = 2 - ring.generator("eps") + L * L
    left = {TORSION.zero: 3, a: -1, b: 2} if mix != "poly*poly" else {
        TORSION.zero: poly, a: u, b: -poly}
    right = {TORSION.zero: 1, 2 * a: -5, b: 4} if mix == "int*int" else {
        TORSION.zero: poly, b: u, a + b: 1 - u}
    f = MonoidPolynomial(ring, TORSION, left)
    g = MonoidPolynomial(ring, TORSION, right)
    assert f * g == MonoidPolynomial(ring, TORSION, reference_product(f, g))
    assert g * f == f * g


@pytest.mark.parametrize("ring", RINGS, ids=["free-symbol", "a1"])
def test_eps_squared_reduces_to_one(ring):
    t = LINE.generator_named("t")
    eps = ring.generator("eps")
    f = MonoidPolynomial(ring, LINE, {t: eps, 2 * t: eps})
    g = MonoidPolynomial(ring, LINE, {t: eps})
    assert f * g == MonoidPolynomial(ring, LINE, {2 * t: 1, 3 * t: 1})
    # eps*eps - 1 cancels the class
    h = MonoidPolynomial(ring, LINE, {t: eps, 2 * t: -1})
    assert (h * g).coefficient(2 * t) == ring.one
    assert (h * g).coefficient(3 * t) == -eps


@pytest.mark.parametrize("far", [FAR, 10 ** 15])
def test_far_apart_degrees(far):
    # at 10^15, a kernel that walks every degree up to 2 * far never ends
    ring = RINGS[0]
    t = LINE.generator_named("t")
    x, L = ring.generator("x"), ring.generator("L")
    f = MonoidPolynomial(ring, LINE, {LINE.zero: 1, far * t: x})
    g = MonoidPolynomial(ring, LINE, {LINE.zero: L, far * t: 2})
    want = {LINE.zero: L, far * t: 2 + x * L, 2 * far * t: 2 * x}
    assert f * g == MonoidPolynomial(ring, LINE, want)
    fs, gs = f.as_series(2 * far), g.as_series(2 * far)
    assert fs * gs == TruncatedSeries(ring, LINE, 2 * far, want)


@st.composite
def certify_cases(draw):
    """(f, g): f is the expansion of p / g for a numerator p of degree at
    most 2, or that plus a perturbation of one term."""
    ring = draw(st.sampled_from(RINGS))
    monoid = draw(st.sampled_from((LINE, TORSION)))
    cls = classes(monoid).filter(lambda e: 1 <= monoid.degree(e) <= 3)
    factors = draw(st.lists(st.tuples(coefficients(ring).filter(lambda c: c != 0),
                                      cls, st.integers(1, 2)),
                            min_size=1, max_size=2))
    num = draw(st.dictionaries(classes(monoid).filter(
        lambda e: monoid.degree(e) <= 2), coefficients(ring), max_size=3))
    rs = RationalSeries(ring, monoid, MonoidPolynomial(ring, monoid, num), factors)
    g = denominator_polynomial(rs)
    truncation = g.degree() + draw(st.integers(1, 4))
    f = rs.expand(truncation)
    if draw(st.booleans()):
        e = draw(classes(monoid).filter(lambda e: monoid.degree(e) <= truncation))
        f = f + TruncatedSeries(ring, monoid, truncation, {e: draw(coefficients(ring))})
    return f, g


@given(certify_cases())
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_certify_matches_full_product_scan(case):
    f, g = case
    assert certify_rational(f, g) == reference_verdict(f, g)


def test_certify_consistent_and_refuted_eq1():
    t = LINE.generator_named("t")
    ring = standard_ring()
    full = pn_divisor_series(2, 8)
    for f, consistent in ((full.specialize(Specialization(ring, {"L": 1})), True),
                          (full, False)):
        g = MonoidPolynomial(ring, LINE, {LINE.zero: 1, t: -3, 2 * t: 3, 3 * t: -1})
        verdict = certify_rational(f, g)
        assert verdict == reference_verdict(f, g)
        assert verdict.consistent is consistent


def test_certify_reads_no_degree_past_the_witness(monkeypatch, capsys):
    read = []
    product = _Terms._product

    def recorded(self, other, low=0):
        for d, keys, coeffs in product(self, other, low):
            if isinstance(self, TruncatedSeries):  # not the denominator's
                read.append(d)
            yield d, keys, coeffs

    monkeypatch.setattr(_Terms, "_product", recorded)
    assert main(["verify", "eq1", "--n", "4", "--denominator", "(1-t)^5",
                 "--truncate", "12"]) == 1
    out = capsys.readouterr().out
    assert read == [6]
    assert out.splitlines()[0] == ("divisor series of P^4 against denominator"
                                   " (1-t)^5: refuted-at-degree-6")
    # the bytes the full product gave before certify stopped early
    assert sha256(out.encode()).hexdigest() == (
        "346d6a14988edb151b457e58d3754f974c505269e318ab35c844162b61edcb0d")
