"""Series layer: truncated convolution, rational forms, certification,
pushforward, external products and localization quotients.

Oracles are independent of the expansion code wherever the value is not
trivially forced: geometric-series coefficients come from the binomial
identity via math.comb, pushforward coefficients from a hand convolution.
"""

import random
from math import comb

import pytest

from mcseries.errors import EnumerationLimitError, MCSError
from mcseries.kring import Specialization, class_projective_space, standard_ring
from mcseries.monoid import (
    AbelianGroupPresentation,
    GradedMonoid,
    MonoidHom,
    free_graded_monoid,
)
from mcseries.series import (
    MAX_COEFFICIENT_DIGITS,
    MonoidPolynomial,
    RationalSeries,
    TruncatedSeries,
    _binomial_digits,
    _coeff_text,
    _times_word,
    binomial_factor_polynomial,
    certify_rational,
    curve_zeta,
    external_product,
    localize_quotient,
    punctured_p1_zeta,
    pushforward,
)

from _tools import denominator_polynomial

R = standard_ring()
L = R.generator("L")


def t_monoid():
    return free_graded_monoid(("t",))


# ---------------------------------------------------------------------------
# genus 0 zeta: coefficients and the convolution identity


def test_curve_zeta_genus0_coefficients():
    z = curve_zeta(0)
    f = z.expand(8)
    t = z.monoid.generator_named("t")
    for d in range(9):
        # fixed value: 1 + L + ... + L^d
        assert f.coefficient(d * t) == class_projective_space(d, R)


def test_convolution_identity_series_times_denominator_is_one():
    z = curve_zeta(0)
    n = 6
    f = z.expand(n)
    den = denominator_polynomial(z)
    assert f * den.as_series(n) == MonoidPolynomial.one(R, z.monoid).as_series(n)


def test_curve_zeta_genus1_generic_numerator():
    z = curve_zeta(1)
    assert z.numerator.is_monic()
    t = z.monoid.generator_named("t")
    a1 = z.ring.generator("a1")
    a2 = z.ring.generator("a2")
    assert z.numerator.coefficient(t) == a1
    assert z.numerator.coefficient(2 * t) == a2
    v = certify_rational(z.expand(6), denominator_polynomial(z))
    assert v.consistent


# ---------------------------------------------------------------------------
# geometric expansion against the binomial oracle


def test_geometric_power_expansion_binomial_oracle():
    mono = t_monoid()
    t = mono.generator_named("t")
    for chi in (1, 2, 3, 5):
        f = RationalSeries(R, mono, None, [(R.one, t, chi)])
        got = f.expand(9)
        for d in range(10):
            assert got.coefficient(d * t) == comb(chi + d - 1, d)


def test_geometric_expansion_with_ring_coefficient():
    mono = t_monoid()
    t = mono.generator_named("t")
    f = RationalSeries(R, mono, None, [(L, t, 1)])
    got = f.expand(5)
    for d in range(6):
        assert got.coefficient(d * t) == L ** d


class _ReadCounting(tuple):
    """A tuple that records each index read, by bisect too."""

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_coefficient_compares_only_the_classes_of_its_degree():
    """A lookup bisects the sorted term degrees, so verify macdonald, which
    looks up every degree, stays linear in --truncate.  The terms are
    packed class keys, so the classes compared are the keys read: each
    has the degree looked up."""
    mono = t_monoid()
    t = mono.generator_named("t")
    long = RationalSeries(R, mono, None, [(R.one, t, 2)]).expand(2000)
    plane = free_graded_monoid(("x", "y"))
    x, y = plane.generator_named("x"), plane.generator_named("y")
    square = RationalSeries(R, plane, None, [(R.one, x, 1), (R.one, y, 1)]).expand(30)
    compared = []
    for f in (long, square):
        f.keys = _ReadCounting(f.keys)
        f.keys.reads = compared
    assert long.coefficient(1000 * t) == 1001
    assert set(compared) == {1000}
    for e, c in square.terms:
        compared.clear()
        assert square.coefficient(e) == c
        assert {square._degrees[i] for i in compared} == {plane.degree(e)}
    assert square.coefficient(20 * x + 11 * y) == R.zero
    assert long.coefficient(2001 * t) == R.zero
    assert long.coefficient(mono.zero) == R.one


# ---------------------------------------------------------------------------
# rationality certification


def test_certify_consistent_for_true_denominator():
    z = curve_zeta(0)
    v = certify_rational(z.expand(7), denominator_polynomial(z))
    assert v.consistent
    assert v.witness_degree is None
    assert str(v) == "consistent-to-7"


def test_certify_refuted_with_explicit_witness():
    z = curve_zeta(0)
    mono = z.monoid
    t = mono.generator_named("t")
    wrong = binomial_factor_polynomial(R, mono, 1, t)
    v = certify_rational(z.expand(6), wrong)
    assert not v.consistent
    # (1-t) * 1/((1-t)(1-Lt)) = 1/(1-Lt): first term above degree 1 is L^2 t^2
    assert v.witness_degree == 2
    assert v.witness_class == 2 * t
    assert v.witness_coeff == L * L
    assert str(v) == "refuted-at-degree-2"


def test_certify_rejects_non_monic_denominator():
    z = curve_zeta(0)
    mono = z.monoid
    t = mono.generator_named("t")
    g = MonoidPolynomial(R, mono, {mono.zero: 2, t: -1})
    with pytest.raises(MCSError, match="must have constant term 1"):
        certify_rational(z.expand(4), g)


def test_certify_rejects_denominator_reaching_truncation():
    z = curve_zeta(0)
    with pytest.raises(MCSError, match="denominator degree reaches the truncation bound"):
        certify_rational(z.expand(2), denominator_polynomial(z))


# ---------------------------------------------------------------------------
# punctured rational curve


def test_punctured_line_polynomial_forms():
    ra = standard_ring(a1_homotopy=True)
    p2 = punctured_p1_zeta(2)
    assert isinstance(p2, MonoidPolynomial) and p2.is_one()
    p3 = punctured_p1_zeta(3)
    mono = p3.monoid
    t = mono.generator_named("t")
    assert p3 == binomial_factor_polynomial(ra, mono, 1, t)
    p4 = punctured_p1_zeta(4)
    assert p4.coefficient(2 * t) == 1 and p4.coefficient(t) == -2


def test_punctured_line_rational_fallback_below_two():
    p1 = punctured_p1_zeta(1)
    assert isinstance(p1, RationalSeries)
    assert len(p1.factors) == 1 and p1.factors[0][2] == 1
    p0 = punctured_p1_zeta(0)
    assert p0.factors[0][2] == 2


def test_punctured_line_requires_homotopy_quotient():
    with pytest.raises(ValueError):
        punctured_p1_zeta(3, ring=standard_ring())


# ---------------------------------------------------------------------------
# localization quotients


def test_localize_symmetric_powers_of_line():
    # full curve over its point stratum leaves the affine-line factor
    z = curve_zeta(0)
    mono = z.monoid
    t = mono.generator_named("t")
    point = RationalSeries(R, mono, None, [(R.one, t, 1)])
    q = localize_quotient(z, point)
    assert q.factors == ((L, t, 1),)
    assert q.numerator.is_one()
    assert q * point == z


def test_localize_cancels_shared_factors_with_multiplicity():
    mono = t_monoid()
    t = mono.generator_named("t")
    x = RationalSeries(R, mono, None, [(R.one, t, 3), (L, t, 1)])
    y = RationalSeries(R, mono, None, [(R.one, t, 1)])
    q = localize_quotient(x, y)
    assert q.factors == ((R.one, t, 2), (L, t, 1))


def test_localize_moves_uncancelled_factor_into_numerator():
    mono = t_monoid()
    t = mono.generator_named("t")
    x = RationalSeries(R, mono, None, [(R.one, t, 1)])
    y = RationalSeries(R, mono, None, [(R.one, t, 1), (L, t, 1)])
    q = localize_quotient(x, y)
    assert q.factors == ()
    assert q.numerator == binomial_factor_polynomial(R, mono, L, t)
    assert (q * y).expand(6) == x.expand(6)


def test_localize_divides_numerators_exactly():
    mono = t_monoid()
    t = mono.generator_named("t")
    b = binomial_factor_polynomial(R, mono, 2, t)
    x = RationalSeries(R, mono, b * b, [(R.one, t, 1)])
    y = RationalSeries(R, mono, b, [(R.one, t, 1)])
    q = localize_quotient(x, y)
    assert q.numerator == b and q.factors == ()


def test_localize_mismatch_when_quotient_not_polynomial():
    mono = t_monoid()
    t = mono.generator_named("t")
    x = RationalSeries(R, mono, None, [(R.one, t, 1)])
    y = RationalSeries(R, mono, binomial_factor_polynomial(R, mono, 2, t), ())
    with pytest.raises(MCSError, match="not a polynomial of numerator-bounded degree"):
        localize_quotient(x, y)


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_fold_matches_hand_convolution():
    z = curve_zeta(0)
    e = external_product(z, z)
    pair = e.monoid
    line = t_monoid()
    t = line.generator_named("t")
    fold = MonoidHom(pair, line, (t, t))
    n = 6
    pushed = pushforward(e.expand(n), fold)
    assert pushed.truncation == n
    # oracle: Cauchy product of the one-variable coefficient sequences
    zc = [class_projective_space(d, R) for d in range(n + 1)]
    for d in range(n + 1):
        want = R.zero
        for a in range(d + 1):
            want = want + zc[a] * zc[d - a]
        assert pushed.coefficient(d * t) == want


def test_pushforward_rational_form_commutes_with_expansion():
    z = curve_zeta(0)
    e = external_product(z, z)
    line = t_monoid()
    t = line.generator_named("t")
    fold = MonoidHom(e.monoid, line, (t, t))
    n = 5
    assert pushforward(e, fold).expand(n) == pushforward(e.expand(n), fold)


def test_pushforward_scales_truncation_by_degree_ratio():
    group = AbelianGroupPresentation(1)
    heavy = GradedMonoid(group, ("u",), (group.project([1]),), grading=(2,))
    line = t_monoid()
    t = line.generator_named("t")
    phi = MonoidHom(heavy, line, (t,))
    u = heavy.generator_named("u")
    f = TruncatedSeries(R, heavy, 6, {k * u: 1 for k in range(4)})
    pushed = pushforward(f, phi)
    assert pushed.truncation == 3  # floor(6 / (2/1))
    assert all(pushed.coefficient(k * t) == 1 for k in range(4))

    # opposite direction: doubling the degree certifies a larger bound
    psi = MonoidHom(line, heavy, (u,))
    g = TruncatedSeries(R, line, 6, {k * t: 1 for k in range(7)})
    up = pushforward(g, psi)
    assert up.truncation == 12
    assert all(up.coefficient(k * u) == 1 for k in range(7))


def test_pushforward_rejects_degree_collapsing_map():
    two = free_graded_monoid(("x", "y"))
    phi = MonoidHom(two, two, (two.generator_named("x"), two.zero))
    f = MonoidPolynomial.one(R, two).as_series(3)
    with pytest.raises(MCSError, match="does not respect the gradings"):
        pushforward(f, phi)


def test_pushforward_sums_coefficients_over_fibers():
    two = free_graded_monoid(("x", "y"))
    x = two.generator_named("x")
    y = two.generator_named("y")
    line = t_monoid()
    t = line.generator_named("t")
    fold = MonoidHom(two, line, (t, t))
    f = TruncatedSeries(R, two, 2, {x: 1, y: L, x + y: 2})
    pushed = pushforward(f, fold)
    assert pushed.coefficient(t) == R.one + L
    assert pushed.coefficient(2 * t) == 2


# ---------------------------------------------------------------------------
# external products


def test_external_product_names_and_structure():
    z = curve_zeta(0)
    e = external_product(z, z)
    names = e.monoid.names
    assert names == ("t1", "t2")
    assert len(e.factors) == 4


def test_external_product_truncated_agrees_with_rational():
    z = curve_zeta(0)
    n = 5
    et = external_product(z.expand(n), z.expand(n))
    er = external_product(z, z).expand(n)
    assert et == er


def test_external_product_requires_equal_truncations():
    z = curve_zeta(0)
    with pytest.raises(MCSError, match="needs equal truncation bounds"):
        external_product(z.expand(3), z.expand(4))


def test_external_product_truncated_requires_same_ring():
    z = curve_zeta(0)
    other = curve_zeta(0, standard_ring(a1_homotopy=True))
    with pytest.raises(MCSError, match="external product across ring specs"):
        external_product(z.expand(3), other.expand(3))


def test_external_product_with_a_generatorless_monoid():
    point = free_graded_monoid(())
    line = t_monoid()
    t = line.generator_named("t")
    f = TruncatedSeries(R, point, 3, {point.zero: 2})
    g = TruncatedSeries(R, line, 3, {line.zero: 1, t: L})
    e = external_product(f, g)
    assert e.truncation == 3
    assert [c for _, c in e.terms] == [2 * R.one, 2 * L]


# ---------------------------------------------------------------------------
# specialization


def test_specialize_collapse_to_euler_form():
    z = curve_zeta(0)
    s = Specialization(R, {"L": 1})
    col = z.specialize(s)
    # both factors become (1 - t): exponents merge
    assert len(col.factors) == 1 and col.factors[0][2] == 2
    f = col.expand(6)
    t = z.monoid.generator_named("t")
    for d in range(7):
        assert f.coefficient(d * t) == d + 1


def test_specialize_commutes_with_expansion():
    z = curve_zeta(0)
    s = Specialization(R, {"L": -1})
    assert z.specialize(s).expand(6) == z.expand(6).specialize(s)


# ---------------------------------------------------------------------------
# validation and mismatch errors


def test_rational_series_rejects_zero_class_factor():
    mono = t_monoid()
    with pytest.raises(MCSError, match="denominator factor at the zero class"):
        RationalSeries(R, mono, None, [(R.one, mono.zero, 1)])


def test_rational_series_rejects_non_effective_class():
    mono = t_monoid()
    t = mono.generator_named("t")
    with pytest.raises(MCSError, match="non-positive degree"):
        RationalSeries(R, mono, None, [(R.one, -1 * t, 1)])


def test_rational_series_merges_and_drops_factors():
    mono = t_monoid()
    t = mono.generator_named("t")
    f = RationalSeries(R, mono, None,
                       [(R.one, t, 1), (R.zero, t, 5), (R.one, t, 2), (L, t, 0)])
    assert f.factors == ((R.one, t, 3),)


def test_series_context_mismatches():
    z = curve_zeta(0)
    f3, f4 = z.expand(3), z.expand(4)
    with pytest.raises(MCSError, match="truncation bounds differ: 3 vs 4"):
        f3 + f4
    other = MonoidPolynomial.one(R, free_graded_monoid(("u",))).as_series(3)
    with pytest.raises(MCSError, match="series over different monoids"):
        f3 * other
    r2 = standard_ring(a1_homotopy=True)
    with pytest.raises(MCSError, match="series over different ring specs"):
        f3 + MonoidPolynomial.one(r2, z.monoid).as_series(3)


def test_binomial_power_is_repeated_product():
    # Z + Z/2: a and b have degree 1 and differ by the class of order two,
    # whose powers fold back onto the zero class
    group = AbelianGroupPresentation(2, ((2, -2),))
    mono = GradedMonoid(group, ("a", "b"), group.basis_images())
    a, b = mono.generators
    assert mono.degree(2 * a) == 2 and (b - a).torsion == (1,)
    eps = R.generator("eps")
    for alpha in (mono.zero, 2 * a, b, b - a):
        for c in (1, L, 2 - L, eps, 0):
            factor = binomial_factor_polynomial(R, mono, c, alpha)
            product = MonoidPolynomial.one(R, mono)
            for e in range(7):
                assert binomial_factor_polynomial(R, mono, c, alpha, e) == product
                product = product * factor
    with pytest.raises(ValueError):
        binomial_factor_polynomial(R, mono, 1, a, -1)


def test_binomial_power_is_capped(monkeypatch):
    # the e + 1 terms of (1 - t)^e are counted before any is made
    mono = free_graded_monoid(("t",))
    t = mono.generator_named("t")
    monkeypatch.setenv("MCS_MAX_TERMS", "3")
    with pytest.raises(EnumerationLimitError, match=(
            "^binomial power 3: 4 terms, over the cap of 3;")):
        binomial_factor_polynomial(R, mono, 1, t, 3)
    assert len(binomial_factor_polynomial(R, mono, 1, t, 2).terms) == 3


def test_binomial_digits_are_exact_where_they_decide():
    # the log-gamma digit count of C(e, e // 2) against the integer itself,
    # made by its own recurrence: exact for small e and around the limit,
    # which C(14292, 7146), of 4301 digits, is the first to pass
    mono = free_graded_monoid(("t",))
    t = mono.generator_named("t")
    x = 1
    for e in range(14400):
        if e:
            x = x * e // (e - (e - 1) // 2 if e % 2 else e // 2)
        if e < 200 or e > 14200:
            n = _binomial_digits(e)
            assert 10 ** (n - 1) <= x < 10 ** n, e
    assert _binomial_digits(14291) == MAX_COEFFICIENT_DIGITS
    with pytest.raises(MCSError, match=(
            r"^binomial power 14292: C\(14292, 7146\) has 4301 digits,"
            " over the limit of 4300$")):
        binomial_factor_polynomial(R, mono, 1, t, 14292)


def test_str_renders_every_term_with_coeff_str():
    # the text of each distinct coefficient is made once per call; the
    # result must be what rendering every term on its own gives
    z = curve_zeta(2)
    t = z.monoid.generator_named("t")
    multi = z.expand(3).coefficient(3 * t)
    assert len(multi.terms) > 1 and any(any(exp) for exp, _ in multi.terms)
    coeffs = [1, -1, 3, -2, multi]
    for shift in range(5):
        terms = {k * t: coeffs[(k + shift) % 5] for k in range(16)}
        poly = MonoidPolynomial(z.ring, z.monoid, terms)
        words = z.monoid.format_elements(e for e, _ in poly.terms)
        bodies = [_times_word(_coeff_text(c), w)
                  for (_, c), w in zip(poly.terms, words)]
        text = " ".join(bodies[:1] + [f"- {b[1:]}" if b.startswith("-")
                                      else f"+ {b}" for b in bodies[1:]])
        assert str(poly) == text
        assert str(TruncatedSeries(z.ring, z.monoid, 15, terms)) == (
            f"{text} + O(degree 16)")
        assert str(RationalSeries(z.ring, z.monoid, poly, z.factors)) == (
            f"({text})/((1 - t)*(1 - L*t))")


def test_truncated_as_series_keeps_terms_up_to_n():
    z = curve_zeta(0)
    f = z.expand(6)
    for n in range(7):
        kept = {e: c for e, c in f.terms if z.monoid.degree(e) <= n}
        g = f.as_series(n)
        assert g == TruncatedSeries(R, z.monoid, n, kept)
        assert len(g.terms) == n + 1
    with pytest.raises(MCSError, match="series data stops at degree"):
        f.as_series(7)


def test_truncated_series_rejects_terms_beyond_bound():
    mono = t_monoid()
    t = mono.generator_named("t")
    with pytest.raises(MCSError, match=r"series term outside \[0, truncation\]"):
        TruncatedSeries(R, mono, 2, {3 * t: 1})


# ---------------------------------------------------------------------------
# bulk property: expansion is a ring homomorphism


def random_rational(rng, mono, gens):
    terms = {mono.zero: R.one}
    for _ in range(rng.randrange(3)):
        e = rng.choice(gens)
        if rng.random() < 0.5:
            e = e + rng.choice(gens)
        c = rng.choice([R.from_int(rng.randrange(-3, 4)), L, L - R.one])
        terms[e] = terms.get(e, R.zero) + c
    factors = []
    for _ in range(rng.randrange(1, 4)):
        factors.append((rng.choice([R.one, L]), rng.choice(gens),
                        rng.randrange(1, 3)))
    return RationalSeries(R, mono, MonoidPolynomial(R, mono, terms), factors)


def test_expand_is_multiplicative_on_random_forms():
    rng = random.Random(20240812)
    mono = free_graded_monoid(("x", "y"))
    gens = [mono.generator_named("x"), mono.generator_named("y")]
    n = 4
    for _ in range(1000):
        f = random_rational(rng, mono, gens)
        g = random_rational(rng, mono, gens)
        assert (f * g).expand(n) == f.expand(n) * g.expand(n)


def test_expand_is_additive_in_numerators():
    rng = random.Random(7)
    mono = free_graded_monoid(("x", "y"))
    gens = [mono.generator_named("x"), mono.generator_named("y")]
    for _ in range(200):
        f = random_rational(rng, mono, gens)
        g = RationalSeries(R, mono, f.numerator
                           + random_rational(rng, mono, gens).numerator, f.factors)
        diff = RationalSeries(R, mono, g.numerator - f.numerator, f.factors)
        assert g.expand(4) == f.expand(4) + diff.expand(4)
