"""Coefficient ring quotients: canonical forms, reductions, specializations."""

import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mcseries import series
from mcseries.errors import MCSError
from mcseries.kring import (
    KElement,
    KRingSpec,
    Specialization,
    class_projective_space,
    specialize,
    standard_ring,
)
from mcseries.monoid import free_graded_monoid
from mcseries.toric import pn_divisor_series

STD = standard_ring()
A1 = standard_ring(a1_homotopy=True)


def random_element(spec, rng, max_terms=4, max_exp=3, max_coeff=5):
    raw = {}
    n = len(spec.generators)
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(n))
        raw[exp] = raw.get(exp, 0) + rng.randint(-max_coeff, max_coeff)
    return spec.element(raw)


def test_projective_space_classes():
    L = STD.generator("L")
    assert class_projective_space(0, STD) == STD.one
    assert class_projective_space(1, STD) == 1 + L
    assert class_projective_space(2, STD) == 1 + L + L * L
    assert str(class_projective_space(2, STD)) == "1 + L + L^2"
    with pytest.raises(ValueError):
        class_projective_space(-1, STD)


def test_projective_space_is_the_reduced_sum_of_powers():
    for spec in (STD, A1):
        for n in range(8):
            raw = {(i, 0): 1 for i in range(n + 1)}
            assert class_projective_space(n, spec).terms == spec.element(raw).terms
    assert class_projective_space(7, A1).as_integer() == 8


def test_torus_classes():
    # the class of a k-dimensional split torus is (L - 1)**k
    L = STD.generator("L")
    assert (L - 1) ** 0 == STD.one
    assert (L - 1) ** 2 == L * L - 2 * L + 1
    # homotopy quotient collapses the torus class to zero
    LA = A1.generator("L")
    assert (LA - 1).is_zero()
    assert ((LA - 1) ** 3).is_zero()


def test_a1_quotient_is_eager():
    L = A1.generator("L")
    assert L == A1.one
    assert class_projective_space(4, A1) == A1.from_int(5)


def test_eps_involution():
    eps = STD.generator("eps")
    assert eps * eps == STD.one
    assert eps ** 3 == eps
    assert (1 + eps) * (1 - eps) == STD.zero
    assert str(eps ** 2) == "1"


def test_reduction_is_one_pass_at_the_generator_positions():
    # eps and L away from the front: eps mod 2, L to 0 under the A^1 flag,
    # free symbols untouched, at any exponent
    spec = KRingSpec(("x", "eps", "L"), a1_homotopy=True)
    big = spec.element({(5000, 10 ** 6 + 1, 7): 2, (5000, 2, 0): 3})
    assert big.terms == (((5000, 0, 0), 3), ((5000, 1, 0), 2))
    assert spec.element({(5000, 10 ** 6, 3): 1}) == spec.generator("x") ** 5000
    # a reduced vector is kept as it is, not copied
    vec = (3, 1, 0)
    assert spec.element({vec: 1}).terms[0][0] is vec
    assert STD.element({(4, 3): 1}).terms == (((4, 1), 1),)
    free = KRingSpec(("u",))
    assert (free.generator("u") ** 5).terms == (((5,), 1),)


def test_canonical_text_form():
    L = STD.generator("L")
    eps = STD.generator("eps")
    assert str(STD.zero) == "0"
    assert str(1 + 2 * L + L ** 2) == "1 + 2*L + L^2"
    assert str(L - 1) == "-1 + L"
    assert str(-2 * eps * L) == "-2*L*eps"


def test_spec_mismatch():
    other = standard_ring(symbols=("a1",))
    with pytest.raises(MCSError, match=r"KRingSpec\(L, eps\) vs KRingSpec\(L, eps, a1\)"):
        STD.one + other.one
    with pytest.raises(MCSError, match="generator 'a1' not in"):
        STD.generator("a1")


def test_specialize_l_to_one():
    s = Specialization(STD, {"L": 1})
    for n in range(6):
        assert specialize(class_projective_space(n, STD), s) == STD.from_int(n + 1)
    assert specialize((STD.generator("L") - 1) ** 2, s).is_zero()


def test_specialize_eps_to_minus_one():
    eps = STD.generator("eps")
    s = Specialization(STD, {"eps": -1})
    # even part 3, odd part 5 -> 3 - 5
    assert specialize(3 + 5 * eps, s) == STD.from_int(-2)


def test_specialize_strict_missing():
    s = Specialization(STD, {"eps": -1}, carry_unassigned=False)
    L = STD.generator("L")
    with pytest.raises(MCSError, match="no assignment for generator 'L'"):
        specialize(1 + L, s)
    # strict is fine when every present generator is assigned
    assert specialize(STD.generator("eps"), s) == STD.from_int(-1)


def test_specialize_carries_unassigned():
    L = STD.generator("L")
    eps = STD.generator("eps")
    s = Specialization(STD, {"eps": 1})
    assert specialize(L + eps, s) == L + 1


def test_ring_axioms_random():
    rng = random.Random(99)
    for _ in range(400):
        a = random_element(STD, rng)
        b = random_element(STD, rng)
        c = random_element(STD, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * STD.one == a
        assert a + STD.zero == a
        assert a - a == STD.zero


def test_equal_elements_hash_equally():
    # the hash is made at the first __hash__ call, whichever of two equal
    # elements is hashed first, and is kept for the next call
    rng = random.Random(7)
    for _ in range(200):
        a = random_element(STD, rng)
        b = random_element(STD, rng)
        ab, ba = a * b, b * a
        assert ab == ba
        assert hash(ab) == hash(ba) == hash(ab)
        assert hash(a + b) == hash(STD.element(dict((a + b).terms)))
    assert {STD.one * STD.one: 1}[STD.one] == 1


@given(st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                          st.integers(-9, 9)), max_size=5))
@settings(max_examples=200, deadline=None)
def test_canonical_form_is_stable(raw_terms):
    spec = KRingSpec(("L", "x"))
    raw = {}
    for exp, c in raw_terms:
        raw[exp] = raw.get(exp, 0) + c
    a = spec.element(raw)
    # rebuilding from its own terms is the identity
    assert spec.element(dict(a.terms)) == a
    for (e1, c1), (e2, c2) in zip(a.terms, a.terms[1:]):
        assert e1 < e2
        assert c1 != 0 and c2 != 0


def test_specialization_on_spec_level_errors():
    with pytest.raises(MCSError, match="generator 'nope' not in"):
        Specialization(STD, {"nope": 1})
    other = standard_ring(symbols=("b",))
    with pytest.raises(MCSError, match="assignments must land in the same spec"):
        Specialization(STD, {"L": other.one})


# -- specialize and integer products against raw-dict references

def raw_product(x, y):
    """x * y from the raw term dicts, reduced once by the spec."""
    raw = {}
    for e1, c1 in x.terms:
        for e2, c2 in y.terms:
            exp = tuple(a + b for a, b in zip(e1, e2))
            raw[exp] = raw.get(exp, 0) + c1 * c2
    return x.spec.element(raw)


def term_by_term_specialize(a, s):
    """Reference specialize: each term built as a product of images and
    added into the result, one term at a time."""
    spec = a.spec
    images = [s.assignments.get(name) for name in spec.generators]
    result = spec.zero
    for exp, coeff in a.terms:
        term = spec.from_int(coeff)
        for gi, e in enumerate(exp):
            if e == 0:
                continue
            image = images[gi]
            if image is None:
                if not s.carry_unassigned:
                    raise MCSError(
                        f"no assignment for generator {spec.generators[gi]!r}")
                image = spec.generator(spec.generators[gi])
            for _ in range(e):
                term = raw_product(term, image)
        result = result + term
    return result


ORACLE_RINGS = (
    standard_ring(symbols=("x", "y")),
    standard_ring(symbols=("x",), a1_homotopy=True),
    KRingSpec(("u", "eps", "x", "L"), a1_homotopy=True),
)


def elements(spec, max_terms=4, max_exp=3):
    n = len(spec.generators)
    term = st.tuples(st.tuples(*[st.integers(0, max_exp)] * n),
                     st.integers(-6, 6))

    def build(pairs):
        raw = {}
        for exp, c in pairs:
            raw[exp] = raw.get(exp, 0) + c
        return spec.element(raw)

    return st.lists(term, max_size=max_terms).map(build)


@st.composite
def specialize_cases(draw):
    spec = draw(st.sampled_from(ORACLE_RINGS))
    a = draw(elements(spec))
    assignments = {}
    for name in spec.generators:
        kind = draw(st.sampled_from(("none", "int", "generator", "element")))
        if kind == "int":
            assignments[name] = draw(st.integers(-3, 3))
        elif kind == "generator":
            assignments[name] = spec.generator(
                draw(st.sampled_from(spec.generators)))
        elif kind == "element":
            assignments[name] = draw(elements(spec, max_terms=3, max_exp=2))
    carry = draw(st.booleans())
    return a, Specialization(spec, assignments, carry_unassigned=carry)


@given(specialize_cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_specialize_matches_term_by_term(case):
    a, s = case
    try:
        want = term_by_term_specialize(a, s)
    except MCSError:
        assert not s.carry_unassigned
        with pytest.raises(MCSError, match="no assignment for generator"):
            specialize(a, s)
        return
    assert specialize(a, s) == want


@given(st.sampled_from(ORACLE_RINGS).flatmap(
           lambda spec: st.tuples(elements(spec), st.integers(-7, 7))))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_integer_product_fast_path(case):
    a, n = case
    k = a.spec.from_int(n)
    want = raw_product(a, k)
    for got in (a * k, k * a, a * n, n * a):
        assert got == want
        assert got.terms == want.terms
        assert hash(got) == hash(want)
    assert (a * a.spec.zero).is_zero() and (a.spec.zero * a).is_zero()


def test_specialize_to_integer_makes_no_ring_product(monkeypatch):
    calls = []
    original = KElement.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(KElement, "__mul__", counted)
    monkeypatch.setattr(KElement, "__rmul__", counted)
    big = class_projective_space(10_000, STD)
    calls.clear()
    assert specialize(big, Specialization(STD, {"L": 1})) == 10_001
    assert len(calls) == 0


def test_projective_space_terms_equal_the_sliced_vectors():
    # the vectors head + (i,) + tail equal the zero vector sliced around
    # the position of L, wherever L stands, and under the A^1 quotient
    for spec in (STD, KRingSpec(("u", "eps", "x", "L")), A1):
        for n in (0, 1, 5, 40):
            zero = (0,) * len(spec.generators)
            li = spec.index("L")
            if spec.a1_homotopy:
                want = spec.from_int(n + 1).terms
            else:
                want = tuple((zero[:li] + (i,) + zero[li + 1:], 1) for i in range(n + 1))
            assert class_projective_space(n, spec).terms == want


# -- specialize of series whose coefficients are prefix chains

@st.composite
def chained_series_cases(draw):
    """A specialization and a list of coefficients, in term order: prefix
    chains of one term tuple, chains whose first terms map to zero,
    unrelated elements and equal neighbours."""
    a, s = draw(specialize_cases())
    spec = s.spec
    n = len(spec.generators)
    coeffs = [a]
    for kind in draw(st.lists(st.sampled_from(("chain", "zero", "unrelated", "repeat")),
                              min_size=1, max_size=6)):
        if kind == "repeat":
            coeffs.append(coeffs[-1])
            continue
        if kind == "unrelated":
            coeffs.append(draw(elements(spec)))
            continue
        terms = []
        # an integer image v of a generator g that nothing reduces: the
        # terms k*v and -k*g map to 0
        ints = [spec.index(name) for name, image in s.assignments.items()
                if image.is_integer() and not (spec.a1_homotopy and name == "L")]
        if kind == "zero" and ints:
            gi = draw(st.sampled_from(ints))
            v = s.assignments[spec.generators[gi]].as_integer()
            k = draw(st.sampled_from((-2, -1, 1, 3)))
            unit = tuple(int(i == gi) for i in range(n))
            terms = [(unit, k)] if v == 0 else [((0,) * n, k * v), (unit, -k)]
        # further terms past the last, from a random element
        tail = draw(elements(spec, max_terms=8))
        terms += [t for t in tail.terms if not terms or t[0] > terms[-1][0]]
        cuts = draw(st.lists(st.integers(0, len(terms)), min_size=1, max_size=5))
        # terms is sorted, reduced and nonzero, so each prefix is canonical
        coeffs += [KElement(spec, tuple(terms[:c])) for c in sorted(cuts)]
    return coeffs, s


@given(chained_series_cases(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_specialize_prefix_chains_matches_term_by_term(case, truncated):
    coeffs, s = case
    mono = free_graded_monoid(("t",))
    t = mono.generator_named("t")
    terms = {d * t: c for d, c in enumerate(coeffs)}
    f = (series.TruncatedSeries(s.spec, mono, len(coeffs) + 1, terms) if truncated
         else series.MonoidPolynomial(s.spec, mono, terms))
    # the oracle walks the nonzero coefficients in term order; in strict
    # mode the first that meets an unassigned generator raises
    want, failed = {}, None
    for d, c in enumerate(coeffs):
        if c.is_zero():
            continue
        try:
            want[d] = term_by_term_specialize(c, s)
        except MCSError as exc:
            failed = c, str(exc)
            break
    seen = []

    def counted(a, *args):
        seen.append(a)
        return specialize(a, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "specialize", counted)
        if failed is not None:
            assert not s.carry_unassigned
            with pytest.raises(MCSError) as exc:
                f.specialize(s)
            assert (seen[-1], str(exc.value)) == failed
            assert len(seen) == len(want) + 1
            return
        got = f.specialize(s)
    assert len(seen) == len(want)
    for d, c in want.items():
        assert got.coefficient(d * t) == c


def test_divisor_series_at_eps_sums_by_doubling(monkeypatch):
    # L -> eps is no integer image, so each coefficient is the geometric
    # sum of eps by doubling: no power is raised, and each degree takes at
    # most three products per bit of its term count (1,820 at degree 12),
    # not one term walk per term of the top coefficient
    eps = STD.generator("eps")
    s = Specialization(STD, {"L": eps})
    want = pn_divisor_series(4, 12).specialize(s)
    calls = []
    original = KElement.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    def no_power(self, n):
        raise AssertionError("power raised")

    monkeypatch.setattr(KElement, "__mul__", counted)
    monkeypatch.setattr(KElement, "__pow__", no_power)
    got = pn_divisor_series(4, 12, s)
    assert got == want
    assert len(calls) <= 3 * sum(comb(4 + d, d).bit_length() for d in range(13))
