"""Coefficient ring quotients: canonical forms, reductions, specializations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mcseries.errors import MissingAssignment, SpecMismatch
from mcseries.kring import (
    KRingSpec,
    ReductionRule,
    Specialization,
    class_projective_space,
    class_torus,
    specialize,
    standard_ring,
)

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


def test_torus_classes():
    L = STD.generator("L")
    assert class_torus(0, STD) == STD.one
    assert class_torus(1, STD) == L - 1
    assert class_torus(2, STD) == L * L - 2 * L + 1
    # homotopy quotient collapses the torus class to zero
    assert class_torus(1, A1).is_zero()
    assert class_torus(3, A1).is_zero()


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


def test_custom_reduction_rule():
    # u^3 -> 2*u means u^4 -> 2*u^2, u^5 -> 4*u, ...
    rule = ReductionRule("u", 3, ((((("u", 1),)), 2),))
    spec = KRingSpec(("u",), reductions=(rule,))
    u = spec.generator("u")
    assert u ** 3 == 2 * u
    assert u ** 5 == spec.element({(1,): 4})
    with pytest.raises(ValueError):
        # replacement fails to lower the degree
        KRingSpec(("u",), reductions=(ReductionRule("u", 2, ((((("u", 2),)), 1),)),))


def test_rules_may_not_rewrite_into_each_other():
    # a -> b and b -> a would rewrite forever
    a_to_b = ReductionRule("a", 1, (((("b", 1),), 1),))
    b_to_a = ReductionRule("b", 1, (((("a", 1),), 1),))
    with pytest.raises(ValueError, match="another reduced generator"):
        KRingSpec(("a", "b"), reductions=(a_to_b, b_to_a))


def test_canonical_text_form():
    L = STD.generator("L")
    eps = STD.generator("eps")
    assert str(STD.zero) == "0"
    assert str(1 + 2 * L + L ** 2) == "1 + 2*L + L^2"
    assert str(L - 1) == "-1 + L"
    assert str(-2 * eps * L) == "-2*L*eps"


def test_spec_mismatch():
    other = standard_ring(symbols=("a1",))
    with pytest.raises(SpecMismatch):
        STD.one + other.one
    with pytest.raises(SpecMismatch):
        STD.generator("a1")


def test_specialize_l_to_one():
    s = Specialization(STD, {"L": 1})
    for n in range(6):
        assert specialize(class_projective_space(n, STD), s) == STD.from_int(n + 1)
    assert specialize(class_torus(2, STD), s).is_zero()


def test_specialize_eps_to_minus_one():
    eps = STD.generator("eps")
    s = Specialization(STD, {"eps": -1})
    # even part 3, odd part 5 -> 3 - 5
    assert specialize(3 + 5 * eps, s) == STD.from_int(-2)


def test_specialize_strict_missing():
    s = Specialization(STD, {"eps": -1}, carry_unassigned=False)
    L = STD.generator("L")
    with pytest.raises(MissingAssignment):
        specialize(1 + L, s)
    # strict is fine when every present generator is assigned
    assert specialize(STD.generator("eps"), s) == STD.from_int(-1)


def test_specialize_carries_unassigned():
    L = STD.generator("L")
    eps = STD.generator("eps")
    s = Specialization(STD, {"eps": 1})
    assert specialize(L + eps, s) == L + 1


def test_composition_associates():
    spec = standard_ring(symbols=("a1",))
    s1 = Specialization(spec, {"a1": spec.generator("L") + 1})
    s2 = Specialization(spec, {"L": 1})
    s3 = Specialization(spec, {"eps": -1})
    rng = random.Random(5)
    left = s1.compose(s2).compose(s3)
    right = s1.compose(s2.compose(s3))
    for _ in range(50):
        a = random_element(spec, rng)
        assert specialize(a, left) == specialize(a, right)
        assert specialize(a, left) == specialize(specialize(specialize(a, s1), s2), s3)


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
    with pytest.raises(SpecMismatch):
        Specialization(STD, {"nope": 1})
    other = standard_ring(symbols=("b",))
    with pytest.raises(SpecMismatch):
        Specialization(STD, {"L": other.one})
