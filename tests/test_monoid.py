"""Presentations, canonical coordinates, gradings, enumeration, homs."""

import random

import pytest

from mcseries.errors import EnumerationLimitError, FiniteFiberError, MCSError
from mcseries.monoid import (
    GradedMonoid,
    MonoidElement,
    MonoidHom,
    canonicalize,
    direct_sum,
    enumerate_elements,
    express_in_basis,
    free_graded_monoid,
    identity_hom,
    positive_grading,
    presentation_from_relations,
)

# the six-generator class group of a three-point blow-up: generators
# (L1, L2, L3, E1, E2, E3) with L_i + E_j = L_j + E_i
BLOWUP_RELATIONS = ((1, -1, 0, -1, 1, 0), (1, 0, -1, -1, 0, 1))


def blowup_monoid():
    group = presentation_from_relations(6, BLOWUP_RELATIONS)
    names = ("t1", "t2", "t3", "s1", "s2", "s3")
    return GradedMonoid(group, names, group.basis_images())


def test_presentation_free():
    g = presentation_from_relations(3)
    assert g.rank == 3 and g.invariants == ()
    b = g.basis_images()
    assert b[0] + b[1] == g.project([1, 1, 0])
    assert g.project([0, 0, 0]).is_zero()


def test_presentation_single_relation_has_torsion():
    # Z^2 / <(2, -2)> is Z x Z/2: the difference of the generators
    # survives with order two
    g = presentation_from_relations(2, ((2, -2),))
    assert g.rank == 1
    assert g.invariants == (2,)
    e1, e2 = g.basis_images()
    diff = e1 - e2
    assert not diff.is_zero()
    assert (diff + diff).is_zero()
    assert e1.free == e2.free  # they differ only in torsion


def test_presentation_identifies_generators():
    g = presentation_from_relations(2, ((1, -1),))
    assert g.rank == 1 and g.invariants == ()
    e1, e2 = g.basis_images()
    assert e1 == e2


def test_blowup_presentation_rank_four():
    group = presentation_from_relations(6, BLOWUP_RELATIONS)
    assert group.rank == 4
    assert group.invariants == ()
    imgs = group.basis_images()
    # the defining relations hold in canonical coordinates
    assert imgs[0] + imgs[4] == imgs[1] + imgs[3]  # L1 + E2 = L2 + E1
    assert imgs[0] + imgs[5] == imgs[2] + imgs[3]  # L1 + E3 = L3 + E1
    assert imgs[1] + imgs[5] == imgs[2] + imgs[4]  # dependent third relation
    assert len({img.sort_key() for img in imgs}) == 6


def test_project_lift_roundtrip():
    rng = random.Random(11)
    group = presentation_from_relations(4, ((2, 0, -2, 4), (0, 3, 3, 0)))
    for _ in range(200):
        v = [rng.randint(-6, 6) for _ in range(4)]
        e = group.project(v)
        assert group.project(group.lift(e)) == e


def test_positive_grading_simple():
    z = free_graded_monoid(("t",))
    assert z.grading == (1,)
    assert z.degree(z.generator_named("t")) == 1


def test_positive_grading_infeasible():
    group = presentation_from_relations(1)
    pos, neg = group.project([1]), group.project([-1])
    with pytest.raises(FiniteFiberError):
        GradedMonoid(group, ("a", "b"), (pos, neg))


def test_positive_grading_rejects_torsion_generator():
    group = presentation_from_relations(2, ((0, 2),))
    e1, e2 = group.basis_images()
    assert any(e2.torsion)
    with pytest.raises(FiniteFiberError):
        GradedMonoid(group, ("a", "b"), (e1, e2))
    # dropping the finite-order generator leaves a graded monoid
    m = GradedMonoid(group, ("a",), (e1,))
    assert m.degree(e1) == 1


def test_positive_grading_rejects_zero_generator():
    group = presentation_from_relations(1)
    with pytest.raises(FiniteFiberError):
        positive_grading([group.project([0])], group.rank)


def test_blowup_grading_all_ones():
    m = blowup_monoid()
    assert [m.degree(g) for g in m.generators] == [1, 1, 1, 1, 1, 1]


def test_enumerate_z2():
    m = free_graded_monoid(("x", "y"))
    elems = enumerate_elements(m, 2)
    assert len(elems) == 6
    assert [e.free for e, _ in elems] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [d for _, d in elems] == [0, 1, 1, 2, 2, 2]


def test_enumerate_blowup_degree_one():
    m = blowup_monoid()
    elems = enumerate_elements(m, 1)
    assert len(elems) == 7  # zero plus six distinct degree-1 classes
    assert sum(1 for _, d in elems if d == 1) == 6


def test_enumerate_deterministic():
    m = blowup_monoid()
    a = enumerate_elements(m, 3)
    b = enumerate_elements(blowup_monoid(), 3)
    assert a == b


def test_enumeration_cap(monkeypatch):
    m = free_graded_monoid(("x", "y"))
    monkeypatch.setenv("MCS_MAX_TERMS", "4")
    with pytest.raises(EnumerationLimitError):
        m2 = free_graded_monoid(("x", "y"))
        m2.elements_up_to(5)
    monkeypatch.delenv("MCS_MAX_TERMS")
    assert len(m.elements_up_to(5)) == 21


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_bad_cap_value_raises_package_error(monkeypatch, raw):
    monkeypatch.setenv("MCS_MAX_TERMS", raw)
    with pytest.raises(MCSError, match="MCS_MAX_TERMS"):
        free_graded_monoid(("x", "y")).elements_up_to(2)


def test_contains_generator_without_enumerating(monkeypatch):
    # a cap of one element stops any enumeration past the zero class
    monkeypatch.setenv("MCS_MAX_TERMS", "1")
    m = blowup_monoid()
    assert all(m.contains(g) for g in m.generators)
    with pytest.raises(EnumerationLimitError):
        m.contains(m.generators[0] + m.generators[1])


def test_canonicalize_respects_relations():
    m = blowup_monoid()
    # t1 * s2 and t2 * s1 are the same class
    w1 = canonicalize((1, 0, 0, 0, 1, 0), m)
    w2 = canonicalize((0, 1, 0, 1, 0, 0), m)
    assert w1 == w2
    w3 = canonicalize((1, 0, 0, 1, 0, 0), m)
    assert w1 != w3


def test_canonicalize_grading_is_additive():
    m = blowup_monoid()
    rng = random.Random(2)
    for _ in range(300):
        word = [rng.randint(0, 3) for _ in range(6)]
        e = canonicalize(word, m)
        assert m.degree(e) == sum(w * m.degree(g) for w, g in zip(word, m.generators))


def test_word_for_and_format():
    m = blowup_monoid()
    t1 = m.generator_named("t1")
    s2 = m.generator_named("s2")
    assert m.format_element(m.zero) == "1"
    assert m.format_element(t1) == "t1"
    e = t1 + s2 + s2
    w = m.word_for(e)
    assert canonicalize(w, m) == e
    assert m.degree(e) == 3
    with pytest.raises(ValueError):
        m.word_for(-1 * t1)


def test_contains():
    m = blowup_monoid()
    t1, s1 = m.generator_named("t1"), m.generator_named("s1")
    assert m.contains(t1 + s1)
    assert m.contains(m.zero)
    assert not m.contains(t1 - s1)   # degree 0 but nonzero
    assert not m.contains(-1 * t1)


def test_hom_well_definedness():
    src_group = presentation_from_relations(2, ((1, -1),))
    src = GradedMonoid(src_group, ("a", "b"), src_group.basis_images())
    tgt = free_graded_monoid(("x", "y"))
    x, y = tgt.generators
    # a and b are equal in the source, so their images must agree
    MonoidHom(src, tgt, (x, x))
    with pytest.raises(ValueError):
        MonoidHom(src, tgt, (x, y))


def test_hom_requires_effective_images():
    src = free_graded_monoid(("a",))
    tgt = free_graded_monoid(("x", "y"))
    x, y = tgt.generators
    with pytest.raises(ValueError):
        MonoidHom(src, tgt, (x - y,))


def test_hom_apply_and_identity():
    m = blowup_monoid()
    ident = identity_hom(m)
    t1 = m.generator_named("t1")
    s3 = m.generator_named("s3")
    assert ident.apply(t1 + s3) == t1 + s3
    assert ident.degree_ratio() == 1

    # collapse Z>=0^2 onto Z>=0
    z2 = free_graded_monoid(("x", "y"))
    z1 = free_graded_monoid(("t",))
    t = z1.generators[0]
    fold = MonoidHom(z2, z1, (t, t))
    e = canonicalize((2, 3), z2)
    assert fold.apply(e) == canonicalize((5,), z1)
    assert fold.grading_compatible()


def test_direct_sum():
    a = free_graded_monoid(("t",))
    b = free_graded_monoid(("t",))
    total, inj1, inj2 = direct_sum(a, b)
    assert total.names == ("t1", "t2")
    g1 = inj1.apply(a.generators[0])
    g2 = inj2.apply(b.generators[0])
    assert g1 != g2
    assert total.degree(g1) == 1 and total.degree(g2) == 1
    assert total.degree(g1 + g2) == 2
    assert len(total.elements_up_to(2)) == 6


def test_direct_sum_with_relations():
    a = blowup_monoid()
    b = free_graded_monoid(("u",))
    total, inj1, inj2 = direct_sum(a, b)
    for g in a.generators:
        assert total.degree(inj1.apply(g)) == a.degree(g)
    assert total.degree(inj2.apply(b.generators[0])) == 1
    # relations survive the injection
    t1, t2 = a.generator_named("t1"), a.generator_named("t2")
    s1, s2 = a.generator_named("s1"), a.generator_named("s2")
    assert inj1.apply(t1 + s2) == inj1.apply(t2 + s1)


def test_express_in_basis():
    m = blowup_monoid()
    t1 = m.generator_named("t1")
    s1, s2, s3 = (m.generator_named(n) for n in ("s1", "s2", "s3"))
    t0 = t1 - s1
    coords = express_in_basis(t1, [t0, s1, s2, s3])
    assert coords == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        express_in_basis(t1, [2 * t0, 2 * s1, 2 * s2, 2 * s3])


def test_element_arithmetic_validation():
    e = MonoidElement((1, 2))
    f = MonoidElement((1,))
    with pytest.raises(ValueError):
        e + f
    with pytest.raises(ValueError):
        MonoidElement((0,), (1,), ())
    with pytest.raises(ValueError):
        MonoidElement((0,), (3,), (2,))
