"""Presentations, canonical coordinates, gradings, enumeration, homs."""

import random
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mcseries import monoid as monoid_module
from mcseries.cli import main
from mcseries.errors import EnumerationLimitError, MCSError
from mcseries.gm_action import colinear_mc_series
from mcseries.intlinalg import det, left_inverse, smith_decomposition
from mcseries.monoid import (
    AbelianGroupPresentation,
    GradedMonoid,
    MonoidElement,
    MonoidHom,
    direct_sum,
    express_keys_in_basis,
    free_graded_monoid,
    positive_grading,
)
from mcseries.toric import chow_presentation, mc_series_toric

from _tools import (FANS, blowup_at_fixed_point, canonicalize, coordinate_oracle,
                    elements_up_to, fan_file)
from test_fan_faces import cube_face_fan

# the six-generator class group of a three-point blow-up: generators
# (L1, L2, L3, E1, E2, E3) with L_i + E_j = L_j + E_i
BLOWUP_RELATIONS = ((1, -1, 0, -1, 1, 0), (1, 0, -1, -1, 0, 1))


def blowup_monoid():
    group = AbelianGroupPresentation(6, BLOWUP_RELATIONS)
    names = ("t1", "t2", "t3", "s1", "s2", "s3")
    return GradedMonoid(group, names, group.basis_images())


def test_presentation_free():
    g = AbelianGroupPresentation(3)
    assert g.rank == 3 and g.invariants == ()
    b = g.basis_images()
    assert b[0] + b[1] == g.project([1, 1, 0])
    assert g.project([0, 0, 0]).is_zero()


def test_presentation_single_relation_has_torsion():
    # Z^2 / <(2, -2)> is Z x Z/2: the difference of the generators
    # survives with order two
    g = AbelianGroupPresentation(2, ((2, -2),))
    assert g.rank == 1
    assert g.invariants == (2,)
    e1, e2 = g.basis_images()
    diff = e1 - e2
    assert not diff.is_zero()
    assert (diff + diff).is_zero()
    assert e1.free == e2.free  # they differ only in torsion


def test_presentation_identifies_generators():
    g = AbelianGroupPresentation(2, ((1, -1),))
    assert g.rank == 1 and g.invariants == ()
    e1, e2 = g.basis_images()
    assert e1 == e2


def test_blowup_presentation_rank_four():
    group = AbelianGroupPresentation(6, BLOWUP_RELATIONS)
    assert group.rank == 4
    assert group.invariants == ()
    imgs = group.basis_images()
    # the defining relations hold in canonical coordinates
    assert imgs[0] + imgs[4] == imgs[1] + imgs[3]  # L1 + E2 = L2 + E1
    assert imgs[0] + imgs[5] == imgs[2] + imgs[3]  # L1 + E3 = L3 + E1
    assert imgs[1] + imgs[5] == imgs[2] + imgs[4]  # dependent third relation
    assert len(set(imgs)) == 6


def test_project_lift_roundtrip():
    rng = random.Random(11)
    group = AbelianGroupPresentation(4, ((2, 0, -2, 4), (0, 3, 3, 0)))
    for _ in range(200):
        v = [rng.randint(-6, 6) for _ in range(4)]
        e = group.project(v)
        assert group.project(group.lift(e)) == e


def test_basis_images_are_the_projections_of_the_unit_vectors():
    # basis_images reads column j of U; project multiplies U by e_j and
    # reduces the torsion rows into [0, d)
    rng = random.Random(13)
    with_torsion = 0
    for _ in range(300):
        m = rng.randint(1, 6)
        scale = rng.choice((2, 3, 6))
        rels = [[rng.randint(-3, 3) * rng.choice((1, scale)) for _ in range(m)]
                for _ in range(rng.randint(0, m + 2))]
        group = AbelianGroupPresentation(m, rels)
        with_torsion += bool(group.invariants)
        units = [[int(i == j) for i in range(m)] for j in range(m)]
        assert group.basis_images() == [group.project(e) for e in units]
    assert with_torsion > 100


def test_positive_grading_simple():
    z = free_graded_monoid(("t",))
    assert z.grading == (1,)
    assert z.degree(z.generator_named("t")) == 1


def test_positive_grading_infeasible():
    group = AbelianGroupPresentation(1)
    pos, neg = group.project([1]), group.project([-1])
    with pytest.raises(MCSError, match="no strictly positive grading exists"):
        GradedMonoid(group, ("a", "b"), (pos, neg))


def test_positive_grading_rejects_torsion_generator():
    group = AbelianGroupPresentation(2, ((0, 2),))
    e1, e2 = group.basis_images()
    assert any(e2.torsion)
    with pytest.raises(MCSError, match="finite order admits no positive grading"):
        GradedMonoid(group, ("a", "b"), (e1, e2))
    # dropping the finite-order generator leaves a graded monoid
    m = GradedMonoid(group, ("a",), (e1,))
    assert m.degree(e1) == 1


def test_positive_grading_rejects_zero_generator():
    group = AbelianGroupPresentation(1)
    with pytest.raises(MCSError, match="zero generator admits no positive grading"):
        positive_grading([group.project([0])], group.rank)


@pytest.mark.parametrize("path", sorted(FANS.glob("*.json")), ids=lambda p: p.stem)
def test_positive_grading_of_every_sample_fan_is_primitive(path):
    # at the LP optimum some generator has value 1 before scaling, so the
    # scaled functional has no common factor to divide out
    fan = fan_file(path.stem)
    for p in range(fan.dim + 1):
        m = chow_presentation(fan, p).monoid
        w = positive_grading(m.generators, m.group.rank)
        assert w == m.grading
        assert gcd(*w) == 1
        assert all(sum(map(mul, w, g.free)) >= 1 for g in m.generators)


def test_blowup_grading_all_ones():
    m = blowup_monoid()
    assert [m.degree(g) for g in m.generators] == [1, 1, 1, 1, 1, 1]


def test_enumerate_z2():
    m = free_graded_monoid(("x", "y"))
    elems = elements_up_to(m, 2)
    assert len(elems) == 6
    assert [e.free for e, _ in elems] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [d for _, d in elems] == [0, 1, 1, 2, 2, 2]


def test_enumerate_blowup_degree_one():
    m = blowup_monoid()
    elems = elements_up_to(m, 1)
    assert len(elems) == 7  # zero plus six distinct degree-1 classes
    assert sum(1 for _, d in elems if d == 1) == 6


def test_enumerate_deterministic():
    m = blowup_monoid()
    a = elements_up_to(m, 3)
    b = elements_up_to(blowup_monoid(), 3)
    assert a == b


def test_enumeration_cap(monkeypatch):
    m = free_graded_monoid(("x", "y"))
    monkeypatch.setenv("MCS_MAX_TERMS", "4")
    with pytest.raises(EnumerationLimitError):
        m2 = free_graded_monoid(("x", "y"))
        elements_up_to(m2, 5)
    monkeypatch.delenv("MCS_MAX_TERMS")
    assert len(elements_up_to(m, 5)) == 21


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_bad_cap_value_raises_package_error(monkeypatch, raw):
    monkeypatch.setenv("MCS_MAX_TERMS", raw)
    with pytest.raises(MCSError, match="MCS_MAX_TERMS"):
        elements_up_to(free_graded_monoid(("x", "y")), 2)


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
    with pytest.raises(MCSError, match="negative degree"):
        m.word_for(-1 * t1)


def test_contains():
    m = blowup_monoid()
    t1, s1 = m.generator_named("t1"), m.generator_named("s1")
    assert m.contains(t1 + s1)
    assert m.contains(m.zero)
    assert not m.contains(t1 - s1)   # degree 0 but nonzero
    assert not m.contains(-1 * t1)


def test_hom_well_definedness():
    src_group = AbelianGroupPresentation(2, ((1, -1),))
    src = GradedMonoid(src_group, ("a", "b"), src_group.basis_images())
    tgt = free_graded_monoid(("x", "y"))
    x, y = tgt.generators
    # a and b are equal in the source, so their images must agree
    MonoidHom(src, tgt, (x, x))
    with pytest.raises(ValueError):
        MonoidHom(src, tgt, (x, y))


def test_hom_from_a_torsion_source():
    # Z + Z/2 on a, b with 2a = 2b: b - a has order 2, and an image of the
    # word 2a - 2b must vanish
    group = AbelianGroupPresentation(2, ((2, -2),))
    src = GradedMonoid(group, ("a", "b"), group.basis_images())
    free = free_graded_monoid(("x", "y"))
    x, y = free.generators
    with pytest.raises(ValueError, match="images do not satisfy the source relations"):
        MonoidHom(src, free, (x, y))
    fold = MonoidHom(src, free, (x, x))
    a, b = src.generators
    assert fold.apply(a + b) == 2 * x
    ident = MonoidHom(src, src, src.generators)
    assert ident.apply(b - a + 2 * a) == a + b


def test_hom_from_a_source_without_generators():
    group = AbelianGroupPresentation(0)
    src = GradedMonoid(group, (), ())
    hom = MonoidHom(src, free_graded_monoid(("x",)), ())
    assert hom._word_kernel_basis() == []
    assert hom.apply(src.zero).is_zero()


def test_hom_requires_effective_images():
    src = free_graded_monoid(("a",))
    tgt = free_graded_monoid(("x", "y"))
    x, y = tgt.generators
    with pytest.raises(ValueError):
        MonoidHom(src, tgt, (x - y,))


def test_hom_apply_and_identity():
    m = blowup_monoid()
    ident = MonoidHom(m, m, m.generators)
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
    assert len(elements_up_to(total, 2)) == 6


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
    coords = express_keys_in_basis([e.packed() for e in (t1, s3, t1 + s2)],
                                   [t0, s1, s2, s3])
    assert coords == [(1, 1, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0)]
    with pytest.raises(MCSError, match="not an integer combination"):
        express_keys_in_basis([t1.packed()], [2 * t0, 2 * s1, 2 * s2, 2 * s3])
    with pytest.raises(MCSError, match="linearly dependent"):
        express_keys_in_basis([t1.packed()], [t0, t1, s1, s2, s3])


def test_express_in_an_empty_basis():
    with pytest.raises(MCSError, match="empty basis"):
        express_keys_in_basis([blowup_monoid().zero.packed()], [])
    with pytest.raises(MCSError, match="empty basis"):
        express_keys_in_basis([], [])


def test_element_arithmetic_validation():
    e = MonoidElement((1, 2))
    f = MonoidElement((1,))
    with pytest.raises(MCSError, match="elements from different groups"):
        e + f
    with pytest.raises(MCSError, match="torsion/moduli length mismatch"):
        MonoidElement((0,), (1,), ())
    with pytest.raises(MCSError, match="torsion residue out of range"):
        MonoidElement((0,), (3,), (2,))


# -- the projection and the lift --------------------------------------------


def random_presentation(rng, m, scale):
    """Z^m modulo up to m + 1 random rows, each entry scaled by 1 or scale,
    so that many of them have torsion."""
    rels = [[rng.randint(-3, 3) * rng.choice((1, scale)) for _ in range(m)]
            for _ in range(rng.randint(0, m + 1))]
    return AbelianGroupPresentation(m, rels)


def random_element(rng, group):
    return MonoidElement(tuple(rng.randint(-5, 5) for _ in range(group.rank)),
                         tuple(rng.randrange(d) for d in group.invariants),
                         group.invariants)


def test_project_of_lift_is_the_identity():
    rng = random.Random(17)
    with_torsion = 0
    for _ in range(300):
        group = random_presentation(rng, rng.randint(0, 6), rng.choice((2, 3, 6)))
        with_torsion += bool(group.invariants)
        images = group.basis_images()
        combos = []
        for _ in range(5):
            acc = group.zero
            for img in images:
                acc = acc + rng.randint(-4, 4) * img
            combos.append(acc)
        for e in images + combos + [random_element(rng, group) for _ in range(5)]:
            assert e in group
            x = group.lift(e)
            assert len(x) == group.num_generators
            assert group.project(x) == e
    assert with_torsion > 100


def test_lift_rejects_an_element_of_another_group():
    group = AbelianGroupPresentation(2, ((2, -2),))
    for e in (MonoidElement((1,)), MonoidElement((1, 0), (1,), (2,)),
              MonoidElement((1,), (1,), (3,))):
        assert e not in group
        with pytest.raises(ValueError, match="element not in this group"):
            group.lift(e)


def test_presentation_on_no_generators():
    for group in (AbelianGroupPresentation(0), AbelianGroupPresentation(0, [()])):
        assert (group.rank, group.invariants) == (0, ())
        assert group.basis_images() == []
        assert group.project([]) == group.zero
        assert group.lift(group.zero) == []
        assert group.zero in group


def test_presentation_without_relations_is_the_identity():
    group = AbelianGroupPresentation(3)
    for v in ([0, 0, 0], [1, -2, 5], [-7, 0, 3]):
        e = group.project(v)
        assert e == MonoidElement(tuple(v))
        assert group.lift(e) == v


def test_presentation_of_rank_zero_with_torsion():
    # Z^2 / <(2, 0), (0, 3)> is Z/6
    group = AbelianGroupPresentation(2, ((2, 0), (0, 3)))
    assert (group.rank, group.invariants) == (0, (6,))
    b1, b2 = group.basis_images()
    assert b1.free == b2.free == ()
    assert not b1.is_zero() and (2 * b1).is_zero()
    assert not b2.is_zero() and (3 * b2).is_zero()
    elements = [MonoidElement((), (t,), (6,)) for t in range(6)]
    assert {(k * (b1 + b2)).torsion for k in range(6)} == {(t,) for t in range(6)}
    for e in elements:
        assert group.project(group.lift(e)) == e


@st.composite
def torsion_monoids(draw):
    """A monoid in Z^m modulo relations that are all multiples of d >= 2,
    so the group has torsion and rank >= 1; generators have non-negative,
    nonzero free parts and any torsion residues."""
    m = draw(st.integers(2, 5))
    d = draw(st.sampled_from((2, 3, 4, 6)))
    entries = st.integers(-3, 3)
    first = draw(st.lists(entries, min_size=m, max_size=m).filter(any))
    rest = draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                         max_size=m - 2))
    group = AbelianGroupPresentation(m, [[d * x for x in row] for row in [first] + rest])
    free = st.lists(st.integers(0, 2), min_size=group.rank,
                    max_size=group.rank).filter(any)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        torsion = tuple(draw(st.integers(0, q - 1)) for q in group.invariants)
        gens.append(MonoidElement(tuple(draw(free)), torsion, group.invariants))
    gens = list(dict.fromkeys(gens))
    names = [f"g{i}" for i in range(len(gens))]
    return GradedMonoid(group, names, gens)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(torsion_monoids(), torsion_monoids(), st.randoms(use_true_random=False))
def test_direct_sum_grading_restricts_to_each_summand(a, b, rng):
    assert a.group.invariants and b.group.invariants
    total, inj1, inj2 = direct_sum(a, b)
    for mono, inj in ((a, inj1), (b, inj2)):
        for g, img in zip(mono.generators, inj.images):
            assert img in total.group
            assert total.degree(img) == mono.degree(g)
    m1, m2 = a.group.num_generators, b.group.num_generators
    for _ in range(5):
        x = [rng.randint(-4, 4) for _ in range(m1)]
        y = [rng.randint(-4, 4) for _ in range(m2)]
        assert (total.degree(total.group.project(x + y))
                == a.degree(a.group.project(x)) + b.degree(b.group.project(y)))


def test_direct_sum_with_the_monoid_on_no_generators():
    a = free_graded_monoid(())
    b = blowup_monoid()
    total, inj1, inj2 = direct_sum(a, b)
    assert total.names == b.names and inj1.images == ()
    assert total.grading == b.grading
    for g, img in zip(b.generators, inj2.images):
        assert total.degree(img) == b.degree(g)


def test_direct_sum_checks_its_injections(monkeypatch):
    # the 4-cube's divisor classes have torsion (2, 2, 2); each injection
    # is checked like any MonoidHom: effective images, source relations kept
    checked = []
    kernel = MonoidHom._word_kernel_basis

    def spy(self):
        checked.append(self.source)
        return kernel(self)

    monkeypatch.setattr(MonoidHom, "_word_kernel_basis", spy)
    a = chow_presentation(fan_file("cube4"), 3).monoid
    b = chow_presentation(fan_file("p1"), 0).monoid
    assert a.group.invariants == (2, 2, 2)
    total, inj1, inj2 = direct_sum(a, b)
    assert checked == [a, b]
    for mono, inj in ((a, inj1), (b, inj2)):
        for g, img in zip(mono.generators, inj.images):
            assert inj.apply(g) == img and total.contains(img)
            assert total.degree(img) == mono.degree(g)


# -- words and membership from coordinates -----------------------------------


@st.composite
def independent_monoids(draw, square, torsion):
    """A monoid in Z^rank x (torsion or no torsion) whose generators have
    linearly independent free parts: rank of them when square, fewer
    otherwise.  The first free part is scaled by 1, 2 or 3, so that some
    classes have fractional coordinates."""
    rank = draw(st.integers(1, 4) if square else st.integers(2, 4))
    k = rank if square else draw(st.integers(1, rank - 1))
    moduli = draw(st.lists(st.sampled_from((2, 3, 4)), min_size=1,
                           max_size=2)) if torsion else []
    q = len(moduli)
    group = AbelianGroupPresentation(
        rank + q, [[0] * rank + [d * (i == j) for j in range(q)]
                   for i, d in enumerate(moduli)])
    # free parts of positive coordinate sum admit a positive grading
    free = st.lists(st.integers(-1, 3), min_size=rank,
                    max_size=rank).filter(lambda f: sum(f) >= 1)
    frees = draw(st.lists(free, min_size=k, max_size=k))
    assume(smith_decomposition([list(row) for row in zip(*frees)]).rank == k)
    scale = draw(st.sampled_from((1, 2, 3)))
    frees[0] = [scale * x for x in frees[0]]
    gens = [MonoidElement(tuple(f), tuple(draw(st.integers(0, d - 1))
                                          for d in group.invariants),
                          group.invariants) for f in frees]
    return GradedMonoid(group, [f"g{i}" for i in range(k)], gens)


def _combination(m, word):
    return sum((c * g for c, g in zip(word, m.generators)), m.zero)


def _check_against_bfs(m, bound, outside=()):
    """word_for, contains and _format_keys against the word table of the
    enumeration to bound; each element of outside must be no member."""
    table = m._enumerate(bound)
    members = [m.group.unpack(key) for key in table]
    assert [m.word_for(e) for e in members] == list(table.values())
    assert all(m.contains(e) for e in members)
    assert m._format_keys(list(table)) == m._format_words(zip(*table.values()), len(table))
    for e in outside:
        assert e.packed() not in m._enumerate(max(m.degree(e), 0))
        assert not m.contains(e)
        with pytest.raises(MCSError, match="not a sum of monoid generators"
                                           "|negative degree"):
            m.word_for(e)
        with pytest.raises(MCSError, match="not a sum of monoid generators"):
            m._format_keys([e.packed()])
    assert m._solve  # the words came from coordinates


@pytest.mark.parametrize("square", [True, False], ids=["square", "k<rank"])
@pytest.mark.parametrize("torsion", [False, True], ids=["free", "torsion"])
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_coordinate_words_match_bfs(square, torsion, data):
    m = data.draw(independent_monoids(square, torsion))
    k = len(m.generators)
    word = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    outside = []
    if k > 1:  # a negative coordinate
        outside.append(_combination(m, word[:-1] + [-1]))
    g = m.generators[0]
    if all(x % 2 == 0 for x in g.free):  # coordinate 1/2 on the first
        outside.append(MonoidElement(tuple(x // 2 for x in g.free),
                                     g.torsion, g.moduli))
    if torsion:  # the right free part with the wrong torsion
        e = _combination(m, word)
        outside.append(MonoidElement(e.free, tuple(
            (t + 1) % d for t, d in zip(e.torsion, e.moduli)), e.moduli))
    if not square:  # a unit vector outside the span of the free parts
        rank, frees = m.group.rank, [list(h.free) for h in m.generators]
        for i in range(rank):
            unit = [int(i == j) for j in range(rank)]
            if smith_decomposition([list(row) for row in zip(*frees, unit)]
                                   ).rank > k:
                outside.append(m.group.unpack(tuple(unit) + m.zero.torsion))
    _check_against_bfs(m, 3 * max(m.degree(g) for g in m.generators), outside)


def _check_batch_against_oracle(vectors, rank, moduli, keys):
    """The batch solve against the per-key oracle on one list of keys, with
    and without the non-negativity check."""
    solve = monoid_module._coordinate_solver(vectors, rank, moduli)
    oracle = coordinate_oracle(vectors, rank, moduli)
    assert (solve is None) == (oracle is None)
    if solve is None:
        return
    want = [oracle(key) for key in keys]
    for nonnegative in (False, True):
        columns, failed = solve(keys, nonnegative)
        assert len(columns) == len(vectors)
        assert all(len(col) == len(keys) for col in columns)
        assert failed == {t for t, w in enumerate(want) if w is None or (
            nonnegative and min(w, default=0) < 0)}
        for t, w in enumerate(want):
            if t not in failed:
                assert tuple(col[t] for col in columns) == w


@pytest.mark.parametrize("square", [True, False], ids=["square", "k<rank"])
@pytest.mark.parametrize("torsion", [False, True], ids=["free", "torsion"])
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_batch_solve_matches_the_per_key_oracle(square, torsion, data):
    m = data.draw(independent_monoids(square, torsion))
    k, rank, moduli = len(m.generators), m.group.rank, m.group.invariants
    words = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                               max_size=6))
    batch = [_combination(m, word) for word in words]
    g = m.generators[0]
    if all(x % 2 == 0 for x in g.free):  # coordinate 1/2 on the first
        batch.append(MonoidElement(tuple(x // 2 for x in g.free), g.torsion, g.moduli))
    if torsion:  # the right free part with the wrong torsion
        e = _combination(m, [1] * k)
        batch.append(MonoidElement(e.free, tuple(
            (t + 1) % d for t, d in zip(e.torsion, e.moduli)), e.moduli))
    # unit vectors, outside the span of the free parts when k < rank
    batch += [m.group.unpack(tuple(int(i == j) for j in range(rank)) + m.zero.torsion)
              for i in range(rank)]
    keys = data.draw(st.permutations([e.packed() for e in batch]))
    _check_batch_against_oracle(m.generators, rank, moduli, keys)
    _check_batch_against_oracle(m.generators, rank, moduli, [])


@pytest.mark.parametrize("relations, vectors, keys", [
    ([], [], [(), ()]),
    ([[2]], [], [(0,), (1,), (0,)]),  # residue 1 is no combination of none
    ([[2]], [(1,)], [(1,)]),  # a vector in a rank-0 group is dependent
], ids=["trivial", "torsion", "dependent"])
def test_batch_solve_in_a_rank_0_group(relations, vectors, keys):
    group = AbelianGroupPresentation(len(relations), relations)
    vectors = [group.unpack(v) for v in vectors]
    for batch in ([], keys):
        _check_batch_against_oracle(vectors, 0, group.invariants, batch)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_colinear_words_match_bfs_to_the_numerator_degree(r):
    f = colinear_mc_series(r)
    m = f.monoid
    # the numerator (1 - t^H)^(r-2) has top class (r - 2)H, whose
    # coordinates are all r - 2; taking r - 1 more E_1 leaves s1 at -1
    top = max(f.numerator.terms, key=lambda t: m.degree(t[0]))[0]
    assert m.word_for(top) == (r - 2,) * (r + 1)
    _check_against_bfs(m, m.degree(top), [top - (r - 1) * m.generators[1]])


def test_colinear_inverse_is_sparse_and_integral(monkeypatch):
    # the colinear basis is unimodular, so its left inverse is its inverse
    # (p = 1), with at most two nonzeros a row: a word costs O(r), not O(r^2)
    m = colinear_mc_series(40).monoid
    rank = m.group.rank
    assert left_inverse([g.free for g in m.generators], rank)[1] == 1
    pairs = []
    weighted_sums = monoid_module._weighted_sums

    def counted(rows, columns, n):
        pairs.append(sum(map(len, rows)))
        return weighted_sums(rows, columns, n)

    monkeypatch.setattr(monoid_module, "_weighted_sums", counted)
    solve = monoid_module._coordinate_solver(m.generators, rank, m.group.invariants)
    words, failed = solve([g.packed() for g in m.generators])
    assert not failed
    assert list(map(list, words)) == [[int(i == j) for j in range(rank)] for i in range(rank)]
    assert pairs[0] <= 2 * rank  # the word columns, before the checks


# -- integer class codes -----------------------------------------------------


@st.composite
def coded_groups(draw):
    """(group, span): Z^rank times one or two torsion invariants of 2, 3 or
    4, or none, with a span of 0 to 4 on each free coordinate."""
    rank = draw(st.integers(0, 3))
    moduli = draw(st.sampled_from([(), (2,), (3,), (4,), (2, 2), (2, 4), (3, 3)]))
    q = len(moduli)
    group = AbelianGroupPresentation(
        rank + q, [[0] * rank + [d * (i == j) for j in range(q)]
                   for i, d in enumerate(moduli)])
    assert (group.rank, group.invariants) == (rank, moduli)
    return group, draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank))


def _coded_key(draw, group, low, high):
    """A packed key of group, free coordinate p in [low[p], high[p]] and
    often at one end of it, torsion reduced."""
    free = tuple(draw(st.one_of(st.sampled_from((lo, hi)), st.integers(lo, hi)))
                 for lo, hi in zip(low, high))
    return free + tuple(draw(st.integers(0, d - 1)) for d in group.invariants)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_class_codes_round_trip_add_and_order(data):
    group, span = data.draw(coded_groups())
    zero, encode, decode, fold = group.codes(span)
    assert (fold is None) == (not group.invariants)
    neg = [-s for s in span]
    keys = [_coded_key(data.draw, group, neg, span) for _ in range(6)]
    codes = [encode(k) for k in keys]
    assert decode(codes) == keys
    assert encode(group.zero.packed()) == zero
    assert sorted(codes) == [encode(k) for k in sorted(keys)]
    # x + y with both free parts inside the span: the code of x plus the
    # shift of y, folded, is the code of the sum
    x = keys[0]
    y = _coded_key(data.draw, group, [-s - a for s, a in zip(span, x)],
                   [s - a for s, a in zip(span, x)])
    total = encode(x) + encode(y) - zero
    if fold:
        total = fold(total)
    assert total == encode(group.packed_adder()(x, y))


# -- class words: a brute force over exponent vectors -------------------------


def brute_force_words(m, bound):
    """Packed key -> word of every class of degree <= bound, the
    word a shortest exponent vector, ties to the lexicographically
    greatest, read off every vector of degree <= bound; classes are summed
    with MonoidElement arithmetic, not with the enumeration's codes."""
    gens, degs = m.generators, [m.degree(g) for g in m.generators]
    best = {}

    def walk(i, word, e, d):
        if i == len(gens):
            rank = (sum(word), [-k for k in word])
            key = e.packed()
            if key not in best or rank < best[key][0]:
                best[key] = (rank, tuple(word))
            return
        k = 0
        while d + k * degs[i] <= bound:
            walk(i + 1, word + [k], e, d + k * degs[i])
            e, k = e + gens[i], k + 1

    walk(0, [], m.zero, 0)
    return {key: word for key, (_, word) in best.items()}


def _presented(names, relations, images=None):
    group = AbelianGroupPresentation(len(names) if images is None else len(images[0]),
                                     relations)
    gens = group.basis_images() if images is None else [group.project(v) for v in images]
    return GradedMonoid(group, names, gens)


SMALL_MONOIDS = {
    # a, b and c = a + b
    "sum": lambda: _presented("abc", (), [(1, 0), (0, 1), (1, 1)]),
    # two generators of one class, and their double
    "repeat": lambda: _presented("abc", (), [(1,), (1,), (2,)]),
    # a and b differ by a class of order two
    "torsion2": lambda: _presented("ab", ((2, -2),)),
    # Z x (Z/2)^2 on three generators of degree one
    "torsion22": lambda: _presented("abc", ((2, -2, 0), (2, 0, -2))),
    # c = 3a: a generator of degree 3, a shorter word than a^3
    "degrees": lambda: _presented("abc", (), [(1, 0), (2, 1), (3, 0)]),
    "blowup": blowup_monoid,
}


@pytest.mark.parametrize("name", sorted(SMALL_MONOIDS))
def test_bfs_words_are_shortest_then_lexicographically_greatest(name):
    m = SMALL_MONOIDS[name]()
    assert m._enumerate(6) == brute_force_words(m, 6)


@pytest.mark.parametrize("path", sorted(FANS.glob("*.json")), ids=lambda p: p.stem)
def test_bfs_words_of_the_fan_monoids(path):
    fan = fan_file(path.stem)
    for p in range(fan.dim + 1):
        m = chow_presentation(fan, p).monoid
        bound = 4 if len(m.generators) <= 12 else 3
        assert m._enumerate(bound) == brute_force_words(m, bound)


# -- class words recorded by the expansion -----------------------------------


def _no_table(self, bound):
    raise AssertionError(f"enumerated the monoid to degree {bound}")


@st.composite
def word_cases(draw):
    """(fan, p, truncation): a fan of fans/ or the 3-cube's face fan, a
    surface among them blown up at up to four fixed points, any p, and a
    truncation from 0, often below the largest generator degree, up to 4
    (3 for more than twelve generators, to bound the brute force)."""
    name = draw(st.sampled_from(["cube3", *sorted(p.stem for p in FANS.glob("*.json"))]))
    fan = cube_face_fan(3) if name == "cube3" else fan_file(name)
    if fan.dim == 2:
        for _ in range(draw(st.integers(0, 4))):
            smooth = [c for c in fan.maximal_cones
                      if abs(det([list(fan.rays[i]) for i in c])) == 1]
            fan = blowup_at_fixed_point(fan, draw(st.sampled_from(smooth)))
    p = draw(st.integers(0, fan.dim))
    top = 4 if len(chow_presentation(fan, p).monoid.generators) <= 12 else 3
    return fan, p, draw(st.integers(0, top))


def _parse_word(m, text):
    """The exponent vector of a printed word such as 't1*s2^2'."""
    word = [0] * len(m.names)
    if text != "1":
        for letter in text.split("*"):
            name, _, k = letter.partition("^")
            word[m.names.index(name)] += int(k or 1)
    return word


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=word_cases())
# torsion: the 3-cube's curves, Z^5 x (Z/2)^2, and the 4-cube's surfaces,
# Z^12 x (Z/2)^3; a generator of degree 2 above the truncation
@example(case=(cube_face_fan(3), 2, 4))
@example(case=(fan_file("cube4"), 3, 3))
@example(case=(fan_file("hirzebruch1"), 1, 1))
def test_recorded_words_follow_the_word_rule(case):
    # the words the expansion records are the brute force's, each printed
    # word's generators sum to the class it names, and recording them
    # leaves the terms as a plain expansion makes them; the words the
    # series keeps print as the monoid's word queries give them
    fan, p, n = case
    series = mc_series_toric(fan, p)
    m = series.monoid
    expansion = series.expand(n, words=True)
    assert expansion == series.expand(n)
    assert len(expansion._words) == len(m.generators)
    table = dict(zip(expansion.keys, zip(*expansion._words)))
    assert len(table) == len(expansion.keys)
    assert table == brute_force_words(m, n)
    assert set(expansion.keys) == set(table)
    texts = m._format_words(expansion._words, len(expansion.keys))
    assert texts == m._format_keys(expansion.keys, n)
    for key, text in zip(expansion.keys, texts):
        assert canonicalize(_parse_word(m, text), m).packed() == key


def test_words_are_recorded_only_when_asked():
    # without words, and for a series other than the monoid's own product
    # (a numerator that is not 1, a factor coefficient that is not 1), the
    # expansion records no words
    gp = mc_series_toric(fan_file("gp"), 1)
    m = gp.monoid
    assert gp.expand(4)._words is None
    twice = type(gp)(gp.ring, m, gp.numerator + gp.numerator, gp.factors)
    assert twice.expand(4, words=True)._words is None
    doubled = type(gp)(gp.ring, m, None, [(2, a, e) for _, a, e in gp.factors])
    assert doubled.expand(4, words=True)._words is None
    recorded = gp.expand(4, words=True)
    assert len(recorded._words) == len(m.generators)
    assert all(len(col) == len(recorded.keys) for col in recorded._words)


def test_a_recording_expansion_leaves_the_word_table_alone(monkeypatch):
    # the words go to the series only: the monoid's table still holds the
    # generator letters and the empty word, and a word query enumerates
    gp = mc_series_toric(fan_file("gp"), 1)
    m = gp.monoid
    letters = dict(m._table)
    expansion = gp.expand(6, words=True)
    assert (m._table, m._reach) == (letters, -1)
    monkeypatch.setattr(GradedMonoid, "_enumerate", _no_table)
    with pytest.raises(AssertionError, match="enumerated the monoid to degree 6"):
        m.word_for(m.group.unpack(expansion.keys[-1]))


def test_a_word_query_stopped_at_the_cap_can_be_retried(monkeypatch):
    # the table's reach is set only once an enumeration returned, so the
    # retry enumerates again instead of finding no word
    m = mc_series_toric(fan_file("gp"), 1).monoid
    e = 3 * m.generators[0] + 2 * m.generators[1]
    monkeypatch.setenv("MCS_MAX_TERMS", "10")
    with pytest.raises(EnumerationLimitError, match="monoid enumeration to degree 5"):
        m.word_for(e)
    assert m._reach == -1
    monkeypatch.delenv("MCS_MAX_TERMS")
    assert m.word_for(e) == (3, 2, 0, 0, 0, 0)
    assert m._reach == 5


def test_more_generators_than_the_rank_need_no_elimination(monkeypatch):
    # six generators of a rank-4 group are dependent by their count alone
    def no_elimination(*args):
        raise AssertionError("solved for a left inverse")

    m = mc_series_toric(fan_file("gp"), 1).monoid
    monkeypatch.setattr(monoid_module, "left_inverse", no_elimination)
    e = m.generators[0] + m.generators[1]
    assert m.word_for(e) == brute_force_words(m, m.degree(e))[e.packed()]


def test_json_output_records_no_words(monkeypatch, capsys):
    def no_words(self, bound, cap):
        raise AssertionError("recorded class words")

    monkeypatch.setattr(GradedMonoid, "_word_costs", no_words)
    monkeypatch.setattr(GradedMonoid, "_enumerate", _no_table)
    argv = ["toric", "--fan", str(FANS / "gp.json"), "--p", "1", "--truncate", "6"]
    assert main(argv + ["--format", "json"]) == 0
    with pytest.raises(AssertionError, match="recorded class words"):
        main(argv)


def test_generator_words_need_no_table(monkeypatch):
    # a and b are one class, so both are written with the least letter, a
    m = SMALL_MONOIDS["repeat"]()
    a, b, c = m.generators
    monkeypatch.setattr(GradedMonoid, "_enumerate", _no_table)
    assert m._format_keys([x.packed() for x in (m.zero, a, b, c)]) == ["1", "a", "a", "c"]
    assert m.word_for(b) == (1, 0, 0)
    with pytest.raises(AssertionError, match="enumerated"):
        m.word_for(a + c)


def test_generator_letters_outlast_an_enumeration():
    m = SMALL_MONOIDS["repeat"]()
    a, b, c = m.generators
    assert m.word_for(a + c) == (1, 0, 1)
    assert m._reach == 3
    assert m._format_keys([x.packed() for x in (m.zero, a, b, c)]) == ["1", "a", "a", "c"]
