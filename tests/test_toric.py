"""Fan validation, orbit class groups, and the toric orbit product series.

The lattice-index arithmetic is cross-checked against an independent route:
the point-class series of any complete fan must equal 1/(1-t)^chi with chi
the number of maximal cones (symmetric-product counting), which only comes
out right when wall coefficients divide by the correct index.  The singular
weighted fan exercises index 2.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mcseries import cli
from mcseries.errors import MCSError
from mcseries.serialize import json_text
from mcseries.kring import Specialization, class_projective_space, standard_ring
from mcseries.monoid import MonoidHom, free_graded_monoid
from mcseries.series import (RationalSeries, check_printable, curve_zeta, pushforward,
                             rational_expand)
from mcseries.toric import (
    Fan,
    chow_presentation,
    mc_series_toric,
    pn_divisor_series,
    product_fan,
    projective_space_fan,
    three_point_blowup_fan,
)

from _tools import FANS, blowup_at_fixed_point, canonicalize, fan_file, hirzebruch_fan

R = standard_ring()
RA = standard_ring(a1_homotopy=True)


def support(fan):
    return (set(fan.rays),
            {frozenset(fan.rays[i] for i in c) for c in fan.maximal_cones})


# ---------------------------------------------------------------------------
# validation


def test_p2_fan_is_valid():
    fan = projective_space_fan(2)
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert len(fan.maximal_cones) == 3
    assert fan.cones_of_dim(1) == ((0,), (1,), (2,))
    assert len(fan.cones_of_dim(2)) == 3


def test_gp_fan_is_valid():
    fan = three_point_blowup_fan()
    assert len(fan.rays) == 6
    assert len(fan.cones_of_dim(1)) == 6
    assert len(fan.cones_of_dim(2)) == 6


def test_incomplete_fan_rejected():
    with pytest.raises(MCSError, match="incomplete"):
        Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    with pytest.raises(MCSError, match="at least one maximal cone"):
        Fan([(1, 0), (0, 1), (-1, -1)], [])


def test_bad_ray_data_rejected():
    with pytest.raises(MCSError, match="primitive"):
        Fan([(2, 0), (0, 1), (-2, -1)], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(MCSError, match="zero"):
        Fan([(0, 0), (0, 1)], [(0, 1)])
    with pytest.raises(MCSError, match="duplicate"):
        Fan([(1, 0), (1, 0)], [(0, 1)])
    with pytest.raises(MCSError, match="out of range"):
        Fan([(1,), (-1,)], [(0, 3)])


def test_overlapping_cones_rejected():
    # (1,1) lies inside cone((1,0),(0,1)): the intersection is not a face
    with pytest.raises(MCSError, match="common face"):
        Fan([(1, 0), (0, 1), (1, 1), (-1, 1)], [(0, 1), (2, 3)])


def test_cone_with_a_line_rejected():
    # cone (0, 1) is the line itself; each cone of the second fan is a
    # half-plane, whose boundary line lies on its only facet
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    with pytest.raises(MCSError) as err:
        Fan(rays, [(0, 1), (2, 3)])
    assert str(err.value) == ("maximal cone (0, 1) is not full-dimensional"
                              " (incomplete fan)")
    with pytest.raises(MCSError) as err:
        Fan(rays, [(0, 1, 2), (0, 1, 3)])
    assert str(err.value) == "cone (0, 1, 2) is not strongly convex"


def test_contained_maximal_cone_rejected():
    with pytest.raises(MCSError, match="contained"):
        Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0), (1,)])


def test_p1_fan_smallest_complete_case():
    fan = Fan([(1,), (-1,)], [(0,), (1,)])
    assert mc_series_toric(fan, 0).factors[0][2] == 2


# ---------------------------------------------------------------------------
# class groups


def test_p2_curve_classes_collapse_to_z():
    fan = projective_space_fan(2)
    chow = chow_presentation(fan, 1)
    assert chow.monoid.group.rank == 1
    assert chow.monoid.group.invariants == ()
    classes = [chow.class_of(c) for c in fan.cones_of_dim(1)]
    assert len(set(classes)) == 1
    assert chow.monoid.degree(classes[0]) == 1


def test_gp_divisor_class_group_rank_four_with_pair_relations():
    fan = three_point_blowup_fan()
    chow = chow_presentation(fan, 1)
    mono = chow.monoid
    assert mono.group.rank == 4
    assert mono.group.invariants == ()
    assert len(mono.generators) == 6
    t = {i: mono.generator_named(f"t{i}") for i in (1, 2, 3)}
    s = {i: mono.generator_named(f"s{i}") for i in (1, 2, 3)}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert t[i] + s[j] == t[j] + s[i]
    assert t[1] + s[2] != t[1] + s[1]
    assert all(mono.degree(g) == 1 for g in mono.generators)


def test_point_classes_identified_on_every_builder_fan():
    for fan in (projective_space_fan(2), projective_space_fan(3),
                three_point_blowup_fan(), hirzebruch_fan(2),
                fan_file("p112")):
        chow = chow_presentation(fan, 0)
        assert chow.monoid.group.rank == 1
        assert len(set(chow.class_of(c) for c in fan.cones_of_dim(fan.dim))) == 1


def test_singular_wall_index_two_still_collapses_points():
    # naive wall coefficients (without the index-2 division) would identify
    # one fixed point with twice another and break the count below
    fan = fan_file("p112")
    series = mc_series_toric(fan, 0)
    assert len(series.factors) == 1
    assert series.factors[0][2] == 3
    f = series.expand(6)
    t = series.monoid.generator_named("t")
    for d in range(7):
        assert f.coefficient(d * t) == comb(3 + d - 1, d)


def test_four_folds_whose_grading_lp_blew_up_under_elimination():
    # Fourier-Motzkin elimination gave up on a grading LP of each of these:
    # the product of two twice blown-up planes at p=2 (36,080 constraints in
    # one step) and the face fan of the 4-cube at p=3 (9,695)
    p2 = projective_space_fan(2)
    b = blowup_at_fixed_point(p2, p2.maximal_cones[0])
    b = blowup_at_fixed_point(b, b.maximal_cones[0])
    rays = [[1 - 2 * (k >> j & 1) for j in range(4)] for k in range(16)]
    cube4 = Fan(rays, [[i for i, v in enumerate(rays) if v[axis] == sign]
                       for axis in range(4) for sign in (1, -1)])
    for fan in (product_fan(b, b), cube4):
        for p in range(fan.dim + 1):
            mono = chow_presentation(fan, p).monoid
            assert all(mono.degree(g) >= 1 for g in mono.generators), p


def test_line_classes_in_p3_collapse_to_z():
    fan = projective_space_fan(3)
    chow = chow_presentation(fan, 1)
    assert chow.monoid.group.rank == 1
    assert len(fan.cones_of_dim(2)) == 6
    assert len(set(chow.class_of(c) for c in fan.cones_of_dim(2))) == 1


def test_metadata_records_equivalence_assumption():
    chow = chow_presentation(projective_space_fan(2), 1)
    assert any("algebraic equivalence" in a for a in chow.assumptions)


# ---------------------------------------------------------------------------
# classes of orbit closures


def test_degree_class_on_gp_rays():
    fan = three_point_blowup_fan()
    chow = chow_presentation(fan, 1)
    mono = chow.monoid
    ray_index = {v: i for i, v in enumerate(fan.rays)}
    assert chow.class_of((ray_index[(1, 1)],)) == mono.generator_named("s1")
    assert chow.class_of((ray_index[(-1, -1)],)) == mono.generator_named("t1")
    assert chow.class_of((ray_index[(1, 0)],)) == mono.generator_named("t2")


def test_degree_class_dimension_errors():
    fan = projective_space_fan(2)
    chow = chow_presentation(fan, 1)
    with pytest.raises(MCSError, match=r"cone \(0, 1\) is not a 1-dimensional cone"):
        chow.class_of((0, 1))  # a 2-cone is not a curve class
    with pytest.raises(MCSError, match=r"cone \(0, 1, 2\) is not a 1-dimensional cone"):
        chow.class_of((0, 2, 1))
    with pytest.raises(MCSError, match="no 3-cycles on a 2-dimensional variety"):
        chow_presentation(fan, 3)


def test_class_table_is_made_once_per_fan_and_p():
    fan = projective_space_fan(2)
    assert chow_presentation(fan, 1) is chow_presentation(fan, 1)
    assert chow_presentation(fan, 0) is not chow_presentation(fan, 1)
    assert mc_series_toric(fan, 1).monoid is chow_presentation(fan, 1).monoid
    assert mc_series_toric(fan, 1) == mc_series_toric(fan, 1)


def test_failed_class_table_is_not_cached(monkeypatch):
    fan = projective_space_fan(3)
    monkeypatch.setenv("MCS_MAX_TERMS", "10")
    with pytest.raises(MCSError, match="relation matrix of 1-cycles"):
        chow_presentation(fan, 1)
    monkeypatch.delenv("MCS_MAX_TERMS")
    assert chow_presentation(fan, 1).monoid.names == ("t",)


@pytest.mark.parametrize("fan, p", [(three_point_blowup_fan(), 1),
                                    (fan_file("cube4"), 3)],
                         ids=["gp-1", "cube4-3"])
def test_generator_cones_carry_the_generators(fan, p):
    chow = chow_presentation(fan, p)
    classes = [chow.class_of(c) for c in chow.generator_cones]
    assert classes == list(chow.monoid.generators)


def test_degree_class_additive_through_canonicalize():
    fan = three_point_blowup_fan()
    chow = chow_presentation(fan, 1)
    mono = chow.monoid
    word = [0] * len(mono.generators)
    word[mono.names.index("s1")] = 2
    word[mono.names.index("t1")] = 1
    got = canonicalize(word, mono)
    assert got == 2 * mono.generator_named("s1") + mono.generator_named("t1")


# ---------------------------------------------------------------------------
# the orbit product series


def test_mc1_p2_is_inverse_cube():
    series = mc_series_toric(projective_space_fan(2), 1)
    assert series.numerator.is_one()
    assert len(series.factors) == 1
    c, alpha, e = series.factors[0]
    assert c.is_one() and e == 3 and series.monoid.degree(alpha) == 1
    f = series.expand(8)
    for d in range(9):
        assert f.coefficient(d * alpha) == comb(d + 2, 2)


@pytest.mark.parametrize("name", sorted(path.stem for path in FANS.glob("*.json")))
def test_one_factor_per_class_is_the_product_over_cones(name):
    """mc_series_toric hands RationalSeries one factor per class, with its
    cone count as the power; the series is the one of a factor per cone."""
    fan = fan_file(name)
    for p in range(fan.dim + 1):
        chow = chow_presentation(fan, p)
        per_cone = [(RA.one, chow.class_of(c), 1) for c in fan.cones_of_dim(fan.dim - p)]
        assert mc_series_toric(fan, p) == RationalSeries(RA, chow.monoid, None, per_cone)


@pytest.mark.parametrize("n", range(1, 7))
def test_projective_space_has_one_factor_per_p(n):
    fan = projective_space_fan(n)
    for p in range(n + 1):
        series = mc_series_toric(fan, p)
        t = series.monoid.generator_named("t")
        assert series.factors == ((RA.one, t, comb(n + 1, p + 1)),)


def test_mc1_gp_six_distinct_binomial_factors():
    series = mc_series_toric(three_point_blowup_fan(), 1)
    assert series.numerator.is_one()
    assert len(series.factors) == 6
    assert all(c.is_one() and e == 1 for c, _, e in series.factors)
    assert len(set(a for _, a, _ in series.factors)) == 6


def test_mc1_gp_low_degree_coefficients():
    series = mc_series_toric(three_point_blowup_fan(), 1)
    mono = series.monoid
    f = series.expand(2)
    s1 = mono.generator_named("s1")
    s2 = mono.generator_named("s2")
    t1 = mono.generator_named("t1")
    t2 = mono.generator_named("t2")
    assert f.coefficient(s1 + s2) == 1
    # t1 + s2 = t2 + s1: two distinct orbit decompositions
    assert f.coefficient(t1 + s2) == 2
    # a degree-0 difference class is not effective: coefficient vanishes
    assert f.coefficient(t1 - s1) == 0


def test_mc0_matches_macdonald_point_count():
    for fan in (projective_space_fan(2), projective_space_fan(3),
                product_fan(projective_space_fan(1), projective_space_fan(1)),
                three_point_blowup_fan(), hirzebruch_fan(1)):
        chi = len(fan.maximal_cones)
        series = mc_series_toric(fan, 0)
        assert series.factors[0][2] == chi and len(series.factors) == 1
        f = series.expand(6)
        t = series.monoid.generator_named("t")
        for d in range(7):
            assert f.coefficient(d * t) == comb(chi + d - 1, d)


def test_mc1_hirzebruch_fiber_class_doubling():
    series = mc_series_toric(hirzebruch_fan(1), 1)
    exps = sorted(e for _, _, e in series.factors)
    assert exps == [1, 1, 2]
    degs = sorted(series.monoid.degree(a) for _, a, e in series.factors
                  for _ in range(e))
    assert degs == [1, 1, 1, 2]


def test_mc1_p1xp1_two_squared_factors():
    fan = product_fan(projective_space_fan(1), projective_space_fan(1))
    series = mc_series_toric(fan, 1)
    assert sorted(e for _, _, e in series.factors) == [2, 2]
    assert len(set(a for _, a, _ in series.factors)) == 2


def test_removing_one_orbit_factor_and_remultiplying_restores_series():
    from mcseries.series import RationalSeries, localize_quotient
    series = mc_series_toric(projective_space_fan(2), 0)
    c, alpha, _ = series.factors[0]
    one_orbit = RationalSeries(series.ring, series.monoid, None, [(c, alpha, 1)])
    rest = localize_quotient(series, one_orbit)
    assert rest * one_orbit == series


def test_mc_series_deterministic():
    a = mc_series_toric(three_point_blowup_fan(), 1)
    b = mc_series_toric(three_point_blowup_fan(), 1)
    assert a == b and str(a) == str(b)


# ---------------------------------------------------------------------------
# builders


def test_projective_space_fan_p3():
    fan = projective_space_fan(3)
    assert fan.rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    assert len(fan.maximal_cones) == 4


def test_product_fan_p1xp1():
    fan = product_fan(projective_space_fan(1), projective_space_fan(1))
    assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(fan.maximal_cones) == 4


def test_triple_blowup_reproduces_gp_fan():
    fan = projective_space_fan(2)
    fan = blowup_at_fixed_point(fan, (0, 1))
    fan = blowup_at_fixed_point(fan, (1, 2))
    fan = blowup_at_fixed_point(fan, (0, 2))
    assert support(fan) == support(three_point_blowup_fan())


def test_blowup_inserts_barycenter_ray():
    fan = blowup_at_fixed_point(projective_space_fan(2), (0, 1))
    assert (1, 1) in fan.rays
    assert len(fan.maximal_cones) == 4


def test_blowup_rejects_singular_or_missing_cones():
    with pytest.raises(MCSError, match="not smooth"):
        blowup_at_fixed_point(fan_file("p112"), (0, 2))
    with pytest.raises(MCSError, match="not a maximal cone"):
        blowup_at_fixed_point(projective_space_fan(2), (0,))


def test_fan_keeps_ray_names():
    fan = Fan([(1,), (-1,)], [(0,), (1,)], ("a", "b"))
    assert fan.ray_names == ("a", "b")


# ---------------------------------------------------------------------------
# hypersurface series in P^n


def test_pn_divisor_series_coefficients():
    f = pn_divisor_series(2, 4)
    t = f.monoid.generator_named("t")
    for d in range(5):
        assert f.coefficient(d * t) == class_projective_space(comb(d + 2, 2) - 1, R)
    assert f.coefficient(t) == R.one + R.generator("L") + R.generator("L") ** 2


def test_pn_divisor_series_is_integer_under_a1():
    f = pn_divisor_series(3, 6).specialize(Specialization(R, {"L": 1}))
    t = f.monoid.generator_named("t")
    for d in range(7):
        c = f.coefficient(d * t)
        assert c.is_integer() and c.as_integer() == comb(3 + d, d)


@pytest.mark.parametrize("ring", [R, standard_ring(a1_homotopy=True)],
                         ids=["standard", "a1"])
def test_pn_divisor_coefficients_are_projective_space_classes(ring):
    # the classes of the A^1 ring are the images at L = 1
    f = pn_divisor_series(3, 5)
    if ring.a1_homotopy:
        f = f.specialize(Specialization(R, {"L": 1}))
    t = f.monoid.generator_named("t")
    for d in range(6):
        want = class_projective_space(comb(3 + d, d) - 1, ring)
        assert f.coefficient(d * t).terms == want.terms


def test_pn_divisor_coefficients_share_the_top_terms():
    f = pn_divisor_series(2, 4)
    top = f.coeffs[-1].terms
    assert len(top) == comb(6, 4)
    for c in f.coeffs:
        assert all(p is q for p, q in zip(c.terms, top))


def test_p1_divisor_series_is_the_genus0_zeta():
    assert pn_divisor_series(1, 7) == curve_zeta(0).expand(7)


def test_p2_divisor_series_collapses_to_toric_count():
    # the Picard route builds over R, the torus route over RA: at L = 1 both
    # have the same classes and the same integer coefficients
    n = 8
    collapsed = pn_divisor_series(2, n).specialize(Specialization(R, {"L": 1}))
    toric = rational_expand(mc_series_toric(projective_space_fan(2), 1), n)
    line = free_graded_monoid(("t",))
    ident = MonoidHom(toric.monoid, line, (line.generator_named("t"),))
    pushed = pushforward(toric, ident)
    assert (pushed.monoid, pushed.truncation, pushed.keys) == (
        collapsed.monoid, collapsed.truncation, collapsed.keys)
    assert ([c.as_integer() for c in pushed.coeffs]
            == [c.as_integer() for c in collapsed.coeffs])


def test_pn_divisor_series_requires_positive_dimension():
    with pytest.raises(ValueError):
        pn_divisor_series(0, 3)


# ---------------------------------------------------------------------------
# the divisor series specialized as it is built, against the route that
# specializes every term of every coefficient

LINE, EPS = R.generator("L"), R.generator("eps")
# that route's cost is the term count times the width of the image's
# powers, so a draw keeps the sum of the term counts, C(n+N+1, N), under
# TERM_BUDGET, or under WIDE_TERM_BUDGET for an integer image past +-3
TERM_BUDGET, WIDE_TERM_BUDGET = 3000, 600


def _text(value) -> str:
    return "L" if value is LINE else "eps" if value is EPS else str(value)


@st.composite
def divisor_specializations(draw):
    """(n, N, {generator: image}, carry_unassigned): L's image an integer
    in -3..3, +-10^k for k <= 40, eps, L or none; eps's image -1, 0, 2, L
    or none."""
    line = draw(st.one_of(
        st.none(), st.integers(-3, 3), st.sampled_from((LINE, EPS)),
        st.builds(lambda k, sign: sign * 10 ** k, st.integers(0, 40), st.sampled_from((1, -1)))))
    eps = draw(st.sampled_from((None, -1, 0, 2, LINE)))
    n = draw(st.integers(1, 6))
    wide = line not in (None, LINE, EPS) and abs(line) > 3
    budget = WIDE_TERM_BUDGET if wide else TERM_BUDGET
    top = max(N for N in range(15) if comb(n + N + 1, N) <= budget)
    images = {name: v for name, v in (("L", line), ("eps", eps)) if v is not None}
    return n, draw(st.integers(0, top)), images, draw(st.booleans())


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(divisor_specializations())
def test_specialized_divisor_series_is_the_specialized_series(case):
    n, N, images, carry = case
    s = Specialization(R, images, carry_unassigned=carry)
    try:
        want = pn_divisor_series(n, N).specialize(s)
    except MCSError as exc:  # strict, with L unassigned
        with pytest.raises(MCSError, match=re.escape(str(exc))):
            pn_divisor_series(n, N, s)
        return
    got = pn_divisor_series(n, N, s)
    assert got == want
    # both formats of the series itself (verify eq1 prints only the
    # verdict), when no coefficient is too wide to print
    try:
        check_printable("series", want)
    except MCSError:
        return
    assert (str(got), json_text(got)) == (str(want), json_text(want))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(divisor_specializations(),
       st.sampled_from(("(1-t)", "(1-t)^2", "(1-t)(1-L t)", "(1-2t)^2", "(1 - eps t)^3")))
def test_verify_eq1_output_is_that_of_the_specialized_series(case, denominator):
    n, N, images, _ = case
    argv = ["verify", "eq1", "--n", str(n), "--truncate", str(N + 1),
            "--denominator", denominator]
    for name, value in images.items():
        argv += ["--specialize", f"{name}={_text(value)}"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    got = run()
    built = cli.pn_divisor_series
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "pn_divisor_series", lambda n, N, s=None: (
            built(n, N) if s is None else built(n, N).specialize(s)))
        assert run() == got
