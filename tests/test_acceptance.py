"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
for every criterion.  Random suites are seeded; timings are wall-clock.
"""

import random
import time
from fractions import Fraction
from math import comb

from mcseries.gm_action import colinear_mc_series
from mcseries.intlinalg import det, smith_decomposition
from mcseries.kring import Specialization, standard_ring
from mcseries.monoid import MonoidHom, express_in_basis, free_graded_monoid
from mcseries.series import (
    MonoidPolynomial,
    RationalSeries,
    TruncatedSeries,
    binomial_factor_polynomial,
    certify_rational,
    curve_zeta,
    external_product,
    localize_quotient,
    pushforward,
)
from mcseries.toric import (
    chow_presentation,
    mc_series_toric,
    pn_divisor_series,
    product_fan,
    projective_space_fan,
    three_point_blowup_fan,
)
from _tools import blowup_at_fixed_point, hirzebruch_fan
from test_intlinalg import mat_mul

R = standard_ring()
RA = standard_ring(a1_homotopy=True)


def _report(number: int, label: str, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_p2_divisor_series():
    def body():
        start = time.perf_counter()
        fan = projective_space_fan(2)
        f = mc_series_toric(fan, 1)
        t = f.monoid.generator_named("t")
        assert f.numerator.is_one()
        assert f.factors == ((R.one, t, 3),)
        assert f.monoid.degree(t) == 1
        e = f.expand(8)
        for d in range(9):
            assert e.coefficient(d * t) == R.from_int(comb(d + 2, 2))
        assert [comb(d + 2, 2) for d in range(9)] == [1, 3, 6, 10, 15, 21,
                                                      28, 36, 45]
        assert time.perf_counter() - start < 1.0
    _report(1, "MC_1(P^2) = 1/(1-t)^3 with binomial coefficients, under 1s",
            body)


def test_criterion_2_three_point_blowup_form():
    def body():
        fan = three_point_blowup_fan()
        chow = chow_presentation(fan, 1)
        m = chow.monoid
        assert m.group.rank == 4 and not m.group.invariants
        t = [m.generator_named(f"t{i}") for i in (1, 2, 3)]
        s = [m.generator_named(f"s{i}") for i in (1, 2, 3)]
        for i in range(3):
            for j in range(3):
                assert t[i] + s[j] == t[j] + s[i]
        f = mc_series_toric(fan, 1)
        assert f.numerator.is_one()
        assert sorted(fc[1].packed() for fc in f.factors) == sorted(
            g.packed() for g in t + s)
        assert all(c.is_one() and e == 1 for c, _, e in f.factors)
        # substituting t_i = t0*s_i: in the basis (t0, s1, s2, s3) with
        # t0 = t1 - s1, the six factor classes become t0+s_i and s_i
        t0 = t[0] - s[0]
        assert t0 == t[1] - s[1] == t[2] - s[2]
        basis = (t0, s[0], s[1], s[2])
        got = sorted(express_in_basis([fc[1] for fc in f.factors], basis))
        want = sorted([(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                       (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        assert got == want
    _report(2, "3-point blow-up: six binomial factors over rank-4 group,"
               " t_i s_j = t_j s_i, t_i = t0 s_i substitution", body)


def test_criterion_3_colinear_closed_forms():
    def body():
        start = time.perf_counter()
        for r in (2, 3, 4):
            f = colinear_mc_series(r)
            m = f.monoid
            t0 = m.generator_named("t0")
            s = [m.generator_named(f"s{i}") for i in range(1, r + 1)]
            h = sum(s, t0)
            num = MonoidPolynomial.one(RA, m)
            for _ in range(r - 2):
                num = num * binomial_factor_polynomial(RA, m, RA.one, h)
            factors = [(RA.one, t0, 1)]
            factors += [(RA.one, h - si, 1) for si in s]
            factors += [(RA.one, si, 1) for si in s]
            assert f == RationalSeries(RA, m, num, factors)

        # r=2 agrees with the independent toric route
        fan = blowup_at_fixed_point(projective_space_fan(2), (0, 1))
        fan = blowup_at_fixed_point(fan, (1, 2))
        chow = chow_presentation(fan, 1)
        col = colinear_mc_series(2)
        images = [chow.class_of((1,)), chow.class_of((3,)), chow.class_of((4,))]
        phi = MonoidHom(col.monoid, chow.monoid, images)
        assert pushforward(col, phi) == mc_series_toric(fan, 1, ring=RA,
                                                        chow=chow)

        # r=3 differs from the non-colinear configuration at H-E1-E2-E3
        col3 = colinear_mc_series(3)
        witness = col3.monoid.group.project([1, -1, -1, -1])
        assert col3.expand(3).coefficient(witness) == RA.one
        gp = three_point_blowup_fan()
        gchow = chow_presentation(gp, 1)
        gm = gchow.monoid
        gp_witness = (gm.generator_named("t1") - gm.generator_named("s1"))
        assert not gm.contains(gp_witness)
        gf = mc_series_toric(gp, 1, ring=RA, chow=gchow)
        assert gf.expand(3).coefficient(gp_witness) == RA.zero
        assert time.perf_counter() - start < 5.0
    _report(3, "colinear blow-up closed forms r=2,3,4; r=2 = toric route;"
               " r=3 vs non-colinear differs at H-E1-E2-E3 (1 vs 0), under 5s",
            body)


def test_criterion_4_localization_quotients():
    def body():
        to_one = Specialization(R, {"L": 1})
        zx = curve_zeta(0, R).specialize(to_one)
        m = zx.monoid
        t = m.generator_named("t")
        for r in range(2, 6):
            points = RationalSeries(R, m, None, [(R.one, t, r)])
            q = localize_quotient(zx, points)
            expected = MonoidPolynomial.one(R, m)
            for _ in range(r - 2):
                expected = expected * binomial_factor_polynomial(R, m, R.one, t)
            assert q == RationalSeries(R, m, expected, [])
            assert q.expand(10) == expected.as_series(10)
    _report(4, "MC_0(P^1) / (1/(1-t)^r) at L=1 equals (1-t)^(r-2) for r=2..5,"
               " rational form and expansion to 10", body)


def test_criterion_5_product_of_curves():
    def body():
        z = curve_zeta(0, R)
        ext = external_product(z, z).specialize(Specialization(R, {"L": 1}))
        fan1 = projective_space_fan(1)
        prod = product_fan(fan1, fan1)
        chow = chow_presentation(prod, 1)
        off = len(fan1.rays)
        phi = MonoidHom(ext.monoid, chow.monoid,
                        [chow.class_of((0,)), chow.class_of((off,))])
        pushed = pushforward(ext, phi)
        direct = mc_series_toric(prod, 1)
        assert chow.monoid.group.rank == 2 and not chow.monoid.group.invariants
        assert pushed == direct
        assert pushed.expand(8) == direct.expand(8)
    _report(5, "curve zeta x curve zeta at L=1 equals MC_1(P^1 x P^1) under"
               " the rank-2 class identification, to degree 8", body)


def test_criterion_6_point_series_of_builders():
    def body():
        p1 = projective_space_fan(1)
        fans = [projective_space_fan(2), projective_space_fan(3),
                product_fan(p1, p1), three_point_blowup_fan(),
                hirzebruch_fan(1)]
        for fan in fans:
            chi = len(fan.maximal_cones)
            f = mc_series_toric(fan, 0)
            assert f.numerator.is_one()
            assert len(f.factors) == 1
            coeff, pt, power = f.factors[0]
            assert coeff.is_one() and power == chi
            assert f.monoid.degree(pt) == 1
            e = f.expand(8)
            for d in range(9):
                assert e.coefficient(d * pt) == R.from_int(comb(chi + d - 1, d))
    _report(6, "MC_0 = 1/(1-t)^chi with chi = #maximal cones for P^2, P^3,"
               " P^1xP^1, 3-point blow-up, Hirzebruch; coefficients to 8", body)


def test_criterion_7_divisor_series_refutation():
    def body():
        f = pn_divisor_series(2, 8)
        m = f.monoid
        t = m.generator_named("t")
        for k in range(1, 7):
            g = MonoidPolynomial.one(R, m)
            for _ in range(k):
                g = g * binomial_factor_polynomial(R, m, R.one, t)
            verdict = certify_rational(f, g)
            assert not verdict.consistent
            assert verdict.witness_degree is not None
            assert verdict.witness_class is not None
            assert not verdict.witness_coeff.is_zero()
        g3 = MonoidPolynomial.one(R, m)
        for _ in range(3):
            g3 = g3 * binomial_factor_polynomial(R, m, R.one, t)
        at_one = f.specialize(Specialization(R, {"L": 1}))
        assert certify_rational(at_one, g3).consistent
    _report(7, "P^2 divisor series with L kept refuted against (1-t)^k for"
               " k<=6 with witnesses; passes (1-t)^3 at L=1", body)


# ---------------------------------------------------------------------------
# criterion 8: seeded random property suites


def _random_element(rng, ring, max_terms=3, max_exp=4, max_coeff=9):
    raw = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in ring.generators)
        raw[exp] = raw.get(exp, 0) + rng.randint(-max_coeff, max_coeff)
    return ring.element(raw)


def _random_rational(rng, ring, monoid, max_factors=3):
    gens = monoid.generators
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        alpha = monoid.zero
        while alpha.is_zero():
            alpha = sum((rng.randint(0, 2) * g for g in gens), monoid.zero)
        coeff = ring.zero
        while coeff.is_zero():
            coeff = _random_element(rng, ring, max_terms=2, max_exp=2,
                                    max_coeff=3)
        factors.append((coeff, alpha, rng.randint(1, 2)))
    num = {monoid.zero: ring.one}
    for _ in range(rng.randint(0, 2)):
        e = sum((rng.randint(0, 1) * g for g in gens), monoid.zero)
        num[e] = num.get(e, ring.zero) + _random_element(rng, ring, 2, 2, 3)
    return RationalSeries(ring, monoid, MonoidPolynomial(ring, monoid, num),
                          factors)


def _ring_axioms(cases: int) -> None:
    rng = random.Random(20260814)
    zero, one = R.zero, R.one
    for _ in range(cases):
        a = _random_element(rng, R)
        b = _random_element(rng, R)
        c = _random_element(rng, R)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
        assert a - a == zero
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * one == a
        assert a * (b + c) == a * b + a * c


def _expand_mul_homomorphism(cases: int) -> None:
    rng = random.Random(96189)
    monoid = free_graded_monoid(("u", "v"))
    for _ in range(cases):
        f = _random_rational(rng, R, monoid)
        g = _random_rational(rng, R, monoid)
        n = rng.randint(1, 4)
        assert (f * g).expand(n) == f.expand(n) * g.expand(n)


def _rank_over_q(matrix) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank, col = 0, 0
    while rank < len(rows) and col < 4:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                ratio = rows[i][col] / rows[rank][col]
                rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _snf_contract(cases: int) -> None:
    rng = random.Random(411235)
    for _ in range(cases):
        a = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        dec = smith_decomposition(a)
        d = mat_mul(mat_mul([list(r) for r in dec.U], a),
                    [list(r) for r in dec.V])
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(4)]
        assert list(dec.diagonal) == diag
        for i in range(3):
            if diag[i] and diag[i + 1]:
                assert diag[i + 1] % diag[i] == 0
            if diag[i] == 0:
                assert diag[i + 1] == 0
        assert all(x >= 0 for x in diag)
        assert abs(det([list(r) for r in dec.U])) == 1
        assert abs(det([list(r) for r in dec.V])) == 1
        assert dec.rank == _rank_over_q(a)


def _pushforward_homomorphism(cases: int) -> None:
    rng = random.Random(777215)
    source = free_graded_monoid(("u", "v"))
    target = free_graded_monoid(("t",))
    t = target.generator_named("t")
    u, v = source.generators
    n = 5
    for _ in range(cases):
        phi = MonoidHom(source, target,
                        (rng.randint(1, 3) * t, rng.randint(1, 3) * t))
        def rand_series():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                e = rng.randint(0, n) * u
                e = e + rng.randint(0, n - source.degree(e)) * v
                terms[e] = terms.get(e, R.zero) + _random_element(rng, R, 2,
                                                                  2, 5)
            return TruncatedSeries(R, source, n, terms)
        f, g = rand_series(), rand_series()
        assert pushforward(f * g, phi) == pushforward(f, phi) * pushforward(g, phi)
        assert pushforward(f + g, phi) == pushforward(f, phi) + pushforward(g, phi)


def test_criterion_8_property_suites():
    def body():
        _ring_axioms(10_000)
        _expand_mul_homomorphism(1_000)
        _snf_contract(1_000)
        _pushforward_homomorphism(1_000)
    _report(8, "property suites: ring axioms x10^4, expand/mul hom x10^3,"
               " SNF contract x10^3, pushforward hom x10^3, zero failures",
            body)
