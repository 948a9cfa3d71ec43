"""The Picard route as an oracle for the toric divisor series.

On a complete toric variety of dimension n, the effective divisors of class
alpha form the projective space |D| = P(H^0(O(D))) for any divisor D of
class alpha, and H^0(O(D)) has one basis monomial per lattice point of

    P_D = {m in M : <m, u_rho> >= -D_rho for every ray rho}

(Cox, Little and Schenck 2011, Prop. 4.3.3).  Where L = 1 the class of
P^(h - 1) is h, so the coefficient of alpha in mc_series_toric(fan, n - 1)
must be h = #(P_D cap M).  The count shares no code with the series: it
walks a box around P_D whose bounds follow from the inequalities of P_D,
after writing each of +e_i and -e_i as a nonnegative rational combination of
the rays of one simplicial cone.  A class that the class group merges with
another shows as a coefficient above h, and one it splits as a coefficient
below h.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from mcseries.intlinalg import det
from mcseries.toric import mc_series_toric, product_fan, projective_space_fan

from _tools import blowup_at_fixed_point, fan_file, hirzebruch_fan


def _solve(vectors, target):
    """The rational weights x with sum x_j vectors[j] == target, for n
    vectors in dimension n; None when the vectors are dependent."""
    n = len(target)
    rows = [[Fraction(v[i]) for v in vectors] + [Fraction(target[i])] for i in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and (f := rows[i][c]):
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n] for row in rows]


def _cone_weights(fan, v):
    """{ray: w} with w >= 0 and sum w u_ray == v, over the rays of one
    simplicial cone: the fan is complete, so a maximal cone holds v, and by
    Caratheodory n of its rays span a cone that holds v."""
    for cone in fan.maximal_cones:
        for rays in combinations(cone, fan.dim):
            w = _solve([fan.rays[i] for i in rays], v)
            if w is not None and min(w) >= 0:
                return dict(zip(rays, w))
    raise AssertionError(f"no cone of the fan holds {v}")


def lattice_point_counter(fan):
    """Function from a divisor D, as {ray: D_ray}, to #(P_D cap M).

    For m in P_D and nonnegative weights w with sum w u = e_i,
    m_i = sum w <m, u> >= -sum w D; the weights of -e_i likewise give
    m_i <= sum w D.  Every m in P_D lies in that box."""
    n = fan.dim
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    below = [_cone_weights(fan, e) for e in unit]
    above = [_cone_weights(fan, [-x for x in e]) for e in unit]

    def count(d):
        box = [range(ceil(-sum(w * d[r] for r, w in lo.items())),
                     floor(sum(w * d[r] for r, w in hi.items())) + 1)
               for lo, hi in zip(below, above)]
        return sum(all(sum(map(int.__mul__, m, fan.rays[r])) >= -d[r] for r in d)
                   for m in product(*box))

    return count


def picard_disagreements(fan, bound):
    """The classes of degree <= bound in the divisor series of fan whose
    coefficient is not the lattice-point count of a divisor of that class,
    as (class, coefficient, count), and the number of classes compared.
    At p = n - 1 the ambient coordinates of the class group are the rays,
    in cones_of_dim(1) order, so group.lift gives a divisor of the class."""
    series = mc_series_toric(fan, fan.dim - 1)
    group = series.monoid.group
    rays = [cone[0] for cone in fan.cones_of_dim(1)]
    count = lattice_point_counter(fan)
    terms = series.expand(bound).terms
    bad = []
    for e, c in terms:
        h = count(dict(zip(rays, group.lift(e))))
        if c != h:
            bad.append((e, c, h))
    return bad, len(terms)


@pytest.mark.parametrize("name, bound", [
    ("p2", 8), ("p1xp1", 8), ("hirzebruch1", 8), ("p112", 8), ("gp", 8), ("p3", 6)])
def test_fan_files_match_the_picard_count(name, bound):
    bad, compared = picard_disagreements(fan_file(name), bound)
    assert compared > bound and bad == []


def test_counter_on_projective_space():
    # P_D of dH on P^2 is a triangle with C(d + 2, 2) lattice points
    count = lattice_point_counter(projective_space_fan(2))
    for d in range(6):
        assert count({0: d, 1: 0, 2: 0}) == count({0: 0, 1: 0, 2: d}) == (d + 1) * (d + 2) // 2
    assert count({0: -1, 1: 0, 2: 0}) == 0


BASES = {
    "P2": lambda: projective_space_fan(2),
    "P1xP1": lambda: product_fan(projective_space_fan(1), projective_space_fan(1)),
    **{f"F{a}": (lambda a=a: hirzebruch_fan(a)) for a in range(4)},
}


@st.composite
def subdivisions(draw, max_blowups=3):
    fan = BASES[draw(st.sampled_from(sorted(BASES)))]()
    for _ in range(draw(st.integers(1, max_blowups))):
        smooth = [c for c in fan.maximal_cones
                  if abs(det([list(fan.rays[i]) for i in c])) == 1]
        fan = blowup_at_fixed_point(fan, draw(st.sampled_from(smooth)))
    return fan


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(subdivisions())
def test_star_subdivisions_match_the_picard_count(fan):
    bad, compared = picard_disagreements(fan, 6)
    assert compared > 6 and bad == []
