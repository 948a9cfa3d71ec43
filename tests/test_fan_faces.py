"""Fan faces and wall relations against the LP and saturation references.

Simplicial maximal cones take their faces from ray subsets, without a
linear program, and chow_presentation divides each wall pairing by one
Smith form per wall.  The references below are the earlier routes, kept
here as oracles: a rank and an LP witness (each zero ray passed as a pair of
inequalities) on every ray subset, and a wall coefficient from two
saturations, integer coordinates and a determinant for every character.
Hypothesis draws star subdivisions of P^2, P^3 and P^1 x P^2 and products
of those; the face fan of the 3-cube covers the non-simplicial path.  The
last test checks that the benchmark's fans stay far below the work cap of
the elimination LP.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mcseries import intlinalg
from mcseries.errors import FanError
from mcseries.intlinalg import (
    det,
    feasible_point,
    kernel_basis,
    smith_decomposition,
    solve_integer,
    transpose,
)
from mcseries.toric import (
    Fan,
    blowup_at_fixed_point,
    chow_presentation,
    hirzebruch_fan,
    product_fan,
    projective_space_fan,
)


def reference_is_face(rays, cone, subset):
    cons = []
    for i in cone:
        if i in subset:
            cons.append((rays[i], 0))
            cons.append((tuple(-x for x in rays[i]), 0))
        else:
            cons.append((rays[i], 1))
    return feasible_point(len(rays[0]), cons) is not None


def reference_cones(fan):
    """dimension -> sorted faces, from a rank and an LP on every subset."""
    found = {k: {()} if k == 0 else set() for k in range(fan.dim + 1)}
    for c in fan.maximal_cones:
        for mask in range(1, 1 << len(c)):
            subset = tuple(c[i] for i in range(len(c)) if mask >> i & 1)
            rank = smith_decomposition([list(fan.rays[i]) for i in subset]).rank
            if reference_is_face(fan.rays, c, set(subset)):
                found[rank].add(subset)
    return {k: tuple(sorted(v)) for k, v in found.items()}


def _saturation_basis(rows):
    dec = smith_decomposition([list(r) for r in rows])
    return [list(dec.Vinv[i]) for i in range(dec.rank)]


def reference_wall_coefficient(rays, sigma, tau, m):
    v = next(rays[i] for i in sigma if i not in tau)
    tau_basis = _saturation_basis([rays[i] for i in tau]) if tau else []
    sigma_basis = _saturation_basis([rays[i] for i in sigma])
    coords = [solve_integer(transpose(sigma_basis), list(vec))
              for vec in tau_basis + [list(v)]]
    q = abs(det(coords))
    pairing = sum(mi * vi for mi, vi in zip(m, v))
    assert pairing % q == 0
    return pairing // q


def reference_relations(fan, cones, p):
    n = fan.dim
    gen_cones = cones[n - p]
    relations = []
    if n - p - 1 < 0:
        return relations
    for tau in cones[n - p - 1]:
        rows = [list(fan.rays[i]) for i in tau]
        perp = kernel_basis(rows) if rows else [
            [1 if j == i else 0 for j in range(n)] for i in range(n)]
        stars = [c for c in gen_cones if set(tau) <= set(c)]
        for m in perp:
            rel = [0] * len(gen_cones)
            for sigma in stars:
                rel[gen_cones.index(sigma)] = reference_wall_coefficient(
                    fan.rays, sigma, tau, m)
            if any(rel):
                relations.append(tuple(rel))
    return relations


def assert_matches_references(fan):
    cones = reference_cones(fan)
    for k in range(fan.dim + 1):
        assert fan.cones_of_dim(k) == cones[k], k
    for p in range(fan.dim + 1):
        relations = chow_presentation(fan, p).monoid.group.relations
        assert list(relations) == reference_relations(fan, cones, p), p


def cube_face_fan(n):
    """Face fan of [-1,1]^n: 2^n rays, 2n non-simplicial cones."""
    rays = [tuple(1 - 2 * (k >> j & 1) for j in range(n)) for k in range(1 << n)]
    cones = [[i for i, v in enumerate(rays) if v[axis] == sign]
             for axis in range(n) for sign in (1, -1)]
    return Fan(rays, cones)


BASES = {
    "P2": lambda: projective_space_fan(2),
    "P3": lambda: projective_space_fan(3),
    "P1xP2": lambda: product_fan(projective_space_fan(1), projective_space_fan(2)),
}


@st.composite
def subdivisions(draw, bases=tuple(sorted(BASES)), max_blowups=3):
    fan = BASES[draw(st.sampled_from(bases))]()
    for _ in range(draw(st.integers(0, max_blowups))):
        smooth = [c for c in fan.maximal_cones
                  if abs(det([list(fan.rays[i]) for i in c])) == 1]
        fan = blowup_at_fixed_point(fan, draw(st.sampled_from(smooth)))
    return fan


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(subdivisions())
def test_star_subdivisions_match_references(fan):
    assert_matches_references(fan)


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(subdivisions(("P2",), 2), subdivisions(("P2",), 2))
def test_products_of_subdivisions_match_references(f1, f2):
    assert_matches_references(product_fan(f1, f2))


def test_non_simplicial_cube_matches_references():
    fan = cube_face_fan(3)
    assert not fan._simplicial
    assert_matches_references(fan)


def test_star_pentagon_is_rejected_by_the_pairwise_check():
    # five cones winding twice around the origin: every wall lies on two
    # cones, but neighbouring-but-one cones overlap
    rays = [(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)]
    cones = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]
    with pytest.raises(FanError, match="common face"):
        Fan(rays, cones)


def test_benchmark_fans_stay_far_below_the_lp_cap(monkeypatch):
    # a fiftieth of the cap still validates and grades every fan family of
    # the fan benchmark at every p
    monkeypatch.setattr(intlinalg, "MAX_STEP_CONSTRAINTS",
                        intlinalg.MAX_STEP_CONSTRAINTS // 50)
    p1 = projective_space_fan(1)
    p1_4 = product_fan(product_fan(p1, p1), product_fan(p1, p1))
    p3 = projective_space_fan(3)
    for fan in (projective_space_fan(6), p1_4, cube_face_fan(3),
                blowup_at_fixed_point(p3, p3.maximal_cones[0]),
                blowup_at_fixed_point(hirzebruch_fan(3), (0, 1)),
                product_fan(p1, blowup_at_fixed_point(
                    projective_space_fan(2), (0, 1)))):
        for p in range(fan.dim + 1):
            chow_presentation(fan, p)
