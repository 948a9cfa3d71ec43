"""Fan faces and wall relations against the LP and saturation references.

Simplicial maximal cones take their faces from ray subsets, without a
linear program, and chow_presentation divides each wall pairing by the gcd
of the wall's pairings.  The references below are the earlier routes, kept
here as oracles: a rank and an LP witness (each zero ray passed as a pair of
inequalities) on every ray subset, and a wall coefficient from two
saturations, integer coordinates and a determinant for every character.
Hypothesis draws star subdivisions of P^2, P^3 and P^1 x P^2 and products
of those; the face fan of the 3-cube covers the non-simplicial path.  The
benchmark's fans must stay far below the work cap of the elimination LP.

Every fan is validated by determinant signs alone: facets, paired walls
and one covering count.  The tests at the end keep the earlier pairwise-LP
validator as an oracle and check that both accept the families above, that
they accept the same perturbations of valid fans, that bad fans are named by
exact messages, and that validation runs no LP or Smith form.
"""

from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mcseries import intlinalg, monoid, toric
from mcseries.errors import MCSError
from mcseries.intlinalg import (
    det,
    feasible_point,
    kernel_basis,
    smith_decomposition,
    solve_integer,
)
from mcseries.toric import (
    Fan,
    chow_presentation,
    product_fan,
    projective_space_fan,
)

from _tools import blowup_at_fixed_point, hirzebruch_fan
from test_intlinalg import reference_smith_decomposition


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
    rows = [list(r) for r in rows]
    vinv = reference_smith_decomposition(rows)[4]
    return [list(vinv[i]) for i in range(smith_decomposition(rows).rank)]


def reference_wall_coefficient(rays, sigma, tau, m):
    v = next(rays[i] for i in sigma if i not in tau)
    tau_basis = _saturation_basis([rays[i] for i in tau]) if tau else []
    sigma_basis = _saturation_basis([rays[i] for i in sigma])
    coords = [solve_integer([list(c) for c in zip(*sigma_basis)], list(vec))
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


def test_rays_inside_faces_match_references():
    # a face holding more rays than its dimension: the inner rays of a plane
    # cone, and a ray on an edge of the 3-cube shared by two square cones
    plane = Fan([(1, 0), (1, 1), (1, 2), (1, 3), (0, 1), (-1, 0), (0, -1)],
                [(0, 1, 2, 3, 4), (4, 5), (5, 6), (6, 0)])
    assert plane.cones_of_dim(1) == ((0,), (4,), (5,), (6,))
    assert_matches_references(plane)
    cube = cube_face_fan(3)
    rays = cube.rays + ((1, 1, 0),)
    edge = len(cube.rays)
    on_edge = [c + (edge,) if any(all(rays[i][axis] == 1 for i in c)
                                  for axis in (0, 1)) else c
               for c in cube.maximal_cones]
    fan = Fan(rays, on_edge)
    assert sum(edge in f for f in fan.cones_of_dim(2)) == 1
    assert_matches_references(fan)


def test_open_walls_are_named_in_bitmask_order():
    # the 3-cube without its y = +-1 cones, rays reordered so that a cone has
    # two open walls: faces come in the order of their bitmasks of positions
    # in the cone, which names (5, 6) first
    cube = cube_face_fan(3)
    rays = [cube.rays[p] for p in (3, 6, 1, 5, 7, 0, 4, 2)]
    cones = [[i for i, v in enumerate(rays) if v[axis] == sign]
             for axis in (0, 2) for sign in (1, -1)]
    with pytest.raises(MCSError) as err:
        Fan(rays, cones)
    assert str(err.value) == ("wall (5, 6) lies on 1 maximal cone(s); a complete"
                              " fan pairs every wall (incomplete fan)")


def test_star_pentagon_is_rejected_by_the_pairwise_check():
    # five cones winding twice around the origin: every wall lies on two
    # cones, but neighbouring-but-one cones overlap
    rays = [(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)]
    cones = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]
    with pytest.raises(MCSError, match="common face"):
        Fan(rays, cones)


def test_benchmark_fans_stay_far_below_the_lp_cap(monkeypatch):
    # a fiftieth of the cap still validates and grades every fan family of
    # the fan benchmark at every p
    monkeypatch.setattr(intlinalg, "MAX_PIVOTS", intlinalg.MAX_PIVOTS // 50)
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


# -- one validation for every fan ----------------------------------------


def oracle_accepts(rays, cones):
    """The earlier pairwise-LP validator: the structure checks of Fan, a
    convexity witness per cone, a common-face witness per pair of cones, and
    every wall of a full-dimensional cone on exactly two cones."""
    n = len(rays[0])
    rays = [tuple(v) for v in rays]
    cones = [tuple(sorted(set(c))) for c in cones]
    if (len(set(rays)) < len(rays) or any(gcd(*v) != 1 for v in rays)
            or len(set(cones)) < len(cones)
            or any(set(a) < set(b) for a in cones for b in cones)):
        return False

    def witness(zero, pos, neg=()):
        # a functional zero on zero, >= 1 on pos and <= -1 on neg
        cons = [(rays[i], 0) for i in zero]
        cons += [(tuple(-x for x in rays[i]), 0) for i in zero]
        cons += [(rays[i], 1) for i in pos]
        cons += [(tuple(-x for x in rays[i]), 1) for i in neg]
        return feasible_point(n, cons) is not None

    if not all(witness((), c) for c in cones):
        return False
    for c1, c2 in combinations(cones, 2):
        shared = set(c1) & set(c2)
        if not witness(shared, [i for i in c1 if i not in shared],
                       [i for i in c2 if i not in shared]):
            return False
    walls = Counter()
    for c in cones:
        if smith_decomposition([list(rays[i]) for i in c]).rank < n:
            return False
        for k in range(len(c)):
            for wall in combinations(c, k):
                rank = smith_decomposition([list(rays[i]) for i in wall]).rank
                if rank == n - 1 and reference_is_face(rays, c, set(wall)):
                    walls[wall] += 1
    return all(owners == 2 for owners in walls.values())


def assert_accepted(fan):
    assert len(fan._simplicial) == len(fan.maximal_cones)
    assert Fan(fan.rays, fan.maximal_cones) == fan
    assert oracle_accepts(fan.rays, fan.maximal_cones)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(subdivisions())
def test_certificate_accepts_star_subdivisions(fan):
    assert_accepted(fan)


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(subdivisions(("P2",), 2), subdivisions(("P2",), 2))
def test_certificate_accepts_products_of_subdivisions(f1, f2):
    assert_accepted(product_fan(f1, f2))


@pytest.mark.parametrize("k", range(1, 6))
def test_certificate_accepts_projective_spaces_and_cube_products(k):
    assert_accepted(projective_space_fan(k))
    fan = projective_space_fan(1)
    for _ in range(k - 1):
        fan = product_fan(fan, projective_space_fan(1))
    assert_accepted(fan)


P3 = projective_space_fan(3)
CUBE = cube_face_fan(3)


def split_cube():
    """The 3-cube face fan with the square cone x = 1 split along a diagonal."""
    return Fan(CUBE.rays, CUBE.maximal_cones[1:] + ((0, 2, 6), (0, 4, 6)))


PERTURBED_BASES = {
    "P2": lambda: projective_space_fan(2),
    "P3": lambda: projective_space_fan(3),
    "P2 blown up": lambda: blowup_at_fixed_point(projective_space_fan(2), (0, 1)),
    "P3 blown up": lambda: blowup_at_fixed_point(P3, P3.maximal_cones[0]),
    "F2": lambda: hirzebruch_fan(2),
    "P1xP2": BASES["P1xP2"],
    "2-cube": lambda: cube_face_fan(2),
    "3-cube": lambda: CUBE,
    "split 3-cube": split_cube,
}


@st.composite
def perturbed_fans(draw):
    """Rays and cones of a valid fan after one perturbation that mostly, but
    not always, leaves no fan."""
    fan = PERTURBED_BASES[draw(st.sampled_from(sorted(PERTURBED_BASES)))]()
    n, rays, cones = fan.dim, list(fan.rays), [list(c) for c in fan.maximal_cones]
    index = st.integers(0, len(cones) - 1)
    kind = draw(st.sampled_from(["drop cone", "add ray", "overlap", "drop ray",
                                 "negate", "subdivide"]))
    if kind == "drop cone":
        del cones[draw(index)]
    elif kind == "add ray":
        c = cones[draw(index)]
        c.append(draw(st.sampled_from([i for i in range(len(rays)) if i not in c])))
    elif kind == "overlap":
        cones.append(draw(st.lists(st.integers(0, len(rays) - 1), min_size=n,
                                   max_size=n, unique=True)))
    elif kind == "drop ray":
        c = cones[draw(index)]
        del c[draw(st.integers(0, len(c) - 1))]
    elif kind == "negate":
        j = draw(st.integers(0, len(rays) - 1))
        rays[j] = tuple(-x for x in rays[j])
    else:
        v = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
        v = tuple(x // gcd(*v) for x in v)
        if v not in rays:
            rays.append(v)
        j = rays.index(v)
        c = cones.pop(draw(index))
        cones += [[i for i in c if i != drop] + [j] for drop in c]
    return rays, cones


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(perturbed_fans())
def test_fan_accepts_exactly_what_the_pairwise_lp_oracle_accepts(data):
    rays, cones = data
    try:
        Fan(rays, cones)
    except MCSError:
        assert not oracle_accepts(rays, cones)
    else:
        assert oracle_accepts(rays, cones)


BAD_SIMPLICIAL_FANS = {
    # a wall on three cones
    "overlap": ([(1, 0), (0, 1), (-1, -1), (2, 1)],
                [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)],
                "cones (0, 1) and (1, 3) do not meet in a common face"),
    # every wall paired with opposite sides, but a generic point is covered twice
    "winding-2": ([(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)],
                  [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)],
                  "cones (0, 2) and (1, 4) do not meet in a common face"),
    # every wall on two cones, but wall (0,) has both opposite rays above it
    "same-side": ([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)],
                  [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)],
                  "cones (0, 1) and (0, 2) do not meet in a common face"),
    "missing": (P3.rays, P3.maximal_cones[1:],
                "wall (2, 3) lies on 1 maximal cone(s); a complete fan pairs"
                " every wall (incomplete fan)"),
    # (0, 4, 5) reaches into the interiors of (0, 1, 3) and (0, 2, 3)
    "extra": (P3.rays + ((0, 1, -3), (0, -3, 1)), P3.maximal_cones + ((0, 4, 5),),
              "wall (0, 4) lies on 1 maximal cone(s); a complete fan pairs"
              " every wall (incomplete fan)"),
}
BAD_NON_SIMPLICIAL_FANS = {
    "cube-missing": (CUBE.rays, CUBE.maximal_cones[1:],
                     "wall (0, 4) lies on 1 maximal cone(s); a complete fan"
                     " pairs every wall (incomplete fan)"),
    # ray (1, 1, 0) on the edge (0, 4), listed by only one of its two cones
    "cube-edge-ray": (CUBE.rays + ((1, 1, 0),),
                      ((0, 2, 4, 6, 8),) + CUBE.maximal_cones[1:],
                      "wall (0, 4, 8) lies on 1 maximal cone(s); a complete"
                      " fan pairs every wall (incomplete fan)"),
    # two half-planes: the x-axis lies on the only facet of each
    "half-planes": ([(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 1, 2), (0, 1, 3)],
                    "cone (0, 1, 2) is not strongly convex"),
}


def assert_rejected(rays, cones, message):
    assert not oracle_accepts(rays, cones)
    with pytest.raises(MCSError) as err:
        Fan(rays, cones)
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(BAD_SIMPLICIAL_FANS))
def test_bad_simplicial_fans_fail_the_certificate_with_the_old_message(name):
    assert_rejected(*BAD_SIMPLICIAL_FANS[name])


@pytest.mark.parametrize("name", sorted(BAD_NON_SIMPLICIAL_FANS))
def test_bad_non_simplicial_fans_are_rejected_with_exact_messages(name):
    assert_rejected(*BAD_NON_SIMPLICIAL_FANS[name])


def test_winding_pentagon_fails_only_the_covering_count():
    rays, cones, message = BAD_SIMPLICIAL_FANS["winding-2"]
    walls = {}
    for c in cones:
        for j in range(2):
            walls.setdefault(c[:j] + c[j + 1:], []).append(c)
    assert all(len(owners) == 2 for owners in walls.values())
    # each wall's two opposite rays lie on opposite sides of its line
    for (w,), (c1, c2) in walls.items():
        o1, o2 = (next(i for i in c if i != w) for c in (c1, c2))
        side = [det([list(rays[w]), list(rays[o])]) for o in (o1, o2)]
        assert side[0] * side[1] < 0
    # so the cones named, (0, 2) and (1, 4), share no wall: they are the two
    # that hold the generic point
    assert_rejected(rays, cones, message)


def test_certified_fans_run_no_lp_and_no_smith_form(monkeypatch):
    assert not hasattr(toric, "feasible_point")
    calls = {"feasible_point": 0, "minimize_linear": 0, "smith_decomposition": 0}

    def counting(name, module):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper
    p1 = projective_space_fan(1)
    p1_5 = p1
    for _ in range(4):
        p1_5 = product_fan(p1_5, p1)
    blown_up = blowup_at_fixed_point(P3, P3.maximal_cones[0])
    for module in (intlinalg, monoid, toric):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, module))
    for fan in (p1_5, blown_up, CUBE, split_cube()):
        Fan(fan.rays, fan.maximal_cones, fan.ray_names)
    assert calls == {"feasible_point": 0, "minimize_linear": 0,
                     "smith_decomposition": 0}
    # the counters do see the grading LP and the class presentation
    chow_presentation(CUBE, 1)
    assert calls["minimize_linear"] > 0 and calls["smith_decomposition"] > 0
