"""Fan faces and wall relations against the LP and saturation references.

Simplicial maximal cones take their faces from ray subsets, without a
linear program, and chow_presentation divides each wall pairing by one
Smith form per wall.  The references below are the earlier routes, kept
here as oracles: a rank and an LP witness (each zero ray passed as a pair of
inequalities) on every ray subset, and a wall coefficient from two
saturations, integer coordinates and a determinant for every character.
Hypothesis draws star subdivisions of P^2, P^3 and P^1 x P^2 and products
of those; the face fan of the 3-cube covers the non-simplicial path.  The
benchmark's fans must stay far below the work cap of the elimination LP.

Fans of simplicial cones are certified by wall signs and one covering
count, with no LP; the tests at the end check that the certificate accepts
every family above as the general LP path does, that bad fans fail it and
keep the general path's message, and that it runs no LP or Smith form.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mcseries import intlinalg, toric
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
    with pytest.raises(FanError) as err:
        Fan(rays, cones)
    assert str(err.value) == ("wall (5, 6) lies on 1 maximal cone(s); a complete"
                              " fan pairs every wall (incomplete fan)")


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


# -- the simplicial certificate -------------------------------------------


def certificate(fan):
    return fan._certify({c: det([list(fan.rays[i]) for i in c])
                         for c in fan.maximal_cones})


def assert_both_paths_accept(fan):
    assert len(fan._simplicial) == len(fan.maximal_cones)
    assert certificate(fan)
    fan._validate_cones()
    fan._validate_complete()


def unvalidated(rays, cones):
    fan = Fan.__new__(Fan)
    fan.dim, fan.rays = len(rays[0]), tuple(map(tuple, rays))
    fan.maximal_cones = tuple(tuple(sorted(c)) for c in cones)
    return fan


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(subdivisions())
def test_certificate_accepts_star_subdivisions(fan):
    assert_both_paths_accept(fan)


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(subdivisions(("P2",), 2), subdivisions(("P2",), 2))
def test_certificate_accepts_products_of_subdivisions(f1, f2):
    assert_both_paths_accept(product_fan(f1, f2))


@pytest.mark.parametrize("k", range(1, 6))
def test_certificate_accepts_projective_spaces_and_cube_products(k):
    assert_both_paths_accept(projective_space_fan(k))
    fan = projective_space_fan(1)
    for _ in range(k - 1):
        fan = product_fan(fan, projective_space_fan(1))
    assert_both_paths_accept(fan)


P3 = projective_space_fan(3)
BAD_SIMPLICIAL_FANS = {
    # a wall on three cones
    "overlap": ([(1, 0), (0, 1), (-1, -1), (2, 1)],
                [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)],
                "cones (0, 1) and (0, 3) do not meet in a common face"),
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
              "cones (0, 2, 3) and (0, 4, 5) do not meet in a common face"),
}


@pytest.mark.parametrize("name", sorted(BAD_SIMPLICIAL_FANS))
def test_bad_simplicial_fans_fail_the_certificate_with_the_old_message(name):
    rays, cones, message = BAD_SIMPLICIAL_FANS[name]
    assert not certificate(unvalidated(rays, cones))
    with pytest.raises(FanError) as err:
        Fan(rays, cones)
    assert str(err.value) == message


def test_winding_pentagon_fails_only_the_covering_count():
    rays, cones, _ = BAD_SIMPLICIAL_FANS["winding-2"]
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
    assert not certificate(unvalidated(rays, cones))


def test_certified_fans_run_no_lp_and_no_smith_form(monkeypatch):
    calls = {"feasible_point": 0, "smith_decomposition": 0}

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
    for module in (intlinalg, toric):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, module))
    for fan in (p1_5, blown_up):
        Fan(fan.rays, fan.maximal_cones, fan.ray_names)
    assert calls == {"feasible_point": 0, "smith_decomposition": 0}
    # the counters do see the general path
    cube_face_fan(3)
    assert calls["feasible_point"] > 0 and calls["smith_decomposition"] > 0
