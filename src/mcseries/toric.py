"""Complete rational fans, orbit-closure class monoids, and the toric
product formula for motivic Chow series.

A Fan validates on construction: primitive distinct rays, strongly convex
maximal cones that pairwise meet in common faces, and completeness.  The
completeness test is the facet criterion (every codimension-1 face lies on
exactly two maximal cones, the facet graph is connected, maximal cones are
full-dimensional), which is equivalent to support coverage for fans as long
as the pairwise face condition already holds.

A maximal cone with n linearly independent rays is simplicial: it is
strongly convex and every k-subset of its rays spans a k-face, so its faces
need no linear program.  Other cones find faces by exact LP witnesses.

Class groups of orbit closures are presented by the divisor-of-character
relations on one-higher-dimensional orbit closures; the relation coefficient
along a wall divides by an exact lattice index, the product of Smith
invariants, never a floating determinant.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, prod

from .errors import BlowupError, DimensionError, FanError
from .kring import KRingSpec, class_projective_space, standard_ring
from .monoid import (
    AbelianGroupPresentation,
    GradedMonoid,
    MonoidElement,
    free_graded_monoid,
    positive_grading,
)
from .intlinalg import det, feasible_point, identity_matrix, kernel_basis, smith_decomposition
from .series import RationalSeries, TruncatedSeries

__all__ = [
    "Fan",
    "OrbitClassMonoid",
    "chow_presentation",
    "degree_class",
    "mc_series_toric",
    "pn_divisor_series",
    "projective_space_fan",
    "product_fan",
    "blowup_at_fixed_point",
    "hirzebruch_fan",
    "three_point_blowup_fan",
    "weighted_p112_fan",
]


def _primitive(v) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def _rank(rows) -> int:
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    return smith_decomposition(rows).rank


def _separable(rays, zero, pos, neg=()) -> bool:
    """Whether some functional vanishes on the rays indexed by zero, is >= 1
    on those in pos and <= -1 on those in neg: the exact witness that zero
    spans a face of a cone, or that two cones meet in their common face.

    The LP runs in coordinates of the integer kernel of the zero rays, so
    only the strict inequalities reach the elimination.
    """
    if zero:
        basis = kernel_basis([rays[i] for i in zero])
    else:
        basis = identity_matrix(len(rays[0]))

    def coords(i, sign):
        return tuple(sign * sum(b * x for b, x in zip(col, rays[i])) for col in basis)

    cons = [(coords(i, 1), 1) for i in pos] + [(coords(i, -1), 1) for i in neg]
    return feasible_point(len(basis), cons, "fan validation") is not None


class Fan:
    """Complete rational polyhedral fan given by primitive rays and maximal
    cones (tuples of ray indices)."""

    __slots__ = ("dim", "rays", "maximal_cones", "ray_names", "_simplicial",
                 "_face_cache")

    def __init__(self, rays, maximal_cones, ray_names=None):
        rays = tuple(tuple(int(x) for x in v) for v in rays)
        if not rays:
            raise FanError("a fan needs at least one ray")
        n = len(rays[0])
        self.dim = n
        for v in rays:
            if len(v) != n:
                raise FanError("rays of mixed ambient dimension")
            if not any(v):
                raise FanError("zero vector is not a ray")
            if not _primitive(v):
                raise FanError(f"ray {v} is not primitive")
        if len(set(rays)) != len(rays):
            raise FanError("duplicate rays")
        self.rays = rays
        cones = []
        for c in maximal_cones:
            c = tuple(sorted(set(int(i) for i in c)))
            if not c:
                raise FanError("empty maximal cone")
            for i in c:
                if not 0 <= i < len(rays):
                    raise FanError(f"ray index {i} out of range")
            cones.append(c)
        if not cones:
            raise FanError("a complete fan needs at least one maximal cone")
        if len(set(cones)) != len(cones):
            raise FanError("duplicate maximal cones")
        for c in cones:
            for c2 in cones:
                if c != c2 and set(c) <= set(c2):
                    raise FanError(f"cone {c} is contained in cone {c2}")
        self.maximal_cones = tuple(cones)
        if ray_names is None:
            ray_names = tuple(f"r{i}" for i in range(len(rays)))
        else:
            ray_names = tuple(str(s) for s in ray_names)
            if len(ray_names) != len(rays) or len(set(ray_names)) != len(rays):
                raise FanError("ray names must be one distinct name per ray")
        self.ray_names = ray_names
        self._face_cache: dict[int, tuple] = {}
        self._validate_cones()
        self._validate_complete()

    # -- validation -------------------------------------------------------

    def _validate_cones(self):
        n = self.dim
        # n independent rays: strongly convex and full-dimensional
        self._simplicial = frozenset(
            c for c in self.maximal_cones
            if len(c) == n and det([list(self.rays[i]) for i in c]) != 0)
        for c in self.maximal_cones:
            if c not in self._simplicial and not _separable(self.rays, (), c):
                raise FanError(f"cone {c} is not strongly convex")
        for a in range(len(self.maximal_cones)):
            for b in range(a + 1, len(self.maximal_cones)):
                self._check_face_intersection(self.maximal_cones[a],
                                              self.maximal_cones[b])

    def _check_face_intersection(self, c1, c2):
        """Separating witness: >= 1 on c1's own rays, <= -1 on c2's, zero on
        the shared ones; existence makes the intersection the common face."""
        shared = sorted(set(c1) & set(c2))
        if not _separable(self.rays, shared, [i for i in c1 if i not in shared],
                          [i for i in c2 if i not in shared]):
            raise FanError(f"cones {c1} and {c2} do not meet in a common face")

    def _faces(self, cone, k) -> list[tuple]:
        """The k-dimensional faces of a maximal cone, as ray-index tuples."""
        if cone in self._simplicial:
            return list(combinations(cone, k))
        out = []
        for mask in range(1 << len(cone)):
            subset = tuple(cone[i] for i in range(len(cone)) if mask >> i & 1)
            if (_rank([self.rays[i] for i in subset]) == k and _separable(
                    self.rays, subset, [i for i in cone if i not in subset])):
                out.append(subset)
        return out

    def _validate_complete(self):
        n = self.dim
        for c in self.maximal_cones:
            if c not in self._simplicial and _rank([self.rays[i] for i in c]) != n:
                raise FanError(f"maximal cone {c} is not full-dimensional"
                               " (incomplete fan)")
        facet_owners: dict[tuple, list[int]] = {}
        for k, c in enumerate(self.maximal_cones):
            for f in self._faces(c, n - 1):
                facet_owners.setdefault(f, []).append(k)
        for f, owners in facet_owners.items():
            if len(owners) != 2:
                raise FanError(
                    f"wall {f} lies on {len(owners)} maximal cone(s); a"
                    " complete fan pairs every wall (incomplete fan)")
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for owners in facet_owners.values():
                if cur in owners:
                    for o in owners:
                        if o not in seen:
                            seen.add(o)
                            frontier.append(o)
        if len(seen) != len(self.maximal_cones):
            raise FanError("fan support is disconnected (incomplete fan)")

    # -- queries ----------------------------------------------------------

    def cones_of_dim(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All fan cones of the given dimension, as sorted ray-index tuples."""
        if not 0 <= k <= self.dim:
            raise DimensionError(f"no cones of dimension {k} in a {self.dim}-fan")
        if k in self._face_cache:
            return self._face_cache[k]
        if k == 0:
            self._face_cache[0] = ((),)
            return self._face_cache[0]
        found = set()
        for c in self.maximal_cones:
            found.update(self._faces(c, k))
        self._face_cache[k] = tuple(sorted(found))
        return self._face_cache[k]

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self.rays == other.rays and self.maximal_cones == other.maximal_cones

    def __hash__(self):
        return hash((self.rays, self.maximal_cones))

    def __repr__(self):
        return f"<fan dim={self.dim} rays={len(self.rays)} cones={len(self.maximal_cones)}>"


# ---------------------------------------------------------------------------
# orbit-closure class monoids


def _saturation_basis(rows) -> list[list[int]]:
    """Basis of the saturated sublattice spanned by the rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    dec = smith_decomposition(rows)
    return [list(dec.Vinv[i]) for i in range(dec.rank)]


class OrbitClassMonoid:
    """Effective classes of p-dimensional orbit closures, with the class map.

    Classes are taken up to rational equivalence; for the complete toric
    varieties in scope this is assumed to agree with algebraic equivalence,
    and the assumption is carried in `assumptions` for downstream display.
    """

    __slots__ = ("p", "fan", "monoid", "cones", "_class_of", "assumptions")

    def __init__(self, p, fan, monoid, cones, class_of, assumptions):
        self.p = p
        self.fan = fan
        self.monoid = monoid
        self.cones = cones
        self._class_of = class_of
        self.assumptions = assumptions

    def class_of(self, cone) -> MonoidElement:
        key = tuple(sorted(cone))
        if key not in self._class_of:
            raise DimensionError(
                f"cone {key} is not a {self.fan.dim - self.p}-dimensional cone"
                " of the fan")
        return self._class_of[key]


def chow_presentation(fan: Fan, p: int) -> OrbitClassMonoid:
    """Class monoid of p-dimensional orbit closures.

    Generators: cones of dimension n-p.  Relations: for every cone tau of
    dimension n-p-1 and every character basis vector m of the sublattice
    orthogonal to tau, the divisor of m on V(tau).

    Its order along V(sigma), for a cone sigma on tau, is <m, v>/q with v a
    ray of sigma outside tau and q the index of N_tau + Zv in the saturated
    N_sigma: the product of the Smith invariants of [basis of N_tau; v].
    """
    n = fan.dim
    if not 0 <= p <= n:
        raise DimensionError(f"no {p}-cycles on a {n}-dimensional variety")
    gen_cones = fan.cones_of_dim(n - p)
    index = {c: i for i, c in enumerate(gen_cones)}
    relations = []
    if n - p - 1 >= 0:
        for tau in fan.cones_of_dim(n - p - 1):
            tau_rows = [fan.rays[i] for i in tau]
            perp = kernel_basis(tau_rows) if tau_rows else identity_matrix(n)
            tau_basis = _saturation_basis(tau_rows)
            rels = [[0] * len(gen_cones) for _ in perp]
            for sigma in gen_cones:
                if not set(tau) <= set(sigma):
                    continue
                v = next(fan.rays[i] for i in sigma if i not in tau)
                q = prod(smith_decomposition(tau_basis + [list(v)]).invariants)
                for rel, m in zip(rels, perp):
                    pairing = sum(mi * vi for mi, vi in zip(m, v))
                    assert pairing % q == 0, "wall pairing must be divisible by the index"
                    rel[index[sigma]] = pairing // q
            relations += [tuple(rel) for rel in rels if any(rel)]
    group = AbelianGroupPresentation(len(gen_cones), relations)
    class_of = {c: group.project([1 if j == index[c] else 0
                                  for j in range(len(gen_cones))])
                for c in gen_cones}
    distinct: list[MonoidElement] = []
    first_cone: list[tuple] = []
    for c in gen_cones:
        if class_of[c] not in distinct:
            distinct.append(class_of[c])
            first_cone.append(c)
    if len(distinct) == 1:
        names = ("t",)
    elif p == n - 1:
        names = tuple(fan.ray_names[c[0]] for c in first_cone)
    else:
        names = tuple(f"c{i}" for i in range(len(distinct)))
    # FiniteFiberError from here signals a fan with no projective grading
    grading = positive_grading(distinct, group.rank)
    monoid = GradedMonoid(group, names, tuple(distinct), grading=grading)
    assumptions = ("orbit classes taken up to rational equivalence;"
                   " assumed to coincide with algebraic equivalence"
                   " on complete toric varieties",)
    return OrbitClassMonoid(p, fan, monoid, gen_cones, class_of, assumptions)


def degree_class(fan: Fan, cone, p: int,
                 chow: OrbitClassMonoid | None = None) -> MonoidElement:
    """Class of the orbit closure of the cone in the p-cycle class monoid."""
    if chow is None:
        chow = chow_presentation(fan, p)
    elif chow.fan != fan or chow.p != p:
        raise DimensionError("class table belongs to a different fan or p")
    return chow.class_of(cone)


def mc_series_toric(fan: Fan, p: int, ring: KRingSpec | None = None,
                    chow: OrbitClassMonoid | None = None) -> RationalSeries:
    """Product over (n-p)-cones of 1/(1 - t^class): the series counting
    effective sums of p-dimensional orbit closures by class."""
    if ring is None:
        ring = standard_ring()
    if chow is None:
        chow = chow_presentation(fan, p)
    factors = [(ring.one, chow.class_of(c), 1) for c in chow.cones]
    return RationalSeries(ring, chow.monoid, None, factors)


def pn_divisor_series(n: int, truncation: int,
                      ring: KRingSpec | None = None) -> TruncatedSeries:
    """Degree-d coefficient: class of the projective space of degree-d
    hypersurfaces in P^n, i.e. P^(binom(n+d,d)-1)."""
    if n < 1:
        raise ValueError("ambient projective space must have dimension >= 1")
    if ring is None:
        ring = standard_ring()
    monoid = free_graded_monoid(("t",))
    t = monoid.generator_named("t")
    terms = {d * t: class_projective_space(comb(n + d, d) - 1, ring)
             for d in range(truncation + 1)}
    return TruncatedSeries(ring, monoid, truncation, terms)


# ---------------------------------------------------------------------------
# fan builders


def projective_space_fan(n: int) -> Fan:
    """Rays e_1..e_n and -(e_1+..+e_n); maximal cones all n-subsets."""
    if n < 1:
        raise FanError("projective space fan needs n >= 1")
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rays.append([-1] * n)
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    names = tuple(f"x{i}" for i in range(n + 1))
    return Fan(rays, cones, names)


def product_fan(f1: Fan, f2: Fan) -> Fan:
    n1, n2 = f1.dim, f2.dim
    rays = [tuple(v) + (0,) * n2 for v in f1.rays]
    rays += [(0,) * n1 + tuple(v) for v in f2.rays]
    off = len(f1.rays)
    cones = [c1 + tuple(i + off for i in c2)
             for c1 in f1.maximal_cones for c2 in f2.maximal_cones]
    if set(f1.ray_names) & set(f2.ray_names):
        names = tuple(f"{s}_1" for s in f1.ray_names)
        names += tuple(f"{s}_2" for s in f2.ray_names)
    else:
        names = f1.ray_names + f2.ray_names
    return Fan(rays, cones, names)


def blowup_at_fixed_point(fan: Fan, cone, new_ray_name: str | None = None) -> Fan:
    """Star subdivision at the barycenter ray of a smooth maximal cone."""
    cone = tuple(sorted(cone))
    if cone not in fan.maximal_cones:
        raise BlowupError(f"{cone} is not a maximal cone of the fan")
    mat = [list(fan.rays[i]) for i in cone]
    if len(cone) != fan.dim or abs(det(mat)) != 1:
        raise BlowupError(f"cone {cone} is not smooth; blow-up undefined here")
    new = tuple(sum(col) for col in zip(*mat))
    rays = fan.rays + (new,)
    k = len(fan.rays)
    cones = [c for c in fan.maximal_cones if c != cone]
    for drop in cone:
        cones.append(tuple(sorted([i for i in cone if i != drop] + [k])))
    if new_ray_name is None:
        new_ray_name = f"e{k}"
    return Fan(rays, cones, fan.ray_names + (new_ray_name,))


def hirzebruch_fan(a: int) -> Fan:
    """Projectivized rank-2 bundle over P^1 with twist a >= 0."""
    if a < 0:
        raise FanError("twist must be non-negative")
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return Fan(rays, cones, ("f1", "s1", "f2", "s2"))


def three_point_blowup_fan() -> Fan:
    """Plane blown up at the three torus-fixed points.

    Ray order follows the hexagon; names pair line classes t_i with
    exceptional classes s_i so the p=1 series reads off in those symbols.
    """
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    names = ("t2", "s1", "t3", "s2", "t1", "s3")
    cones = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    return Fan(rays, cones, names)


def weighted_p112_fan() -> Fan:
    """The simplicial but singular fan with rays (1,0),(0,1),(-1,-2):
    exercises wall coefficients with lattice index 2."""
    return Fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)],
               ("u0", "u1", "u2"))
