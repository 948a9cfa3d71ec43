"""Complete rational fans, orbit-closure class monoids, and the toric
product formula for motivic Chow series.

A Fan validates on construction, by one criterion built from determinant
signs alone (De Loera, Rambau and Santos, *Triangulations*, 4.5): every
maximal cone is full-dimensional and strongly convex, every wall lies on
exactly two cones, on opposite sides, and a generic point lies in at most
one cone.  Crossing a wall swaps one cone for the other, so then every
generic point lies in exactly one cone: the cones cover the space and meet
in common faces.  A simplicial cone's facets drop one ray; another cone's
are spanned by the (n-1)-subsets of its rays that leave all of them on one
side.  Its lower faces come from the facets alone: the facets of a face
are its maximal proper intersections with the cone's facets.

Class groups of orbit closures are presented by the divisor-of-character
relations on one-higher-dimensional orbit closures; the relation coefficient
along a wall divides by an exact lattice index, never a floating determinant:
the gcd of the pairings of the new ray with a basis of the characters
orthogonal to the lower cone, which are the ray's coordinates in the free
quotient of N by that cone's saturated lattice.

The product formula counts torus-fixed cycles, whose classes hold where L = 1:
mc_series_toric builds in standard_ring(a1_homotopy=True), K(ChM)_{A^1}.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, count
from math import comb, gcd

from .errors import MCSError, check_cap, term_cap
from .kring import KElement, Specialization, class_projective_space, standard_ring
from .monoid import (
    AbelianGroupPresentation,
    GradedMonoid,
    MonoidElement,
    free_graded_monoid,
)
from .intlinalg import det, identity_matrix, kernel_basis
from .series import RationalSeries, TruncatedSeries

__all__ = [
    "Fan",
    "OrbitClassMonoid",
    "chow_presentation",
    "divisor_term_counts",
    "mc_series_toric",
    "pn_divisor_series",
    "projective_space_fan",
    "product_fan",
    "three_point_blowup_fan",
]


class Fan:
    """Complete rational polyhedral fan given by primitive rays and maximal
    cones (tuples of ray indices)."""

    __slots__ = ("dim", "rays", "maximal_cones", "ray_names", "_simplicial",
                 "_facets", "_face_cache", "_class_tables")

    def __init__(self, rays, maximal_cones, ray_names=None):
        rays = tuple(tuple(int(x) for x in v) for v in rays)
        if not rays:
            raise MCSError("a fan needs at least one ray")
        n = len(rays[0])
        self.dim = n
        for v in rays:
            if len(v) != n:
                raise MCSError("rays of mixed ambient dimension")
            if not any(v):
                raise MCSError("zero vector is not a ray")
            if gcd(*v) != 1:
                raise MCSError(f"ray {v} is not primitive")
        if len(set(rays)) != len(rays):
            raise MCSError("duplicate rays")
        self.rays = rays
        cones = []
        for c in maximal_cones:
            c = tuple(sorted(set(int(i) for i in c)))
            if not c:
                raise MCSError("empty maximal cone")
            for i in c:
                if not 0 <= i < len(rays):
                    raise MCSError(f"ray index {i} out of range")
            cones.append(c)
        if not cones:
            raise MCSError("a complete fan needs at least one maximal cone")
        if len(set(cones)) != len(cones):
            raise MCSError("duplicate maximal cones")
        sets = [set(c) for c in cones]
        for c, s in zip(cones, sets):
            for c2, s2 in zip(cones, sets):
                if s < s2:
                    raise MCSError(f"cone {c} is contained in cone {c2}")
        self.maximal_cones = tuple(cones)
        if ray_names is None:
            ray_names = tuple(f"r{i}" for i in range(len(rays)))
        else:
            ray_names = tuple(str(s) for s in ray_names)
            if len(ray_names) != len(rays) or len(set(ray_names)) != len(rays):
                raise MCSError("ray names must be one distinct name per ray")
        self.ray_names = ray_names
        self._face_cache: dict[int, tuple] = {}
        self._class_tables: dict[int, OrbitClassMonoid] = {}
        self._facets: dict[tuple, tuple] = {}
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self):
        """Every cone's facets, then the criterion of the module docstring."""
        n, cones = self.dim, self.maximal_cones
        # n independent rays: strongly convex and full-dimensional
        rays = self.rays
        dets = {c: det([rays[i] for i in c]) for c in cones if len(c) == n}
        self._simplicial = frozenset(c for c, d in dets.items() if d)
        walls: dict[tuple, tuple] = {}  # wall -> (orienting rays, [(cone, side)])
        for k, c in enumerate(cones):
            if c in self._simplicial:
                # c[j]'s side: det(wall rays, c[j]) is det(c) after n-1-j row
                # swaps; dropping the last ray first gives bitmask order
                facets = [(c[:j] + c[j + 1:], c[:j] + c[j + 1:],
                           (dets[c] > 0) == ((n - 1 - j) % 2 == 0))
                          for j in reversed(range(n))]
            else:
                facets = self._general_facets(c)
            self._facets[c] = tuple(f for f, _, _ in facets)
            for f, t, side in facets:
                walls.setdefault(f, (t, []))[1].append((k, side))
        rows = [[rays[i] for i in t] for t, _ in walls.values()]
        # det(orienting rays, g(s)) is a nonzero polynomial of degree < n in
        # s, so few points g(s) = (1, s, .., s^(n-1)) lie on a wall's hyperplane
        for s in count(1):
            g = [s ** i for i in range(n)]
            at_g = [det(r + [g]) for r in rows]
            if all(at_g):
                break
        # g(s) lies in a cone when it is on the cone's side of each facet
        agree = Counter(k for (_, owners), value in zip(walls.values(), at_g)
                        for k, side in owners if side == (value > 0))
        holders = [c for k, c in enumerate(cones) if agree[k] == len(self._facets[c])]
        if len(holders) > 1:
            raise MCSError(f"cones {holders[0]} and {holders[1]} do not meet"
                           " in a common face")
        for f, (_, owners) in walls.items():
            if len(owners) != 2:
                raise MCSError(f"wall {f} lies on {len(owners)} maximal cone(s);"
                               " a complete fan pairs every wall (incomplete fan)")
            (k1, side1), (k2, side2) = owners
            if side1 == side2:
                raise MCSError(f"cones {cones[k1]} and {cones[k2]} do not meet"
                               " in a common face")

    def _candidates(self, cone, k, stage):
        """The k-subsets of a cone's rays, once their count is within the cap;
        stage names the caller in the cap message."""
        check_cap(f"{stage} of cone {cone}", comb(len(cone), k),
                  f"candidate {k}-faces")
        return combinations(cone, k)

    def _general_facets(self, cone) -> list[tuple]:
        """(facet, orienting rays, side) for each facet of a cone that is not
        simplicial, in bitmask order.  An independent (n-1)-subset t spans a
        facet when the signs of det(t rays, r) over the cone's rays r never
        disagree; the facet holds the rays r of sign zero, and the first such
        t in lexicographic order orients it for every cone on it."""
        seen, facets = [], []
        for t in self._candidates(cone, self.dim - 1, "fan validation"):
            if any(s.issuperset(t) for s in seen):
                continue
            rows = [self.rays[i] for i in t]
            signs = [det(rows + [self.rays[i]]) for i in cone]
            if not any(signs):
                continue
            zero = {i for i, sign in zip(cone, signs) if not sign}
            seen.append(zero)
            if min(signs) >= 0 or max(signs) <= 0:
                facets.append((tuple(sorted(zero)), t, max(signs) > 0))
        if not seen:
            raise MCSError(f"maximal cone {cone} is not full-dimensional"
                           " (incomplete fan)")
        # the facets of a full-dimensional cone meet in its lineality space
        if set(cone).intersection(*(set(f) for f, _, _ in facets)):
            raise MCSError(f"cone {cone} is not strongly convex")
        return sorted(facets, key=lambda f: sum(1 << cone.index(i) for i in f[0]))

    def _faces(self, cone, k) -> list[tuple]:
        """The k-faces of a maximal cone, as ray-index tuples.  A non-simplicial
        cone's faces come down from the cone one dimension at a time: its face
        lattice is graded, so the facets of a face F are the maximal sets F & G
        over the cone's facets G that do not hold F."""
        if k == self.dim - 1:
            return list(self._facets[cone])
        if cone in self._simplicial:
            return list(self._candidates(cone, k, "face enumeration"))
        facets = [frozenset(f) for f in self._facets[cone]]
        level = {frozenset(cone)}
        for _ in range(self.dim - k):
            check_cap(f"face enumeration of cone {cone}", len(level) * len(facets),
                      "facet intersections")
            meets = [{f & g for g in facets if not f <= g} for f in level]
            level = {f for m in meets for f in m if not any(f < g for g in m)}
        return [tuple(sorted(f)) for f in level]

    # -- queries ----------------------------------------------------------

    def cones_of_dim(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All fan cones of the given dimension, as sorted ray-index tuples."""
        if not 0 <= k <= self.dim:
            raise MCSError(f"no cones of dimension {k} in a {self.dim}-fan")
        if k not in self._face_cache:
            self._face_cache[k] = ((),) if k == 0 else tuple(sorted(
                {f for c in self.maximal_cones for f in self._faces(c, k)}))
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


class OrbitClassMonoid:
    """Effective classes of p-dimensional orbit closures, with the class map.

    dim is the fan's dimension: the fan caches the table, so the table
    keeps no reference back to it.  generator_cones holds, for each monoid
    generator in order, the first cone of that class.  Classes are taken up
    to rational equivalence; for the complete toric varieties in scope this
    is assumed to agree with algebraic equivalence, and the assumption is
    carried in `assumptions` for downstream display.
    """

    __slots__ = ("p", "dim", "monoid", "generator_cones", "_class_of")
    assumptions = ("orbit classes taken up to rational equivalence;"
                   " assumed to coincide with algebraic equivalence"
                   " on complete toric varieties",)

    def __init__(self, p, dim, monoid, generator_cones, class_of):
        self.p = p
        self.dim = dim
        self.monoid = monoid
        self.generator_cones = generator_cones
        self._class_of = class_of

    def class_of(self, cone) -> MonoidElement:
        key = tuple(sorted(cone))
        if key not in self._class_of:
            raise MCSError(
                f"cone {key} is not a {self.dim - self.p}-dimensional cone"
                " of the fan")
        return self._class_of[key]


def chow_presentation(fan: Fan, p: int) -> OrbitClassMonoid:
    """Class monoid of p-dimensional orbit closures, made once per fan and p.

    Generators: cones of dimension n-p.  Relations: for every cone tau of
    dimension n-p-1 and every character basis vector m of the sublattice
    orthogonal to tau, the divisor of m on V(tau).

    Its order along V(sigma), for a cone sigma on tau, is <m, v>/q with v a
    ray of sigma outside tau and q the index of N_tau + Zv in the saturated
    N_sigma: the gcd of <m, v> over the basis m.  N_tau is saturated, so
    that basis is a Z-basis of the dual of the free group N/N_tau, and the
    pairings are the coordinates of the image of v there.
    """
    n = fan.dim
    if not 0 <= p <= n:
        raise MCSError(f"no {p}-cycles on a {n}-dimensional variety")
    if p in fan._class_tables:
        return fan._class_tables[p]
    gen_cones = fan.cones_of_dim(n - p)
    relations = []
    if n - p - 1 >= 0:
        taus = fan.cones_of_dim(n - p - 1)
        # each tau gives p + 1 dense rows over the generators, one per basis
        # vector of its perp; their entries are counted before any is made.
        # For p = n - 1 the one tau is the zero cone and the rows are the
        # columns of the ray matrix, no larger than the fan itself.
        if p < n - 1:
            check_cap(f"relation matrix of {p}-cycles",
                      len(gen_cones) * len(taus) * (p + 1), "entries")
        ray_sets = [(k, sigma, set(sigma)) for k, sigma in enumerate(gen_cones)]
        for tau in taus:
            tau_rows = [fan.rays[i] for i in tau]
            perp = kernel_basis(tau_rows) if tau_rows else identity_matrix(n)
            rels = [[0] * len(gen_cones) for _ in perp]
            for k, sigma, ray_set in ray_sets:
                if not ray_set.issuperset(tau):
                    continue
                v = next(fan.rays[i] for i in sigma if i not in tau)
                pairings = [sum(mi * vi for mi, vi in zip(m, v)) for m in perp]
                q = gcd(*pairings)
                for rel, pairing in zip(rels, pairings):
                    rel[k] = pairing // q
            relations += [tuple(rel) for rel in rels if any(rel)]
    group = AbelianGroupPresentation(len(gen_cones), relations)
    class_of = dict(zip(gen_cones, group.basis_images()))
    # the first cone of each class, in cone order; packed keys hash in C
    first_of: dict[tuple, tuple] = {}
    for c in gen_cones:
        first_of.setdefault(class_of[c].packed(), c)
    first_cone = tuple(first_of.values())
    if len(first_cone) == 1:
        names = ("t",)
    elif p == n - 1:
        names = tuple(fan.ray_names[c[0]] for c in first_cone)
    else:
        names = tuple(f"c{i}" for i in range(len(first_cone)))
    # an MCSError from here signals a fan with no projective grading
    monoid = GradedMonoid(group, names, tuple(class_of[c] for c in first_cone))
    fan._class_tables[p] = OrbitClassMonoid(p, n, monoid, first_cone, class_of)
    return fan._class_tables[p]


def mc_series_toric(fan: Fan, p: int) -> RationalSeries:
    """Product over (n-p)-cones of 1/(1 - t^class): the series counting
    effective sums of p-dimensional orbit closures by class, in the A^1 ring,
    for torus-fixed cycles give classes only where L = 1.  RationalSeries
    gets one factor per distinct class, with its cone count as the power,
    so each class is checked once, not once per cone."""
    ring = standard_ring(a1_homotopy=True)
    chow = chow_presentation(fan, p)
    counts = Counter(chow._class_of.values())
    return RationalSeries(ring, chow.monoid, None,
                          [(ring.one, alpha, e) for alpha, e in counts.items()])


def divisor_term_counts(n: int, truncation: int) -> list[int]:
    """[C(n+d, d) for d <= truncation], the term counts of the coefficients
    of pn_divisor_series; their running total is checked against the
    MCS_MAX_TERMS cap, whether or not any term is built."""
    if n < 1:
        raise ValueError("ambient projective space must have dimension >= 1")
    cap = term_cap()
    counts, total = [], 0
    for d in range(truncation + 1):
        counts.append(comb(n + d, d))
        total += counts[-1]
        if total > cap:
            check_cap(f"divisor series of P^{n} to degree {d}", total, cap=cap)
    return counts


def pn_divisor_series(n: int, truncation: int,
                      specialization: Specialization | None = None) -> TruncatedSeries:
    """Degree-d coefficient: class of the projective space of degree-d
    hypersurfaces in P^n, i.e. P^(C - 1) with C = binom(n+d,d), over
    standard_ring(), mapped by specialization when one is given.

    The coefficients have C terms each; their total is checked against the
    MCS_MAX_TERMS cap first (divisor_term_counts).  The coefficient is the
    geometric sum 1 + y + ... + y^(C - 1) of the image y of L:
    - y = L (no specialization, or one that leaves L alone or sends it to
      L): the top coefficient 1 + L + ... + L^M is written once, and each
      lower one is a prefix of its terms, sharing their pairs;
    - an integer v: plain ints, (v^C - 1) / (v - 1) with v^C made from
      the power of the degree below, or the count C when v = 1;
    - any other element: the sum by doubling in the ring, O(log C)
      products a degree.
    The result equals pn_divisor_series(n, truncation).specialize(s)."""
    counts = divisor_term_counts(n, truncation)
    ring = standard_ring()
    monoid = free_graded_monoid(("t",))
    t = monoid.generator_named("t")
    y = _line_image(ring, specialization, truncation)
    if y is None:
        top = class_projective_space(counts[-1] - 1, ring).terms
        coeffs = [KElement(ring, top[:c]) for c in counts]
    elif y.is_integer():
        coeffs = [ring.from_int(x) for x in _integer_geometric_sums(y.as_integer(), counts)]
    else:
        coeffs = [_geometric_sum(y, c) for c in counts]
    return TruncatedSeries(ring, monoid, truncation,
                           {d * t: c for d, c in enumerate(coeffs)})


def _line_image(ring, s: Specialization | None, truncation: int) -> KElement | None:
    """The image of L under s, or None when it is L itself.  In strict mode
    an unassigned L is an error as soon as a coefficient has an L term,
    from degree 1 on."""
    if s is None:
        return None
    if s.spec != ring:
        raise MCSError("element and specialization use different specs")
    y = s.assignments.get("L")
    if y is None and not s.carry_unassigned and truncation >= 1:
        raise MCSError("no assignment for generator 'L'")
    return None if y is None or y == ring.generator("L") else y


def _integer_geometric_sums(v: int, counts: list[int]) -> list[int]:
    """[1 + v + ... + v^(C - 1) for C in counts], counts increasing: each
    v^C is v^a v^b, with a the count of the degree below, and the sum is
    (v^C - 1) / (v - 1), one product and one exact division a degree."""
    if v == 1:
        return counts
    sums, power, below = [], 1, 0  # power = v^below
    for c in counts:
        power *= v ** (c - below)
        below = c
        sums.append((power - 1) // (v - 1))
    return sums


def _geometric_sum(y: KElement, m: int) -> KElement:
    """1 + y + ... + y^(m - 1), from the bits of m, highest first: with
    S = the sum of k powers and P = y^k, the sum of 2k powers is S (1 + P),
    and one more adds y^(2k)."""
    total, power = y.spec.zero, y.spec.one
    for bit in bin(m)[2:]:
        total, power = total * (power + 1), power * power
        if bit == "1":
            total, power = total + power, power * y
    return total


# ---------------------------------------------------------------------------
# fan builders


def projective_space_fan(n: int) -> Fan:
    """Rays e_1..e_n and -(e_1+..+e_n); maximal cones all n-subsets."""
    if n < 1:
        raise MCSError("projective space fan needs n >= 1")
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


def three_point_blowup_fan() -> Fan:
    """Plane blown up at the three torus-fixed points.

    Ray order follows the hexagon; names pair line classes t_i with
    exceptional classes s_i so the p=1 series reads off in those symbols.
    """
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    names = ("t2", "s1", "t3", "s2", "t1", "s3")
    cones = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    return Fan(rays, cones, names)
