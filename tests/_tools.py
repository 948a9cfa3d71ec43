"""Builders and oracles that several test modules share and the package
itself has no use for: words of generators, the enumerated elements of a
monoid, the denominator of a rational series as one polynomial, the
Hirzebruch fans, the blow-up of a fan at a fixed point and a reader of the
files in fans/."""

import json
from pathlib import Path

from mcseries.errors import MCSError
from mcseries.intlinalg import det
from mcseries.serialize import fan_from_json
from mcseries.series import MonoidPolynomial, binomial_factor_polynomial
from mcseries.toric import Fan

FANS = Path(__file__).resolve().parent.parent / "fans"


def canonicalize(word, monoid):
    """The class of a word in the generators: the sum of k * g."""
    return sum((k * g for k, g in zip(word, monoid.generators, strict=True)),
               monoid.zero)


def elements_up_to(monoid, bound):
    """Every element of degree <= bound as (element, degree) pairs, ordered
    by degree and then packed key, from the monoid's enumeration."""
    found = monoid._enumerate(max(bound, 0))
    rows = sorted((monoid.degree(e), e.packed()) for e in map(monoid.group.unpack, found))
    return [(monoid.group.unpack(key), d) for d, key in rows]


def denominator_polynomial(rs):
    """The product of the binomial factors of a rational series."""
    out = MonoidPolynomial.one(rs.ring, rs.monoid)
    for c, alpha, e in rs.factors:
        out = out * binomial_factor_polynomial(rs.ring, rs.monoid, c, alpha, e)
    return out


def hirzebruch_fan(a):
    """The Hirzebruch surface F_a, a P^1-bundle over P^1 with twist a >= 0."""
    return Fan([(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)],
               ("f1", "s1", "f2", "s2"))


def blowup_at_fixed_point(fan: Fan, cone) -> Fan:
    """Star subdivision at the barycenter ray of a smooth maximal cone."""
    cone = tuple(sorted(cone))
    if cone not in fan.maximal_cones:
        raise MCSError(f"{cone} is not a maximal cone of the fan")
    mat = [list(fan.rays[i]) for i in cone]
    if len(cone) != fan.dim or abs(det(mat)) != 1:
        raise MCSError(f"cone {cone} is not smooth; blow-up undefined here")
    new = tuple(sum(col) for col in zip(*mat))
    rays = fan.rays + (new,)
    k = len(fan.rays)
    cones = [c for c in fan.maximal_cones if c != cone]
    for drop in cone:
        cones.append(tuple(sorted([i for i in cone if i != drop] + [k])))
    return Fan(rays, cones, fan.ray_names + (f"e{k}",))


def fan_file(name):
    """The fan of fans/<name>.json."""
    return fan_from_json(json.loads((FANS / f"{name}.json").read_text()))
