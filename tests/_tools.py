"""Builders and oracles that several test modules share and the package
itself has no use for: words of generators, the enumerated elements of a
monoid, a per-key coordinate solver, the denominator of a rational series
as one polynomial, the Hirzebruch fans, the blow-up of a fan at a fixed
point and a reader of the files in fans/."""

import json
from fractions import Fraction
from operator import mul
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


def coordinate_oracle(vectors, rank: int, moduli):
    """Function from one packed key to its unique integer coordinates in
    vectors, None when it is no integer combination of them; None itself
    when their free parts are linearly dependent.  A Gauss-Jordan
    elimination over the rationals and dense dot products, one key at a
    time, sharing no elimination with the package: the reference its
    batch solve is checked against."""
    k = len(vectors)
    # [F | I] with the free parts as the columns of F; F reduces to the
    # first k unit rows exactly when its columns are independent
    rows = [[Fraction(v.free[i]) for v in vectors] + [Fraction(int(i == j)) for j in range(rank)]
            for i in range(rank)]
    for c in range(k):
        t = next((i for i in range(c, rank) if rows[i][c]), None)
        if t is None:
            return None
        rows[c], rows[t] = rows[t], rows[c]
        top = [x / rows[c][c] for x in rows[c]]
        rows = [top if i == c else [x - row[c] * y for x, y in zip(row, top)]
                for i, row in enumerate(rows)]
    inv = [row[k:] for row in rows[:k]]  # inv @ F == I
    packed = [v.packed() for v in vectors]

    def coordinates(key):
        w = [sum(map(mul, row, key[:rank])) for row in inv]
        if any(x.denominator != 1 for x in w):
            return None
        w = [int(x) for x in w]
        s = [sum(v[i] * x for v, x in zip(packed, w)) for i in range(rank + len(moduli))]
        s[rank:] = [x % d for x, d in zip(s[rank:], moduli)]
        return tuple(w) if tuple(s) == key else None

    return coordinates


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
