"""Finitely generated abelian monoids with a positive integer grading.

A monoid here is a finite set of named generators inside a finitely presented
abelian group.  Elements are kept in canonical coordinates derived from the
Smith normal form of the relation matrix: a free part (one coordinate per
infinite cyclic factor) plus torsion residues reduced into [0, d_i).  Words
over the generators that agree modulo the relations therefore canonicalize to
the identical element.

The grading is an integer functional on the free part that is >= 1 on every
generator.  Its existence is exactly what certifies that each graded piece
{elements of degree <= N} is finite, so series truncation makes sense.  We
find it by exact rational optimization (no floats), minimizing the total
degree of the generator list, which reproduces the hand-computed gradings of
the worked examples and is deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import EnumerationLimitError, FiniteFiberError, MCSError
from .intlinalg import (
    kernel_basis,
    mat_vec,
    minimize_linear,
    smith_decomposition,
    solve_integer,
)

__all__ = [
    "MonoidElement",
    "AbelianGroupPresentation",
    "GradedMonoid",
    "MonoidHom",
    "positive_grading",
    "canonicalize",
    "direct_sum",
    "express_in_basis",
    "free_graded_monoid",
    "DEFAULT_MAX_TERMS",
    "max_terms_from_env",
]

DEFAULT_MAX_TERMS = 10 ** 6


def max_terms_from_env() -> int:
    """The term cap: MCS_MAX_TERMS when set, else DEFAULT_MAX_TERMS.

    Raises MCSError when the variable is not a positive integer.
    """
    raw = os.environ.get("MCS_MAX_TERMS", "").strip()
    if not raw:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(raw)
    except ValueError:
        raise MCSError(f"MCS_MAX_TERMS must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise MCSError("MCS_MAX_TERMS must be positive")
    return cap


@dataclass(frozen=True)
class MonoidElement:
    """Canonical coordinates of a group element: free part plus torsion."""

    free: tuple[int, ...]
    torsion: tuple[int, ...] = ()
    moduli: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.torsion) != len(self.moduli):
            raise ValueError("torsion/moduli length mismatch")
        for t, d in zip(self.torsion, self.moduli):
            if d < 2 or not (0 <= t < d):
                raise ValueError("torsion residue out of range")

    def _check(self, other: "MonoidElement") -> None:
        if self.moduli != other.moduli or len(self.free) != len(other.free):
            raise ValueError("elements from different groups")

    def __add__(self, other: "MonoidElement") -> "MonoidElement":
        self._check(other)
        return MonoidElement(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple((a + b) % d for a, b, d in zip(self.torsion, other.torsion, self.moduli)),
            self.moduli,
        )

    def __neg__(self) -> "MonoidElement":
        return MonoidElement(
            tuple(-a for a in self.free),
            tuple((-a) % d for a, d in zip(self.torsion, self.moduli)),
            self.moduli,
        )

    def __sub__(self, other: "MonoidElement") -> "MonoidElement":
        self._check(other)
        return self + (-other)

    def __rmul__(self, n: int) -> "MonoidElement":
        if not isinstance(n, int):
            return NotImplemented
        return MonoidElement(
            tuple(n * a for a in self.free),
            tuple((n * a) % d for a, d in zip(self.torsion, self.moduli)),
            self.moduli,
        )

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def sort_key(self):
        return (self.free, self.torsion)

    def packed(self) -> tuple[int, ...]:
        """Free part then torsion residues as one int tuple.  Within one
        group, packed keys order exactly as sort_key does."""
        return self.free + self.torsion


class AbelianGroupPresentation:
    """Z^m modulo the subgroup spanned by integer relation rows.

    Canonical coordinates come from U in the Smith decomposition of the
    matrix whose columns are the relations; the free rows of U get a
    deterministic sign normalization so that the first generator touching
    each free coordinate has a positive entry there.
    """

    __slots__ = ("num_generators", "relations", "invariants", "rank",
                 "_torsion_pos", "_free_pos", "_u", "_uinv", "_hash")

    def __init__(self, num_generators: int, relations=()):
        m = int(num_generators)
        if m < 0:
            raise ValueError("negative generator count")
        rels = tuple(tuple(int(x) for x in row) for row in relations)
        for row in rels:
            if len(row) != m:
                raise ValueError("relation length differs from generator count")
        self.num_generators = m
        self.relations = rels
        if rels:
            cols = [[rels[j][i] for j in range(len(rels))] for i in range(m)]
            dec = smith_decomposition(cols)
            diag = list(dec.diagonal)
            u = [list(row) for row in dec.U]
            uinv = [list(row) for row in dec.Uinv]
        else:
            diag = []
            u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
            uinv = [row[:] for row in u]
        nonzero = [d for d in diag if d]
        s = len(nonzero)
        self._torsion_pos = tuple(i for i in range(s) if diag[i] > 1)
        self.invariants = tuple(diag[i] for i in self._torsion_pos)
        self._free_pos = tuple(range(s, m))
        self.rank = m - s
        # sign normalization of the free coordinates against the basis images
        for i in self._free_pos:
            lead = next((u[i][j] for j in range(m) if u[i][j]), 0)
            if lead < 0:
                u[i] = [-x for x in u[i]]
                for row in uinv:
                    row[i] = -row[i]
        self._u = tuple(tuple(row) for row in u)
        self._uinv = tuple(tuple(row) for row in uinv)
        self._hash = hash((m, rels))

    def __eq__(self, other):
        if not isinstance(other, AbelianGroupPresentation):
            return NotImplemented
        return (self.num_generators == other.num_generators
                and self.relations == other.relations)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        tors = f" x Z/{list(self.invariants)}" if self.invariants else ""
        return f"<group Z^{self.rank}{tors} on {self.num_generators} generators>"

    def project(self, vec) -> MonoidElement:
        """Canonical coordinates of an ambient integer vector."""
        v = [int(x) for x in vec]
        if len(v) != self.num_generators:
            raise ValueError("ambient vector has wrong length")
        y = mat_vec([list(r) for r in self._u], v)
        free = tuple(y[i] for i in self._free_pos)
        torsion = tuple(y[i] % d for i, d in zip(self._torsion_pos, self.invariants))
        return MonoidElement(free, torsion, self.invariants)

    def lift(self, e: MonoidElement) -> list[int]:
        """Some ambient vector projecting to e."""
        if e.moduli != self.invariants or len(e.free) != self.rank:
            raise ValueError("element not in this group")
        y = [0] * self.num_generators
        for pos, val in zip(self._torsion_pos, e.torsion):
            y[pos] = val
        for pos, val in zip(self._free_pos, e.free):
            y[pos] = val
        return mat_vec([list(r) for r in self._uinv], y)

    @property
    def zero(self) -> MonoidElement:
        return MonoidElement((0,) * self.rank,
                             tuple(0 for _ in self.invariants), self.invariants)

    def unpack(self, key) -> MonoidElement:
        """The element whose packed key is key."""
        return MonoidElement(key[:self.rank], key[self.rank:], self.invariants)

    def packed_adder(self):
        """Function summing two packed keys of this group."""
        moduli = self.invariants
        if not moduli:
            return lambda a, b: tuple(map(add, a, b))
        r = self.rank

        def add_packed(a, b):
            s = list(map(add, a, b))
            s[r:] = [x % d for x, d in zip(s[r:], moduli)]
            return tuple(s)

        return add_packed

    def basis_images(self) -> list[MonoidElement]:
        out = []
        for j in range(self.num_generators):
            vec = [0] * self.num_generators
            vec[j] = 1
            out.append(self.project(vec))
        return out


def positive_grading(generators, rank: int) -> tuple[int, ...]:
    """Integer functional on the free part with value >= 1 on each generator.

    Raises FiniteFiberError when none exists (then degree fibers would be
    infinite and series over the monoid are meaningless).  Among feasible
    functionals we take one minimizing the total degree of the generator
    list, exactly; ties are settled by the deterministic back-substitution
    of the rational optimizer.
    """
    gens = list(generators)
    for g in gens:
        if not any(g.free) and any(g.torsion):
            raise FiniteFiberError(
                "generator of finite order admits no positive grading")
        if g.is_zero():
            raise FiniteFiberError("zero generator admits no positive grading")
    if rank == 0:
        return ()
    seen = []
    for g in gens:
        if g.free not in seen:
            seen.append(g.free)
    cons = [(f, 1) for f in seen]
    objective = [sum(g.free[i] for g in gens) for i in range(rank)]
    result = minimize_linear(rank, objective, cons, "grading")
    if result is None:
        raise FiniteFiberError("no strictly positive grading exists")
    _, point = result
    denom = 1
    for x in point:
        denom = denom * x.denominator // _gcd(denom, x.denominator)
    w = [int(x * denom) for x in point]
    g = 0
    for x in w:
        g = _gcd(g, x)
    if g > 1:
        reduced = [x // g for x in w]
        if all(sum(r * f for r, f in zip(reduced, gen.free)) >= 1 for gen in gens):
            w = reduced
    for gen in gens:
        if sum(wi * fi for wi, fi in zip(w, gen.free)) < 1:
            raise FiniteFiberError("no strictly positive grading exists")
    return tuple(w)


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


class GradedMonoid:
    """Named generators inside a presented group, graded positively."""

    __slots__ = ("group", "names", "generators", "grading", "_enum_cache", "_by_name")

    def __init__(self, group: AbelianGroupPresentation, names, generators,
                 grading: tuple[int, ...] | None = None):
        names = tuple(names)
        gens = tuple(generators)
        if len(names) != len(gens):
            raise ValueError("one name per generator required")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for g in gens:
            if g.moduli != group.invariants or len(g.free) != group.rank:
                raise ValueError("generator not in the given group")
        self.group = group
        self.names = names
        self.generators = gens
        if grading is None:
            grading = positive_grading(gens, group.rank)
        else:
            grading = tuple(int(x) for x in grading)
            if len(grading) != group.rank:
                raise ValueError("grading length differs from group rank")
            for g in gens:
                if sum(w * f for w, f in zip(grading, g.free)) < 1:
                    raise FiniteFiberError("given grading is not positive on generators")
        self.grading = grading
        self._enum_cache: tuple[int, dict] | None = None
        self._by_name = {n: g for n, g in zip(names, gens)}

    def __eq__(self, other):
        if not isinstance(other, GradedMonoid):
            return NotImplemented
        return (self.group == other.group and self.names == other.names
                and self.generators == other.generators
                and self.grading == other.grading)

    def __hash__(self):
        return hash((self.group, self.names, self.generators, self.grading))

    def __repr__(self):
        return f"<monoid on {', '.join(self.names)} in {self.group!r}>"

    @property
    def zero(self) -> MonoidElement:
        return self.group.zero

    def generator_named(self, name: str) -> MonoidElement:
        return self._by_name[name]

    def degree(self, e: MonoidElement) -> int:
        return sum(w * f for w, f in zip(self.grading, e.free))

    # -- enumeration

    def _enumerate(self, bound: int, max_terms: int | None) -> dict:
        """Packed key -> (degree, word) for every element of degree <= bound.

        Breadth-first from zero, generators in order; each element keeps the
        word it was first reached by.  Every prefix of a word for e has
        degree <= deg e, so elements above deg e never change which word e
        gets: a table built for a larger bound gives the same words, and the
        cached table is reused for every smaller bound.
        """
        if self._enum_cache is not None and self._enum_cache[0] >= bound:
            return self._enum_cache[1]
        cap = max_terms if max_terms is not None else max_terms_from_env()
        plus = self.group.packed_adder()
        gens = [g.packed() for g in self.generators]
        degs = [self.degree(g) for g in self.generators]
        zero = self.zero.packed()
        found: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {
            zero: (0, (0,) * len(gens))}
        frontier = [zero]
        while frontier:
            nxt = []
            for e in frontier:
                d0, word = found[e]
                for i, g in enumerate(gens):
                    d = d0 + degs[i]
                    if d > bound:
                        continue
                    e2 = plus(e, g)
                    if e2 in found:
                        continue
                    w2 = list(word)
                    w2[i] += 1
                    found[e2] = (d, tuple(w2))
                    if len(found) > cap:
                        raise EnumerationLimitError(
                            f"more than {cap} elements below degree {bound}")
                    nxt.append(e2)
            frontier = nxt
        self._enum_cache = (bound, found)
        return found

    def _key(self, e: MonoidElement) -> tuple[int, ...]:
        if e.moduli != self.group.invariants or len(e.free) != self.group.rank:
            raise ValueError("element is not in the monoid's group")
        return e.packed()

    def elements_up_to(self, bound: int, max_terms: int | None = None):
        """All monoid elements of degree <= bound as (element, degree) pairs."""
        found = self._enumerate(max(bound, 0), max_terms)
        out = sorted((dw[0], key) for key, dw in found.items() if dw[0] <= bound)
        return [(self.group.unpack(key), d) for d, key in out]

    def word_for(self, e: MonoidElement) -> tuple[int, ...]:
        """A representative generator word for an effective element."""
        key = self._key(e)
        d = self.degree(e)
        if d < 0:
            raise ValueError("element has negative degree; not in the monoid")
        try:
            return self._enumerate(d, None)[key][1]
        except KeyError:
            raise ValueError("element is not a sum of monoid generators") from None

    def contains(self, e: MonoidElement) -> bool:
        if e.moduli != self.group.invariants or len(e.free) != self.group.rank:
            return False
        if e in self.generators:
            return True
        d = self.degree(e)
        if d < 0:
            return False
        if d == 0:
            return e.is_zero()
        return e.packed() in self._enumerate(d, None)

    def _format_word(self, word) -> str:
        parts = []
        for name, k in zip(self.names, word):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts) or "1"

    def format_element(self, e: MonoidElement) -> str:
        """Multiplicative word in generator names, e.g. 't0*s1^2'; '1' for 0."""
        return self._format_word(self.word_for(e))

    def format_elements(self, elements) -> list[str]:
        """format_element of each element, from one enumeration up to the
        largest degree among them."""
        elements = list(elements)
        if not elements:
            return []
        keys = [self._key(e) for e in elements]
        bound = max(self.degree(e) for e in elements)
        found = self._enumerate(max(bound, 0), None)
        try:
            return [self._format_word(found[k][1]) for k in keys]
        except KeyError:
            raise ValueError("element is not a sum of monoid generators") from None


def canonicalize(exponents, monoid: GradedMonoid) -> MonoidElement:
    """Image of a generator word; words equal modulo relations agree here."""
    exps = list(exponents)
    if len(exps) != len(monoid.generators):
        raise ValueError("word length differs from generator count")
    e = monoid.zero
    for k, g in zip(exps, monoid.generators):
        if k < 0:
            raise ValueError("negative exponent in a monoid word")
        if k:
            e = e + k * g
    return e


def free_graded_monoid(names) -> GradedMonoid:
    """Z_{>=0}^k on the given generator names."""
    names = tuple(names)
    group = AbelianGroupPresentation(len(names))
    return GradedMonoid(group, names, group.basis_images())


def express_in_basis(e: MonoidElement, basis) -> tuple[int, ...]:
    """Integer coordinates of e in a free basis of the group.

    Requires a torsion-free element and an actual basis (unique solution);
    raises ValueError when no integer solution exists.
    """
    basis = list(basis)
    if any(e.torsion) or any(any(b.torsion) for b in basis):
        raise ValueError("express_in_basis handles torsion-free parts only")
    rank = len(e.free)
    mat = [[b.free[i] for b in basis] for i in range(rank)]
    sol = solve_integer(mat, list(e.free))
    if sol is None:
        raise ValueError("element is not an integer combination of the basis")
    return tuple(sol)


class MonoidHom:
    """Monoid homomorphism given by generator images.

    Checked on construction: every image must be effective in the target and
    the images must satisfy the source relations (so the map is well defined
    on canonical elements, not just on words).
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: GradedMonoid, target: GradedMonoid, images, check=True):
        images = tuple(images)
        if len(images) != len(source.generators):
            raise ValueError("one image per source generator required")
        for img in images:
            if img.moduli != target.group.invariants or len(img.free) != target.group.rank:
                raise ValueError("image not in the target group")
        self.source = source
        self.target = target
        self.images = images
        if check:
            for img in images:
                if not target.contains(img):
                    raise ValueError("image is not effective in the target")
            for z in self._word_kernel_basis():
                acc = target.zero
                for zi, img in zip(z, images):
                    if zi:
                        acc = acc + zi * img
                if not acc.is_zero():
                    raise ValueError("images do not satisfy the source relations")

    def _word_kernel_basis(self):
        """Basis of {z : sum z_i gen_i = 0 in the source group}."""
        gens = self.source.generators
        g = len(gens)
        rank = self.source.group.rank
        moduli = self.source.group.invariants
        tq = len(moduli)
        rows = []
        for i in range(rank):
            rows.append([gen.free[i] for gen in gens] + [0] * tq)
        for i, d in enumerate(moduli):
            row = [gen.torsion[i] for gen in gens]
            row += [d if j == i else 0 for j in range(tq)]
            rows.append(row)
        if not rows:
            return []
        return [z[:g] for z in kernel_basis(rows)]

    def apply(self, e: MonoidElement) -> MonoidElement:
        word = self.source.word_for(e)
        acc = self.target.zero
        for k, img in zip(word, self.images):
            if k:
                acc = acc + k * img
        return acc

    def __call__(self, e: MonoidElement) -> MonoidElement:
        return self.apply(e)

    def grading_compatible(self) -> bool:
        return all(self.target.degree(img) >= 1 for img in self.images)

    def degree_ratio(self) -> Fraction:
        """max deg_source(g) / deg_target(image of g); bounds safe truncation."""
        best = Fraction(0)
        for g, img in zip(self.source.generators, self.images):
            ratio = Fraction(self.source.degree(g), self.target.degree(img))
            if ratio > best:
                best = ratio
        return best


def direct_sum(a: GradedMonoid, b: GradedMonoid):
    """Direct sum monoid with the two injections; degrees add blockwise."""
    m1, m2 = a.group.num_generators, b.group.num_generators
    rels = [row + (0,) * m2 for row in a.group.relations]
    rels += [(0,) * m1 + row for row in b.group.relations]
    group = AbelianGroupPresentation(m1 + m2, rels)

    def inj_elems(mono, pad_left, pad_right):
        out = []
        for g in mono.generators:
            x = mono.group.lift(g)
            out.append(group.project([0] * pad_left + x + [0] * pad_right))
        return out

    gens_a = inj_elems(a, 0, m2)
    gens_b = inj_elems(b, m1, 0)
    if set(a.names) & set(b.names):
        names = tuple(f"{n}1" for n in a.names) + tuple(f"{n}2" for n in b.names)
    else:
        names = a.names + b.names

    # pull the blockwise grading through the new canonical coordinates
    phi = [0] * (m1 + m2)
    for i, pos in enumerate(a.group._free_pos):
        for k in range(m1):
            phi[k] += a.grading[i] * a.group._u[pos][k]
    for i, pos in enumerate(b.group._free_pos):
        for k in range(m2):
            phi[m1 + k] += b.grading[i] * b.group._u[pos][k]
    grading = tuple(
        sum(phi[k] * group._uinv[k][pos] for k in range(m1 + m2))
        for pos in group._free_pos)

    total = GradedMonoid(group, names, tuple(gens_a) + tuple(gens_b), grading)
    inj1 = MonoidHom(a, total, gens_a, check=False)
    inj2 = MonoidHom(b, total, gens_b, check=False)
    return total, inj1, inj2
