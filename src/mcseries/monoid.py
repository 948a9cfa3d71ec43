"""Finitely generated abelian monoids with a positive integer grading.

A monoid here is a finite set of named generators inside a finitely presented
abelian group.  Elements are kept in canonical coordinates derived from the
Smith normal form of the relation matrix: a free part (one coordinate per
infinite cyclic factor) plus torsion residues reduced into [0, d_i).  Words
over the generators that agree modulo the relations therefore canonicalize to
the identical element.  The coordinates are made in one place, the
constructor of AbelianGroupPresentation, which keeps two matrices: the
projection from ambient vectors to canonical coordinates and the lift from
canonical coordinates back to an ambient vector.  Series keep each class
as its packed key (MonoidElement.packed) from expansion to output, and
unpack a MonoidElement only for a library caller.  The hot loop, the
expansion passes of GradedMonoid._expand, carries each key as one int
instead (AbelianGroupPresentation.codes) and decodes once at its end.

The grading is an integer functional on the free part that is >= 1 on every
generator.  Its existence is exactly what certifies that each graded piece
{elements of degree <= N} is finite, so series truncation makes sense.  We
find it by exact rational optimization (no floats), see positive_grading.

A class is written as a word in the generators.  When their free parts are
linearly independent, as for the colinear blow-up, the word is unique: its
coordinates.  A left inverse is solved for once per monoid, and the words
of a whole key list come from one column-wise solve (_coordinate_solver):
each word column a sum of key columns weighted by the nonzero entries of
an inverse row, each check a pass over whole columns.  Otherwise
(every toric monoid) the word follows one rule: a shortest word, ties going
to the lexicographically greatest exponent vector, that is the most copies
of generator 0, then of generator 1, and so on; a generator is its own
letter, the least one among equal generators, and the zero class the empty
word, the first entries of the one word table (GradedMonoid._table).  The
other words are recorded by the expansion passes of prod_i 1/(1 - t^g_i),
which reach every element of degree <= N:
the first pass of generator i keeps word(x + g_i) = min(word(x + g_i),
word(x) + e_i) in ascending degree, each word an int cost in mixed radix
(GradedMonoid._word_costs).  The rule's order does not change when the same
vector is added to both words, so this gives the least word whatever the
order of the generators.  toric.mc_series_toric is that product, so its
pretty expansion records the words as it expands, for its own series
(series.rational_expand); a word query enumerates the monoid by the same
passes (GradedMonoid._enumerate) into the word table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from itertools import chain, compress, count, repeat
from operator import add, mul, ne

from .errors import MCSError, check_cap
from .intlinalg import (
    kernel_basis,
    left_inverse,
    mat_vec,
    minimize_linear,
    smith_decomposition,
)

__all__ = [
    "MonoidElement",
    "AbelianGroupPresentation",
    "GradedMonoid",
    "MonoidHom",
    "positive_grading",
    "direct_sum",
    "express_keys_in_basis",
    "free_graded_monoid",
]


def _place_values(radices) -> tuple[list[int], int]:
    """Mixed-radix place values, most significant first, and their radix product."""
    weights, w = [], 1
    for radix in reversed(radices):
        weights.append(w)
        w *= radix
    weights.reverse()
    return weights, w


@dataclass(frozen=True)
class MonoidElement:
    """Canonical coordinates of a group element: free part plus torsion."""

    free: tuple[int, ...]
    torsion: tuple[int, ...] = ()
    moduli: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.torsion) != len(self.moduli):
            raise MCSError("torsion/moduli length mismatch")
        for t, d in zip(self.torsion, self.moduli):
            if d < 2 or not (0 <= t < d):
                raise MCSError("torsion residue out of range")

    def _check(self, other: "MonoidElement") -> None:
        if self.moduli != other.moduli or len(self.free) != len(other.free):
            raise MCSError("elements from different groups")

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

    def packed(self) -> tuple[int, ...]:
        """Free part then torsion residues as one int tuple.  Within one
        group the free parts have one length, so packed keys order the
        elements by free part, then by torsion."""
        return self.free + self.torsion


class AbelianGroupPresentation:
    """Z^m modulo the subgroup spanned by integer relation rows.

    Canonical coordinates come from the Smith decomposition U A V = D of
    the m x len(relations) matrix A whose columns are the relations; with
    no relations A is m x 0, and U = U^-1 = I.  Two matrices are kept:
    the projection, the rows of U at the free and then the torsion positions
    of D (the packed-key order), and the lift, the matching columns of U^-1.
    An ambient vector v has coordinates projection @ v, torsion reduced mod
    its invariant, and lift @ y is an ambient vector with coordinates y.
    Each free row of the projection is sign-normalized, together with its
    lift column, so that its first nonzero entry is positive.
    """

    __slots__ = ("num_generators", "relations", "invariants", "rank",
                 "_projection", "_lift", "_hash")

    def __init__(self, num_generators: int, relations=()):
        m = int(num_generators)
        if m < 0:
            raise MCSError("negative generator count")
        rels = tuple(tuple(map(int, row)) for row in relations)
        for row in rels:
            if len(row) != m:
                raise MCSError("relation length differs from generator count")
        self.num_generators = m
        self.relations = rels
        dec = smith_decomposition([[r[i] for r in rels] for i in range(m)], keep_v=False)
        diag, u, uinv, s = dec.diagonal, dec.U, dec.Uinv, dec.rank
        torsion_pos = [i for i in range(s) if diag[i] > 1]
        keep = [*range(s, m), *torsion_pos]
        self.rank = m - s
        self.invariants = tuple(diag[i] for i in torsion_pos)
        proj = [u[i] for i in keep]
        lift = [[row[i] for i in keep] for row in uinv]
        for i in range(self.rank):
            if next(x for x in proj[i] if x) < 0:
                proj[i] = [-x for x in proj[i]]
                for row in lift:
                    row[i] = -row[i]
        self._projection = tuple(tuple(row) for row in proj)
        self._lift = tuple(tuple(row) for row in lift)
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

    def __contains__(self, e: MonoidElement) -> bool:
        """Whether e has this group's rank and torsion moduli."""
        return e.moduli == self.invariants and len(e.free) == self.rank

    def project(self, vec) -> MonoidElement:
        """Canonical coordinates of an ambient integer vector."""
        v = [int(x) for x in vec]
        if len(v) != self.num_generators:
            raise MCSError("ambient vector has wrong length")
        return self.unpack(mat_vec(self._projection, v))

    def lift(self, e: MonoidElement) -> list[int]:
        """Some ambient vector projecting to e."""
        if e not in self:
            raise ValueError("element not in this group")
        return mat_vec(self._lift, e.packed())

    @property
    def zero(self) -> MonoidElement:
        return self.unpack((0,) * (self.rank + len(self.invariants)))

    def unpack(self, key) -> MonoidElement:
        """The element with packed coordinates key (free part, then torsion),
        torsion reduced; series unpack a class only for a library caller."""
        r = self.rank
        return MonoidElement(tuple(key[:r]), tuple(
            x % d for x, d in zip(key[r:], self.invariants)), self.invariants)

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

    def codes(self, span):
        """Integer class codes for a hot loop: (zero, encode, decode, fold).

        A packed key (free part, then torsion residues) becomes one int in
        mixed radix, digits most significant first: free coordinate p is
        the digit x_p + span[p] in radix 2*span[p] + 1, torsion residue j
        the digit itself in radix 2*d_j.  So codes order as their packed
        keys do, and encode(key) == zero + shift(key) with shift(key) the
        dot product of key with the digit weights: adding shift(x) to the
        code of y gives the code of x + y, provided each free coordinate
        of x + y lies in [-span[p], span[p]] and fold (None for a group
        without torsion) then subtracts d_j from a torsion digit that
        reached d_j.  Two reduced residues sum to less than 2*d_j, so a
        torsion digit never carries.  A span too small for the loop's
        classes silently merges them: each caller derives its spans from
        its own bound on the classes it can make, and says why.

        decode maps a sequence of codes to their packed keys, one
        comprehension per coordinate, so the loop decodes once at its end.
        """
        radices = [2 * s + 1 for s in span] + [2 * d for d in self.invariants]
        offsets = [*span] + [0] * len(self.invariants)
        weights, _ = _place_values(radices)
        zero = sum(map(mul, span, weights))

        def encode(key):
            return zero + sum(map(mul, key, weights))

        def decode(codes):
            cols = [[c // w % radix - off for c in codes]
                    for w, radix, off in zip(weights, radices, offsets)]
            return list(zip(*cols)) if cols else [()] * len(codes)

        if not self.invariants:
            return zero, encode, decode, None
        torsion = [(w, 2 * d, d * w, d) for w, d in
                   zip(weights[self.rank:], self.invariants)]

        def fold(c):
            for w, radix, dw, d in torsion:
                if c // w % radix >= d:
                    c -= dw
            return c

        return zero, encode, decode, fold

    def basis_images(self) -> list[MonoidElement]:
        """project of each unit vector: column j of the projection."""
        rows = self._projection
        return [self.unpack([row[j] for row in rows])
                for j in range(self.num_generators)]


def positive_grading(generators, rank: int) -> tuple[int, ...]:
    """Integer functional on the free part with value >= 1 on each generator.

    Raises MCSError when none exists (then degree fibers would be
    infinite and series over the monoid are meaningless).  The total degree
    of the generator list is minimized over rational functionals, and the
    lexicographically least optimal point of intlinalg.minimize_linear is
    scaled to integers, which can exceed the integral minimum: one 9-ray
    surface, in other ray coordinates, gets total degree 22 for 11.
    """
    gens = list(generators)
    for g in gens:
        if not any(g.free) and any(g.torsion):
            raise MCSError(
                "generator of finite order admits no positive grading")
        if g.is_zero():
            raise MCSError("zero generator admits no positive grading")
    if rank == 0:
        return ()
    cons = [(f, 1) for f in dict.fromkeys(g.free for g in gens)]
    objective = [sum(g.free[i] for g in gens) for i in range(rank)]
    result = minimize_linear(rank, objective, cons, "grading")
    if result is None:
        raise MCSError("no strictly positive grading exists")
    _, point = result
    denom = lcm(*(x.denominator for x in point))
    # w is primitive: some w.gen is denom at the optimum, so a common
    # factor of w would divide denom and make a smaller common denominator.
    # And w >= 1 on every generator: point.f >= 1 is a constraint for each
    # free part f, so w.f = denom * (point.f) >= denom >= 1
    return tuple(int(x * denom) for x in point)


def _weighted_sums(rows, columns, n: int) -> list:
    """For each row of (x, i) pairs, sum x * columns[i] as a sequence of n
    ints: one chain of C-level maps, so the work is one add per entry and
    pair, and a lone column of weight 1 is that column itself."""
    out = []
    for terms in rows:
        acc = None
        for x, i in terms:
            col = columns[i] if x == 1 else map(mul, columns[i], repeat(x))
            acc = col if acc is None else map(add, acc, col)
        out.append([0] * n if acc is None else list(acc) if type(acc) is map else acc)
    return out


def _positions(flags) -> set[int]:
    """The positions of the true flags."""
    return set(compress(count(), flags))


def _coordinate_solver(vectors, rank: int, moduli):
    """Batch solve for coordinates in vectors: a function from a list of
    packed keys to (columns, failed), or None when the free parts of the
    vectors are linearly dependent.  columns[j][t] is the coefficient of
    vectors[j] in keys[t], and failed the set of positions t whose key is
    no integer combination of the vectors, or, with nonnegative, has a
    negative coefficient; the columns at failed positions mean nothing.

    The left inverse M (M @ F == p * I for the free parts F as columns) is
    solved for once.  The keys are transposed into coordinate columns
    once, and each word column is the sum of the key columns weighted by
    the nonzero entries of its row of M, divided by p; a basis with few
    nonzeros in its inverse, as the colinear one (at most 2 a row), costs
    O(rank) a key, not O(rank^2).  Each check is a pass over whole
    columns: divisibility by p, and the rows of the vectors that the
    inverse does not pin down (the free rows when there are fewer vectors
    than the rank; a square F has F @ M == p * I, so there they hold
    already), then the torsion rows mod d, summed back from the words and
    compared with the key columns."""
    if len(vectors) > rank:  # more vectors than dimensions: dependent
        return None
    inverse = left_inverse([v.free for v in vectors], rank)
    if inverse is None:
        return None
    inv, p = inverse
    solve_rows = [[(x, i) for i, x in enumerate(row) if x] for row in inv]
    first = rank if len(vectors) == rank else 0
    packed = [v.packed() for v in vectors]
    checks = range(first, rank + len(moduli))
    check_rows = [[(v[i], j) for j, v in enumerate(packed) if v[i]] for i in checks]
    check_moduli = [moduli[i - rank] if i >= rank else None for i in checks]

    def solve(keys, nonnegative=False):
        n = len(keys)
        columns = list(zip(*keys)) if n else [()] * (rank + len(moduli))
        words = _weighted_sums(solve_rows, columns, n)
        failed = set()
        if p > 1:
            for col in words:
                if any(map(p.__rmod__, col)):
                    failed |= _positions(map(p.__rmod__, col))
            words = [list(map(p.__rfloordiv__, col)) for col in words]
        sums = _weighted_sums(check_rows, words, n)
        for i, s, d in zip(checks, sums, check_moduli):
            if d is not None:
                s = list(map(d.__rmod__, s))
            if any(map(ne, s, columns[i])):
                failed |= _positions(map(ne, s, columns[i]))
        if nonnegative and min(chain.from_iterable(words), default=0) < 0:
            # the keys with a negative coordinate: 0 > their least one
            failed |= _positions(map((0).__gt__, map(min, zip(*words))))
        return words, failed

    return solve


class GradedMonoid:
    """Named generators inside a presented group, graded positively."""

    __slots__ = ("group", "names", "generators", "grading", "_table",
                 "_reach", "_solve", "_by_name")

    def __init__(self, group: AbelianGroupPresentation, names, generators,
                 grading: tuple[int, ...] | None = None):
        names = tuple(names)
        gens = tuple(generators)
        if len(names) != len(gens):
            raise MCSError("one name per generator required")
        if len(set(names)) != len(names):
            raise MCSError("duplicate generator names")
        for g in gens:
            if g not in group:
                raise MCSError("generator not in the given group")
        self.group = group
        self.names = names
        self.generators = gens
        if grading is None:
            grading = positive_grading(gens, group.rank)
        else:
            grading = tuple(int(x) for x in grading)
            if len(grading) != group.rank:
                raise MCSError("grading length differs from group rank")
            for g in gens:
                if sum(w * f for w, f in zip(grading, g.free)) < 1:
                    raise MCSError("given grading is not positive on generators")
        self.grading = grading
        self._solve = None  # built by _words at the first query
        self._by_name = {n: g for n, g in zip(names, gens)}
        # packed key -> word: the generator letters, the least i among equal
        # generators, the empty word, and every element of degree <= _reach
        n = len(gens)
        self._table = {g.packed(): tuple(int(j == i) for j in range(n))
                       for i, g in reversed(list(enumerate(gens)))}
        self._table[group.zero.packed()] = (0,) * n
        self._reach = -1

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

    # -- expansion passes, enumeration and words

    def _expand(self, numerator, factors, truncation: int, stage: str,
                unit: str = "terms", words: bool = False):
        """The terms of numerator / prod (1 - c t^alpha)^e to degree
        truncation, as (degrees, packed keys, coefficients, words) in term
        order.  numerator holds (degree, packed key, coefficient) rows of
        degree <= truncation, factors (c, alpha, e) triples; a coefficient
        is an int or a KElement.

        Dividing by (1 - c t^alpha)^k = sum_i p_i t^(i*alpha) is one pass
        over the degree buckets in increasing order: each finished bucket
        pushes a[b + i*alpha] -= p_i*a[b] for 1 <= i <= min(k, K), K =
        truncation // deg alpha; for k = 1 that is a[b + alpha] += c*a[b].
        Each p_i is made just before its first push, after the cap checks of
        the pushes before it.  A factor of exponent e <= K takes e passes
        with k = 1; past K, one pass with k = 1 and one with k = e - 1, so
        the time stops growing with e.  A bucket whose terms all cancelled
        pushes nothing, so no pass walks the empty degrees above it.

        Classes are int codes (AbelianGroupPresentation.codes) in the loop,
        decoded to packed keys once, at the end.  Every term is a numerator
        class plus sum_j n_j alpha_j, so free coordinate p gets the span
        max |x_p| over the numerator classes plus sum_j |alpha_jp| s_j,
        where s_j bounds n_j: K_j always, as every other part of a term has
        degree >= 0; and (cap + 1) * e_j when factor j takes only passes
        with k = 1, as the keys that push in such a pass are popped, final
        and live until the pass ends, so a chain of m pushes leaves m + 1
        live terms and trips the cap first.  A span from the truncation
        alone would make each digit as wide as the truncation.

        The running term count is checked as each new term appears; passing
        the MCS_MAX_TERMS cap raises EnumerationLimitError, whose message
        names stage and counts unit.

        With words, and when the numerator is 1, every c is 1 and the
        factor classes are exactly the generators, the terms are the
        monoid's elements of degree <= truncation, and the first pass of
        each factor records their words by the word rule (module
        docstring), each an int cost (_word_costs).  That pass has k = 1
        and w = 1, and nothing cancels in it, so the count and the cap
        verdict are those of a pass that records nothing.  words is then
        the exponent column of each generator, in term order, decoded from
        the costs.  Otherwise words is None.  Nothing is kept on self.
        """
        count = len(numerator)
        cap = check_cap(stage, count, unit)
        # max |x_p| over the numerator classes; the zero row stops zip at the rank
        span = [max(map(abs, col)) for col in zip((0,) * self.group.rank,
                                                  *(key for _, key, _ in numerator))]
        # the k of each pass of each factor: up to e = K, e passes with k = 1,
        # as one pass with k = e would multiply big weights by big
        # coefficients.  Past K, a pass with k = 1 first, so that a term cap
        # trips on small coefficients, then k = e - 1.  (range, unlike
        # repeat, takes an e past sys.maxsize, where the first pass trips
        # the cap.)
        plans = []
        for c, alpha, e in factors:
            step = self.degree(alpha)
            n = truncation // step
            if e <= max(1, n):
                ks, n = (1 for _ in range(e)), min(n, (cap + 1) * e)
            else:
                ks = (1, e - 1)
            span = [s + abs(x) * n for s, x in zip(span, alpha.free)]
            plans.append((c, alpha, step, ks))
        zero, encode, decode, fold = self.group.codes(span)

        # degree -> {class code: nonzero coefficient}
        buckets: dict[int, dict[int, object]] = {}
        for d, key, c in numerator:
            buckets.setdefault(d, {})[encode(key)] = c
        costs = None  # class code -> cost of its word, while words are recorded
        if (words and numerator == [(0, self.zero.packed(), 1)]
                and all(c == 1 for c, _, _ in factors)
                and {alpha for _, alpha, _ in factors} == set(self.generators)):
            start, letter_costs, columns = self._word_costs(truncation, cap)
            costs = {zero: start}
        for c, alpha, step, ks in plans:
            a = encode(alpha.packed()) - zero
            # the cost of alpha's letter, added in its first pass only
            letter = None if costs is None else letter_costs[alpha.packed()]
            for k in ks:
                # push i + 1 has the weight -p_(i+1) = (-1)^i C(k, i + 1) c^(i+1),
                # whether it is 1, the code shift of (i + 1)*alpha and its
                # degree, made just before its first push
                pushes = [(k * c, k * c == 1, a, step)]
                binom, power = k, c
                todo = sorted(d for d in buckets if d + step <= truncation)
                while todo:
                    d = heappop(todo)
                    src = buckets[d]
                    if not src:
                        continue
                    room = truncation - d
                    for i in range(k):
                        if i == len(pushes):
                            if (i + 1) * step > room:
                                break
                            binom = binom * (k - i) // (i + 1)
                            power = power * c
                            w = (-binom if i % 2 else binom) * power
                            shift = pushes[-1][2] + a
                            if fold:
                                shift = fold(zero + shift) - zero
                            pushes.append((w, w == 1, shift, (i + 1) * step))
                        w, one, shift, off = pushes[i]
                        if off > room:
                            break
                        d2 = d + off
                        dst = buckets.get(d2)
                        if dst is None:
                            dst = buckets[d2] = {}
                            if d2 + step <= truncation:
                                heappush(todo, d2)
                        for key, v in src.items():
                            key2 = key + shift
                            if fold:
                                key2 = fold(key2)
                            inc = v if one else w * v
                            old = dst.get(key2)
                            if old is None:
                                dst[key2] = inc
                                if letter is not None:
                                    costs[key2] = costs[key] + letter
                                count += 1
                                if count > cap:
                                    check_cap(stage, count, unit, cap=cap)
                                continue
                            new = old + inc
                            if new == 0:
                                del dst[key2]
                                count -= 1
                            else:
                                dst[key2] = new
                            if letter is not None:
                                cost = costs[key] + letter
                                if cost < costs[key2]:
                                    costs[key2] = cost
                letter = None
        items = [(d, key, v) for d in sorted(buckets) for key, v in sorted(buckets[d].items())]
        degrees, codes, coeffs = zip(*items) if items else ((), (), ())
        keys = decode(codes)
        if costs is None:
            return degrees, keys, coeffs, None
        return degrees, keys, coeffs, columns([costs[c] for c in codes])

    def _word_costs(self, bound: int, cap: int):
        """Words as int costs for the expansion passes: (start,
        letter_costs, columns).

        The word k (k_i copies of generator i) costs sum(k) * W + sum_i
        (s_i - k_i) * W_i, in mixed radix s_i + 1 with W_i the product of
        the radices after i and W that of all.  While 0 <= k_i <= s_i the
        costs order as the words do under the word rule (module docstring),
        and the cost of k + u is that of k plus sum(u) * W - sum_i u_i W_i.
        A word of degree <= bound has k_i <= bound // deg g_i.  A word of x
        with k_i copies of g_i is made when the k_i + 1 classes x - j*g_i,
        0 <= j <= k_i, are live terms (no term cancels here), so past cap
        copies the cap trips first: s_i = min(bound // deg g_i, cap + 1),
        bounded as the class code spans are.

        start is the cost of the empty word, letter_costs maps each
        generator's packed key to the cost W - W_i of its letter, the least
        i among equal generators, and columns maps a list of costs to the
        exponent column of each generator, one comprehension per generator.
        """
        sizes = [min(bound // self.degree(g), cap + 1) for g in self.generators]
        weights, w = _place_values([s + 1 for s in sizes])
        letter_costs = {g.packed(): w - wi for g, wi in
                        reversed(list(zip(self.generators, weights)))}

        def columns(costs):
            return [[s - c // wi % (s + 1) for c in costs]
                    for s, wi in zip(sizes, weights)]

        return w - 1, letter_costs, columns

    def _enumerate(self, bound: int) -> dict:
        """Packed key -> word of every element of degree <= bound: the
        classes of prod_i 1/(1 - t^g_i) to degree bound, whose expansion
        passes record their words (the word rule of the module docstring).
        The cap message names the monoid enumeration and counts elements."""
        _, keys, _, cols = self._expand(
            [(0, self.zero.packed(), 1)],
            [(1, g, 1) for g in dict.fromkeys(self.generators)],
            bound, f"monoid enumeration to degree {bound}", "elements", words=True)
        return dict(zip(keys, zip(*cols))) if cols else dict.fromkeys(keys, ())

    def _words(self, keys, bound: int | None = None):
        """The words of packed keys as (columns, failed): the exponent
        column of each generator, and the set of positions whose key is not
        in the monoid, where the columns mean nothing.  bound is at least
        the degree of each member; by default the largest degree of the
        keys, found only when the table must grow.  The words are read from
        the word table when all keys are in it, else from one batch solve
        of all keys when the generators have linearly independent free
        parts, else from the table once it reaches bound.  _reach is set
        only after the enumeration returns: one stopped at the cap leaves
        it as it was."""
        table = self._table
        if not all(map(table.__contains__, keys)):
            if self._solve is None:
                self._solve = _coordinate_solver(
                    self.generators, self.group.rank, self.group.invariants) or False
            if self._solve:
                return self._solve(keys, True)
            if bound is None:
                bound = max(sum(map(mul, self.grading, key)) for key in keys)
            if self._reach < bound:
                table.update(self._enumerate(bound))
                self._reach = bound
        words = list(map(table.get, keys))
        failed = set()
        if None in words:
            failed = {t for t, w in enumerate(words) if w is None}
            none = (0,) * len(self.generators)
            words = [none if w is None else w for w in words]
        return list(zip(*words)) or [()] * len(self.generators), failed

    def word_for(self, e: MonoidElement) -> tuple[int, ...]:
        """The word of an element of the monoid: its coordinates, from a
        batch solve built once per monoid, when the generators have
        linearly independent free parts, else the word the expansion passes
        record by the word rule (module docstring)."""
        d = self.degree(e)
        if d < 0:
            raise MCSError("element has negative degree; not in the monoid")
        if e not in self.group:
            raise MCSError("element is not in the monoid's group")
        columns, failed = self._words([e.packed()], d)
        if failed:
            raise MCSError("element is not a sum of monoid generators")
        return next(zip(*columns), ())

    def contains(self, e: MonoidElement) -> bool:
        if e not in self.group:
            return False
        return not self._words([e.packed()])[1]

    def _format_words(self, cols, n: int) -> list[str]:
        """The text of n words, e.g. 't0*s1^2', '1' for the empty word, from
        the exponent column of each generator (the words of a recording
        expansion come so): a column makes the text of each exponent
        present in it once, and of no other, so a lone s^(10^12) costs one
        text, not 10^12."""
        if not self.names or not n:
            return ["1"] * n
        texts = []
        for name, col in zip(self.names, cols):
            text = {k: f"*{name}^{k}" for k in set(col)}
            text[0], text[1] = "", f"*{name}"
            texts.append(list(map(text.__getitem__, col)))
        return ["".join(row)[1:] or "1" for row in zip(*texts)]

    def format_element(self, e: MonoidElement) -> str:
        """Multiplicative word in generator names, e.g. 't0*s1^2'; '1' for 0."""
        return self._format_words([[k] for k in self.word_for(e)], 1)[0]

    def _format_keys(self, keys, bound: int | None = None) -> list[str]:
        """The words of packed keys, bound as for _words, for callers that
        hold keys, and often their degrees, already, as series do."""
        columns, failed = self._words(keys, bound)
        if failed:
            raise MCSError("element is not a sum of monoid generators")
        return self._format_words(columns, len(keys))


def free_graded_monoid(names) -> GradedMonoid:
    """Z_{>=0}^k on the given generator names."""
    names = tuple(names)
    group = AbelianGroupPresentation(len(names))
    return GradedMonoid(group, names, group.basis_images())


def express_keys_in_basis(keys, basis) -> list[tuple[int, ...]]:
    """Integer coordinates of each packed key in a nonempty basis of its
    group, from one batch solve of all keys.  Raises MCSError when the
    basis is empty or has linearly dependent free parts, or a key is no
    integer combination of it."""
    basis = list(basis)
    if not basis:
        raise MCSError("cannot express classes in an empty basis")
    solve = _coordinate_solver(basis, len(basis[0].free), basis[0].moduli)
    if solve is None:
        raise MCSError("basis has linearly dependent free parts")
    columns, failed = solve(list(keys))
    if failed:
        raise MCSError("element is not an integer combination of the basis")
    return list(zip(*columns))


class MonoidHom:
    """Monoid homomorphism given by generator images.

    Checked on construction: every image must be effective in the target and
    the images must satisfy the source relations (so the map is well defined
    on canonical elements, not just on words).
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: GradedMonoid, target: GradedMonoid, images):
        images = tuple(images)
        if len(images) != len(source.generators):
            raise ValueError("one image per source generator required")
        for img in images:
            if img not in target.group:
                raise ValueError("image not in the target group")
        self.source = source
        self.target = target
        self.images = images
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

    # the blockwise degree of each ambient unit vector, read on the lift of
    # each free unit coordinate of the sum
    phi = ([a.degree(g) for g in a.group.basis_images()]
           + [b.degree(g) for g in b.group.basis_images()])
    width = group.rank + len(group.invariants)
    grading = []
    for i in range(group.rank):
        unit = group.unpack(tuple(int(i == j) for j in range(width)))
        grading.append(sum(map(mul, phi, group.lift(unit))))

    total = GradedMonoid(group, names, tuple(gens_a) + tuple(gens_b), grading)
    return total, MonoidHom(a, total, gens_a), MonoidHom(b, total, gens_b)
