"""Power series and rational forms over a graded monoid.

Three layers, all with coefficients in a computable K-ring quotient:

* MonoidPolynomial: finitely many terms, exact.
* TruncatedSeries: all coefficients up to a degree bound N, exact up to N.
  Binary operations insist on the same monoid and the same bound; nothing
  re-truncates silently.
* RationalSeries: numerator polynomial times a product of inverted monic
  binomials (1 - c*t^alpha)^-e.  This is the only denominator shape the
  engine synthesizes, mirroring how the series of interest arise.

certify_rational is deliberately a semi-decision: multiplying a truncated
series by a candidate denominator can only refute rationality below the
truncation bound or report consistency up to it, never prove it outright.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from copy import copy
from dataclasses import dataclass
from heapq import heappop, heappush
from math import floor, lgamma, log, log10
from operator import mul

from .errors import EnumerationLimitError, MCSError
from .kring import KElement, KRingSpec, Specialization, specialize, standard_ring
from .monoid import (
    GradedMonoid,
    MonoidElement,
    MonoidHom,
    direct_sum,
    free_graded_monoid,
    max_terms_from_env,
)

__all__ = [
    "MonoidPolynomial",
    "TruncatedSeries",
    "RationalSeries",
    "RationalityVerdict",
    "rational_expand",
    "certify_rational",
    "pushforward",
    "external_product",
    "localize_quotient",
    "curve_zeta",
    "punctured_p1_zeta",
    "binomial_factor_polynomial",
    "check_printable",
]


def _coerce_coeff(ring: KRingSpec, c) -> KElement:
    if isinstance(c, int):
        return ring.from_int(c)
    if isinstance(c, KElement):
        if c.spec != ring:
            raise MCSError("coefficient from a different ring spec")
        return c
    raise TypeError(f"bad coefficient {c!r}")


class _TermView(Sequence):
    """The (MonoidElement, coefficient) pairs of a term list, read-only;
    each class is unpacked from its packed key when it is read."""

    def __init__(self, poly: "_Terms"):
        self._poly = poly

    def __len__(self):
        return len(self._poly.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self._poly.monoid.group.unpack(self._poly.keys[i]), self._poly.coeffs[i]


class _Terms:
    """Finitely many nonzero terms, ordered by degree and then packed class
    key (MonoidElement.packed): parallel tuples keys, coeffs and _degrees.
    The core of MonoidPolynomial and TruncatedSeries; _bound() is the
    largest degree a term (of a product too) may have, and _noun and
    _range_error word the error messages of a subclass.
    """

    __slots__ = ("ring", "monoid", "keys", "coeffs", "_degrees")

    def __init__(self, ring: KRingSpec, monoid: GradedMonoid, terms=()):
        self.ring, self.monoid = ring, monoid
        keyed = {}
        for e, c in dict(terms).items():
            if not (c := _coerce_coeff(ring, c)).is_zero():
                if e not in monoid.group:
                    raise MCSError("term class is not in the series monoid")
                keyed[e.packed()] = c
        self._fill(keyed)

    def _fill(self, keyed):
        """Set the terms to the nonzero ones of {packed key: KElement}."""
        items = sorted((sum(map(mul, self.monoid.grading, k)), k, c)
                       for k, c in keyed.items() if not c.is_zero())
        self._degrees, self.keys, self.coeffs = zip(*items) if items else ((), (), ())
        if items and (self._degrees[0] < 0 or self._degrees[-1] > self._bound()):
            raise MCSError(self._range_error)
        return self

    def _like(self, keyed):
        """A same-kind copy whose terms are the nonzero ones of keyed."""
        return copy(self)._fill(keyed)

    @property
    def terms(self) -> _TermView:
        return _TermView(self)

    def coefficient(self, e: MonoidElement) -> KElement:
        d, key = self.monoid.degree(e), e.packed()
        lo = bisect_left(self._degrees, d)
        hi = bisect_right(self._degrees, d, lo)
        i = bisect_left(self.keys, key, lo, hi)
        if i < hi and self.keys[i] == key and e in self.monoid.group:
            return self.coeffs[i]
        return self.ring.zero

    def is_monic(self) -> bool:
        return self.coefficient(self.monoid.zero).is_one()

    def __eq__(self, other):
        if not isinstance(other, _Terms):
            return NotImplemented
        return (type(self) is type(other) and self.ring == other.ring
                and self.monoid == other.monoid and self._bound() == other._bound()
                and self.keys == other.keys and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((type(self), self.ring, self.monoid, self._bound(),
                     self.keys, self.coeffs))

    def _check(self, other):
        if self.ring != other.ring:
            raise MCSError(f"{self._noun} over different ring specs")
        if self.monoid != other.monoid:
            raise MCSError(f"{self._noun} over different monoids")

    def __add__(self, other):
        self._check(other)
        acc = dict(zip(self.keys, self.coeffs))
        for k, c in zip(other.keys, other.coeffs):
            acc[k] = acc.get(k, self.ring.zero) + c
        return self._like(acc)

    def __sub__(self, other):
        return self + other._like({k: -c for k, c in zip(other.keys, other.coeffs)})

    def __mul__(self, other):
        """The product, collected from every degree _product yields."""
        self._check(other)
        return self._like({k: c for _, keys, coeffs in self._product(other)
                           for k, c in zip(keys, coeffs)})

    def _groups(self):
        """[(degree, [(key, coefficient)])] with the degrees increasing."""
        out = []
        for k, c, d in zip(self.keys, self.coeffs, self._degrees):
            if not out or out[-1][0] != d:
                out.append((d, []))
            out[-1][1].append((k, c))
        return out

    def _product(self, other, low: int = 0):
        """Yield (degree, keys, coefficients) of the nonzero terms of
        self * other from degree low up to the bound, one degree at a time
        in increasing order, the keys sorted.  Only degrees that are sums of
        a degree of each side are visited.  Each class of a degree collects
        its coefficient pairs and sums their products with one
        KRingSpec.sum_of_products call."""
        top, spec = self._bound(), self.ring
        plus = self.monoid.group.packed_adder()
        pairs: dict[int, list] = {}  # degree -> [(group of self, group of other)]
        right = other._groups()
        for d1, g1 in self._groups():
            for d2, g2 in right:
                if d1 + d2 > top:
                    break
                if d1 + d2 >= low:
                    pairs.setdefault(d1 + d2, []).append((g1, g2))
        for d in sorted(pairs):
            acc: dict[tuple[int, ...], list] = {}
            for g1, g2 in pairs[d]:
                for k1, c1 in g1:
                    for k2, c2 in g2:
                        acc.setdefault(plus(k1, k2), []).append((c1, c2))
            keys, coeffs = [], []
            for k in sorted(acc):
                c = spec.sum_of_products(acc[k])
                if c.terms:
                    keys.append(k)
                    coeffs.append(c)
            if keys:
                yield d, keys, coeffs

    def specialize(self, s: Specialization):
        return self._like({k: specialize(c, s) for k, c in zip(self.keys, self.coeffs)})

    def as_series(self, n: int) -> "TruncatedSeries":
        """The terms of degree <= n as a series truncated at n; n may not
        exceed the bound of the data."""
        if n > self._bound():
            raise MCSError(f"series data stops at degree {self._bound()};"
                           f" cannot expand to {n}")
        if n < 0:
            raise ValueError("negative truncation bound")
        k = bisect_right(self._degrees, n)
        return TruncatedSeries._from_sorted(self.ring, self.monoid, n, self.keys[:k],
                                            self.coeffs[:k], self._degrees[:k])


class MonoidPolynomial(_Terms):
    """Finite R-linear combination of monoid classes."""

    __slots__ = ()
    _noun = "polynomials"
    _range_error = "polynomial term of negative degree"

    def _bound(self):
        return float("inf")

    @classmethod
    def one(cls, ring, monoid):
        return cls(ring, monoid, {monoid.zero: ring.one})

    def is_zero(self) -> bool:
        return not self.keys

    def is_one(self) -> bool:
        return len(self.keys) == 1 and not any(self.keys[0]) and self.coeffs[0].is_one()

    def degree(self) -> int:
        """Max degree of a term; -1 for the zero polynomial."""
        return self._degrees[-1] if self._degrees else -1

    def __str__(self):
        return _terms_str(self) or "0"

    def __repr__(self):
        return f"<poly {self}>"


def _coeff_text(c: KElement) -> str:
    """The coefficient as it stands before a word: parenthesized when it
    has more than one term."""
    return f"({c})" if len(c.terms) > 1 else str(c)


def _times_word(text: str, word: str) -> str:
    """Coefficient text times monomial word; word '1' means the unit class."""
    if word == "1":
        return text
    if text == "1":
        return word
    if text == "-1":
        return f"-{word}"
    return f"{text}*{word}"


def _terms_str(poly: _Terms, words=None) -> str:
    """Signed sum of poly's terms; words are the terms' class words when
    the caller has rendered them already.  Each distinct coefficient's text
    is made once per call."""
    if words is None:
        words = poly.monoid._format_keys(
            poly.keys, poly._degrees[-1] if poly._degrees else 0)
    texts: dict[KElement, str] = {}
    pieces = []
    for c, word in zip(poly.coeffs, words):
        text = texts.get(c)
        if text is None:
            text = texts[c] = _coeff_text(c)
        body = _times_word(text, word)
        if not pieces:
            pieces.append(body)
        elif body.startswith("-"):
            pieces.append(f"- {body[1:]}")
        else:
            pieces.append(f"+ {body}")
    return " ".join(pieces)


class TruncatedSeries(_Terms):
    """All terms of degree <= truncation, exactly."""

    __slots__ = ("truncation",)
    _noun = "series"
    _range_error = "series term outside [0, truncation]"

    def __init__(self, ring: KRingSpec, monoid: GradedMonoid, truncation: int,
                 terms=()):
        if truncation < 0:
            raise MCSError("negative truncation bound")
        self.truncation = int(truncation)
        super().__init__(ring, monoid, terms)

    def _bound(self):
        return self.truncation

    @classmethod
    def _from_sorted(cls, ring, monoid, truncation, keys, coeffs, degrees):
        """Series from packed keys already checked and in term order, with
        their nonzero coefficients and their degrees."""
        out = cls.__new__(cls)
        out.ring, out.monoid, out.truncation = ring, monoid, truncation
        out.keys, out.coeffs, out._degrees = tuple(keys), tuple(coeffs), tuple(degrees)
        return out

    def _check(self, other):
        super()._check(other)
        if self.truncation != other.truncation:
            raise MCSError(
                f"truncation bounds differ: {self.truncation} vs {other.truncation}")

    def __str__(self):
        body = _terms_str(self) or "0"
        return f"{body} + O(degree {self.truncation + 1})"

    def __repr__(self):
        return f"<series {self}>"


@dataclass(frozen=True)
class RationalityVerdict:
    """Outcome of testing a truncated series against a candidate denominator."""

    consistent: bool
    truncation: int
    numerator_bound: int
    witness_degree: int | None = None
    witness_class: MonoidElement | None = None
    witness_coeff: KElement | None = None

    def __str__(self):
        if self.consistent:
            return f"consistent-to-{self.truncation}"
        return f"refuted-at-degree-{self.witness_degree}"


def certify_rational(f: TruncatedSeries, g: MonoidPolynomial) -> RationalityVerdict:
    """Semi-decide whether f equals (polynomial of degree <= deg g) / g.

    Reads f*g one degree at a time up to the truncation bound, from the
    first degree above deg g: the first nonzero term there refutes the claim
    and is reported as a witness, the same term the full product would give
    first.  No degree at or below deg g, and none past the witness, is
    computed.  Otherwise the claim is consistent to the bound.
    """
    if f.ring != g.ring:
        raise MCSError("series and denominator over different ring specs")
    if f.monoid != g.monoid:
        raise MCSError("series and denominator over different monoids")
    if not g.is_monic():
        raise MCSError("candidate denominator must have constant term 1")
    if g.degree() >= f.truncation:
        raise MCSError("denominator degree reaches the truncation bound")
    bound = g.degree()
    hit = next(f._product(g.as_series(f.truncation), bound + 1), None)
    if hit is None:
        return RationalityVerdict(True, f.truncation, bound)
    d, keys, coeffs = hit
    return RationalityVerdict(False, f.truncation, bound, d,
                              f.monoid.group.unpack(keys[0]), coeffs[0])


class RationalSeries:
    """numerator * product over factors (c, alpha, e) of (1 - c t^alpha)^-e."""

    __slots__ = ("ring", "monoid", "numerator", "factors")

    def __init__(self, ring: KRingSpec, monoid: GradedMonoid,
                 numerator: MonoidPolynomial | None = None, factors=()):
        self.ring = ring
        self.monoid = monoid
        if numerator is None:
            numerator = MonoidPolynomial.one(ring, monoid)
        if numerator.ring != ring or numerator.monoid != monoid:
            raise MCSError("numerator context differs from the series")
        self.numerator = numerator
        merged: dict[tuple, tuple[KElement, MonoidElement, int]] = {}
        for c, alpha, e in factors:
            c = _coerce_coeff(ring, c)
            e = int(e)
            if e < 0:
                raise MCSError("negative factor exponent")
            if e == 0 or c.is_zero():
                continue
            if alpha.is_zero():
                raise MCSError("denominator factor at the zero class")
            if monoid.degree(alpha) < 1:
                raise MCSError("denominator class has non-positive degree")
            if not monoid.contains(alpha):
                raise MCSError("denominator class is not effective")
            key = (alpha, c)
            if key in merged:
                c0, a0, e0 = merged[key]
                merged[key] = (c0, a0, e0 + e)
            else:
                merged[key] = (c, alpha, e)
        facs = list(merged.values())
        facs.sort(key=lambda f: (monoid.degree(f[1]), f[1].packed(), f[0].terms, f[2]))
        self.factors = tuple(facs)

    def _check(self, other: "RationalSeries"):
        if self.ring != other.ring:
            raise MCSError("rational series over different ring specs")
        if self.monoid != other.monoid:
            raise MCSError("rational series over different monoids")

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        self._check(other)
        return RationalSeries(self.ring, self.monoid,
                              self.numerator * other.numerator,
                              self.factors + other.factors)

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return (self.ring == other.ring and self.monoid == other.monoid
                and self.numerator == other.numerator and self.factors == other.factors)

    def __hash__(self):
        return hash((self.ring, self.monoid, self.numerator, self.factors))

    def expand(self, truncation: int) -> TruncatedSeries:
        return rational_expand(self, truncation)

    def specialize(self, s: Specialization) -> "RationalSeries":
        return RationalSeries(self.ring, self.monoid, self.numerator.specialize(s),
                              [(specialize(c, s), a, e) for c, a, e in self.factors])

    def __str__(self):
        num_terms = self.numerator.terms
        words = self.monoid.format_elements(
            [e for e, _ in num_terms] + [alpha for _, alpha, _ in self.factors])
        num = _terms_str(self.numerator, words) or "0"
        if not self.factors:
            return num
        parts = []
        for (c, alpha, e), word in zip(self.factors, words[len(num_terms):]):
            binom = f"(1 - {_times_word(_coeff_text(c), word)})"
            parts.append(binom if e == 1 else f"{binom}^{e}")
        den = "*".join(parts) if len(parts) == 1 else f"({'*'.join(parts)})"
        if self.numerator.is_one():
            return f"1/{den}"
        return f"({num})/{den}"

    def __repr__(self):
        return f"<rational {self}>"


# the most decimal digits of an int that Python converts to text by default
MAX_COEFFICIENT_DIGITS = 4300


# an int of at most this many bits has at most MAX_COEFFICIENT_DIGITS digits
_MAX_BITS = floor(MAX_COEFFICIENT_DIGITS / log10(2))


def _wide_digits(n: int) -> int:
    """The decimal digits of |n| when there are more than
    MAX_COEFFICIENT_DIGITS of them, else 0; n is not converted to text."""
    if n.bit_length() <= _MAX_BITS:
        return 0
    n = abs(n)
    # the digit count less 1 or 2, so 10^(d - 1) <= n past any rounding
    d = floor((n.bit_length() - 1) * log10(2))
    power = 10 ** (d - 1)
    while n >= power:  # one power of ten is made, then multiplied
        power *= 10
        d += 1
    return d - 1 if d - 1 > MAX_COEFFICIENT_DIGITS else 0


def _too_wide(c: KElement) -> str:
    """What in c, the coefficient or the largest generator exponent of a
    term, has more than MAX_COEFFICIENT_DIGITS digits, in the words of the
    message; "" when nothing has."""
    for exp, v in c.terms:
        # most terms stop at the bit lengths; _wide_digits settles the rest
        if v.bit_length() > _MAX_BITS or exp and max(exp).bit_length() > _MAX_BITS:
            if digits := _wide_digits(v):
                return f"{digits} digits"
            if digits := _wide_digits(top := max(exp)):
                name = c.spec.generators[exp.index(top)]
                return f"an exponent of {name} with {digits} digits"
    return ""


def check_printable(stage: str, f, degree: int = 0) -> None:
    """Raise MCSError, naming stage, the degree, the digit count and the
    limit, at the first coefficient of f with an integer, a coefficient or
    a generator exponent, of more decimal digits than
    MAX_COEFFICIENT_DIGITS, the most Python converts to text; the factor
    powers of a rational series are read too.  f is a series, a
    polynomial, a rational series or one KElement at the given degree.

    The text and JSON writers do not check: what prints f checks it first,
    and values that are never printed, wide or not, are let be.  Each
    distinct coefficient is read once."""
    if isinstance(f, RationalSeries):
        check_printable(stage, f.numerator)
        for c, alpha, e in f.factors:
            d = f.monoid.degree(alpha)
            check_printable(stage, c, d)
            if digits := _wide_digits(e):
                raise MCSError(f"{stage}: the power of the factor at degree {d} has"
                               f" {digits} digits, over the limit of {MAX_COEFFICIENT_DIGITS}")
        return
    seen: set[KElement] = set()
    for d, c in [(degree, f)] if isinstance(f, KElement) else zip(f._degrees, f.coeffs):
        if c not in seen:
            seen.add(c)
            if wide := _too_wide(c):
                raise MCSError(f"{stage}: the coefficient at degree {d} has {wide},"
                               f" over the limit of {MAX_COEFFICIENT_DIGITS}")


def _binomial_digits(e: int) -> int:
    """Decimal digits of C(e, e // 2), the largest of the C(e, i), from the
    log-gamma function: no big integer is made."""
    k = e // 2
    return floor((lgamma(e + 1) - lgamma(k + 1) - lgamma(e - k + 1)) / log(10)) + 1


def binomial_factor_polynomial(ring, monoid, c, alpha, e: int = 1) -> MonoidPolynomial:
    """The polynomial (1 - c*t^alpha)^e, written in one pass as the sum of
    C(e, i) (-c)^i t^(i*alpha) over i <= e; the K-ring is commutative.
    Before any term is made, its e + 1 terms are counted against the
    MCS_MAX_TERMS cap, and the digits of C(e, e // 2) against
    MAX_COEFFICIENT_DIGITS, so that every coefficient can be printed."""
    if e < 0:
        raise ValueError("negative power of a polynomial")
    if e + 1 > (cap := max_terms_from_env()):
        raise EnumerationLimitError(f"binomial power {e}", e + 1, cap)
    if (digits := _binomial_digits(e)) > MAX_COEFFICIENT_DIGITS:
        raise MCSError(f"binomial power {e}: C({e}, {e // 2}) has {digits} digits,"
                       f" over the limit of {MAX_COEFFICIENT_DIGITS}")
    step = -_coerce_coeff(ring, c)
    acc, cls, power, binom = {}, monoid.zero, ring.one, 1
    for i in range(e + 1):
        acc[cls] = acc.get(cls, ring.zero) + binom * power
        cls, power, binom = cls + alpha, power * step, binom * (e - i) // (i + 1)
    return MonoidPolynomial(ring, monoid, acc)


def rational_expand(f: RationalSeries, truncation: int) -> TruncatedSeries:
    """Expand numerator / product of binomials exactly up to the bound.

    Dividing by (1 - c*t^alpha)^k = sum_i p_i t^(i*alpha) is one pass over
    the degree buckets in increasing order: each finished bucket pushes
    a[b + i*alpha] -= p_i*a[b] for 1 <= i <= min(k, K), K = truncation //
    deg alpha; for k = 1 that is a[b + alpha] += c*a[b].  The p_i are made
    only as far as a push needs them.  A factor of exponent e <= K takes e
    passes with k = 1; past K, one pass with k = 1 and one with k = e - 1,
    so the time stops growing with e.  Classes are packed int keys (see
    MonoidElement.packed) throughout, and the result keeps them: no
    MonoidElement is made unless a caller reads its terms.  Coefficients
    stay Python ints while the numerator and every c are integers.  Integer
    coefficients become one KElement per distinct value, shared by every
    term that has it; KElement is immutable, so sharing is safe.

    The running term count is checked as each new term appears; passing
    the MCS_MAX_TERMS cap raises EnumerationLimitError.
    """
    if truncation < 0:
        raise ValueError("negative truncation bound")
    monoid, ring = f.monoid, f.ring
    plus = monoid.group.packed_adder()
    as_int = (all(c.is_integer() for c in f.numerator.coeffs)
              and all(c.is_integer() for c, _, _ in f.factors))
    cap = max_terms_from_env()
    stage = f"expansion to degree {truncation}"

    # degree -> {packed class: nonzero coefficient}
    buckets: dict[int, dict[tuple[int, ...], object]] = {}
    count = 0
    for key, c, d in zip(f.numerator.keys, f.numerator.coeffs, f.numerator._degrees):
        if d <= truncation:
            buckets.setdefault(d, {})[key] = c.as_integer() if as_int else c
            count += 1
    if count > cap:
        raise EnumerationLimitError(stage, count, cap)
    for c, alpha, e in f.factors:
        if alpha.is_zero():
            raise MCSError("denominator factor at the zero class")
        step = monoid.degree(alpha)
        if as_int:
            c = c.as_integer()
        # up to e = K, e passes with k = 1: one pass with k = e would multiply
        # big weights by big coefficients.  Past K, a pass with k = 1 first,
        # so that a term cap trips on small coefficients, then k = e - 1.
        # (range, unlike repeat, takes an e past sys.maxsize, where the
        # first pass trips the cap.)
        for k in ((1 for _ in range(e)) if e <= max(1, truncation // step)
                  else (1, e - 1)):
            # for i = 1..: the push weight -p_i = (-1)^(i+1) C(k, i) c^i,
            # whether it is 1, the class i*alpha and the degree i*deg(alpha)
            a = alpha.packed()
            pushes = [(k * c, k * c == 1, a, step)]
            binom, power = k, c
            todo = sorted(d for d in buckets if d + step <= truncation)
            while todo:
                d = heappop(todo)
                src = buckets[d]
                room = truncation - d
                while len(pushes) < k and pushes[-1][3] + step <= room:
                    i = len(pushes) + 1
                    binom = binom * (k - i + 1) // i
                    power = power * c
                    w = (binom if i % 2 else -binom) * power
                    pushes.append((w, w == 1, plus(pushes[-1][2], a), i * step))
                for w, unit, shift, off in pushes:
                    if off > room:
                        break
                    d2 = d + off
                    dst = buckets.get(d2)
                    if dst is None:
                        dst = buckets[d2] = {}
                        if d2 + step <= truncation:
                            heappush(todo, d2)
                    for key, v in src.items():
                        key2 = plus(key, shift)
                        inc = v if unit else w * v
                        old = dst.get(key2)
                        if old is None:
                            dst[key2] = inc
                            count += 1
                            if count > cap:
                                raise EnumerationLimitError(stage, count, cap)
                            continue
                        new = old + inc
                        if new == 0:
                            del dst[key2]
                            count -= 1
                        else:
                            dst[key2] = new
    items = [(d, key, v) for d in sorted(buckets) for key, v in sorted(buckets[d].items())]
    degrees, keys, coeffs = zip(*items) if items else ((), (), ())
    if as_int:
        shared: dict[int, KElement] = {}
        coeffs = [shared.get(v) or shared.setdefault(v, ring.from_int(v)) for v in coeffs]
    return TruncatedSeries._from_sorted(ring, monoid, truncation, keys, coeffs, degrees)


# ---------------------------------------------------------------------------
# pushforward along a monoid homomorphism


def pushforward(f, phi: MonoidHom):
    """Image of a series under a grading-compatible monoid homomorphism.

    Coefficients of source classes with equal images are summed.  For a
    truncated series the result bound is the largest one the source bound
    certifies: floor(N / max_g deg_src(g)/deg_tgt(phi g)).
    """
    if not phi.grading_compatible():
        raise MCSError("homomorphism does not respect the gradings")
    if not isinstance(f, (_Terms, RationalSeries)):
        raise TypeError(f"cannot push forward {type(f).__name__}")
    if f.monoid != phi.source:
        noun = "polynomial" if isinstance(f, MonoidPolynomial) else "series"
        raise MCSError(f"{noun} lives on a different monoid")
    if isinstance(f, RationalSeries):
        facs = [(c, phi.apply(a), e) for c, a, e in f.factors]
        return RationalSeries(f.ring, phi.target, pushforward(f.numerator, phi), facs)
    bound, ratio = f._bound(), phi.degree_ratio()  # 0 when the source has no generators
    if isinstance(f, TruncatedSeries) and ratio:
        bound = f.truncation * ratio.denominator // ratio.numerator
    acc: dict[MonoidElement, KElement] = {}
    for e, c in f.terms:
        img = phi.apply(e)
        if phi.target.degree(img) <= bound:
            acc[img] = acc.get(img, f.ring.zero) + c
    if isinstance(f, TruncatedSeries):
        return TruncatedSeries(f.ring, phi.target, bound, acc)
    return MonoidPolynomial(f.ring, phi.target, acc)


# ---------------------------------------------------------------------------
# external product over the direct sum of monoids


def external_product(f, g):
    """Product series over the direct sum of the two underlying monoids."""
    truncated = isinstance(f, TruncatedSeries) and isinstance(g, TruncatedSeries)
    if not (truncated or isinstance(f, RationalSeries) and isinstance(g, RationalSeries)):
        raise TypeError("external_product expects two series of the same kind")
    if f.ring != g.ring:
        raise MCSError("external product across ring specs")
    if truncated and f.truncation != g.truncation:
        raise MCSError("external product needs equal truncation bounds")
    total, inj1, inj2 = direct_sum(f.monoid, g.monoid)
    return pushforward(f, inj1) * pushforward(g, inj2)


# ---------------------------------------------------------------------------
# localization quotient


def _divide_polynomial(num: MonoidPolynomial, den: MonoidPolynomial) -> MonoidPolynomial:
    """Exact quotient num/den for monic den, else MCSError.

    Works in degree order like power-series division; only quotients of
    degree <= deg(num) are found, which covers every quotient this engine
    produces (localizing removes strata, it never enlarges the numerator).
    """
    if not den.is_monic():
        raise MCSError("division requires a monic divisor")
    if num.is_zero():
        return num
    bound, zero = num.degree(), num.ring.zero
    grading, plus = num.monoid.grading, num.monoid.group.packed_adder()
    rest = dict(zip(num.keys, num.coeffs))
    quotient: dict[tuple[int, ...], KElement] = {}
    den_tail = [(k, c) for k, c in zip(den.keys, den.coeffs) if any(k)]
    while rest:
        d, k = min((sum(map(mul, grading, k)), k) for k in rest)
        if d > bound:
            raise MCSError(
                "quotient is not a polynomial of numerator-bounded degree")
        c = rest.pop(k)
        quotient[k] = quotient.get(k, zero) + c
        for k2, c2 in den_tail:
            k3 = plus(k, k2)
            c3 = rest.get(k3, zero) - c * c2
            if c3.is_zero():
                rest.pop(k3, None)
            else:
                rest[k3] = c3
    q = num._like(quotient)
    if not (q * den == num):
        raise MCSError("division left a nonzero remainder")
    return q


def localize_quotient(mc_x: RationalSeries, mc_y: RationalSeries) -> RationalSeries:
    """The rational series Q with Q * mc_y == mc_x, certified exactly.

    Shared denominator factors cancel; leftover factors of mc_y become
    numerator binomials; a non-trivial numerator of mc_y must divide exactly,
    otherwise MCSError.
    """
    mc_x._check(mc_y)
    # the factors of a RationalSeries are already merged by this key
    remaining = {(a, c): (c, a, e) for c, a, e in mc_x.factors}
    leftover_y = []
    for c, a, e in mc_y.factors:
        key = (a, c)
        have = remaining.get(key, (c, a, 0))[2]
        cancel = min(have, e)
        if cancel:
            remaining[key] = (c, a, have - cancel)
        if e - cancel:
            leftover_y.append((c, a, e - cancel))
    num = mc_x.numerator
    for c, a, e in leftover_y:
        num = num * binomial_factor_polynomial(mc_x.ring, mc_x.monoid, c, a, e)
    if not mc_y.numerator.is_one():
        num = _divide_polynomial(num, mc_y.numerator)
    q_factors = [f for f in remaining.values() if f[2] > 0]
    return RationalSeries(mc_x.ring, mc_x.monoid, num, q_factors)


# ---------------------------------------------------------------------------
# curve zeta functions


def curve_zeta(genus: int, ring: KRingSpec | None = None) -> RationalSeries:
    """Motivic zeta of a smooth projective curve over the monoid Z_{>=0}.

    Genus 0 is exact: 1/((1-t)(1-L t)).  For genus g >= 1 the numerator is
    the generic monic polynomial 1 + a1 t + ... + a{2g} t^{2g} in the free
    symbols a1 .. a{2g}; callers pin the symbols down by specializing.
    """
    if genus < 0:
        raise ValueError("negative genus")
    symbols = tuple(f"a{i}" for i in range(1, 2 * genus + 1))
    if ring is None:
        ring = standard_ring(symbols=symbols)
    for name in symbols:
        ring.index(name)  # raises MCSError when the symbol is absent
    monoid = free_graded_monoid(("t",))
    t = monoid.generator_named("t")
    factors = [(ring.one, t, 1), (ring.generator("L"), t, 1)]
    num = {monoid.zero: ring.one}
    for i, name in enumerate(symbols, start=1):
        num[i * t] = ring.generator(name)
    return RationalSeries(ring, monoid, MonoidPolynomial(ring, monoid, num), factors)


def punctured_p1_zeta(punctures: int, ring: KRingSpec | None = None):
    """Zero-cycle series of a rational curve minus r points, in the homotopy
    quotient: (1-t)^(r-2), a polynomial once r >= 2.

    For r < 2 the series is honestly rational, not polynomial, and the
    rational form is returned instead: 1/(1-t) for r=1, 1/(1-t)^2 for r=0.
    """
    if punctures < 0:
        raise ValueError("negative puncture count")
    if ring is None:
        ring = standard_ring(a1_homotopy=True)
    if not ring.a1_homotopy:
        raise ValueError("punctured-line zeta lives in the homotopy quotient")
    monoid = free_graded_monoid(("t",))
    t = monoid.generator_named("t")
    if punctures >= 2:
        return binomial_factor_polynomial(ring, monoid, ring.one, t, punctures - 2)
    return RationalSeries(ring, monoid, None, [(ring.one, t, 2 - punctures)])
