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
from collections import Counter
from collections.abc import Sequence
from copy import copy
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, repeat
from math import floor, lgamma, log, log10
from operator import mul

from .errors import MAX_COEFFICIENT_DIGITS, MCSError, check_cap
from .kring import KElement, KRingSpec, Specialization, specialize, standard_ring
from .monoid import (
    GradedMonoid,
    MonoidElement,
    MonoidHom,
    direct_sum,
    free_graded_monoid,
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
    "coefficient_texts",
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
    _range_error word the error messages of a subclass.  _words is None or
    the words a recording expansion made (GradedMonoid._expand).
    """

    __slots__ = ("ring", "monoid", "keys", "coeffs", "_degrees", "_words")

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
        self._words = None
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
        """The terms mapped by s.  Each coefficient is specialized with the
        previous one and its image as the base, so a coefficient whose terms
        extend its neighbour's (the prefix chains of pn_divisor_series)
        walks only its own new terms."""
        keyed, base = {}, None
        for k, c in zip(self.keys, self.coeffs):
            image = keyed[k] = specialize(c, s, base)
            base = c, image
        return self._like(keyed)

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
    the caller has rendered them already.  No coefficient is checked here:
    a printed series passed check_printable first."""
    texts = coefficient_texts(poly, _coeff_text)
    if words is None and poly._words is not None:
        words = poly.monoid._format_words(poly._words, len(poly.keys))
    elif words is None:
        words = poly.monoid._format_keys(poly.keys, poly._degrees[-1] if poly._degrees else 0)
    pieces = []
    for text, word in zip(texts, words):
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
    def _from_sorted(cls, ring, monoid, truncation, keys, coeffs, degrees, words=None):
        """Series from packed keys already checked and in term order, with
        their nonzero coefficients, their degrees and their words, if any."""
        out = cls.__new__(cls)
        out.ring, out.monoid, out.truncation = ring, monoid, truncation
        out.keys, out.coeffs, out._degrees = tuple(keys), tuple(coeffs), tuple(degrees)
        out._words = words
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
    hit = next(f._product(g, bound + 1), None)
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
        merged: dict[tuple[KElement, MonoidElement], int] = {}
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
            merged[c, alpha] = merged.get((c, alpha), 0) + e
        self.factors = tuple(sorted(
            ((c, alpha, e) for (c, alpha), e in merged.items()),
            key=lambda f: (monoid.degree(f[1]), f[1].packed(), f[0].terms, f[2])))

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

    def expand(self, truncation: int, words: bool = False) -> TruncatedSeries:
        return rational_expand(self, truncation, words)

    def specialize(self, s: Specialization) -> "RationalSeries":
        return RationalSeries(self.ring, self.monoid, self.numerator.specialize(s),
                              [(specialize(c, s), a, e) for c, a, e in self.factors])

    def __str__(self):
        n = len(self.numerator.keys)
        words = self.monoid._format_keys(
            self.numerator.keys + tuple(alpha.packed() for _, alpha, _ in self.factors))
        num = _terms_str(self.numerator, words) or "0"
        if not self.factors:
            return num
        parts = []
        for (c, alpha, e), word in zip(self.factors, words[n:]):
            binom = f"(1 - {_times_word(_coeff_text(c), word)})"
            parts.append(binom if e == 1 else f"{binom}^{e}")
        den = "*".join(parts) if len(parts) == 1 else f"({'*'.join(parts)})"
        if self.numerator.is_one():
            return f"1/{den}"
        return f"({num})/{den}"

    def __repr__(self):
        return f"<rational {self}>"


# an int of at most this many bits has at most MAX_COEFFICIENT_DIGITS digits
_MAX_BITS = floor(MAX_COEFFICIENT_DIGITS / log10(2))


def _wide_digits(n: int) -> int:
    """The decimal digits of |n| when there are more than
    MAX_COEFFICIENT_DIGITS of them, else 0; n is not converted to text.

    log10 |n| is taken from the leading 64 bits and the bit length, within
    a few units in the last place; a power of ten is made, to compare |n|
    with, only when that estimate is too close to an integer to call."""
    bits = n.bit_length()
    if bits <= _MAX_BITS:
        return 0
    n = abs(n)
    shift = bits - 64
    x = log10(n >> shift) + shift * log10(2)
    k = round(x)
    if abs(x - k) < 1e-12 * x:
        d = k + 1 if n >= 10 ** k else k
    else:
        d = floor(x) + 1
    return d if d > MAX_COEFFICIENT_DIGITS else 0


def _too_wide(c: KElement, degree: int) -> str:
    """The message for the coefficient c at degree when its coefficient or
    the largest generator exponent of a term has more than
    MAX_COEFFICIENT_DIGITS digits; "" when nothing has."""
    for exp, v in c.terms:
        # most terms stop at the bit lengths; _wide_digits settles the rest
        if v.bit_length() > _MAX_BITS or exp and max(exp).bit_length() > _MAX_BITS:
            if digits := _wide_digits(v):
                wide = f"{digits} digits"
            elif digits := _wide_digits(top := max(exp)):
                wide = f"an exponent of {c.spec.generators[exp.index(top)]} with {digits} digits"
            else:
                continue
            return (f"the coefficient {_at_degree(degree)} has {wide},"
                    f" over the limit of {MAX_COEFFICIENT_DIGITS}")
    return ""


def _at_degree(d: int) -> str:
    """'at degree d', or, for a degree too wide to print, its digit count."""
    if digits := _wide_digits(d):
        return f"at a degree of {digits} digits"
    return f"at degree {d}"


def coefficient_texts(poly, make) -> list[str]:
    """make(c) of the coefficient c of each term of poly, in term order,
    called once per distinct c."""
    texts: dict[KElement, str] = {}
    out = []
    for c in poly.coeffs:
        text = texts.get(c)
        if text is None:
            text = texts[c] = make(c)
        out.append(text)
    return out


def check_printable(stage: str, f, degree: int = 0) -> None:
    """Raise MCSError, naming stage, the degree, the digit count and the
    limit, at the first coefficient of f with an integer, a coefficient or
    a generator exponent, of more decimal digits than
    MAX_COEFFICIENT_DIGITS, the most Python converts to text, or at the
    first factor power that wide.  f is a series of any kind, whose
    distinct coefficients are each checked once, at their first degree in
    term order, or one KElement at the given degree.  This is the one width
    check: what prints f calls it before any text is made, and the writers
    check nothing."""
    if isinstance(f, KElement):
        rows = [(f, degree, 0)]
    elif isinstance(f, RationalSeries):
        rows = chain(zip(f.numerator.coeffs, f.numerator._degrees, repeat(0)),
                     ((c, f.monoid.degree(alpha), e) for c, alpha, e in f.factors))
    else:
        rows = zip(f.coeffs, f._degrees, repeat(0))
    seen = set()
    for c, d, e in rows:
        if c not in seen:
            seen.add(c)
            if message := _too_wide(c, d):
                raise MCSError(f"{stage}: {message}")
        if e and (digits := _wide_digits(e)):
            raise MCSError(f"{stage}: the power of the factor {_at_degree(d)} has"
                           f" {digits} digits, over the limit of {MAX_COEFFICIENT_DIGITS}")


def _binomial_digits(e: int) -> int:
    """Decimal digits of C(e, e // 2), the largest of the C(e, i), from the
    log-gamma function: no big integer is made."""
    k = e // 2
    return floor((lgamma(e + 1) - lgamma(k + 1) - lgamma(e - k + 1)) / log(10)) + 1


def binomial_factor_polynomial(ring, monoid, c, alpha, e: int = 1) -> MonoidPolynomial:
    """The polynomial (1 - c*t^alpha)^e, written in one pass as the sum of
    C(e, i) (-c)^i t^(i*alpha) over i <= e (the K-ring is commutative), in
    ints when c is an integer.  Before any term is made, its e + 1 terms are
    counted against the MCS_MAX_TERMS cap, and the digits of C(e, e // 2)
    against MAX_COEFFICIENT_DIGITS, so that every coefficient can be printed."""
    if e < 0:
        raise ValueError("negative power of a polynomial")
    check_cap(f"binomial power {e}", e + 1)
    if (digits := _binomial_digits(e)) > MAX_COEFFICIENT_DIGITS:
        raise MCSError(f"binomial power {e}: C({e}, {e // 2}) has {digits} digits,"
                       f" over the limit of {MAX_COEFFICIENT_DIGITS}")
    c = _coerce_coeff(ring, c)
    step, power = (-c.as_integer(), 1) if c.is_integer() else (-c, ring.one)
    acc, cls, binom = {}, monoid.zero, 1
    for i in range(e + 1):
        acc[cls] = acc.get(cls, 0) + binom * power
        cls, power, binom = cls + alpha, power * step, binom * (e - i) // (i + 1)
    return MonoidPolynomial(ring, monoid, acc)


def rational_expand(f: RationalSeries, truncation: int,
                    words: bool = False) -> TruncatedSeries:
    """Expand numerator / product of binomials exactly up to the bound, by
    the expansion passes of GradedMonoid._expand, which state the passes,
    the class codes and the MCS_MAX_TERMS cap.

    With words (the pretty writers ask for them), the passes also record
    the word of each class by the word rule (see the monoid module), when
    the numerator is 1, every c is 1 and the factor classes are exactly
    the monoid's generators, as in toric.mc_series_toric.  The series
    keeps them, as the exponent column of each generator in term order,
    for its pretty writer; the monoid keeps no copy.  Otherwise words is
    ignored.

    Coefficients stay Python ints while the numerator and every c are
    integers.  Integer coefficients become one KElement per distinct
    value, shared by every term that has it; KElement is immutable, so
    sharing is safe.
    """
    if truncation < 0:
        raise ValueError("negative truncation bound")
    monoid, ring = f.monoid, f.ring
    as_int = (all(c.is_integer() for c in f.numerator.coeffs)
              and all(c.is_integer() for c, _, _ in f.factors))
    numerator = [(d, key, c.as_integer() if as_int else c) for key, c, d in zip(
        f.numerator.keys, f.numerator.coeffs, f.numerator._degrees) if d <= truncation]
    factors = [(c.as_integer() if as_int else c, alpha, e) for c, alpha, e in f.factors]
    degrees, keys, coeffs, words = monoid._expand(
        numerator, factors, truncation, f"expansion to degree {truncation}",
        words=words)
    if as_int:
        shared: dict[int, KElement] = {}
        coeffs = [shared.get(v) or shared.setdefault(v, ring.from_int(v)) for v in coeffs]
    return TruncatedSeries._from_sorted(ring, monoid, truncation, keys,
                                        coeffs, degrees, words)


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
    """Exact quotient num/den, else MCSError; den must be monic, and its
    other terms of degree >= 1, or the loop below would never end.

    Works in degree order like power-series division; only quotients of
    degree <= deg(num) are found, which covers every quotient this engine
    produces (localizing removes strata, it never enlarges the numerator).
    rest = num - quotient * den throughout, and each class added to rest
    lies above the one taken, so no class is taken twice, and the quotient
    is exact once rest is empty.  The least (degree, key) of rest comes
    from a heap that holds every class of rest: an entry whose class has
    left rest is skipped when it comes up.
    """
    if not den.is_monic():
        raise MCSError("division requires a monic divisor")
    # the degrees are sorted, so the constant comes first, alone at degree 0
    if den._degrees[1:2] == (0,):
        raise MCSError("division requires non-constant divisor terms of positive degree")
    bound, zero = num.degree(), num.ring.zero
    grading, plus = num.monoid.grading, num.monoid.group.packed_adder()
    rest = dict(zip(num.keys, num.coeffs))
    heap = list(zip(num._degrees, num.keys))  # in term order, so a heap
    quotient: dict[tuple[int, ...], KElement] = {}
    den_tail = list(zip(den.keys[1:], den.coeffs[1:]))
    while rest:
        d, k = heappop(heap)
        if k not in rest:
            continue
        if d > bound:
            raise MCSError(
                "quotient is not a polynomial of numerator-bounded degree")
        c = quotient[k] = rest.pop(k)
        for k2, c2 in den_tail:
            k3 = plus(k, k2)
            c3 = rest.get(k3, zero) - c * c2
            if c3.is_zero():
                rest.pop(k3, None)
            else:
                if k3 not in rest:
                    heappush(heap, (sum(map(mul, grading, k3)), k3))
                rest[k3] = c3
    return num._like(quotient)


def localize_quotient(mc_x: RationalSeries, mc_y: RationalSeries) -> RationalSeries:
    """The rational series Q with Q * mc_y == mc_x, certified exactly.

    Shared denominator factors cancel; leftover factors of mc_y become
    numerator binomials; a non-trivial numerator of mc_y must divide exactly,
    otherwise MCSError; so does a term of degree 0 in it besides the
    constant 1, since division by it would never end.
    """
    mc_x._check(mc_y)
    # the factors of a RationalSeries are already merged by this key
    x = Counter({(c, a): e for c, a, e in mc_x.factors})
    y = Counter({(c, a): e for c, a, e in mc_y.factors})
    num = mc_x.numerator
    for (c, a), e in (y - x).items():
        num = num * binomial_factor_polynomial(mc_x.ring, mc_x.monoid, c, a, e)
    if not mc_y.numerator.is_one():
        num = _divide_polynomial(num, mc_y.numerator)
    return RationalSeries(mc_x.ring, mc_x.monoid, num,
                          [(c, a, e) for (c, a), e in (x - y).items()])


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


def punctured_p1_zeta(punctures: int) -> RationalSeries:
    """Zero-cycle series of a rational curve minus r points, in the homotopy
    quotient: (1-t)^(r-2), a polynomial numerator once r >= 2, and
    1/(1-t) for r=1, 1/(1-t)^2 for r=0.
    """
    if punctures < 0:
        raise ValueError("negative puncture count")
    ring = standard_ring(a1_homotopy=True)
    monoid = free_graded_monoid(("t",))
    t = monoid.generator_named("t")
    if punctures >= 2:
        return RationalSeries(ring, monoid, binomial_factor_polynomial(
            ring, monoid, ring.one, t, punctures - 2))
    return RationalSeries(ring, monoid, None, [(ring.one, t, 2 - punctures)])
