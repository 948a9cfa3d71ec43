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

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat

from .errors import (
    EnumerationLimitError,
    LocalizationMismatch,
    NotMonic,
    PushforwardError,
    SeriesMismatch,
    SpecMismatch,
    ZeroClassFactor,
)
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
]


def _coerce_coeff(ring: KRingSpec, c) -> KElement:
    if isinstance(c, int):
        return ring.from_int(c)
    if isinstance(c, KElement):
        if c.spec != ring:
            raise SpecMismatch("coefficient from a different ring spec")
        return c
    raise TypeError(f"bad coefficient {c!r}")


class _Terms:
    """Finitely many nonzero terms (class, coefficient), ordered by degree and
    then class, with their degrees; the core of MonoidPolynomial and
    TruncatedSeries.

    A subclass supplies _like(mapping), a same-kind object with the given
    terms, and _bound(), the largest degree a term (of a product too) may
    have.  _noun and _range_error word its error messages.
    """

    __slots__ = ("ring", "monoid", "terms", "_degrees")

    def __init__(self, ring: KRingSpec, monoid: GradedMonoid, terms=()):
        self.ring = ring
        self.monoid = monoid
        mapping = dict(terms) if not isinstance(terms, dict) else terms
        items = []
        for e, c in mapping.items():
            c = _coerce_coeff(ring, c)
            if c.is_zero():
                continue
            if e.moduli != monoid.group.invariants or len(e.free) != monoid.group.rank:
                raise ValueError("term class is not in the series monoid")
            items.append((monoid.degree(e), e, c))
        items.sort(key=lambda t: (t[0], t[1].sort_key()))
        self.terms = tuple((e, c) for _, e, c in items)
        self._degrees = tuple(d for d, _, _ in items)
        if items and (self._degrees[0] < 0 or self._degrees[-1] > self._bound()):
            raise ValueError(self._range_error)

    def coefficient(self, e: MonoidElement) -> KElement:
        for e2, c in self.terms:
            if e2 == e:
                return c
        return self.ring.zero

    def is_monic(self) -> bool:
        return self.coefficient(self.monoid.zero).is_one()

    def _check(self, other):
        if self.ring != other.ring:
            raise SpecMismatch(f"{self._noun} over different ring specs")
        if self.monoid != other.monoid:
            raise SeriesMismatch(f"{self._noun} over different monoids")

    def __add__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, self.ring.zero) + c
        return self._like(acc)

    def __sub__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, self.ring.zero) - c
        return self._like(acc)

    def __mul__(self, other):
        self._check(other)
        top = self._bound()
        acc: dict[MonoidElement, KElement] = {}
        for (e1, c1), d1 in zip(self.terms, self._degrees):
            for (e2, c2), d2 in zip(other.terms, other._degrees):
                if d1 + d2 > top:
                    break  # other's terms are sorted by degree
                e = e1 + e2
                acc[e] = acc.get(e, self.ring.zero) + c1 * c2
        return self._like(acc)

    def specialize(self, s: Specialization):
        return self._like({e: specialize(c, s) for e, c in self.terms})

    def as_series(self, n: int) -> "TruncatedSeries":
        """The terms of degree <= n as a series truncated at n; n may not
        exceed the bound of the data."""
        if n > self._bound():
            raise SeriesMismatch(f"series data stops at degree {self._bound()};"
                                 f" cannot expand to {n}")
        if n < 0:
            raise ValueError("negative truncation bound")
        k = bisect_right(self._degrees, n)
        return TruncatedSeries._from_sorted(self.ring, self.monoid, n,
                                            self.terms[:k], self._degrees[:k])


class MonoidPolynomial(_Terms):
    """Finite R-linear combination of monoid classes."""

    __slots__ = ()
    _noun = "polynomials"
    _range_error = "polynomial term of negative degree"

    def _like(self, mapping) -> "MonoidPolynomial":
        return MonoidPolynomial(self.ring, self.monoid, mapping)

    def _bound(self):
        return float("inf")

    @classmethod
    def one(cls, ring, monoid):
        return cls(ring, monoid, {monoid.zero: ring.one})

    @classmethod
    def zero(cls, ring, monoid):
        return cls(ring, monoid, {})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return (len(self.terms) == 1 and self.terms[0][0].is_zero()
                and self.terms[0][1].is_one())

    def degree(self) -> int:
        """Max degree of a term; -1 for the zero polynomial."""
        return self._degrees[-1] if self._degrees else -1

    def __pow__(self, k: int) -> "MonoidPolynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MonoidPolynomial.one(self.ring, self.monoid)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "MonoidPolynomial":
        c = _coerce_coeff(self.ring, c)
        return self._like({e: c * c2 for e, c2 in self.terms})

    def __eq__(self, other):
        if not isinstance(other, MonoidPolynomial):
            return NotImplemented
        return (self.ring == other.ring and self.monoid == other.monoid
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.monoid, self.terms))

    def __str__(self):
        return _terms_str(self.monoid, self.terms) or "0"

    def __repr__(self):
        return f"<poly {self}>"


def _coeff_str(c: KElement, word: str) -> str:
    """Render coefficient times monomial word; word '1' means the unit class."""
    if len(c.terms) > 1:
        body = f"({c})"
        return body if word == "1" else f"{body}*{word}"
    text = str(c)
    if word == "1":
        return text
    if text == "1":
        return word
    if text == "-1":
        return f"-{word}"
    return f"{text}*{word}"


def _terms_str(monoid: GradedMonoid, terms, words=None) -> str:
    """Signed sum of terms; words are the terms' class words when the
    caller has rendered them already."""
    if words is None:
        words = monoid.format_elements(e for e, _ in terms)
    pieces = []
    for (_, c), word in zip(terms, words):
        body = _coeff_str(c, word)
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
            raise ValueError("negative truncation bound")
        self.truncation = int(truncation)
        super().__init__(ring, monoid, terms)

    def _like(self, mapping) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, self.monoid, self.truncation, mapping)

    def _bound(self):
        return self.truncation

    @classmethod
    def one(cls, ring, monoid, truncation):
        return cls(ring, monoid, truncation, {monoid.zero: ring.one})

    @classmethod
    def _from_sorted(cls, ring, monoid, truncation, terms, degrees):
        """Series from terms already checked, nonzero and in term order,
        with their degrees."""
        out = cls.__new__(cls)
        out.ring, out.monoid, out.truncation = ring, monoid, truncation
        out.terms, out._degrees = tuple(terms), tuple(degrees)
        return out

    def _check(self, other):
        super()._check(other)
        if self.truncation != other.truncation:
            raise SeriesMismatch(
                f"truncation bounds differ: {self.truncation} vs {other.truncation}")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring == other.ring and self.monoid == other.monoid
                and self.truncation == other.truncation and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.monoid, self.truncation, self.terms))

    def __str__(self):
        body = _terms_str(self.monoid, self.terms) or "0"
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


def certify_rational(f: TruncatedSeries, g: MonoidPolynomial,
                     numerator_degree: int | None = None) -> RationalityVerdict:
    """Semi-decide whether f equals (polynomial of bounded degree) / g.

    Computes f*g up to the truncation bound; a nonzero term of degree above
    the claimed numerator degree (default: deg g) refutes the claim and is
    reported as a witness.  Otherwise the claim is consistent to the bound.
    """
    if f.ring != g.ring:
        raise SpecMismatch("series and denominator over different ring specs")
    if f.monoid != g.monoid:
        raise SeriesMismatch("series and denominator over different monoids")
    if not g.is_monic():
        raise NotMonic("candidate denominator must have constant term 1")
    if g.degree() >= f.truncation:
        raise SeriesMismatch("denominator degree reaches the truncation bound")
    bound = g.degree() if numerator_degree is None else int(numerator_degree)
    h = f * g.as_series(f.truncation)
    for (e, c), d in zip(h.terms, h._degrees):
        if d > bound:
            return RationalityVerdict(False, f.truncation, bound, d, e, c)
    return RationalityVerdict(True, f.truncation, bound)


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
            raise SeriesMismatch("numerator context differs from the series")
        self.numerator = numerator
        merged: dict[tuple, tuple[KElement, MonoidElement, int]] = {}
        order: list[tuple] = []
        for c, alpha, e in factors:
            c = _coerce_coeff(ring, c)
            e = int(e)
            if e < 0:
                raise ValueError("negative factor exponent")
            if e == 0 or c.is_zero():
                continue
            if alpha.is_zero():
                raise ZeroClassFactor("denominator factor at the zero class")
            if monoid.degree(alpha) < 1:
                raise ZeroClassFactor("denominator class has non-positive degree")
            if not monoid.contains(alpha):
                raise ZeroClassFactor("denominator class is not effective")
            key = (alpha.sort_key(), c.terms)
            if key in merged:
                c0, a0, e0 = merged[key]
                merged[key] = (c0, a0, e0 + e)
            else:
                order.append(key)
                merged[key] = (c, alpha, e)
        facs = [merged[k] for k in order]
        facs.sort(key=lambda f: (monoid.degree(f[1]), f[1].sort_key(), f[0].terms, f[2]))
        self.factors = tuple(facs)

    def is_monic(self) -> bool:
        return self.numerator.is_monic()

    def _check(self, other: "RationalSeries"):
        if self.ring != other.ring:
            raise SpecMismatch("rational series over different ring specs")
        if self.monoid != other.monoid:
            raise SeriesMismatch("rational series over different monoids")

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

    def expand(self, truncation: int, max_terms: int | None = None) -> TruncatedSeries:
        return rational_expand(self, truncation, max_terms)

    def denominator_polynomial(self) -> MonoidPolynomial:
        out = MonoidPolynomial.one(self.ring, self.monoid)
        for c, alpha, e in self.factors:
            out = out * binomial_factor_polynomial(self.ring, self.monoid, c, alpha) ** e
        return out

    def specialize(self, s: Specialization) -> "RationalSeries":
        return RationalSeries(self.ring, self.monoid, self.numerator.specialize(s),
                              [(specialize(c, s), a, e) for c, a, e in self.factors])

    def __str__(self):
        num_terms = self.numerator.terms
        words = self.monoid.format_elements(
            [e for e, _ in num_terms] + [alpha for _, alpha, _ in self.factors])
        num = _terms_str(self.monoid, num_terms, words) or "0"
        if not self.factors:
            return num
        parts = []
        for (c, alpha, e), word in zip(self.factors, words[len(num_terms):]):
            binom = f"(1 - {_coeff_str(c, word)})"
            parts.append(binom if e == 1 else f"{binom}^{e}")
        den = "*".join(parts) if len(parts) == 1 else f"({'*'.join(parts)})"
        if self.numerator.is_one():
            return f"1/{den}"
        return f"({num})/{den}"

    def __repr__(self):
        return f"<rational {self}>"


def binomial_factor_polynomial(ring, monoid, c, alpha) -> MonoidPolynomial:
    """The polynomial 1 - c*t^alpha."""
    c = _coerce_coeff(ring, c)
    acc = {monoid.zero: ring.one}
    acc[alpha] = acc.get(alpha, ring.zero) - c
    return MonoidPolynomial(ring, monoid, acc)


def rational_expand(f: RationalSeries, truncation: int,
                    max_terms: int | None = None) -> TruncatedSeries:
    """Expand numerator / product of binomials exactly up to the bound.

    Dividing by (1 - c*t^alpha)^k = sum_i p_i t^(i*alpha) is one pass over
    the degree buckets in increasing order: each finished bucket pushes
    a[b + i*alpha] -= p_i*a[b] for 1 <= i <= min(k, K), K = truncation //
    deg alpha; for k = 1 that is a[b + alpha] += c*a[b].  The p_i are made
    only as far as a push needs them.  A factor of exponent e <= K takes e
    passes with k = 1; past K, one pass with k = 1 and one with k = e - 1,
    so the time stops growing with e.  Classes are packed int keys (see
    MonoidElement.packed) until the end, and coefficients stay Python ints
    while the numerator and every c are integers.

    When max_terms is given, the running term count is checked as each new
    term appears; exceeding it raises EnumerationLimitError.
    """
    if truncation < 0:
        raise ValueError("negative truncation bound")
    monoid, ring = f.monoid, f.ring
    plus = monoid.group.packed_adder()
    as_int = (all(c.is_integer() for _, c in f.numerator.terms)
              and all(c.is_integer() for c, _, _ in f.factors))
    cap = max_terms if max_terms is not None else float("inf")

    def over_cap():
        return EnumerationLimitError(
            f"expansion exceeds {max_terms} terms; raise MCS_MAX_TERMS")

    # degree -> {packed class: nonzero coefficient}
    buckets: dict[int, dict[tuple[int, ...], object]] = {}
    count = 0
    for (e, c), d in zip(f.numerator.terms, f.numerator._degrees):
        if d <= truncation:
            buckets.setdefault(d, {})[e.packed()] = c.as_integer() if as_int else c
            count += 1
    if count > cap:
        raise over_cap()
    for c, alpha, e in f.factors:
        if alpha.is_zero():
            raise ZeroClassFactor("denominator factor at the zero class")
        step = monoid.degree(alpha)
        if as_int:
            c = c.as_integer()
        # up to e = K, e passes with k = 1: one pass with k = e would multiply
        # big weights by big coefficients.  Past K, a pass with k = 1 first,
        # so that a term cap trips on small coefficients, then k = e - 1.
        for k in repeat(1, e) if e <= max(1, truncation // step) else (1, e - 1):
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
                                raise over_cap()
                            continue
                        new = old + inc
                        if new == 0:
                            del dst[key2]
                            count -= 1
                        else:
                            dst[key2] = new
    unpack = monoid.group.unpack
    to_ring = ring.from_int if as_int else (lambda x: x)
    terms, degrees = [], []
    for d in sorted(buckets):
        for key, v in sorted(buckets[d].items()):
            terms.append((unpack(key), to_ring(v)))
            degrees.append(d)
    return TruncatedSeries._from_sorted(ring, monoid, truncation, terms, degrees)


# ---------------------------------------------------------------------------
# pushforward along a monoid homomorphism


def pushforward(f, phi: MonoidHom):
    """Image of a series under a grading-compatible monoid homomorphism.

    Coefficients of source classes with equal images are summed.  For a
    truncated series the result bound is the largest one the source bound
    certifies: floor(N / max_g deg_src(g)/deg_tgt(phi g)).
    """
    if not phi.grading_compatible():
        raise PushforwardError("homomorphism does not respect the gradings")
    if isinstance(f, MonoidPolynomial):
        if f.monoid != phi.source:
            raise PushforwardError("polynomial lives on a different monoid")
        acc: dict[MonoidElement, KElement] = {}
        for e, c in f.terms:
            img = phi.apply(e)
            acc[img] = acc.get(img, f.ring.zero) + c
        return MonoidPolynomial(f.ring, phi.target, acc)
    if isinstance(f, TruncatedSeries):
        if f.monoid != phi.source:
            raise PushforwardError("series lives on a different monoid")
        ratio = phi.degree_ratio()  # 0 when the source has no generators
        bound = (f.truncation * ratio.denominator // ratio.numerator if ratio
                 else f.truncation)
        acc = {}
        for e, c in f.terms:
            img = phi.apply(e)
            if phi.target.degree(img) <= bound:
                acc[img] = acc.get(img, f.ring.zero) + c
        return TruncatedSeries(f.ring, phi.target, bound, acc)
    if isinstance(f, RationalSeries):
        if f.monoid != phi.source:
            raise PushforwardError("series lives on a different monoid")
        num = pushforward(f.numerator, phi)
        facs = [(c, phi.apply(a), e) for c, a, e in f.factors]
        return RationalSeries(f.ring, phi.target, num, facs)
    raise TypeError(f"cannot push forward {type(f).__name__}")


# ---------------------------------------------------------------------------
# external product over the direct sum of monoids


def external_product(f, g):
    """Product series over the direct sum of the two underlying monoids."""
    truncated = isinstance(f, TruncatedSeries) and isinstance(g, TruncatedSeries)
    if not (truncated or isinstance(f, RationalSeries) and isinstance(g, RationalSeries)):
        raise TypeError("external_product expects two series of the same kind")
    if f.ring != g.ring:
        raise SpecMismatch("external product across ring specs")
    if truncated and f.truncation != g.truncation:
        raise SeriesMismatch("external product needs equal truncation bounds")
    total, inj1, inj2 = direct_sum(f.monoid, g.monoid)
    return pushforward(f, inj1) * pushforward(g, inj2)


# ---------------------------------------------------------------------------
# localization quotient


def _divide_polynomial(num: MonoidPolynomial, den: MonoidPolynomial) -> MonoidPolynomial:
    """Exact quotient num/den for monic den, else LocalizationMismatch.

    Works in degree order like power-series division; only quotients of
    degree <= deg(num) are found, which covers every quotient this engine
    produces (localizing removes strata, it never enlarges the numerator).
    """
    if not den.is_monic():
        raise NotMonic("division requires a monic divisor")
    if num.is_zero():
        return num
    bound = num.degree()
    ring, monoid = num.ring, num.monoid
    rest = {e: c for e, c in num.terms}
    quotient: dict[MonoidElement, KElement] = {}
    den_tail = [(e, c) for e, c in den.terms if not e.is_zero()]
    while rest:
        d, e, c = min(((monoid.degree(e), e, c) for e, c in rest.items()),
                      key=lambda t: (t[0], t[1].sort_key()))
        if d > bound:
            raise LocalizationMismatch(
                "quotient is not a polynomial of numerator-bounded degree")
        quotient[e] = quotient.get(e, ring.zero) + c
        del rest[e]
        for e2, c2 in den_tail:
            e3 = e + e2
            c3 = rest.get(e3, ring.zero) - c * c2
            if c3.is_zero():
                rest.pop(e3, None)
            else:
                rest[e3] = c3
    q = MonoidPolynomial(ring, monoid, quotient)
    if not (q * den == num):
        raise LocalizationMismatch("division left a nonzero remainder")
    return q


def localize_quotient(mc_x: RationalSeries, mc_y: RationalSeries) -> RationalSeries:
    """The rational series Q with Q * mc_y == mc_x, certified exactly.

    Shared denominator factors cancel; leftover factors of mc_y become
    numerator binomials; a non-trivial numerator of mc_y must divide exactly,
    otherwise LocalizationMismatch.
    """
    mc_x._check(mc_y)
    remaining = {}
    order = []
    for c, a, e in mc_x.factors:
        key = (a.sort_key(), c.terms)
        remaining[key] = (c, a, remaining[key][2] + e) if key in remaining else (c, a, e)
        if key not in order:
            order.append(key)
    leftover_y = []
    for c, a, e in mc_y.factors:
        key = (a.sort_key(), c.terms)
        have = remaining.get(key, (c, a, 0))[2]
        cancel = min(have, e)
        if cancel:
            remaining[key] = (c, a, have - cancel)
        if e - cancel:
            leftover_y.append((c, a, e - cancel))
    num = mc_x.numerator
    for c, a, e in leftover_y:
        num = num * binomial_factor_polynomial(mc_x.ring, mc_x.monoid, c, a) ** e
    if not mc_y.numerator.is_one():
        num = _divide_polynomial(num, mc_y.numerator)
    q_factors = [remaining[k] for k in order if remaining[k][2] > 0]
    return RationalSeries(mc_x.ring, mc_x.monoid, num, q_factors)


# ---------------------------------------------------------------------------
# curve zeta functions


def curve_zeta(genus: int, ring: KRingSpec | None = None,
               symbol_prefix: str = "a") -> RationalSeries:
    """Motivic zeta of a smooth projective curve over the monoid Z_{>=0}.

    Genus 0 is exact: 1/((1-t)(1-L t)).  For genus g >= 1 the numerator is
    the generic monic polynomial 1 + a_1 t + ... + a_{2g} t^{2g} in fresh
    free symbols; callers pin the symbols down by specializing.
    """
    if genus < 0:
        raise ValueError("negative genus")
    symbols = tuple(f"{symbol_prefix}{i}" for i in range(1, 2 * genus + 1))
    if ring is None:
        ring = standard_ring(symbols=symbols)
    for name in symbols:
        ring.index(name)  # raises SpecMismatch when the symbol is absent
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
        return binomial_factor_polynomial(ring, monoid, ring.one, t) ** (punctures - 2)
    return RationalSeries(ring, monoid, None, [(ring.one, t, 2 - punctures)])
