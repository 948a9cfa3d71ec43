"""Computable quotients of cycle-class rings.

A ring spec fixes an ordered list of polynomial generators over the
integers, which are of three kinds:

* ``L`` is reserved for the class of the affine line.  With the homotopy
  quotient active, ``L`` is replaced by 1 eagerly at construction time, which
  is what collapses classes down to Euler-characteristic-like integers.
* ``eps`` is reserved for the sign class with ``eps**2 == 1``: its exponent
  is kept mod 2.
* any further names are free symbols, e.g. numerator coefficients of a
  genus-g curve zeta function.

Elements are kept in canonical sparse form: a sorted tuple of
(exponent vector, nonzero integer coefficient) pairs, exponent vectors
ordered lexicographically.  Two elements are equal iff their canonical
forms are equal, so hashing and dict keying are safe.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add

from .errors import MCSError

ExpVec = tuple[int, ...]
Terms = tuple[tuple[ExpVec, int], ...]


class KRingSpec:
    """Shared, immutable description of a coefficient ring."""

    __slots__ = ("generators", "a1_homotopy", "_index", "_eps", "_line", "_hash")

    def __init__(self, generators=("L", "eps"), a1_homotopy=False):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise MCSError("duplicate generator names")
        for name in gens:
            if not name or not name[0].isalpha():
                raise MCSError(f"bad generator name {name!r}")
        index = {g: i for i, g in enumerate(gens)}
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "a1_homotopy", bool(a1_homotopy))
        object.__setattr__(self, "_index", index)
        # the positions element() reduces: eps mod 2, L to 0 under A^1
        object.__setattr__(self, "_eps", index.get("eps"))
        object.__setattr__(self, "_line", index.get("L") if a1_homotopy else None)
        object.__setattr__(self, "_hash", hash((gens, self.a1_homotopy)))

    def __setattr__(self, name, value):
        raise AttributeError("KRingSpec is immutable")

    def __eq__(self, other):
        if not isinstance(other, KRingSpec):
            return NotImplemented
        return (self.generators == other.generators
                and self.a1_homotopy == other.a1_homotopy)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        quot = ", A1-homotopy" if self.a1_homotopy else ""
        return f"KRingSpec({', '.join(self.generators)}{quot})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MCSError(f"generator {name!r} not in {self!r}") from None

    # -- construction helpers

    def element(self, raw: dict[ExpVec, int]) -> "KElement":
        """The element of raw, each exponent vector reduced in one pass: the
        eps exponent taken mod 2 and, under the homotopy quotient, the L
        exponent set to 0.  A vector that is already reduced is kept."""
        eps, line = self._eps, self._line
        acc: dict[ExpVec, int] = {}
        for exp, coeff in raw.items():
            if coeff == 0:
                continue
            if eps is not None and exp[eps] > 1:
                exp = exp[:eps] + (exp[eps] & 1,) + exp[eps + 1:]
            if line is not None and exp[line]:
                exp = exp[:line] + (0,) + exp[line + 1:]
            acc[exp] = acc.get(exp, 0) + coeff
        return self.from_reduced(acc)

    def from_reduced(self, raw: dict[ExpVec, int]) -> "KElement":
        """The element of raw, whose exponent vectors are already reduced
        (the terms of elements, or vectors with fewer powers than theirs):
        its zero coefficients dropped and its terms sorted."""
        return KElement(self, tuple(sorted(item for item in raw.items() if item[1])))

    def sum_of_products(self, pairs) -> "KElement":
        """The sum of a * b over the (a, b) pairs of elements, accumulated
        in one raw {exponent vector: int} dict and made an element once.
        An integer factor scales the other's terms, which keeps them
        reduced; two others multiply term by term, and then the sum is
        reduced once: reduction is linear, so that reducing the sum gives
        the sum of the reduced products."""
        raw: dict[ExpVec, int] = {}
        reduce = False
        for a, b in pairs:
            ta, tb = a.terms, b.terms
            if len(tb) == 1 and not any(tb[0][0]):
                n, terms = tb[0][1], ta
            elif len(ta) == 1 and not any(ta[0][0]):
                n, terms = ta[0][1], tb
            else:
                reduce = True
                for e1, c1 in ta:
                    for e2, c2 in tb:
                        e = tuple(map(add, e1, e2))
                        raw[e] = raw.get(e, 0) + c1 * c2
                continue
            for e, c in terms:
                raw[e] = raw.get(e, 0) + n * c
        return self.element(raw) if reduce else self.from_reduced(raw)

    def from_int(self, n: int) -> "KElement":
        zero = (0,) * len(self.generators)
        return KElement(self, ((zero, n),) if n else ())

    @property
    def zero(self) -> "KElement":
        return self.from_int(0)

    @property
    def one(self) -> "KElement":
        return self.from_int(1)

    def generator(self, name: str) -> "KElement":
        vec = [0] * len(self.generators)
        vec[self.index(name)] = 1
        return self.element({tuple(vec): 1})


@lru_cache(maxsize=None)
def standard_ring(symbols: tuple[str, ...] = (), a1_homotopy: bool = False) -> KRingSpec:
    """The ring generated by L, eps and any extra free symbols."""
    return KRingSpec(("L", "eps") + tuple(symbols), a1_homotopy=a1_homotopy)


class KElement:
    """Canonical sparse ring element; construct through a KRingSpec.  Its
    hash is made at the first __hash__ call: most elements are never
    hashed, and a tuple does not keep its own hash."""

    __slots__ = ("spec", "terms", "_hash")

    def __init__(self, spec: KRingSpec, terms: Terms):
        self.spec = spec
        self.terms = terms
        self._hash = None

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return (len(self.terms) == 1
                and self.terms[0][1] == 1
                and not any(self.terms[0][0]))

    def is_integer(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def as_integer(self) -> int:
        if not self.terms:
            return 0
        if self.is_integer():
            return self.terms[0][1]
        raise MCSError(f"{self} is not an integer")

    # -- arithmetic

    def _coerce(self, other) -> "KElement":
        if isinstance(other, int):
            return self.spec.from_int(other)
        if isinstance(other, KElement):
            if other.spec != self.spec:
                raise MCSError(f"{self.spec!r} vs {other.spec!r}")
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for exp, c in other.terms:
            acc[exp] = acc.get(exp, 0) + c
        return self.spec.from_reduced(acc)

    __radd__ = __add__

    def __neg__(self):
        return KElement(self.spec, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.spec.sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a ring element")
        result = self.spec.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_integer() and (not self.terms and other == 0
                                          or self.terms and self.terms[0][1] == other)
        if not isinstance(other, KElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec, self.terms))
        return self._hash

    # -- display

    def __str__(self):
        if not self.terms:
            return "0"
        gens = self.spec.generators
        pieces = []
        for exp, coeff in self.terms:
            mono = "*".join([name if e == 1 else f"{name}^{e}"
                             for name, e in zip(gens, exp) if e > 0])
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"<{self} in {self.spec!r}>"


class Specialization:
    """Ring map fixed by generator assignments.

    Generators without an assignment are carried over unchanged when
    ``carry_unassigned`` is true (the default); otherwise meeting one in an
    element raises MCSError.
    """

    __slots__ = ("spec", "assignments", "carry_unassigned")

    def __init__(self, spec: KRingSpec, assignments: dict[str, "KElement | int"],
                 carry_unassigned: bool = True):
        self.spec = spec
        norm: dict[str, KElement] = {}
        for name, value in assignments.items():
            spec.index(name)
            if isinstance(value, int):
                value = spec.from_int(value)
            elif value.spec != spec:
                raise MCSError("assignments must land in the same spec")
            norm[name] = value
        self.assignments = norm
        self.carry_unassigned = carry_unassigned


def specialize(a: KElement, s: Specialization) -> KElement:
    """Apply the ring map s to a.  Raises MCSError in strict mode.

    One pass over the terms into a single raw dict, reading each term at
    the assigned positions only, and in strict mode at the unassigned ones
    too.  An integer image v scales a term's coefficient by v**e and clears
    that exponent; an unassigned generator stays in the exponent vector;
    any other image is raised to each power e once per call.  With integer
    images only, the result needs no reduction: clearing exponents of a
    reduced vector leaves it reduced."""
    if a.spec != s.spec:
        raise MCSError("element and specialization use different specs")
    spec = a.spec
    ints: dict[int, int] = {}
    images: dict[int, KElement] = {}
    for name, image in s.assignments.items():
        if image.is_integer():
            ints[spec.index(name)] = image.as_integer()
        else:
            images[spec.index(name)] = image
    unassigned = () if s.carry_unassigned else tuple(
        gi for gi in range(len(spec.generators)) if gi not in ints and gi not in images)
    scales = tuple(ints.items())
    powers: dict[tuple[int, int], KElement] = {}
    raw: dict[ExpVec, int] = {}
    for exp, coeff in a.terms:
        for gi in unassigned:
            if exp[gi]:
                raise MCSError(
                    f"no assignment for generator {spec.generators[gi]!r}")
        rest = exp
        for gi, v in scales:
            if e := exp[gi]:
                coeff *= v ** e
                rest = rest[:gi] + (0,) + rest[gi + 1:]
        if images:
            factor = None
            for gi, image in images.items():
                if e := exp[gi]:
                    power = powers.get((gi, e))
                    if power is None:
                        power = powers[(gi, e)] = image ** e
                    factor = power if factor is None else factor * power
                    rest = rest[:gi] + (0,) + rest[gi + 1:]
            if factor is not None:
                for e2, c2 in factor.terms:
                    key = tuple(x + y for x, y in zip(rest, e2))
                    raw[key] = raw.get(key, 0) + coeff * c2
                continue
        raw[rest] = raw.get(rest, 0) + coeff
    return spec.element(raw) if images else spec.from_reduced(raw)


def class_projective_space(n: int, spec: KRingSpec) -> KElement:
    """1 + L + ... + L**n, the class of n-dimensional projective space.

    Its n + 1 terms are written in order of the power of L, so that its
    prefixes are the classes of the smaller projective spaces.  Under the
    homotopy quotient it is the integer n + 1."""
    if n < 0:
        raise ValueError("negative dimension")
    li = spec.index("L")
    if spec.a1_homotopy:
        return spec.from_int(n + 1)
    head, tail = (0,) * li, (0,) * (len(spec.generators) - li - 1)
    return KElement(spec, tuple(zip([head + (i,) + tail for i in range(n + 1)],
                                    repeat(1))))
