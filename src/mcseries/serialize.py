"""JSON encoding and decoding for every value the CLI reads or writes.

Encoders lean on the canonical internal orderings, so equal objects always
produce identical JSON; decoders validate through the ordinary constructors
rather than trusting the file.  The monoid reader accepts both the full
schema written here and the short form {"generators": [names...],
"relations": [[...]]} where generators are the ambient basis vectors.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote

from .errors import MAX_COEFFICIENT_DIGITS, TRUNCATION_LIMIT, MCSError, check_cap
from .kring import KElement, KRingSpec
from .monoid import AbelianGroupPresentation, GradedMonoid, MonoidElement
from .series import (MonoidPolynomial, RationalSeries, TruncatedSeries,
                     coefficient_texts)
from .toric import Fan

__all__ = [
    "ring_to_json", "ring_from_json",
    "element_to_json", "element_from_json",
    "monoid_element_to_json", "monoid_element_from_json",
    "monoid_to_json", "monoid_from_json",
    "series_to_json", "series_from_json",
    "fan_to_json", "fan_from_json",
    "json_text", "write_json",
]


def _need(obj, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise MCSError(f"{kind} JSON needs a {key!r} field")
    return obj[key]


_SHAPES = {list: "an array", dict: "an object", str: "a string", int: "an integer"}


def _as(shape, value, what):
    """value when it is a JSON integer (not a bool, a float or a string), or
    a list, dict or str; anything else is a MCSError naming what."""
    if (type(value) is int) if shape is int else isinstance(value, shape):
        return value
    raise MCSError(f"{what} must be {_SHAPES[shape]}, got {value!r:.60}")


def _ints(value, what) -> tuple[int, ...]:
    return tuple(_as(int, x, what) for x in _as(list, value, what))


# ---------------------------------------------------------------------------
# coefficient rings and their elements


def ring_to_json(spec: KRingSpec) -> dict:
    out: dict = {"generators": list(spec.generators)}
    if spec.a1_homotopy:
        out["a1_homotopy"] = True
    return out


def ring_from_json(obj) -> KRingSpec:
    gens = tuple(_as(str, g, "ring generator")
                 for g in _as(list, _need(obj, "generators", "ring"), "ring generators"))
    if "reductions" in obj:
        raise MCSError("ring field 'reductions' is not supported: a ring is L, eps"
                       " and free symbols, with eps^2 = 1 and, under a1_homotopy, L = 1")
    return KRingSpec(gens, bool(obj.get("a1_homotopy", False)))


def element_to_json(x: KElement) -> dict:
    terms = []
    for exp, coeff in x.terms:
        named = {name: e for name, e in zip(x.spec.generators, exp) if e}
        terms.append({"exp": named, "coeff": coeff})
    return {"terms": terms}


def element_from_json(ring: KRingSpec, obj) -> KElement:
    raw: dict[tuple[int, ...], int] = {}
    for term in _as(list, _need(obj, "terms", "ring element"), "ring element terms"):
        coeff = _as(int, _need(term, "coeff", "ring element term"), "coefficient")
        vec = [0] * len(ring.generators)
        for name, e in _as(dict, term.get("exp", {}), "exponents").items():
            if _as(int, e, "exponent") < 0:
                raise MCSError(f"exponent of {name!r} must be >= 0, got {e}")
            vec[ring.index(name)] = e
        key = tuple(vec)
        raw[key] = raw.get(key, 0) + coeff
    return ring.element(raw)


# ---------------------------------------------------------------------------
# monoids and their elements


def monoid_element_to_json(e: MonoidElement) -> dict:
    return {"free": list(e.free), "torsion": list(e.torsion)}


def monoid_element_from_json(monoid: GradedMonoid, obj) -> MonoidElement:
    free = _ints(_need(obj, "free", "monoid element"), "free part")
    torsion = _ints(obj.get("torsion", []), "torsion part")
    return MonoidElement(free, torsion, monoid.group.invariants)


def monoid_to_json(monoid: GradedMonoid) -> dict:
    group = monoid.group
    return {
        "ambient_generators": group.num_generators,
        "relations": [list(r) for r in group.relations],
        "generators": [{"name": n, "ambient": group.lift(g)}
                       for n, g in zip(monoid.names, monoid.generators)],
        "grading": list(monoid.grading),
    }


def monoid_from_json(obj) -> GradedMonoid:
    gens = _as(list, _need(obj, "generators", "monoid"), "monoid generators")
    relations = [_ints(row, "relation")
                 for row in _as(list, obj.get("relations", []), "relations")]
    short = gens and isinstance(gens[0], str)  # the ambient basis, in order
    if short:
        names = tuple(_as(str, n, "monoid generator name") for n in gens)
        m = len(names)
    else:
        names = tuple(_as(str, _need(g, "name", "monoid generator"), "monoid generator name")
                      for g in gens)
        m = _as(int, _need(obj, "ambient_generators", "monoid"), "ambient_generators")
    # the group keeps two m x m matrices, even without relations
    if m > 0:
        check_cap(f"monoid on {m} ambient generators", m * m, "matrix entries")
    group = AbelianGroupPresentation(m, relations)
    if short:
        elements = tuple(group.basis_images())
    else:
        elements = tuple(
            group.project(_ints(_need(g, "ambient", "monoid generator"), "ambient"))
            for g in gens)
    grading = obj.get("grading")
    if grading is not None:
        grading = _ints(grading, "grading")
    return GradedMonoid(group, names, elements, grading=grading)


# ---------------------------------------------------------------------------
# series


def _terms_to_json(poly) -> list:
    """One {"class", "coeff"} row per term of poly, its class coordinates
    sliced from the packed key.  Equal coefficients share one coefficient
    dict, as KElement is immutable.  json_text makes no rows (_write_terms)."""
    r = poly.monoid.group.rank
    coeffs: dict[KElement, dict] = {}
    return [{"class": {"free": list(k[:r]), "torsion": list(k[r:])},
             "coeff": coeffs.get(c) or coeffs.setdefault(c, element_to_json(c))}
            for k, c in zip(poly.keys, poly.coeffs)]


def _terms_from_json(ring, monoid, rows, kind):
    out = {}
    for row in _as(list, rows, f"{kind}s"):
        e = monoid_element_from_json(monoid, _need(row, "class", kind))
        c = element_from_json(ring, _need(row, "coeff", kind))
        out[e] = out.get(e, ring.zero) + c
    return out


def series_to_json(f) -> dict:
    return _series_fields(f, _terms_to_json, monoid_to_json)


def _series_fields(f, terms, monoid) -> dict:
    """The JSON object of series f, with terms(poly) for each term list and
    monoid(f.monoid) for its monoid: kind, ring and monoid, then the fields
    of its kind."""
    if isinstance(f, TruncatedSeries):
        kind, fields = "truncated", {"truncation": f.truncation, "terms": terms(f)}
    elif isinstance(f, MonoidPolynomial):
        kind, fields = "polynomial", {"terms": terms(f)}
    elif isinstance(f, RationalSeries):
        kind, fields = "rational", {
            "numerator": terms(f.numerator),
            "denominator": [{"class": monoid_element_to_json(a),
                             "coeff": element_to_json(c), "power": e}
                            for c, a, e in f.factors]}
    else:
        raise TypeError(f"cannot serialize {type(f).__name__}")
    return {"kind": kind, "ring": ring_to_json(f.ring),
            "monoid": monoid(f.monoid), **fields}


def series_from_json(obj):
    """The series of a _series_fields object: a missing numerator is 1, and
    an empty one is 0."""
    ring = ring_from_json(_need(obj, "ring", "series"))
    monoid = monoid_from_json(_need(obj, "monoid", "series"))
    kind = obj.get("kind")
    if kind is None:
        kind = ("rational" if "denominator" in obj
                else "truncated" if "truncation" in obj else "polynomial")
    if kind == "rational":
        num = None
        if "numerator" in obj:
            num = MonoidPolynomial(ring, monoid, _terms_from_json(
                ring, monoid, obj["numerator"], "numerator term"))
        factors = []
        for row in _as(list, _need(obj, "denominator", "rational series"),
                       "denominator"):
            factors.append((element_from_json(ring, _need(row, "coeff", "factor")),
                            monoid_element_from_json(monoid, _need(row, "class", "factor")),
                            _as(int, row.get("power", 1), "factor power")))
        return RationalSeries(ring, monoid, num, factors)
    if kind not in ("truncated", "polynomial"):
        raise MCSError(f"unknown series kind {kind!r}")
    terms = _terms_from_json(ring, monoid, _need(obj, "terms", "series"),
                             "series term" if kind == "truncated" else "polynomial term")
    if kind == "polynomial":
        return MonoidPolynomial(ring, monoid, terms)
    truncation = _as(int, _need(obj, "truncation", "series"), "truncation")
    if truncation >= TRUNCATION_LIMIT:
        raise MCSError(f"series truncation must have fewer than"
                       f" {MAX_COEFFICIENT_DIGITS} digits, so that its O-term prints")
    return TruncatedSeries(ring, monoid, truncation, terms)


# ---------------------------------------------------------------------------
# fans


def fan_to_json(fan: Fan) -> dict:
    return {"dim": fan.dim, "rays": [list(v) for v in fan.rays],
            "maximal_cones": [list(c) for c in fan.maximal_cones],
            "ray_names": list(fan.ray_names)}


def fan_from_json(obj) -> Fan:
    rays = [_ints(v, "ray") for v in _as(list, _need(obj, "rays", "fan"), "rays")]
    cones = [_ints(c, "maximal cone")
             for c in _as(list, _need(obj, "maximal_cones", "fan"), "maximal_cones")]
    names = obj.get("ray_names")
    if names is not None:
        names = [_as(str, s, "ray name") for s in _as(list, names, "ray_names")]
    fan = Fan(rays, cones, names)
    if "dim" in obj and _as(int, obj["dim"], "dim") != fan.dim:
        raise MCSError(f"fan says dim={obj['dim']} but rays live in"
                       f" dimension {fan.dim}")
    return fan


# ---------------------------------------------------------------------------
# text


def json_text(value) -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) gives, for a
    value built from dicts with str keys, lists, str, int, bool and None;
    a series, a polynomial or a rational series in it stands for its
    series_to_json document.  Anything else raises TypeError.  With indent
    set, json.dumps always runs its pure-Python encoder; this writer leans
    on the C string escaper, and writes the term lists of a series from
    its packed keys and coefficients (_write_terms), with no row dicts.
    Each monoid object is written once per document: a second series over
    it reuses that text.  Nothing is kept from one call to the next.  The
    text is the join of the pieces write_json hands out, which the CLI
    writes to stdout as they come instead."""
    return _joined(value, "\n", {})


def write_json(value, write) -> None:
    """Hand the text json_text(value) gives to write, piece by piece, each
    as soon as it is made; no piece holds more than _CHUNK_ROWS term rows,
    so no text of the whole document, or of a whole term list, is ever
    made.  On TypeError some pieces may have been written already."""
    _write(value, "\n", {}, write)


# the most term rows of a series that _write_terms joins into one piece
_CHUNK_ROWS = 64

# a term list and the monoid of a series document, which _write writes with
# _write_terms and with the text of the monoid's first writing
_TermList = namedtuple("_TermList", "poly")
_Monoid = namedtuple("_Monoid", "monoid")


def _joined(value, newline: str, monoids: dict) -> str:
    """The text _write gives value at the indent of newline, as one str."""
    parts: list[str] = []
    _write(value, newline, monoids, parts.append)
    return "".join(parts)


def _write(value, newline: str, monoids: dict, write) -> None:
    """Hand the JSON text of value at the indent of newline to write, in
    pieces; monoids maps the id and indent of each monoid written so far
    to its text."""
    if isinstance(value, str):
        write(_quote(value))
    elif value is None:
        write("null")
    elif isinstance(value, bool):
        write("true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            write(f"{sep}{_quote(key)}: ")
            _write(value[key], inner, monoids, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, list):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for x in value:
            # exponent vectors make ints the commonest item
            if type(x) is int:
                write(sep + int.__repr__(x))
            else:
                write(sep)
                _write(x, inner, monoids, write)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(value, (MonoidPolynomial, TruncatedSeries, RationalSeries)):
        _write(_series_fields(value, _TermList, _Monoid), newline, monoids, write)
    elif type(value) is _TermList:
        _write_terms(value.poly, newline, write)
    elif type(value) is _Monoid:
        # the value holds the monoid for the whole call, so its id is not reused
        key = id(value.monoid), newline
        if key not in monoids:
            monoids[key] = _joined(monoid_to_json(value.monoid), newline, monoids)
        write(monoids[key])
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _write_terms(poly, newline: str, write) -> None:
    """_write(_terms_to_json(poly), newline, {}, write), in one pass over
    the packed keys and the coefficients: each row is one template, made
    once per series, filled with the class coordinates (template % key),
    and coefficient_texts writes each distinct coefficient once.  The rows
    go to write joined _CHUNK_ROWS at a time."""
    keys = poly.keys
    if not keys:
        write("[]")
        return
    row, cls, coord = (newline + "  " * k for k in (1, 2, 3))
    free, torsion = (f"[{coord}  " + f",{coord}  ".join(["%d"] * n) + f"{coord}]" if n else "[]"
                     for n in (poly.monoid.group.rank, len(poly.monoid.group.invariants)))
    template = (f'{row}{{{cls}"class": {{{coord}"free": {free},{coord}"torsion": {torsion}'
                f'{cls}}},{cls}"coeff": ')
    texts = coefficient_texts(poly, lambda c: _joined(element_to_json(c), cls, {}))
    sep = f"{row}}},"
    write("[")
    for start in range(0, len(keys), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        if start:
            write(sep)
        write(sep.join([template % key + text
                        for key, text in zip(keys[start:stop], texts[start:stop])]))
    write(f"{row}}}{newline}]")
