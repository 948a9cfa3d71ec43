"""Command-line front end.

Subcommands compute orbit-class series from fan files, assemble the colinear
blow-up series, verify catalogued identities, and expand or specialize series
JSON.  Exit codes: 0 for success or PASS, 1 for a verification FAIL, 2 for
bad input.  Output is deterministic: identical inputs give identical bytes.
The environment variable MCS_MAX_TERMS (default 10^6) caps how many terms an
expansion or a monoid enumeration may accumulate before the run aborts with
exit code 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import comb

from .errors import MCSError, SeriesMismatch
from .gm_action import colinear_mc_series
from .kring import KRingSpec, Specialization, standard_ring
from .monoid import GradedMonoid, MonoidHom, express_in_basis, max_terms_from_env
from .serialize import fan_from_json, series_from_json, series_to_json
from .series import (
    MonoidPolynomial,
    RationalSeries,
    TruncatedSeries,
    binomial_factor_polynomial,
    certify_rational,
    curve_zeta,
    external_product,
    localize_quotient,
    punctured_p1_zeta,
    pushforward,
)
from .toric import chow_presentation, mc_series_toric, pn_divisor_series, product_fan


# ---------------------------------------------------------------------------
# shared plumbing


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MCSError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise MCSError(f"{path} is not valid JSON: {exc}")


def _parse_assignment(text: str, ring: KRingSpec):
    name, sep, value = text.partition("=")
    name, value = name.strip(), value.strip()
    if not sep or not name or not value:
        raise MCSError(f"assignment must look like NAME=VALUE, got {text!r}")
    if name not in ring.generators:
        raise MCSError(f"unknown ring generator {name!r}")
    try:
        return name, int(value)
    except ValueError:
        pass
    if value in ring.generators:
        return name, ring.generator(value)
    raise MCSError(
        f"assignment value must be an integer or a generator name, got {value!r}")


def _apply_specializations(f, raw: list[str]):
    if not raw:
        return f
    pairs = dict(_parse_assignment(text, f.ring) for text in raw)
    return f.specialize(Specialization(f.ring, pairs))


def _emit(args, doc, lines) -> None:
    """Print doc() as JSON or the lines(), as --format asks; only the chosen
    output is built, so JSON runs never render class words."""
    if args.format == "json":
        print(json.dumps(doc(), indent=2, sort_keys=True))
    else:
        for line in lines():
            print(line)


# ---------------------------------------------------------------------------
# denominator strings like "(1-t)^3" or "(1 - L t^2)(1 - t)"

_FACTOR = re.compile(r"\(\s*1\s*-\s*([^()]+?)\s*\)\s*(?:\^\s*(\d+))?")
_ATOM = re.compile(r"\s*\*?\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)\s*(?:\^\s*(\d+))?)")


def _parse_monomial(text: str, ring: KRingSpec, monoid: GradedMonoid):
    coeff = ring.one
    alpha = monoid.zero
    pos = 0
    while pos < len(text):
        m = _ATOM.match(text, pos)
        if m is None:
            break
        pos = m.end()
        if m.group(1):
            coeff = coeff * ring.from_int(int(m.group(1)))
            continue
        name, exp = m.group(2), int(m.group(3) or 1)
        if name in monoid.names:
            alpha = alpha + exp * monoid.generator_named(name)
        elif name in ring.generators:
            coeff = coeff * ring.generator(name) ** exp
        else:
            raise MCSError(f"unknown symbol {name!r} in denominator")
    if text[pos:].strip():
        raise MCSError(f"cannot parse monomial fragment {text[pos:]!r}")
    return coeff, alpha


def _parse_denominator(text: str, ring: KRingSpec, monoid: GradedMonoid,
                       truncation: int) -> MonoidPolynomial:
    """The product of the parsed factors; its degree, summed from the
    factors, must stay below the truncation before any power is taken."""
    factors = []
    degree = 0
    pos = 0
    for m in _FACTOR.finditer(text):
        gap = text[pos:m.start()].replace("*", " ").strip()
        if gap:
            raise MCSError(f"unexpected text {gap!r} in denominator")
        coeff, alpha = _parse_monomial(m.group(1), ring, monoid)
        factor = binomial_factor_polynomial(ring, monoid, coeff, alpha)
        power = int(m.group(2) or 1)
        factors.append((factor, power))
        degree += power * factor.degree()
        pos = m.end()
    if text[pos:].replace("*", " ").strip() or not factors:
        raise MCSError(f"cannot parse denominator {text!r}")
    if degree >= truncation:
        raise SeriesMismatch("denominator degree reaches the truncation bound")
    poly = MonoidPolynomial.one(ring, monoid)
    for factor, power in factors:
        poly = poly * factor ** power
    return poly


# ---------------------------------------------------------------------------
# toric / colinear


def cmd_toric(args) -> int:
    fan = fan_from_json(_load_json(args.fan))
    chow = chow_presentation(fan, args.p)
    f = _apply_specializations(mc_series_toric(fan, args.p, chow=chow), args.specialize)
    e = None
    if args.truncate > 0:
        e = f.expand(args.truncate, max_terms=max_terms_from_env())

    def doc():
        out = {"command": "toric", "p": args.p, "rational": series_to_json(f),
               "notes": list(chow.assumptions)}
        if e is not None:
            out["expansion"] = series_to_json(e)
        return out

    def lines():
        out = [f"MC_{args.p} = {f}"]
        if e is not None:
            out.append(f"expansion: {e}")
        return out + [f"note: {note}" for note in chow.assumptions]

    _emit(args, doc, lines)
    return 0


def _class_in_h_e(coords) -> str:
    names = ["H"] + [f"E{i}" for i in range(1, len(coords))]
    parts = []
    for name, c in zip(names, coords):
        if c == 0:
            continue
        mag = name if abs(c) == 1 else f"{abs(c)}*{name}"
        parts.append(("- " if c < 0 else "+ " if parts else "") + mag)
    return " ".join(parts) if parts else "0"


def _compare_colinear(col: RationalSeries, fan, truncate: int, cap: int):
    """First coefficient disagreement between the colinear series and the fan's
    divisor series, both rewritten in the common basis (H, E1, E2, E3)."""
    chow = chow_presentation(fan, 1)
    m = chow.monoid
    try:
        t = {n: m.generator_named(n) for n in ("t1", "t2", "t3")}
        s = {n: m.generator_named(n) for n in ("s1", "s2", "s3")}
    except KeyError as exc:
        raise MCSError(f"--compare fan must name its ray classes t1..t3, s1..s3;"
                       f" missing {exc}")
    h = t["t1"] + s["s2"] + s["s3"]
    if (t["t2"] != h - s["s1"] - s["s3"] or t["t3"] != h - s["s1"] - s["s2"]
            or m.group.rank != 4):
        raise MCSError("--compare fan classes do not satisfy the three-point"
                       " blow-up relations t_i s_j = t_j s_i")
    fan_basis = (h, s["s1"], s["s2"], s["s3"])
    fan_series = mc_series_toric(fan, 1, ring=col.ring, chow=chow)

    grp = col.monoid.group
    col_basis = tuple(grp.project([1 if i == j else 0 for i in range(4)])
                      for j in range(4))

    col_terms = {express_in_basis(e, col_basis): c
                 for e, c in col.expand(truncate, max_terms=cap).terms}
    fan_terms = {express_in_basis(e, fan_basis): c
                 for e, c in fan_series.expand(truncate, max_terms=cap).terms}

    def degrees(v):
        ce = sum((x * b for x, b in zip(v, col_basis)), col.monoid.zero)
        fe = sum((x * b for x, b in zip(v, fan_basis)), m.zero)
        return col.monoid.degree(ce), m.degree(fe)

    zero = col.ring.zero
    comparable = []
    for v in set(col_terms) | set(fan_terms):
        dc, df = degrees(v)
        if dc <= truncate and df <= truncate:
            comparable.append((dc, v))
    for _, v in sorted(comparable):
        a = col_terms.get(v, zero)
        b = fan_terms.get(v, zero)
        if a != b:
            return v, a, b
    return None


def cmd_colinear(args) -> int:
    f = _apply_specializations(colinear_mc_series(args.r), args.specialize)
    e = None
    if args.truncate > 0:
        e = f.expand(args.truncate, max_terms=max_terms_from_env())
    compare_doc = compare_line = None
    if args.compare:
        if args.r != 3:
            raise MCSError("--compare needs --r 3: the reference basis is"
                           " (H, E1, E2, E3)")
        if args.truncate <= 0:
            raise MCSError("--compare needs --truncate > 0")
        fan = fan_from_json(_load_json(args.compare))
        hit = _compare_colinear(f, fan, args.truncate, max_terms_from_env())
        if hit is None:
            msg = (f"no differing coefficient up to degree {args.truncate}"
                   " in both gradings")
            compare_doc = {"differs": False, "message": msg}
            compare_line = f"compare: {msg}"
        else:
            v, a, b = hit
            compare_doc = {"differs": True, "class": list(v),
                           "colinear_coefficient": str(a),
                           "fan_coefficient": str(b)}
            compare_line = (f"compare: first differing class {_class_in_h_e(v)}:"
                            f" colinear {a}, fan {b}")

    def doc():
        out = {"command": "colinear", "r": args.r, "rational": series_to_json(f)}
        if e is not None:
            out["expansion"] = series_to_json(e)
        if compare_doc is not None:
            out["compare"] = compare_doc
        return out

    def lines():
        out = [f"MC_1 = {f}"]
        if e is not None:
            out.append(f"expansion: {e}")
        if compare_line is not None:
            out.append(compare_line)
        return out

    _emit(args, doc, lines)
    return 0


# ---------------------------------------------------------------------------
# verify


def _first_difference(a: TruncatedSeries, b: TruncatedSeries):
    diff = a - b
    return diff.terms[0] if diff.terms else None


def cmd_verify_localization(args) -> int:
    if args.curve != "p1":
        raise MCSError("only --curve p1 has a catalogued closed form")
    if args.remove < 0:
        raise MCSError("--remove must be >= 0")
    ring = standard_ring(a1_homotopy=True)
    closed = punctured_p1_zeta(args.remove, ring)
    zx = curve_zeta(0, ring).specialize(Specialization(ring, {"L": 1}))
    t = zx.monoid.generator_named("t")
    points = RationalSeries(ring, zx.monoid, None, [(ring.one, t, args.remove)])
    quotient = localize_quotient(zx, points)
    if isinstance(closed, MonoidPolynomial):
        closed = RationalSeries(ring, zx.monoid, closed, [])
    print(f"closed path:   {closed}")
    print(f"quotient path: {quotient}")
    cap = max_terms_from_env()
    same_form = quotient == closed
    hit = _first_difference(quotient.expand(args.truncate, max_terms=cap),
                            closed.expand(args.truncate, max_terms=cap))
    if same_form and hit is None:
        print(f"PASS (identical rational forms; expansions agree to degree"
              f" {args.truncate})")
        return 0
    if hit is not None:
        e, c = hit
        print(f"FAIL witness: class {zx.monoid.format_element(e)},"
              f" coefficient difference {c}")
    else:
        print("FAIL: rational forms differ")
    return 1


def _generator_cones(chow):
    seen = {}
    for c in chow.cones:
        cls = chow.class_of(c)
        if cls not in seen:
            seen[cls] = c
    return [seen[g] for g in chow.monoid.generators]


def cmd_verify_product(args) -> int:
    fan_a = fan_from_json(_load_json(args.fanA))
    fan_b = fan_from_json(_load_json(args.fanB))
    pa, pb = fan_a.dim - 1, fan_b.dim - 1
    chow_a = chow_presentation(fan_a, pa)
    chow_b = chow_presentation(fan_b, pb)
    ext = external_product(mc_series_toric(fan_a, pa, chow=chow_a),
                           mc_series_toric(fan_b, pb, chow=chow_b))
    prod = product_fan(fan_a, fan_b)
    chow_p = chow_presentation(prod, prod.dim - 1)
    direct = mc_series_toric(prod, prod.dim - 1, chow=chow_p)
    # rays of the product fan list fan A's rays first, then fan B's
    off = len(fan_a.rays)
    images = [chow_p.class_of(c) for c in _generator_cones(chow_a)]
    images += [chow_p.class_of(tuple(i + off for i in c))
               for c in _generator_cones(chow_b)]
    phi = MonoidHom(ext.monoid, chow_p.monoid, images)
    pushed = pushforward(ext, phi)
    print(f"external product: {pushed}")
    print(f"product fan:      {direct}")
    cap = max_terms_from_env()
    hit = _first_difference(pushed.expand(args.truncate, max_terms=cap),
                            direct.expand(args.truncate, max_terms=cap))
    if hit is None:
        print(f"PASS (expansions agree to degree {args.truncate})")
        return 0
    e, c = hit
    print(f"FAIL witness: class {chow_p.monoid.format_element(e)},"
          f" coefficient difference {c}")
    return 1


def cmd_verify_eq1(args) -> int:
    if args.n < 1:
        raise MCSError("--n must be >= 1")
    f = _apply_specializations(pn_divisor_series(args.n, args.truncate),
                               args.specialize)
    g = _parse_denominator(args.denominator, f.ring, f.monoid, args.truncate)
    verdict = certify_rational(f, g)
    print(f"divisor series of P^{args.n} against denominator"
          f" {args.denominator}: {verdict}")
    if verdict.consistent:
        print(f"PASS (consistent with a numerator of degree <="
              f" {verdict.numerator_bound} up to degree {verdict.truncation})")
        return 0
    print(f"FAIL witness: degree {verdict.witness_degree}, class"
          f" {f.monoid.format_element(verdict.witness_class)},"
          f" coefficient {verdict.witness_coeff}")
    return 1


def cmd_verify_macdonald(args) -> int:
    fan = fan_from_json(_load_json(args.fan))
    chow = chow_presentation(fan, 0)
    mc0 = mc_series_toric(fan, 0, chow=chow)
    chi = len(fan.maximal_cones)
    print(f"MC_0 = {mc0}")
    if (len(mc0.factors) != 1 or mc0.factors[0][2] != chi
            or not mc0.factors[0][0].is_one() or not mc0.numerator.is_one()):
        print(f"FAIL: expected a single point class with multiplicity"
              f" {chi} (one per maximal cone)")
        return 1
    pt = mc0.factors[0][1]
    e = mc0.expand(args.truncate, max_terms=max_terms_from_env())
    for d in range(args.truncate + 1):
        want = comb(chi + d - 1, d)
        got = e.coefficient(d * pt)
        if got != mc0.ring.from_int(want):
            print(f"FAIL witness: degree {d}, coefficient {got}, expected {want}")
            return 1
    print(f"PASS (1/(1-t)^{chi} with chi = {chi} maximal cones, coefficients"
          f" C({chi}+d-1,d) to degree {args.truncate})")
    return 0


# ---------------------------------------------------------------------------
# expand / specialize


def cmd_expand(args) -> int:
    f = series_from_json(_load_json(args.series))
    cap = max_terms_from_env()
    if isinstance(f, RationalSeries):
        out = f.expand(args.truncate, max_terms=cap)
    else:
        out = f.as_series(args.truncate)
    if len(out.terms) > cap:
        raise MCSError(f"expansion exceeds {cap} terms; raise MCS_MAX_TERMS")
    _emit(args, lambda: {"command": "expand", "series": series_to_json(out)},
          lambda: [str(out)])
    return 0


def cmd_specialize(args) -> int:
    f = series_from_json(_load_json(args.series))
    pairs = dict(_parse_assignment(text, f.ring) for text in args.assign)
    out = f.specialize(Specialization(f.ring, pairs,
                                      carry_unassigned=not args.strict))
    _emit(args, lambda: {"command": "specialize", "series": series_to_json(out)},
          lambda: [str(out)])
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("pretty", "json"), default="pretty",
                   help="output as readable text or as JSON")
    p.add_argument("--specialize", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="ring assignment applied before printing; repeatable")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mcseries",
        description="Orbit-class generating series of complete toric varieties"
                    " and stratified blow-ups, with identity verification.")
    sub = top.add_subparsers(dest="command", required=True)

    t = sub.add_parser("toric", help="series of a fan from JSON")
    t.add_argument("--fan", required=True, metavar="FAN_JSON")
    t.add_argument("--p", required=True, type=int,
                   help="cycle dimension of the orbit closures")
    t.add_argument("--truncate", type=int, default=0, metavar="N",
                   help="also print the expansion up to degree N")
    _add_output_flags(t)
    t.set_defaults(func=cmd_toric)

    c = sub.add_parser("colinear",
                       help="blow-up of the plane at r colinear points")
    c.add_argument("--r", required=True, type=int, help="number of points (>= 2)")
    c.add_argument("--truncate", type=int, default=0, metavar="N")
    c.add_argument("--compare", metavar="FAN_JSON",
                   help="report the first coefficient differing from this fan's"
                        " series (requires --r 3 and --truncate)")
    _add_output_flags(c)
    c.set_defaults(func=cmd_colinear)

    v = sub.add_parser("verify", help="check a catalogued identity")
    vsub = v.add_subparsers(dest="identity", required=True)

    vl = vsub.add_parser("localization",
                         help="removing r points from a curve divides the series"
                              " by the points' series")
    vl.add_argument("--curve", default="p1", metavar="NAME")
    vl.add_argument("--remove", required=True, type=int, metavar="R")
    vl.add_argument("--truncate", type=int, default=8, metavar="N")
    vl.set_defaults(func=cmd_verify_localization)

    vp = vsub.add_parser("product",
                         help="divisor series of a product fan equals the"
                              " external product of the factors' series")
    vp.add_argument("--fanA", required=True, metavar="FAN_JSON")
    vp.add_argument("--fanB", required=True, metavar="FAN_JSON")
    vp.add_argument("--truncate", type=int, default=6, metavar="N")
    vp.set_defaults(func=cmd_verify_product)

    ve = vsub.add_parser("eq1",
                         help="test the P^n divisor series against a claimed"
                              " denominator")
    ve.add_argument("--n", required=True, type=int)
    ve.add_argument("--denominator", required=True, metavar="EXPR",
                    help="product of factors like \"(1-t)^4\" or \"(1-L t)\"")
    ve.add_argument("--truncate", type=int, default=8, metavar="N")
    ve.add_argument("--specialize", action="append", default=[],
                    metavar="NAME=VALUE")
    ve.set_defaults(func=cmd_verify_eq1)

    vm = vsub.add_parser("macdonald",
                         help="point series of a fan is 1/(1-t)^chi with chi"
                              " the number of maximal cones")
    vm.add_argument("--fan", required=True, metavar="FAN_JSON")
    vm.add_argument("--truncate", type=int, default=8, metavar="N")
    vm.set_defaults(func=cmd_verify_macdonald)

    e = sub.add_parser("expand", help="expand a series JSON file")
    e.add_argument("--series", required=True, metavar="SERIES_JSON")
    e.add_argument("--truncate", required=True, type=int, metavar="N")
    _add_output_flags(e)
    e.set_defaults(func=cmd_expand)

    s = sub.add_parser("specialize",
                       help="apply ring assignments to a series JSON file")
    s.add_argument("--series", required=True, metavar="SERIES_JSON")
    s.add_argument("--assign", action="append", default=[], required=True,
                   metavar="NAME=VALUE")
    s.add_argument("--strict", action="store_true",
                   help="fail on generators without an assignment")
    s.add_argument("--format", choices=("pretty", "json"), default="pretty")
    s.set_defaults(func=cmd_specialize)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except MCSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
