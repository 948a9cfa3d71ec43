"""Command-line front end.

Subcommands compute orbit-class series from fan files, assemble the colinear
blow-up series, verify catalogued identities, and expand or specialize series
JSON.  Exit codes: 0 for success or PASS, 1 for a verification FAIL, 2 for
bad input or a stdout closed early.  Output is deterministic: identical
inputs give identical bytes.
Subcommands return exit code and output; _emit, the one writer of stdout,
checks all output before making text, so an exit 2 leaves stdout empty.
The environment variable MCS_MAX_TERMS (default 10^6) caps how many terms,
elements, candidate faces, facet intersections or matrix entries a stage may
make; past it the run aborts with exit code 2 and a message naming the stage.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from math import comb
from operator import mul

from .errors import (MAX_COEFFICIENT_DIGITS, TRUNCATION_LIMIT, MCSError, check_cap,
                     read_integer, term_cap)
from .gm_action import colinear_mc_series
from .kring import KRingSpec, Specialization, standard_ring
from .monoid import GradedMonoid, MonoidHom, express_keys_in_basis
from .serialize import fan_from_json, series_from_json, write_json
from .series import (
    MonoidPolynomial,
    RationalSeries,
    TruncatedSeries,
    binomial_factor_polynomial,
    certify_rational,
    check_printable,
    curve_zeta,
    external_product,
    localize_quotient,
    punctured_p1_zeta,
    pushforward,
)
from .toric import (OrbitClassMonoid, chow_presentation, divisor_term_counts,
                    mc_series_toric, pn_divisor_series, product_fan)


# ---------------------------------------------------------------------------
# shared plumbing


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MCSError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MCSError(f"{path} is not valid JSON: {exc}")
    except ValueError:  # the only other one json raises: an integer too wide
        raise MCSError(f"{path} holds an integer wider than the limit of"
                       f" {MAX_COEFFICIENT_DIGITS} digits") from None
    except RecursionError:
        raise MCSError(f"{path} nests arrays or objects too deeply to read")


def _parse_assignment(text: str, ring: KRingSpec):
    name, sep, value = text.partition("=")
    name, value = name.strip(), value.strip()
    if not sep or not name or not value:
        raise MCSError(f"assignment must look like NAME=VALUE, got {text!r}")
    if name not in ring.generators:
        raise MCSError(f"unknown ring generator {name!r}")
    if value in ring.generators:
        return name, ring.generator(value)
    try:
        return name, read_integer(value, f"the value of {name}")
    except ValueError:
        raise MCSError("assignment value must be an integer or a generator"
                       f" name, got {value!r}") from None


def _specialization(ring: KRingSpec, raw: list[str], strict: bool = False):
    """The ring map of the NAME=VALUE assignments raw; None when there are
    none."""
    if not raw:
        return None
    pairs = {}
    for text in raw:
        name, value = _parse_assignment(text, ring)
        if name in pairs:
            raise MCSError(f"ring generator {name!r} is assigned twice")
        pairs[name] = value
    return Specialization(ring, pairs, carry_unassigned=not strict)


def _apply_specializations(f, raw: list[str], strict: bool = False):
    s = _specialization(f.ring, raw, strict)
    return f if s is None else f.specialize(s)


def _emit(args, fields: dict, lines, printed: dict) -> None:
    """Write a command's output: with --format json, its name, fields and
    each printed value that is not None, under its key; else the lines().
    printed maps a key to (stage, value).  Every printed value is checked,
    in printed order, before any text is made: a coefficient too wide to
    print is bad input naming its stage, and stdout stays empty.  JSON goes
    out in the pieces of write_json as they are made, never whole; the
    pretty lines, far shorter, are made whole, class words included."""
    for stage, f in printed.values():
        if f is not None:
            check_printable(stage, f)
    if args.format == "json":
        write_json(dict(fields, command=args.command, **{
            key: f for key, (_, f) in printed.items() if f is not None}), sys.stdout.write)
        sys.stdout.write("\n")
    else:
        print("\n".join(lines()))


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
            coeff *= ring.from_int(read_integer(m.group(1), "a denominator coefficient"))
            continue
        name, exp = m.group(2), read_integer(m.group(3) or "1", "a denominator exponent")
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
        power = read_integer(m.group(2) or "1", "a denominator power")
        factors.append((coeff, alpha, power))
        degree += power * _factor_degree(coeff, alpha, monoid)
        pos = m.end()
    if text[pos:].replace("*", " ").strip() or not factors:
        raise MCSError(f"cannot parse denominator {text!r}")
    if degree >= truncation:
        raise MCSError("denominator degree reaches the truncation bound")
    (coeff, alpha, power), *rest = factors
    poly = binomial_factor_polynomial(ring, monoid, coeff, alpha, power)
    for coeff, alpha, power in rest:
        poly = poly * binomial_factor_polynomial(ring, monoid, coeff, alpha, power)
    return poly


def _factor_degree(coeff, alpha, monoid: GradedMonoid) -> int:
    """The degree of the polynomial 1 - coeff t^alpha: that of alpha, 0 when
    the polynomial is a nonzero constant, and -1 when it is 0, as in (1 - 1)."""
    if coeff.is_zero():
        return 0
    if alpha == monoid.zero:
        return -1 if coeff.is_one() else 0
    return monoid.degree(alpha)


# ---------------------------------------------------------------------------
# toric / colinear


def _series_output(args, label, f, e, fields, notes):
    """The output of toric and colinear: "label = f", the expansion e unless
    it is None, then the notes; with --format json, fields, f and e."""
    def lines():
        expansion = [] if e is None else [f"expansion: {e}"]
        return [f"{label} = {f}", *expansion, *notes]

    return 0, fields, lines, {"rational": ("specialization", f),
                              "expansion": (f"expansion to degree {args.truncate}", e)}


def cmd_toric(args):
    fan = fan_from_json(_load_json(args.fan))
    f = _apply_specializations(mc_series_toric(fan, args.p), args.specialize)
    # pretty output names each class by a word, which the expansion records
    e = (f.expand(args.truncate, words=args.format == "pretty")
         if args.truncate > 0 else None)
    notes = OrbitClassMonoid.assumptions
    return _series_output(args, f"MC_{args.p}", f, e, {"p": args.p, "notes": list(notes)},
                          [f"note: {note}" for note in notes])


def _class_in_h_e(coords) -> str:
    names = ["H"] + [f"E{i}" for i in range(1, len(coords))]
    parts = []
    for name, c in zip(names, coords):
        if c == 0:
            continue
        mag = name if abs(c) == 1 else f"{abs(c)}*{name}"
        parts.append(("- " if c < 0 else "+ " if parts else "") + mag)
    return " ".join(parts) if parts else "0"


def _compare_colinear(col: TruncatedSeries, fan, truncate: int):
    """First coefficient disagreement between the colinear expansion and the
    fan's divisor series, both rewritten in the common basis (H, E1, E2, E3)."""
    fan_series = mc_series_toric(fan, 1)
    m = fan_series.monoid
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
    # the colinear group has no relations, so its packed keys already are
    # (H, E1, E2, E3) coordinates, and its grading is the unit degrees
    col_terms = dict(zip(col.keys, col.coeffs))
    fan_expansion = fan_series.expand(truncate)
    fan_terms = dict(zip(express_keys_in_basis(fan_expansion.keys, fan_basis),
                         fan_expansion.coeffs))
    # degrees are linear: the degree of sum v_i b_i is sum v_i deg(b_i)
    col_degs = col.monoid.grading
    fan_degs = [m.degree(b) for b in fan_basis]

    zero = col.ring.zero
    comparable = []
    for v in set(col_terms) | set(fan_terms):
        dc, df = sum(map(mul, v, col_degs)), sum(map(mul, v, fan_degs))
        if dc <= truncate and df <= truncate:
            comparable.append((dc, v))
    for _, v in sorted(comparable):
        a = col_terms.get(v, zero)
        b = fan_terms.get(v, zero)
        if a != b:
            return v, a, b
    return None


def cmd_colinear(args):
    f = _apply_specializations(colinear_mc_series(args.r), args.specialize)
    e = f.expand(args.truncate) if args.truncate > 0 else None
    fields, notes = {"r": args.r}, []
    if args.compare:
        if args.r != 3:
            raise MCSError("--compare needs --r 3: the reference basis is"
                           " (H, E1, E2, E3)")
        if e is None:
            raise MCSError("--compare needs --truncate > 0")
        hit = _compare_colinear(e, fan_from_json(_load_json(args.compare)),
                                args.truncate)
        if hit is None:
            msg = (f"no differing coefficient up to degree {args.truncate}"
                   " in both gradings")
            fields["compare"] = {"differs": False, "message": msg}
            notes.append(f"compare: {msg}")
        else:
            v, a, b = hit
            fields["compare"] = {"differs": True, "class": list(v),
                                 "colinear_coefficient": str(a),
                                 "fan_coefficient": str(b)}
            notes.append(f"compare: first differing class {_class_in_h_e(v)}:"
                         f" colinear {a}, fan {b}")
    return _series_output(args, "MC_1", f, e, fields, notes)


# ---------------------------------------------------------------------------
# verify


def _first_difference(a: TruncatedSeries, b: TruncatedSeries):
    """The first term of a - b as a one-term polynomial; None if a == b."""
    diff = a - b
    if not diff.terms:
        return None
    e, c = diff.terms[0]
    return MonoidPolynomial(diff.ring, diff.monoid, {e: c})


def _witness_line(witness: MonoidPolynomial) -> str:
    """The FAIL line of a witness of _first_difference."""
    e, c = witness.terms[0]
    return (f"FAIL witness: class {witness.monoid.format_element(e)},"
            f" coefficient difference {c}")


def cmd_verify_localization(args):
    if args.curve != "p1":
        raise MCSError("only --curve p1 has a catalogued closed form")
    if args.remove < 0:
        raise MCSError("--remove must be >= 0")
    closed = punctured_p1_zeta(args.remove)
    ring = closed.ring
    zx = curve_zeta(0, ring)  # L is 1 in the A^1 ring already
    t = zx.monoid.generator_named("t")
    points = RationalSeries(ring, zx.monoid, None, [(ring.one, t, args.remove)])
    quotient = localize_quotient(zx, points)
    witness = _first_difference(quotient.expand(args.truncate),
                                closed.expand(args.truncate))
    passed = quotient == closed and witness is None
    verdict = (f"PASS (identical rational forms; expansions agree to degree"
               f" {args.truncate})" if passed else "FAIL: rational forms differ")
    return 0 if passed else 1, {}, lambda: [
        f"closed path:   {closed}", f"quotient path: {quotient}",
        verdict if witness is None else _witness_line(witness)], {
        "closed": ("closed path", closed), "quotient": ("quotient path", quotient),
        "witness": ("difference of the expansions", witness)}


def cmd_verify_product(args):
    fan_a = fan_from_json(_load_json(args.fanA))
    fan_b = fan_from_json(_load_json(args.fanB))
    pa, pb = fan_a.dim - 1, fan_b.dim - 1
    ext = external_product(mc_series_toric(fan_a, pa), mc_series_toric(fan_b, pb))
    prod = product_fan(fan_a, fan_b)
    direct = mc_series_toric(prod, prod.dim - 1)
    chow_p = chow_presentation(prod, prod.dim - 1)
    # rays of the product fan list fan A's rays first, then fan B's
    off = len(fan_a.rays)
    images = [chow_p.class_of(c) for c in chow_presentation(fan_a, pa).generator_cones]
    images += [chow_p.class_of(tuple(i + off for i in c))
               for c in chow_presentation(fan_b, pb).generator_cones]
    phi = MonoidHom(ext.monoid, chow_p.monoid, images)
    pushed = pushforward(ext, phi)
    witness = _first_difference(pushed.expand(args.truncate),
                                direct.expand(args.truncate))
    return 0 if witness is None else 1, {}, lambda: [
        f"external product: {pushed}", f"product fan:      {direct}",
        f"PASS (expansions agree to degree {args.truncate})" if witness is None
        else _witness_line(witness)], {
        "external": ("external product", pushed), "product": ("product fan", direct),
        "witness": ("difference of the expansions", witness)}


def cmd_verify_eq1(args):
    if args.n < 1:
        raise MCSError("--n must be >= 1")
    divisor_term_counts(args.n, args.truncate)  # the cap, before any assignment
    f = pn_divisor_series(args.n, args.truncate,
                          _specialization(standard_ring(), args.specialize))
    g = _parse_denominator(args.denominator, f.ring, f.monoid, args.truncate)
    v = certify_rational(f, g)
    head = f"divisor series of P^{args.n} against denominator {args.denominator}: {v}"
    if v.consistent:
        return 0, {}, lambda: [head, f"PASS (consistent with a numerator of degree <="
                                     f" {v.numerator_bound} up to degree {v.truncation})"], {}
    # the witness is the one term of its degree, so its check names that degree
    witness = MonoidPolynomial(f.ring, f.monoid, {v.witness_class: v.witness_coeff})
    return 1, {}, lambda: [head, f"FAIL witness: degree {v.witness_degree}, class"
                                 f" {f.monoid.format_element(v.witness_class)},"
                                 f" coefficient {v.witness_coeff}"], {
        "witness": (f"rationality check to degree {v.truncation}", witness)}


def cmd_verify_macdonald(args):
    fan = fan_from_json(_load_json(args.fan))
    mc0 = mc_series_toric(fan, 0)
    chi = len(fan.maximal_cones)
    printed = {"mc0": ("MC_0", mc0)}

    def output(code, verdict):
        return code, {}, lambda: [f"MC_0 = {mc0}", verdict()], printed

    if (len(mc0.factors) != 1 or mc0.factors[0][2] != chi
            or not mc0.factors[0][0].is_one() or not mc0.numerator.is_one()):
        return output(1, lambda: f"FAIL: expected a single point class with multiplicity"
                                 f" {chi} (one per maximal cone)")
    pt = mc0.factors[0][1]
    e = mc0.expand(args.truncate)
    for d in range(args.truncate + 1):
        want = comb(chi + d - 1, d)
        got = e.coefficient(d * pt)
        if got != mc0.ring.from_int(want):
            printed["witness"] = ("expansion", MonoidPolynomial(mc0.ring, mc0.monoid,
                                                                {d * pt: got}))
            return output(1, lambda: f"FAIL witness: degree {d}, coefficient {got},"
                                     f" expected {want}")
    return output(0, lambda: f"PASS (1/(1-t)^{chi} with chi = {chi} maximal cones,"
                             f" coefficients C({chi}+d-1,d) to degree {args.truncate})")


# ---------------------------------------------------------------------------
# expand / specialize


def cmd_expand(args):
    f = series_from_json(_load_json(args.series))
    if isinstance(f, RationalSeries):
        out = f.expand(args.truncate, words=args.format == "pretty")
    else:
        out = f.as_series(args.truncate)
        check_cap(f"series file to degree {args.truncate}", len(out.terms))
    return 0, {}, lambda: [str(out)], {
        "series": (f"expansion to degree {args.truncate}", out)}


def cmd_specialize(args):
    f = series_from_json(_load_json(args.series))
    out = _apply_specializations(f, args.assign, args.strict)
    return 0, {}, lambda: [str(out)], {"series": ("specialization", out)}


# ---------------------------------------------------------------------------
# argument wiring


def degree_bound(text: str) -> int:
    """The type of every --truncate option: an int >= 0 with fewer than
    MAX_COEFFICIENT_DIGITS digits, so that the degree of the O-term, one
    more, can be printed."""
    if (n := read_integer(text, "--truncate")) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    if n >= TRUNCATION_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must have fewer than {MAX_COEFFICIENT_DIGITS} digits")
    return n


def _int_option(flag: str):
    """read_integer naming flag, under argparse's name for an int option."""
    read = functools.partial(read_integer, what=flag)
    read.__name__ = "int"
    return read


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("pretty", "json"), default="pretty",
                   help="output as readable text or as JSON")
    p.add_argument("--specialize", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="ring assignment applied before printing; repeatable")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Reuse carries no state between
    calls: parse_args starts from a fresh namespace, and the append actions
    copy their default list before appending."""
    top = argparse.ArgumentParser(
        prog="mcseries",
        description="Orbit-class series of complete toric varieties and of the plane"
                    " blown up at colinear points, with identity verification.")
    sub = top.add_subparsers(dest="command", required=True)

    t = sub.add_parser("toric", help="series of a fan from JSON")
    t.add_argument("--fan", required=True, metavar="FAN_JSON")
    t.add_argument("--p", required=True, type=_int_option("--p"),
                   help="cycle dimension of the orbit closures")
    t.add_argument("--truncate", type=degree_bound, default=0, metavar="N",
                   help="also print the expansion up to degree N")
    _add_output_flags(t)
    t.set_defaults(func=cmd_toric)

    c = sub.add_parser("colinear",
                       help="blow-up of the plane at r colinear points")
    c.add_argument("--r", required=True, type=_int_option("--r"),
                   help="number of points (>= 2)")
    c.add_argument("--truncate", type=degree_bound, default=0, metavar="N")
    c.add_argument("--compare", metavar="FAN_JSON",
                   help="report the first coefficient differing from this fan's"
                        " series (requires --r 3 and --truncate)")
    _add_output_flags(c)
    c.set_defaults(func=cmd_colinear)

    v = sub.add_parser("verify", help="check a catalogued identity")
    v.set_defaults(format="pretty")
    vsub = v.add_subparsers(dest="identity", required=True)

    vl = vsub.add_parser("localization",
                         help="removing r points from a curve divides the series"
                              " by the points' series")
    vl.add_argument("--curve", default="p1", metavar="NAME")
    vl.add_argument("--remove", required=True, type=_int_option("--remove"), metavar="R")
    vl.add_argument("--truncate", type=degree_bound, default=8, metavar="N")
    vl.set_defaults(func=cmd_verify_localization)

    vp = vsub.add_parser("product",
                         help="divisor series of a product fan equals the"
                              " external product of the factors' series")
    vp.add_argument("--fanA", required=True, metavar="FAN_JSON")
    vp.add_argument("--fanB", required=True, metavar="FAN_JSON")
    vp.add_argument("--truncate", type=degree_bound, default=6, metavar="N")
    vp.set_defaults(func=cmd_verify_product)

    ve = vsub.add_parser("eq1",
                         help="test the P^n divisor series against a claimed"
                              " denominator")
    ve.add_argument("--n", required=True, type=_int_option("--n"))
    ve.add_argument("--denominator", required=True, metavar="EXPR",
                    help="product of factors like \"(1-t)^4\" or \"(1-L t)\"")
    ve.add_argument("--truncate", type=degree_bound, default=8, metavar="N")
    ve.add_argument("--specialize", action="append", default=[],
                    metavar="NAME=VALUE")
    ve.set_defaults(func=cmd_verify_eq1)

    vm = vsub.add_parser("macdonald",
                         help="point series of a fan is 1/(1-t)^chi with chi"
                              " the number of maximal cones")
    vm.add_argument("--fan", required=True, metavar="FAN_JSON")
    vm.add_argument("--truncate", type=degree_bound, default=8, metavar="N")
    vm.set_defaults(func=cmd_verify_macdonald)

    e = sub.add_parser("expand", help="expand a series JSON file")
    e.add_argument("--series", required=True, metavar="SERIES_JSON")
    e.add_argument("--truncate", required=True, type=degree_bound, metavar="N")
    e.add_argument("--format", choices=("pretty", "json"), default="pretty")
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
    """Run one command; its exit code.  Python's int-to-text limit (3.10.7
    on) is MAX_COEFFICIENT_DIGITS during the call, whatever the environment."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    old = limit and limit()
    if limit:
        sys.set_int_max_str_digits(MAX_COEFFICIENT_DIGITS)
    try:
        args = build_parser().parse_args(argv)
        term_cap()  # a bad MCS_MAX_TERMS is bad input for every command
        code, fields, lines, printed = args.func(args)
        _emit(args, fields, lines, printed)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # a usage error, or --help
        return exc.code if isinstance(exc.code, int) else 2
    except MCSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: stdout now points at
        # os.devnull, so that the flush at exit reports no closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(old)


if __name__ == "__main__":
    sys.exit(main())
