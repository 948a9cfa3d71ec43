"""Output oracles for the benchmark jobs.

None of this imports ``mcseries``.  The checks rest on the mathematics of
the inputs, not on the program's own expansion code:

* toric and colinear expansions: the coefficients of degree d sum to the
  coefficient of x^d in the one-variable series obtained by replacing every
  class by x^degree, counted here by an integer dynamic programme over the
  factor degrees of the printed rational form;
* simplicial fans: the factor multiplicities add up to the number of
  (n-p)-subsets of maximal cones;
* colinear r-point blow-up: numerator (1 - H)^(r-2) over 2r+1 factors;
* curve zeta functions: coefficient of t^d is sum_i a_i (1 + L + ... + L^(d-i));
* verify subcommands: the exit code and verdict line the identity predicts.

Pretty output is parsed and compared with its ``--format json`` sibling,
which has been checked in full.  ``check_all`` returns one error string per
job (``None`` when the output is right).
"""

from __future__ import annotations

import json
import re
from math import comb


class OracleError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise OracleError(msg)


# ---------------------------------------------------------------------------
# series JSON helpers


def _int_coeff(elem):
    terms = elem["terms"]
    _require(len(terms) <= 1 and all(not t["exp"] for t in terms),
             f"coefficient {elem} is not an integer")
    return terms[0]["coeff"] if terms else 0


def _degree(grading, cls):
    return sum(w * f for w, f in zip(grading, cls["free"]))


def _class_key(cls):
    return tuple(cls["free"]), tuple(cls["torsion"])


def degree_counts(numerator, factors, bound):
    """Coefficients up to x^bound of sum(c x^d over numerator) /
    prod((1 - c x^d)^e over factors), all integers."""
    out = [0] * (bound + 1)
    for c, d in numerator:
        if d <= bound:
            out[d] += c
    for c, d, e in factors:
        _require(d >= 1, "denominator factor of degree < 1")
        for _ in range(e):
            for k in range(d, bound + 1):
                out[k] += c * out[k - d]
    return out


def check_rational_expansion(doc, truncate):
    """The degree-sum check on a toric or colinear JSON document.  Returns
    (factor multiplicity, term count, coefficient sum) for later checks."""
    rat, exp = doc["rational"], doc["expansion"]
    _require(rat["kind"] == "rational", "rational part has the wrong kind")
    _require(exp["kind"] == "truncated", "expansion has the wrong kind")
    _require(exp["truncation"] == truncate, "expansion truncation differs")
    _require(exp["monoid"] == rat["monoid"], "expansion monoid differs")
    grading = rat["monoid"]["grading"]
    num = [(_int_coeff(t["coeff"]), _degree(grading, t["class"]))
           for t in rat["numerator"]]
    facs = [(_int_coeff(f["coeff"]), _degree(grading, f["class"]), f["power"])
            for f in rat["denominator"]]
    want = degree_counts(num, facs, truncate)
    got = [0] * (truncate + 1)
    seen = set()
    for t in exp["terms"]:
        key = _class_key(t["class"])
        _require(key not in seen, f"class {key} appears twice")
        seen.add(key)
        d = _degree(grading, t["class"])
        _require(0 <= d <= truncate, f"term of degree {d} outside the bound")
        c = _int_coeff(t["coeff"])
        _require(c != 0, "zero coefficient printed")
        got[d] += c
    _require(got == want, f"degree sums {got} differ from the count {want}")
    mult = sum(p for _, _, p in facs)
    return mult, len(exp["terms"]), sum(got)


# ---------------------------------------------------------------------------
# pretty output helpers


def split_top(text):
    """Split 'a + b - c' at the top level (outside parentheses) into signed
    pieces [(+1, 'a'), (+1, 'b'), (-1, 'c')]."""
    pieces, depth, start, sign = [], 0, 0, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith((" + ", " - "), i):
            pieces.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            i += 3
            start = i
            continue
        i += 1
    pieces.append((sign, text[start:]))
    if pieces and pieces[0][1].startswith("-"):
        pieces[0] = (-pieces[0][0], pieces[0][1][1:])
    return pieces


_INT_TERM = re.compile(r"^(?:(\d+)\*)?([A-Za-z][A-Za-z0-9_]*(?:\^\d+)?"
                       r"(?:\*[A-Za-z][A-Za-z0-9_]*(?:\^\d+)?)*)$|^(\d+)$")


def parse_integer_expansion(line, truncate):
    """(term count, coefficient sum) of a printed expansion with integer
    coefficients, e.g. '1 + 3*t + s1*s2 + O(degree 3)'."""
    pieces = split_top(line)
    sign, tail = pieces[-1]
    _require(sign == 1 and tail == f"O(degree {truncate + 1})",
             f"expansion does not end in O(degree {truncate + 1})")
    total = 0
    for sign, body in pieces[:-1]:
        m = _INT_TERM.match(body)
        _require(m is not None, f"cannot read expansion term {body!r}")
        if m.group(3) is not None:
            c = int(m.group(3))
        else:
            c = int(m.group(1) or 1)
        total += sign * c
    return len(pieces) - 1, total


def _lines(out, prefix):
    return [ln[len(prefix):] for ln in out.splitlines() if ln.startswith(prefix)]


# ---------------------------------------------------------------------------
# one oracle per job kind; each returns a summary for sibling comparison


def _toric(job, rc, out):
    chk = job["check"]
    _require(rc == 0, f"exit code {rc}")
    if chk["format"] == "pretty":
        head = _lines(out, f"MC_{chk['p']} = ")
        _require(len(head) == 1, "missing MC line")
        exp = _lines(out, "expansion: ")
        _require(len(exp) == 1, "missing expansion line")
        return parse_integer_expansion(exp[0], chk["truncate"])
    doc = json.loads(out)
    _require(doc["command"] == "toric" and doc["p"] == chk["p"],
             "wrong command echo")
    rat = doc["rational"]
    _require(len(rat["numerator"]) == 1
             and _int_coeff(rat["numerator"][0]["coeff"]) == 1
             and not any(rat["numerator"][0]["class"]["free"])
             and not any(rat["numerator"][0]["class"]["torsion"]),
             "toric numerator is not 1")
    _require(all(_int_coeff(f["coeff"]) == 1 for f in rat["denominator"]),
             "toric factor coefficient is not 1")
    mult, terms, total = check_rational_expansion(doc, chk["truncate"])
    if chk["factors"] is not None:
        _require(mult == chk["factors"],
                 f"{mult} factors, expected {chk['factors']} cones")
    return terms, total


def _colinear(job, rc, out):
    chk = job["check"]
    _require(rc == 0, f"exit code {rc}")
    r = chk["r"]
    if chk["format"] == "pretty":
        _require(len(_lines(out, "MC_1 = ")) == 1, "missing MC line")
        exp = _lines(out, "expansion: ")
        _require(len(exp) == 1, "missing expansion line")
        return parse_integer_expansion(exp[0], chk["truncate"])
    doc = json.loads(out)
    _require(doc["command"] == "colinear" and doc["r"] == r,
             "wrong command echo")
    rat = doc["rational"]
    h = [1] + [0] * r
    num = {}
    for t in rat["numerator"]:
        free = t["class"]["free"]
        k = free[0]
        _require(free == [k * x for x in h], "numerator class is not k*H")
        num[k] = _int_coeff(t["coeff"])
    want = {k: (-1) ** k * comb(r - 2, k) for k in range(r - 1)}
    _require(num == want, f"numerator {num} is not (1 - H)^{r - 2}")
    mult, terms, total = check_rational_expansion(doc, chk["truncate"])
    _require(mult == 2 * r + 1, f"{mult} factors, expected {2 * r + 1}")
    return terms, total


def _compare(job, rc, out):
    _require(rc == 0, f"exit code {rc}")
    _require("compare: first differing class H - E1 - E2 - E3: colinear 1,"
             " fan 0" in out.splitlines(), "compare line differs")


def _macdonald(job, rc, out):
    chi = job["check"]["chi"]
    _require(rc == 0, f"exit code {rc}")
    form = "1/(1 - t)" if chi == 1 else f"1/(1 - t)^{chi}"
    _require(out.splitlines()[0] == f"MC_0 = {form}", "MC_0 line differs")
    _require(f"with chi = {chi} maximal cones" in out, "chi differs")


def _eq1(job, rc, out):
    want = job["check"]["exit"]
    _require(rc == want, f"exit code {rc}, expected {want}")
    verdict = "PASS (" if want == 0 else "FAIL witness: degree "
    _require(out.splitlines()[-1].startswith(verdict), "verdict line differs")


def _localization(job, rc, out):
    _require(rc == 0, f"exit code {rc}")
    _require(out.splitlines()[-1].startswith("PASS (identical rational forms"),
             "verdict line differs")


def zeta_coefficient(genus, d):
    """Coefficient of t^d in the curve zeta series as {exponent key: coeff},
    keys being sorted (name, power) tuples."""
    out = {}
    for i in range(min(d, 2 * genus) + 1):
        for j in range(d - i + 1):
            key = []
            if j:
                key.append(("L", j))
            if i:
                key.append((f"a{i}", 1))
            key = tuple(sorted(key))
            out[key] = out.get(key, 0) + 1
    return out


def _elem_key(elem):
    return {tuple(sorted(t["exp"].items())): t["coeff"] for t in elem["terms"]}


def _zeta_expand(job, rc, out):
    chk = job["check"]
    g, n = chk["genus"], chk["truncate"]
    _require(rc == 0, f"exit code {rc}")
    if chk["format"] == "pretty":
        pieces = split_top(out.rstrip("\n"))
        _require(pieces[-1] == (1, f"O(degree {n + 1})"), "missing O term")
        _require(len(pieces) == n + 2, "wrong number of degree terms")
        for d, (sign, body) in enumerate(pieces[:-1]):
            poly = body.split(")*t")[0].lstrip("(") if d else body
            monomials = len(split_top(poly))
            _require(sign == 1 and monomials == len(zeta_coefficient(g, d)),
                     f"degree {d} coefficient has {monomials} monomials")
        return n + 1, None
    doc = json.loads(out)
    series = doc["series"]
    _require(series["kind"] == "truncated" and series["truncation"] == n,
             "not a truncated series at the requested degree")
    got = {}
    for t in series["terms"]:
        d = t["class"]["free"][0]
        _require(d not in got, f"degree {d} appears twice")
        got[d] = _elem_key(t["coeff"])
    want = {d: zeta_coefficient(g, d) for d in range(n + 1)}
    _require(got == want, "zeta expansion coefficients differ")
    return n + 1, None


def _zeta_specialize(job, rc, out):
    g = job["check"]["genus"]
    _require(rc == 0, f"exit code {rc}")
    series = json.loads(out)["series"]
    den = [(f["class"]["free"], _elem_key(f["coeff"]), f["power"])
           for f in series["denominator"]]
    _require(den == [([1], {(): 1}, 2)], f"denominator {den} is not (1-t)^2")
    num = {t["class"]["free"][0]: _elem_key(t["coeff"])
           for t in series["numerator"]}
    want = {0: {(): 1}}
    want.update({i: {((f"a{i}", 1),): 1} for i in range(1, 2 * g + 1)})
    _require(num == want, "numerator is not 1 + a1 t + ... + a2g t^2g")


ORACLES = {
    "toric": _toric,
    "colinear": _colinear,
    "compare": _compare,
    "macdonald": _macdonald,
    "eq1": _eq1,
    "localization": _localization,
    "zeta_expand": _zeta_expand,
    "zeta_specialize": _zeta_specialize,
}


def _sibling_key(job):
    """Jobs that differ only in --format must print the same series."""
    argv = list(job["argv"])
    if "--format" in argv:
        i = argv.index("--format")
        del argv[i:i + 2]
    return tuple(argv)


def check_all(jobs, results):
    """results[i] = (exit code, stdout) of jobs[i]; returns error strings."""
    errors, summaries = [], {}
    for job, (rc, out) in zip(jobs, results):
        try:
            summary = ORACLES[job["check"]["kind"]](job, rc, out)
            errors.append(None)
        except (OracleError, ValueError, KeyError, IndexError, TypeError) as exc:
            summary = None
            errors.append(f"{type(exc).__name__}: {exc}")
        if summary is not None:
            summaries.setdefault(_sibling_key(job), []).append(summary)
    for i, job in enumerate(jobs):
        group = summaries.get(_sibling_key(job), [])
        if errors[i] is None and len(group) > 1:
            # term counts agree everywhere; sums when a format reports one
            counts = {s[0] for s in group}
            sums = {s[1] for s in group if s[1] is not None}
            if len(counts) > 1 or len(sums) > 1:
                errors[i] = f"pretty and json outputs disagree: {group}"
    return errors
