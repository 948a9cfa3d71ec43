"""Layer tracing from outside the program, for the benchmark's traced run.

``Tracer.install`` replaces each traced public callable of ``mcseries`` with
a wrapper that records a span (name, start, end, parent span, job id) in
memory.  A function is replaced in every module that binds it (``cli``
imports ``chow_presentation`` from ``toric``, for instance), and a method
under every class attribute that holds it (``KElement.__rmul__`` is
``__mul__``).  ``restore`` puts every original back.

A layer's self time is its spans' total duration minus the time covered by
their direct child spans; spans nest strictly because the benchmark runs on
one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

# span name -> (module, attribute paths inside it).  Every name listed is a
# public function or method; ``__str__`` of the three series types is how
# series are rendered as text.
TARGETS = (
    ("toric.Fan", "toric", ("Fan.__init__",)),
    ("toric.cones_of_dim", "toric", ("Fan.cones_of_dim",)),
    ("toric.chow_presentation", "toric", ("chow_presentation",)),
    ("intlinalg.feasible_point", "intlinalg", ("feasible_point",)),
    ("intlinalg.minimize_linear", "intlinalg", ("minimize_linear",)),
    ("intlinalg.smith_decomposition", "intlinalg", ("smith_decomposition",)),
    ("intlinalg.solve_integer", "intlinalg", ("solve_integer",)),
    ("monoid.positive_grading", "monoid", ("positive_grading",)),
    ("monoid.contains", "monoid", ("GradedMonoid.contains",)),
    ("monoid.word_for", "monoid", ("GradedMonoid.word_for",)),
    ("series.expand", "series", ("rational_expand",)),
    ("series.render", "series", ("MonoidPolynomial.__str__",
                                 "TruncatedSeries.__str__",
                                 "RationalSeries.__str__")),
    ("series.certify_rational", "series", ("certify_rational",)),
    ("series.localize_quotient", "series", ("localize_quotient",)),
    ("kring.mul", "kring", ("KElement.__mul__",)),
    ("kring.specialize", "kring", ("specialize",)),
    ("gm_action.colinear_mc_series", "gm_action", ("colinear_mc_series",)),
    ("serialize.decode", "serialize", ("fan_from_json", "series_from_json")),
    ("serialize.encode", "serialize", ("series_to_json",)),
    ("cli.main", "cli", ("main",)),
)

# (metric, unit) pairs the traced run reports, in BENCHMARK.json order.
METRICS = (
    ("toric.Fan.calls", "count"), ("toric.Fan.self_s", "s"),
    ("toric.cones_of_dim.self_s", "s"),
    ("toric.chow_presentation.calls", "count"),
    ("toric.chow_presentation.self_s", "s"),
    ("intlinalg.feasible_point.calls", "count"),
    ("intlinalg.feasible_point.s", "s"),
    ("intlinalg.feasible_point.max_constraints", "count"),
    ("intlinalg.minimize_linear.calls", "count"),
    ("intlinalg.minimize_linear.s", "s"),
    ("intlinalg.smith_decomposition.calls", "count"),
    ("intlinalg.smith_decomposition.s", "s"),
    ("intlinalg.solve_integer.calls", "count"),
    ("monoid.positive_grading.self_s", "s"),
    ("monoid.contains.calls", "count"), ("monoid.contains.self_s", "s"),
    ("monoid.word_for.calls", "count"), ("monoid.word_for.self_s", "s"),
    ("series.expand.calls", "count"), ("series.expand.self_s", "s"),
    ("series.expand.terms", "count"), ("series.render.self_s", "s"),
    ("series.certify_rational.self_s", "s"),
    ("series.localize_quotient.self_s", "s"),
    ("kring.mul.calls", "count"), ("kring.mul.self_s", "s"),
    ("kring.mul.int_share", "ratio"),
    ("kring.specialize.calls", "count"), ("kring.specialize.self_s", "s"),
    ("gm_action.colinear_mc_series.self_s", "s"),
    ("serialize.decode.self_s", "s"), ("serialize.encode.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_pass_s", "s"), ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
)


def _is_integer(x):
    return isinstance(x, int) or x.is_integer()


class Tracer:
    """Span recorder plus the per-call counters the metrics need."""

    def __init__(self):
        self.spans = []         # (name, start, end, parent index, job id)
        self._stack = []
        self.job = -1
        self.max_constraints = 0
        self.expand_terms = 0
        self.int_muls = 0
        self._patches = []      # (owner, attribute, original)
        self._before = {"intlinalg.feasible_point": self._count_constraints,
                        "kring.mul": self._count_int_mul}
        self._after = {"series.expand": self._count_terms}

    # -- wrapping

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_constraints(self, args):
        cons = args[1] if len(args) > 1 else None
        if not isinstance(cons, (list, tuple)):
            return
        self.max_constraints = max(self.max_constraints, len(cons))

    def _count_int_mul(self, args):
        if _is_integer(args[0]) and _is_integer(args[1]):
            self.int_muls += 1

    def _count_terms(self, result):
        self.expand_terms += len(result.terms)

    def install(self, package="mcseries"):
        """Patch every traced callable wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for name, modname, paths in TARGETS:
            home = sys.modules[f"{package}.{modname}"]
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    cls = getattr(home, owner_name)
                    original = vars(cls)[attr]
                    holders = [cls]
                else:
                    original = getattr(home, attr)
                    holders = modules
                wrapper = self._wrap(name, original)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def restore(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results

    def layer_totals(self):
        """name -> [calls, inclusive seconds, self seconds]; inclusive time
        counts only the outermost span of a name, so recursion and nesting
        of one layer in itself is not counted twice."""
        totals = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row[1] += end - start
        return totals

    def metrics(self, untraced_s, traced_s):
        totals = self.layer_totals()

        def get(layer, k):
            return totals.get(layer, [0, 0.0, 0.0])[k]

        calls = get("kring.mul", 0)
        values = {"trace.spans": len(self.spans),
                  "trace.untraced_pass_s": untraced_s,
                  "trace.traced_pass_s": traced_s,
                  "trace.overhead_s": traced_s - untraced_s,
                  "intlinalg.feasible_point.max_constraints":
                      self.max_constraints,
                  "series.expand.terms": self.expand_terms,
                  "kring.mul.int_share":
                      self.int_muls / calls if calls else 0.0}
        fields = {"calls": 0, "s": 1, "self_s": 2}
        out = {}
        for metric, unit in METRICS:
            if metric not in values:
                layer, _, field = metric.rpartition(".")
                values[metric] = get(layer, fields[field])
            out[metric] = {"value": values[metric], "unit": unit}
        return out

    def write_spans(self, path, job_names):
        """All spans as gzipped JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"jobs": job_names}) + "\n")
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent, job]) + "\n")
