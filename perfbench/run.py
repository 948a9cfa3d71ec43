"""Benchmark of the mcseries command line, run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fan-present --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: each
job is a list of CLI arguments passed to ``mcseries.cli.main`` with stdout
captured, and the next job starts when the previous one returns.  Inputs
come from ``gen.py`` and depend only on the workload and the seed.

A run goes through these steps:

1. set-up, timed: import ``mcseries`` from ``src/`` and run the workload's
   warm-up job (the first of its list).  Done ``SETUPS`` times, each from a
   fresh import; ``setup_s`` is the median.
2. verification pass, untimed: every job once, its output checked by the
   oracles in ``oracles.py``; the digest of (exit code, stdout) is kept.
3. ``--trace 0``: whole passes over the job list, each in a freshly
   shuffled order, for about ``--seconds`` and at least ``MIN_JOBS`` jobs;
   each output is compared with its verified digest.
   ``--trace 1``: one pass in list order without tracing, then one with the
   wrappers of ``tracer.py`` installed; exactly one pass each, so that the
   per-layer counts repeat exactly for a seed.

Times are scaled to a reference speed by a calibration loop timed next to
every job and set-up (see ``CALIBRATION_MS``); the record keeps the raw
figures too.

A job fails when its exit code or output is wrong, or when its digest
differs between the warm-up, verification, timed and traced passes.  The
last line of stdout is the JSON result; a fuller record (Python version,
CPU count, platform, job counts, errors) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402

SETUPS = 5
# The speed of a shared host drifts by up to 2x over tens of seconds, for
# every process alike.  A fixed piece of pure-Python work, timed next to each
# job and each set-up, tracks that drift, and times are reported at the
# speed where that work takes CALIBRATION_MS.  A change to the program
# moves the job times and not the calibration, so it still shows in full.
CALIBRATION_MS = 4.0
# p90 needs at least ten samples beyond it, so a timed loop runs past
# --seconds until this many jobs have completed.
MIN_JOBS = 100
PACKAGE = "mcseries"

END_TO_END = (("jobs_per_s", "1/s"), ("job_ms_p50", "ms"),
              ("job_ms_p90", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def load_program():
    """Import the package afresh from src/ and return its cli module."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    __import__(PACKAGE)
    __import__(PACKAGE + ".cli")
    return sys.modules[PACKAGE + ".cli"]


def run_job(cli, job):
    """(exit code, stdout) of one CLI call; an escaping exception is
    reported in place of the exit code so that it counts as a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(job["argv"])
        except Exception as exc:  # the job fails; the benchmark goes on
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def digest(rc, out):
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def calibration_s():
    """Seconds taken by a fixed piece of work made of the dict, tuple, int
    and Fraction operations the program itself spends its time on."""
    start = time.perf_counter()
    acc, x = {}, Fraction(1, 3)
    for i in range(4000):
        key = (i % 61, i % 53, i & 7)
        acc[key] = acc.get(key, 0) + (i * i) % 1009
        if i % 40 == 0:
            x = (x * 7 + Fraction(1, i + 2)) % 13
    return time.perf_counter() - start


def at_reference_speed(samples, cals):
    """Scale each sample by the median calibration of the five samples
    around it, to the speed where the calibration takes CALIBRATION_MS."""
    ref = CALIBRATION_MS / 1000
    return [x * ref / statistics.median(cals[max(0, k - 2):k + 3])
            for k, x in enumerate(samples)]


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        workdir = os.path.join(HERE, "out", "inputs", f"{workload}-{seed}")
        self.jobs = gen.generate(workload, seed, workdir, ROOT)
        self.errors = []        # one per failed attempt
        self.attempted = 0
        self.warm_digests = []  # output digest of each warm-up job
        self.digests = None     # verified output digest per job
        self.bad = set()        # jobs whose verified output is wrong

    def fail(self, stage, index, msg):
        self.errors.append({"pass": stage, "job": index, "error": msg})

    def setup(self, times):
        """Fresh import plus the warm-up job, `times` times; returns the
        cli module of the last set-up and the median set-up seconds."""
        took, cals = [], []
        calibration_s()                 # the first call runs cold
        for _ in range(times):
            gc.collect()
            start = time.perf_counter()
            cli = load_program()
            rc, out = run_job(cli, self.jobs[0])
            took.append(time.perf_counter() - start)
            cals.append(calibration_s())
            self.warm_digests.append(digest(rc, out))
            self.attempted += 1
        scaled = at_reference_speed(took, cals)
        self.setup_raw_s = statistics.median(took)
        return cli, statistics.median(scaled)

    def verify(self, cli):
        results = [run_job(cli, job) for job in self.jobs]
        self.attempted += len(results)
        for i, err in enumerate(oracles.check_all(self.jobs, results)):
            if err is not None:
                self.fail("verify", i, err)
                self.bad.add(i)
        self.digests = [digest(rc, out) for rc, out in results]
        for d in self.warm_digests:
            if d != self.digests[0]:
                self.fail("warm-up", 0, "warm-up output differs from the"
                                        " verification pass")

    def check(self, stage, i, rc, out):
        self.attempted += 1
        if digest(rc, out) != self.digests[i]:
            self.fail(stage, i, f"output differs from the verification pass"
                                f" (exit code {rc})")
        elif i in self.bad:
            self.fail(stage, i, "same wrong output as in the verification"
                                " pass")

    def timed_loop(self, cli, seconds):
        """Whole passes over the job list, each in a fresh shuffled order.
        A new pass starts while it would end nearer to `seconds` than
        stopping now, and always until MIN_JOBS jobs have run, so every
        job runs equally often and the mix does not depend on where the
        clock stops."""
        order = random.Random(f"order:{self.workload}:{self.seed}")
        latencies, ran, cals = [], [], []
        gc.collect()
        start = time.perf_counter()
        pass_s = 0.0
        while (len(latencies) < MIN_JOBS
               or time.perf_counter() - start + pass_s / 2 < seconds):
            began = time.perf_counter()
            idx = list(range(len(self.jobs)))
            order.shuffle(idx)
            for i in idx:
                cals.append(calibration_s())
                t0 = time.perf_counter()
                rc, out = run_job(cli, self.jobs[i])
                latencies.append(time.perf_counter() - t0)
                ran.append(i)
                self.check("timed", i, rc, out)
            pass_s = time.perf_counter() - began
        return latencies, ran, cals, time.perf_counter() - start

    def one_pass(self, cli, stage, trace=None):
        gc.collect()
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if trace is not None:
                trace.job = i
            rc, out = run_job(cli, job)
            self.check(stage, i, rc, out)
        return time.perf_counter() - start


def measure(run, seconds):
    cli, setup_s = run.setup(SETUPS)
    run.verify(cli)
    raw, ran, cals, elapsed = run.timed_loop(cli, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = at_reference_speed(raw, cals)
    per_job = [[] for _ in run.jobs]
    for i, x in zip(ran, latencies):
        per_job[i].append(x)
    # one pass over the job list at each job's median latency: a burst of
    # load from outside the process moves single samples, not medians
    pass_s = sum(statistics.median(x) for x in per_job)
    cut = p90(latencies)
    values = {"jobs_per_s": len(per_job) / pass_s,
              "job_ms_p50": 1000 * statistics.median(latencies),
              "job_ms_p90": 1000 * cut,
              "setup_s": setup_s,
              "peak_rss_mb": peak_kb / 1024}
    extra = {"timed_jobs": len(raw), "timed_s": elapsed,
             "jobs_beyond_p90": sum(x > cut for x in latencies),
             "raw": {"jobs_per_s": len(raw) / elapsed,
                     "job_ms_p50": 1000 * statistics.median(raw),
                     "job_ms_p90": 1000 * p90(raw),
                     "setup_s": run.setup_raw_s},
             "calibration_ms": {"min": 1000 * min(cals),
                                "median": 1000 * statistics.median(cals),
                                "max": 1000 * max(cals)},
             "job_ms": [[round(1000 * x, 3) for x in xs] for xs in per_job]}
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END}, extra


def measure_traced(run):
    cli, _ = run.setup(1)
    run.verify(cli)
    cals = [calibration_s()]
    untraced = run.one_pass(cli, "untraced")
    cals.append(calibration_s())
    trace = tracer.Tracer()
    trace.install(PACKAGE)
    try:
        traced = run.one_pass(cli, "traced", trace)
    finally:
        trace.restore()
    cals.append(calibration_s())
    # each pass at reference speed, by the calibrations on either side of it
    ref = CALIBRATION_MS / 1000
    scaled = [t * 2 * ref / (a + b) for t, a, b in
              zip((untraced, traced), cals, cals[1:])]
    spans_path = os.path.join(HERE, "out",
                              f"spans-{run.workload}-{run.seed}.jsonl.gz")
    trace.write_spans(spans_path, [" ".join(j["argv"]) for j in run.jobs])
    return trace.metrics(*scaled), {
        "spans_file": spans_path,
        "raw": {"untraced_pass_s": untraced, "traced_pass_s": traced}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under src/ in {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, extra = measure_traced(run)
    else:
        metrics, extra = measure(run, args.seconds)
    failed = len(run.errors)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(),
              "implementation": platform.python_implementation(),
              "nproc": os.cpu_count(), "platform": platform.platform(),
              "jobs_in_list": len(run.jobs), "attempted": run.attempted,
              "failed": failed, "error_rate": failed / run.attempted,
              "errors": run.errors[:20], "excluded_inputs": gen.EXCLUDED,
              "metrics": metrics, **extra}
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for e in run.errors[:20]:
        print(f"job {e['job']} ({e['pass']}): {e['error']}")
    print(f"{args.workload} seed {args.seed}: {len(run.jobs)} jobs in the"
          f" list, {run.attempted} attempted, {failed} failed; record in"
          f" {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
