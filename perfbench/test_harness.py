"""Smallest-size self-check of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from math import comb

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_degree_counts_of_p2_are_binomials():
    counts = oracles.degree_counts([(1, 0)], [(1, 1, 3)], 6)
    assert counts == [comb(d + 2, 2) for d in range(7)]


def test_pretty_expansion_parser():
    line = "1 + 3*t + s1*s2^2 + 2 + O(degree 3)"
    assert oracles.parse_integer_expansion(line, 2) == (4, 7)
    with pytest.raises(oracles.OracleError):
        oracles.parse_integer_expansion(line, 3)


def test_same_seed_same_inputs(tmp_path):
    a = gen.generate("blowup-expand", 7, str(tmp_path / "a"), ROOT)
    b = gen.generate("blowup-expand", 7, str(tmp_path / "b"), ROOT)
    strip = [[x for x in j["argv"] if not x.startswith(str(tmp_path))]
             for j in a]
    assert strip == [[x for x in j["argv"] if not x.startswith(str(tmp_path))]
                     for j in b]
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_oracles_accept_right_and_reject_tampered_output(tmp_path):
    jobs = gen.generate("kring-verify", 0, str(tmp_path), ROOT)
    jobs += gen.generate("fan-present", 0, str(tmp_path), ROOT)[:4]
    cli = run.load_program()
    results = [run.run_job(cli, job) for job in jobs]
    assert oracles.check_all(jobs, results) == [None] * len(jobs)
    # one wrong coefficient in a JSON expansion, one wrong exit code
    i = next(k for k, j in enumerate(jobs) if j["check"]["kind"] == "toric")
    doc = json.loads(results[i][1])
    doc["expansion"]["terms"][-1]["coeff"]["terms"][0]["coeff"] += 1
    results[i] = (0, json.dumps(doc))
    k = next(k for k, j in enumerate(jobs) if j["check"]["kind"] == "eq1")
    results[k] = (1 - results[k][0], results[k][1])
    errors = oracles.check_all(jobs, results)
    assert [n for n, e in enumerate(errors) if e] == sorted([i, k])


def test_tracer_restores_every_patched_name():
    cli = run.load_program()
    original = cli.main
    trace = tracer.Tracer()
    trace.install("mcseries")
    assert cli.main is not original
    try:
        cli.main(["verify", "localization", "--remove", "2",
                  "--truncate", "4"])
    finally:
        trace.restore()
    assert cli.main is original
    totals = trace.layer_totals()
    assert totals["cli.main"][0] == 1
    assert totals["series.localize_quotient"][0] == 1


def test_run_prints_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", "kring-verify", "--seed", "3",
                      "--seconds", "0.5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in bench[key]]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "colinear", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
