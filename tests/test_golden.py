"""Golden outputs: CLI stdout and the chosen gradings stay byte-identical.

The files under tests/golden/ pin the output contract: the exit code and
stdout of every README command (pretty and --format json where the command
has it), of `toric --p P --truncate 6` for every p on every shipped fan, of
`colinear --r 3|4 --truncate 6`, and the grading chosen for every shipped
fan and builder.  An engine change must leave all of them unchanged.

`tests/golden/series.json` is an input, not an output: the series file that
the README's `expand` and `specialize` commands read.  It has a torsion
class and L and eps coefficients.

To rewrite the outputs after a deliberate change of the contract, run from
the repository root:

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
SERIES = "tests/golden/series.json"
FANS = ("gp", "hirzebruch1", "p1", "p112", "p1xp1", "p2", "p3")


def _both_formats(name, argv):
    return [(name, argv), (f"{name}-json", argv + ["--format", "json"])]


def cli_cases():
    """(name, argv) pairs; paths are relative to the repository root."""
    cases = []
    cases += _both_formats("readme-toric-p2",
                           ["toric", "--fan", "fans/p2.json", "--p", "1",
                            "--truncate", "4"])
    cases += _both_formats("readme-toric-gp",
                           ["toric", "--fan", "fans/gp.json", "--p", "1"])
    cases += _both_formats("readme-colinear-compare",
                           ["colinear", "--r", "3", "--truncate", "4",
                            "--compare", "fans/gp.json"])
    cases += [
        ("readme-verify-localization",
         ["verify", "localization", "--curve", "p1", "--remove", "3",
          "--truncate", "8"]),
        ("readme-verify-product",
         ["verify", "product", "--fanA", "fans/p1.json", "--fanB",
          "fans/p1.json", "--truncate", "6"]),
        ("readme-verify-eq1",
         ["verify", "eq1", "--n", "2", "--denominator", "(1-t)^4",
          "--truncate", "8"]),
        ("readme-verify-eq1-l1",
         ["verify", "eq1", "--n", "2", "--specialize", "L=1",
          "--denominator", "(1-t)^3", "--truncate", "8"]),
        ("readme-verify-macdonald",
         ["verify", "macdonald", "--fan", "fans/p112.json", "--truncate",
          "8"]),
    ]
    cases += _both_formats("readme-expand",
                           ["expand", "--series", SERIES, "--truncate", "3"])
    cases += _both_formats("readme-specialize",
                           ["specialize", "--series", SERIES, "--assign",
                            "L=1", "--assign", "eps=-1", "--strict"])
    for fan in FANS:
        with open(os.path.join(ROOT, "fans", f"{fan}.json"),
                  encoding="utf-8") as fh:
            dim = json.load(fh)["dim"]
        for p in range(dim + 1):
            cases.append((f"toric-{fan}-p{p}",
                          ["toric", "--fan", f"fans/{fan}.json", "--p",
                           str(p), "--truncate", "6"]))
    for r in (3, 4):
        cases.append((f"colinear-r{r}",
                      ["colinear", "--r", str(r), "--truncate", "6"]))
    return cases


def run_cli(argv) -> str:
    """Exit code line plus stdout of one in-process CLI call."""
    from mcseries.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return f"exit {rc}\n{out.getvalue()}"


def _grading_row(monoid):
    return {"names": list(monoid.names), "grading": list(monoid.grading),
            "degrees": [monoid.degree(g) for g in monoid.generators]}


def gradings() -> dict:
    """Grading of every orbit-class monoid of the shipped fans and builders,
    and of the colinear builder's monoid."""
    from mcseries.errors import MCSError
    from mcseries.gm_action import colinear_blowup_data
    from mcseries.serialize import fan_from_json
    from mcseries.toric import (
        blowup_at_fixed_point,
        chow_presentation,
        product_fan,
        projective_space_fan,
        three_point_blowup_fan,
    )

    from _tools import hirzebruch_fan
    fans = {}
    for fan in FANS:
        with open(os.path.join(ROOT, "fans", f"{fan}.json"),
                  encoding="utf-8") as fh:
            fans[f"fans/{fan}.json"] = fan_from_json(json.load(fh))
    for n in range(1, 5):
        fans[f"projective_space_fan({n})"] = projective_space_fan(n)
    for a in range(4):
        fans[f"hirzebruch_fan({a})"] = hirzebruch_fan(a)
    fans["three_point_blowup_fan()"] = three_point_blowup_fan()
    fans["weighted_p112_fan()"] = fans["fans/p112.json"]
    p1, p2 = projective_space_fan(1), projective_space_fan(2)
    fans["product_fan(P1, P1)"] = product_fan(p1, p1)
    fans["product_fan(P1, P2)"] = product_fan(p1, p2)
    fans["blowup_at_fixed_point(P2, (0, 1))"] = blowup_at_fixed_point(
        p2, (0, 1))
    fans["blowup_at_fixed_point(P3, (0, 1, 2))"] = blowup_at_fixed_point(
        projective_space_fan(3), (0, 1, 2))
    out = {}
    for label, fan in fans.items():
        for p in range(fan.dim + 1):
            try:
                row = _grading_row(chow_presentation(fan, p).monoid)
            except MCSError as exc:
                row = {"error": type(exc).__name__}
            out[f"{label} p={p}"] = row
    for r in range(2, 7):
        out[f"colinear_blowup_data({r})"] = _grading_row(
            colinear_blowup_data(r).monoid)
    return out


def _golden_path(name):
    return os.path.join(GOLDEN, "cli", f"{name}.txt")


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MCS_MAX_TERMS", raising=False)


@pytest.mark.parametrize("name,argv", cli_cases(),
                         ids=[name for name, _ in cli_cases()])
def test_cli_output_unchanged(name, argv, at_root):
    with open(_golden_path(name), encoding="utf-8") as fh:
        want = fh.read()
    assert run_cli(argv) == want


def test_gradings_unchanged():
    with open(os.path.join(GOLDEN, "gradings.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    assert gradings() == want


def regenerate():
    os.chdir(ROOT)
    os.environ.pop("MCS_MAX_TERMS", None)
    os.makedirs(os.path.join(GOLDEN, "cli"), exist_ok=True)
    for name, argv in cli_cases():
        with open(_golden_path(name), "w", encoding="utf-8") as fh:
            fh.write(run_cli(argv))
    with open(os.path.join(GOLDEN, "gradings.json"), "w",
              encoding="utf-8") as fh:
        json.dump(gradings(), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    regenerate()
