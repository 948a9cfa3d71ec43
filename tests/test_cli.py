"""End-to-end command tests: exit codes, output text, determinism."""

import copy
import json
import os
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import pytest

from mcseries import cli, intlinalg, monoid, serialize
from mcseries.cli import build_parser, main
from mcseries.kring import Specialization, standard_ring
from mcseries.monoid import AbelianGroupPresentation, GradedMonoid
from mcseries.serialize import fan_to_json, series_from_json, series_to_json
from mcseries.series import RationalSeries, _Terms, binomial_factor_polynomial, curve_zeta
from mcseries.toric import (
    OrbitClassMonoid,
    mc_series_toric,
    pn_divisor_series,
    product_fan,
    projective_space_fan,
    three_point_blowup_fan,
)

from _tools import FANS


def _no_enumeration(self, bound):
    raise AssertionError(f"enumerated the monoid to degree {bound}")


@pytest.fixture
def fan_file(tmp_path):
    def write(fan, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fan_to_json(fan)))
        return str(path)
    return write


@pytest.fixture
def zeta_file(tmp_path):
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps(series_to_json(curve_zeta(0))))
    return str(path)


class TestToric:
    def test_p2_divisors(self, fan_file, capsys):
        path = fan_file(projective_space_fan(2), "p2")
        assert main(["toric", "--fan", path, "--p", "1", "--truncate", "4"]) == 0
        out = capsys.readouterr().out
        assert "MC_1 = 1/(1 - t)^3" in out
        assert "1 + 3*t + 6*t^2 + 10*t^3 + 15*t^4 + O(degree 5)" in out

    def test_p2_points(self, fan_file, capsys):
        path = fan_file(projective_space_fan(2), "p2")
        assert main(["toric", "--fan", path, "--p", "0"]) == 0
        assert "1/(1 - t)^3" in capsys.readouterr().out

    def test_gp_divisors_named_factors(self, fan_file, capsys):
        path = fan_file(three_point_blowup_fan(), "gp")
        assert main(["toric", "--fan", path, "--p", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("t1", "t2", "t3", "s1", "s2", "s3"):
            assert f"(1 - {name})" in out

    def test_json_output_round_trips(self, fan_file, capsys):
        path = fan_file(projective_space_fan(2), "p2")
        assert main(["toric", "--fan", path, "--p", "1", "--truncate", "3",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert series_from_json(doc["rational"]) == mc_series_toric(
            projective_space_fan(2), 1)
        expansion = series_from_json(doc["expansion"])
        assert expansion == mc_series_toric(projective_space_fan(2), 1).expand(3)

    @pytest.mark.parametrize("path", sorted(FANS.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_json_declares_the_a1_ring_and_reads_back(self, path, tmp_path, capsys):
        # the product formula counts torus-fixed cycles, whose classes hold
        # where L = 1; read back, the rational object prints as toric does
        argv = ["toric", "--fan", str(path), "--p", "1", "--truncate", "3"]
        assert main(argv) == 0
        mc, expansion = capsys.readouterr().out.splitlines()[:2]
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rational"]["ring"]["a1_homotopy"] is True
        assert doc["expansion"]["ring"]["a1_homotopy"] is True
        rational = tmp_path / "rational.json"
        rational.write_text(json.dumps(doc["rational"]))
        assert main(["specialize", "--series", str(rational), "--assign", "L=2"]) == 0
        assert capsys.readouterr().out == mc.removeprefix("MC_1 = ") + "\n"
        assert main(["expand", "--series", str(rational), "--truncate", "3"]) == 0
        assert capsys.readouterr().out == expansion.removeprefix("expansion: ") + "\n"

    def test_deterministic_output(self, fan_file, capsys):
        path = fan_file(three_point_blowup_fan(), "gp")
        argv = ["toric", "--fan", path, "--p", "1", "--truncate", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_specialize_flag(self, fan_file, capsys):
        # toric coefficients carry no L, so the assignment is a no-op here;
        # the flag must still parse and leave the series intact
        path = fan_file(projective_space_fan(1), "p1")
        assert main(["toric", "--fan", path, "--p", "0", "--truncate", "3",
                     "--specialize", "L=1"]) == 0
        out = capsys.readouterr().out
        assert "MC_0 = 1/(1 - t)^2" in out
        assert "1 + 2*t + 3*t^2 + 4*t^3" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["toric", "--fan", str(tmp_path / "nope.json"),
                     "--p", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["toric", "--fan", str(path), "--p", "1"]) == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no limit on integer digits before Python 3.11")
    def test_oversized_integer_names_the_file(self, tmp_path, capsys):
        # json.load rejects an integer of more than 4,300 digits with a
        # ValueError that is no JSONDecodeError
        path = tmp_path / "huge.json"
        path.write_text('{"rays": [[1' + "0" * 5000 + ', 0], [0, 1]],'
                        ' "maximal_cones": [[0, 1]]}')
        assert main(["toric", "--fan", str(path), "--p", "1"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "4300 digits" in err

    def test_incomplete_fan(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"rays": [[1, 0], [0, 1]],
                                    "maximal_cones": [[0, 1]]}))
        assert main(["toric", "--fan", str(path), "--p", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ray_names_must_be_strings(self, tmp_path, capsys):
        path = tmp_path / "names.json"
        path.write_text(json.dumps(dict(P2_FAN, ray_names=[None, True, 2.5])))
        assert main(["toric", "--fan", str(path), "--p", "1"]) == 2
        assert "ray name must be a string, got None" in capsys.readouterr().err

    def test_bad_cycle_dimension(self, fan_file, capsys):
        path = fan_file(projective_space_fan(2), "p2")
        assert main(["toric", "--fan", path, "--p", "7"]) == 2

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_term_cap_env(self, fan_file, capsys, monkeypatch, fmt):
        # the pretty expansion records words and the JSON one does not; both
        # count terms alike, so the verdict and its message are one
        monkeypatch.setenv("MCS_MAX_TERMS", "5")
        path = fan_file(three_point_blowup_fan(), "gp")
        assert main(["toric", "--fan", path, "--p", "1", "--truncate", "6",
                     "--format", fmt]) == 2
        assert capsys.readouterr().err == (
            "error: expansion to degree 6: 6 terms, over the cap of 5;"
            " raise MCS_MAX_TERMS\n")

    def test_bad_cap_value(self, fan_file, capsys, monkeypatch):
        monkeypatch.setenv("MCS_MAX_TERMS", "many")
        path = fan_file(projective_space_fan(2), "p2")
        assert main(["toric", "--fan", path, "--p", "1", "--truncate", "2"]) == 2

    @pytest.mark.parametrize("raw, message", [
        ("abc", "MCS_MAX_TERMS must be an integer, got 'abc'"),
        ("0", "MCS_MAX_TERMS must be positive"),
        # the digits are counted before int() is asked
        ("1" * 4301, "MCS_MAX_TERMS has 4301 digits, over the limit of 4300"),
    ], ids=["abc", "0", "4301-digits"])
    def test_bad_cap_value_without_truncation(self, fan_file, zeta_file, capsys,
                                              monkeypatch, raw, message):
        # the command line reads the cap before any stage runs, also for
        # the points of a surface (p = dim), where no stage counts anything
        monkeypatch.setenv("MCS_MAX_TERMS", raw)
        path = fan_file(three_point_blowup_fan(), "gp")
        for argv in (["toric", "--fan", path, "--p", "1"],
                     ["toric", "--fan", str(ROOT / "fans" / "p2.json"), "--p", "2"],
                     ["specialize", "--series", zeta_file, "--assign", "L=1"]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_json_skips_rendering(self, tmp_path, capsys, monkeypatch):
        # printing the word of a^2 over a, b and c = a + b enumerates the
        # monoid to degree 2 (seven classes); JSON output renders no word, so
        # it stays under a cap of four, which the series file's 2 x 2
        # ambient matrix passes
        monkeypatch.setenv("MCS_MAX_TERMS", "4")
        path = _write(tmp_path, _dependent_polynomial(2, 0))
        argv = ["expand", "--series", path, "--truncate", "2"]
        assert main(argv) == 2
        assert main(argv + ["--format", "json"]) == 0

    def test_pretty_expansion_walks_the_monoid_once(self, capsys, monkeypatch):
        # the expansion records the word of each class it reaches, so the
        # printed expansion reads the words instead of enumerating the
        # monoid a second time
        walks = []
        expand = GradedMonoid._expand

        def counted(self, *args, **kwargs):
            walks.append(args[2])
            return expand(self, *args, **kwargs)

        gp = str(ROOT / "fans" / "gp.json")
        argv = ["toric", "--fan", gp, "--p", "1", "--truncate", "10"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(GradedMonoid, "_expand", counted)
        monkeypatch.setattr(GradedMonoid, "_enumerate", _no_enumeration)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert walks == [10]

    @pytest.mark.parametrize("fan, truncate, factors", [
        ("gp", "0", "1/((1 - s1)*(1 - s3)*(1 - t1)*(1 - s2)*(1 - t3)*(1 - t2))"),
        # f1 has degree 2, above the expansion's degree 1
        ("hirzebruch1", "1", "1/((1 - s1)*(1 - f1)^2*(1 - s2))"),
    ], ids=["no-expansion", "below-a-generator-degree"])
    def test_generator_words_need_no_table(self, fan, truncate, factors, capsys,
                                           monkeypatch):
        # a generator's word is its own letter and the zero class's is 1, so
        # the factors print without any word table
        monkeypatch.setattr(GradedMonoid, "_enumerate", _no_enumeration)
        path = str(ROOT / "fans" / f"{fan}.json")
        assert main(["toric", "--fan", path, "--p", "1", "--truncate", truncate]) == 0
        assert capsys.readouterr().out.startswith(f"MC_1 = {factors}\n")

    def test_one_class_table_per_run(self, capsys, monkeypatch):
        # the series, its expansion and its notes share one presentation
        made = []
        init = AbelianGroupPresentation.__init__

        def counted(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AbelianGroupPresentation, "__init__", counted)
        gp = str(ROOT / "fans" / "gp.json")
        assert main(["toric", "--fan", gp, "--p", "1", "--truncate", "3"]) == 0
        assert len(made) == 1

    def test_cube4_divisor_series_finishes(self, capsys):
        # face fan of the 4-cube: Fourier-Motzkin elimination gave up on its
        # rank-12 divisor grading LP; the simplex solves it far below its cap
        cube4 = str(ROOT / "fans" / "cube4.json")
        assert main(["toric", "--fan", cube4, "--p", "3"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("MC_3 = 1/(")
        assert first.count("(1 - r") == 16

    def test_lp_cap_exits_2_naming_the_stage(self, capsys, monkeypatch):
        monkeypatch.setattr(intlinalg, "MAX_PIVOTS", 5)
        cube4 = str(ROOT / "fans" / "cube4.json")
        assert main(["toric", "--fan", cube4, "--p", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grading gave up:")
        assert "over the cap of 5" in captured.err

    @staticmethod
    def _many_ray_plane_fan(path, count):
        # a cone of `count` rays (1,0), (1,1), .., (1,count-2), (0,1), whose
        # inner rays lie on no face, closed up by three more quadrants
        rays = [[1, i] for i in range(count - 1)] + [[0, 1], [-1, 0], [0, -1]]
        cones = [list(range(count)), [count - 1, count], [count, count + 1],
                 [count + 1, 0]]
        path.write_text(json.dumps({"rays": rays, "maximal_cones": cones}))
        return str(path)

    def test_many_ray_cone_validates_quickly(self, tmp_path, capsys):
        # its faces come from intersections of its facets, not from 2^40
        # subsets
        path = self._many_ray_plane_fan(tmp_path / "plane40.json", 40)
        start = time.perf_counter()
        assert main(["toric", "--fan", path, "--p", "1", "--truncate", "2"]) == 0
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().out.startswith(
            "MC_1 = 1/((1 - r39)^2*(1 - r0)^2)")

    def test_face_candidates_past_the_cap_exit_2(self, tmp_path, capsys,
                                                 monkeypatch):
        # a 4-cube cone comes down to its rays through its 6 facets and 12
        # edges: 6 * 6 = 36 facet intersections, then 12 * 6 = 72, past a cap
        # of 60 that its C(8, 3) = 56 validation candidates stay within
        cube4 = str(ROOT / "fans" / "cube4.json")
        monkeypatch.setenv("MCS_MAX_TERMS", "60")
        assert main(["toric", "--fan", cube4, "--p", "3"]) == 2
        assert capsys.readouterr() == ("", (
            "error: face enumeration of cone (0, 2, 4, 6, 8, 10, 12, 14): 72"
            " facet intersections, over the cap of 60; raise MCS_MAX_TERMS\n"))
        # the 40-ray cone is the only face of itself: its C(40, 2) = 780
        # ray pairs are never listed
        path = self._many_ray_plane_fan(tmp_path / "plane40.json", 40)
        monkeypatch.setenv("MCS_MAX_TERMS", "500")
        assert main(["toric", "--fan", path, "--p", "0", "--truncate", "2"]) == 0
        assert capsys.readouterr().out.startswith("MC_0 = 1/(1 - t)^4")


class TestColinear:
    def test_r3_formula(self, capsys):
        assert main(["colinear", "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert "(1 - t0*s1*s2*s3)/" in out

    def test_compare_reports_first_difference(self, fan_file, capsys):
        path = fan_file(three_point_blowup_fan(), "gp")
        assert main(["colinear", "--r", "3", "--truncate", "4",
                     "--compare", path]) == 0
        out = capsys.readouterr().out
        assert ("first differing class H - E1 - E2 - E3:"
                " colinear 1, fan 0") in out

    def test_compare_json_format(self, fan_file, capsys):
        path = fan_file(three_point_blowup_fan(), "gp")
        assert main(["colinear", "--r", "3", "--truncate", "4",
                     "--compare", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["compare"] == {"differs": True, "class": [1, -1, -1, -1],
                                  "colinear_coefficient": "1",
                                  "fan_coefficient": "0"}

    def test_compare_names_a_class_with_zero_coordinates(self, capsys, monkeypatch):
        # an extra factor 1/(1 - s1) on the fan's series first changes the
        # coefficient of E1, whose H, E2 and E3 coordinates are 0
        real = cli.mc_series_toric

        def extra(fan, p):
            f = real(fan, p)
            s1 = f.monoid.generator_named("s1")
            return f * RationalSeries(f.ring, f.monoid, None, [(f.ring.one, s1, 1)])
        monkeypatch.setattr(cli, "mc_series_toric", extra)
        assert main(["colinear", "--r", "3", "--truncate", "4",
                     "--compare", str(ROOT / "fans" / "gp.json")]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == (
            "compare: first differing class E1: colinear 1, fan 2")
        assert captured.err == ""

    def test_r12_words_without_enumerating(self, capsys, monkeypatch):
        # the colinear generators are a basis, so words are coordinates: the
        # numerator (1 - t^H)^10 reaches degree 130, and an enumeration of
        # the monoid that far would pass a cap of 5,000 elements
        monkeypatch.setattr(GradedMonoid, "_enumerate", _no_enumeration)
        monkeypatch.setenv("MCS_MAX_TERMS", "5000")
        assert main(["colinear", "--r", "12", "--truncate", "4"]) == 0
        h = "t0*" + "*".join(f"s{i}" for i in range(1, 13))
        assert f"MC_1 = (1 - 10*{h} + " in capsys.readouterr().out

    def test_compare_solves_once_per_basis(self, fan_file, capsys, monkeypatch):
        # two Smith forms, for the fan's class group and the colinear free
        # group, and one left inverse for the fan's basis and one for the
        # colinear monoid, whatever the number of terms compared
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for fn in (intlinalg.smith_decomposition, intlinalg.left_inverse):
            for name, module in list(sys.modules.items()):
                if (name.startswith("mcseries")
                        and getattr(module, fn.__name__, None) is fn):
                    monkeypatch.setattr(module, fn.__name__, counted(fn))
        path = fan_file(three_point_blowup_fan(), "gp")
        for truncate in ("4", "8"):
            calls.clear()
            assert main(["colinear", "--r", "3", "--truncate", truncate,
                         "--compare", path]) == 0
            assert sorted(calls) == (["left_inverse"] * 2
                                     + ["smith_decomposition"] * 2)

    def test_compare_rewrites_only_the_fan_series(self, capsys, monkeypatch):
        # colinear keys already are (H, E1, E2, E3) coordinates: only the
        # fan's expansion is solved for in that basis
        bases = []
        real = cli.express_keys_in_basis

        def counted(keys, basis):
            bases.append(basis)
            return real(keys, basis)

        monkeypatch.setattr(cli, "express_keys_in_basis", counted)
        assert main(["colinear", "--r", "3", "--truncate", "4",
                     "--compare", str(ROOT / "fans" / "gp.json")]) == 0
        assert "first differing class H - E1 - E2 - E3" in capsys.readouterr().out
        assert len(bases) == 1 and len(bases[0]) == 4

    def test_pretty_words_take_a_solve_count_free_of_the_term_count(
            self, capsys, monkeypatch):
        # the words of a term list come from one batch solve, so more terms
        # make longer solves, not more of them
        sizes = []
        build = monoid._coordinate_solver

        def counted_build(*args):
            solve = build(*args)

            def counted(keys, *rest):
                sizes.append(len(keys))
                return solve(keys, *rest)

            return None if solve is None else counted

        monkeypatch.setattr(monoid, "_coordinate_solver", counted_build)
        runs = []
        for truncate in ("4", "8"):
            sizes.clear()
            assert main(["colinear", "--r", "4", "--truncate", truncate]) == 0
            capsys.readouterr()
            runs.append((len(sizes), max(sizes)))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] < runs[1][1]

    def test_compare_unpacks_no_term(self, fan_file, capsys, monkeypatch):
        # --compare hands each series' packed keys to the batch solve, so
        # the number of classes unpacked does not grow with the term count
        unpacked = []
        unpack = AbelianGroupPresentation.unpack

        def counted(self, key):
            unpacked.append(key)
            return unpack(self, key)

        monkeypatch.setattr(AbelianGroupPresentation, "unpack", counted)
        path = fan_file(three_point_blowup_fan(), "gp")
        counts, outs = [], []
        for truncate in ("4", "6"):
            unpacked.clear()
            assert main(["colinear", "--r", "3", "--truncate", truncate,
                         "--compare", path]) == 0
            outs.append(capsys.readouterr().out)
            counts.append(len(unpacked))
        assert counts[0] == counts[1]
        assert len(outs[0]) < len(outs[1])

    def test_r_below_two(self, capsys):
        assert main(["colinear", "--r", "1"]) == 2

    def test_compare_needs_r3(self, fan_file, capsys):
        path = fan_file(three_point_blowup_fan(), "gp")
        assert main(["colinear", "--r", "4", "--truncate", "4",
                     "--compare", path]) == 2

    def test_compare_needs_truncate(self, fan_file, capsys):
        path = fan_file(three_point_blowup_fan(), "gp")
        assert main(["colinear", "--r", "3", "--compare", path]) == 2

    def test_compare_rejects_unlabelled_fan(self, fan_file, capsys):
        path = fan_file(projective_space_fan(2), "p2")
        assert main(["colinear", "--r", "3", "--truncate", "4",
                     "--compare", path]) == 2
        assert "t1..t3" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("remove", [0, 1, 2, 3, 5])
    def test_localization_passes(self, remove, capsys):
        assert main(["verify", "localization", "--curve", "p1",
                     "--remove", str(remove), "--truncate", "8"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_localization_power_is_written_in_one_pass(self, capsys,
                                                      monkeypatch):
        # (1 - t)^3998 comes from the binomial theorem; repeated squaring
        # made 25 products of growing big-int polynomials
        calls = []

        def counted(self, other):
            calls.append(other)
            return product(self, other)
        product = _Terms.__mul__
        monkeypatch.setattr(_Terms, "__mul__", counted)
        assert main(["verify", "localization", "--curve", "p1",
                     "--remove", "4000", "--truncate", "2"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert len(calls) <= 3

    @pytest.mark.parametrize("remove, digits", [("20000", 6018), ("200000", 60203)])
    def test_localization_coefficients_past_the_digit_limit(self, remove, digits,
                                                             capsys):
        # C(e, e // 2) of (1 - t)^e, e = remove - 2, has more digits than
        # Python prints; the limit is checked before any coefficient is made
        e = int(remove) - 2
        start = time.perf_counter()
        assert main(["verify", "localization", "--curve", "p1",
                     "--remove", remove, "--truncate", "2"]) == 2
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: binomial power {e}: C({e}, {e // 2}) has"
                                f" {digits} digits, over the limit of 4300\n")

    def test_localization_unknown_curve(self, capsys):
        assert main(["verify", "localization", "--curve", "p2",
                     "--remove", "2"]) == 2

    def test_product_p1_p1(self, fan_file, capsys):
        path = fan_file(projective_space_fan(1), "p1")
        assert main(["verify", "product", "--fanA", path, "--fanB", path,
                     "--truncate", "6"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_product_p1_p2(self, fan_file, capsys):
        pa = fan_file(projective_space_fan(1), "p1")
        pb = fan_file(projective_space_fan(2), "p2")
        assert main(["verify", "product", "--fanA", pa, "--fanB", pb,
                     "--truncate", "5"]) == 0

    def test_witness_line_names_the_first_differing_class(self):
        # the FAIL line of verify localization and verify product
        p2, p1 = pn_divisor_series(2, 3), pn_divisor_series(1, 3)
        assert cli._first_difference(p2, p2) is None
        assert (cli._first_difference(p2, p1)
                == "FAIL witness: class t, coefficient difference L^2")

    def test_eq1_refuted_with_l_kept(self, capsys):
        assert main(["verify", "eq1", "--n", "2", "--denominator", "(1-t)^4",
                     "--truncate", "8"]) == 1
        out = capsys.readouterr().out
        assert "FAIL witness: degree 5" in out

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_eq1_all_small_denominators_refuted(self, k, capsys):
        assert main(["verify", "eq1", "--n", "2", "--truncate", "8",
                     "--denominator", f"(1-t)^{k}"]) == 1

    def test_eq1_passes_specialized(self, capsys):
        assert main(["verify", "eq1", "--n", "2", "--specialize", "L=1",
                     "--denominator", "(1-t)^3", "--truncate", "8"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_eq1_curve_denominator_with_l(self, capsys):
        assert main(["verify", "eq1", "--n", "1", "--truncate", "8",
                     "--denominator", "(1-t)(1-L t)"]) == 0

    def test_eq1_rejects_the_degree_before_any_power(self, capsys,
                                                      monkeypatch):
        def no_power(ring, monoid, c, alpha, e=1):
            if e != 1:
                raise AssertionError("denominator power built")
            return binomial(ring, monoid, c, alpha)
        binomial = cli.binomial_factor_polynomial
        monkeypatch.setattr(cli, "binomial_factor_polynomial", no_power)
        assert main(["verify", "eq1", "--n", "1", "--truncate", "4",
                     "--denominator", "(1-t)^3000"]) == 2
        assert "denominator degree reaches the truncation bound" in (
            capsys.readouterr().err)

    def test_eq1_degree_sums_powers_of_factors(self, capsys):
        # degree 2 + 2 + 0 = 4 reaches --truncate 4; the constant factor
        # (1-0t) adds nothing, so degree 3 stays below
        argv = ["verify", "eq1", "--n", "1", "--truncate", "4", "--denominator"]
        assert main(argv + ["(1-t)^2 (1-L t)^2"]) == 2
        assert "truncation bound" in capsys.readouterr().err
        assert main(argv + ["(1-t)^2 (1-L t) (1-0t)^5"]) == 0

    def test_eq1_term_cap_checked_before_any_coefficient(self, capsys,
                                                         monkeypatch):
        # sum of binom(80+d, d) for d <= 4 is 2,024,785 > 10**6
        def no_class(*args):
            raise AssertionError("coefficient built")
        monkeypatch.setattr("mcseries.toric.class_projective_space", no_class)
        assert main(["verify", "eq1", "--n", "80", "--denominator", "(1-t)^2",
                     "--truncate", "4", "--specialize", "L=1"]) == 2
        err = capsys.readouterr().err
        assert "divisor series" in err and "2024785" in err
        assert "1000000" in err

    def test_eq1_term_cap_follows_env(self, capsys, monkeypatch):
        argv = ["verify", "eq1", "--n", "4", "--denominator", "(1-t)^5",
                "--truncate", "12", "--specialize", "L=1"]
        monkeypatch.setenv("MCS_MAX_TERMS", "6188")
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("MCS_MAX_TERMS", "6187")
        assert main(argv) == 2
        assert "over the cap of 6187" in capsys.readouterr().err

    def test_eq1_bad_denominators(self, capsys):
        for bad in ("", "t^2", "(2-t)", "(1-q)", "(1-t", "(1-t)^"):
            assert main(["verify", "eq1", "--n", "2", "--truncate", "4",
                         "--denominator", bad]) == 2, bad

    # stdout past the benchmark's eq1 grid, pinned by its sha256: the
    # divisor series of P^6 (30,207 bytes), degree 60, degree 170 at L = 1,
    # a refuting L factor, and the non-integer image L = eps
    @pytest.mark.parametrize("argv, code, digest", [
        (["--n", "6", "--denominator", "(1-t)^7", "--truncate", "14"], 1,
         "a63980500f4e588e9e3ec721f2e9df3de80240c0c0f7f2bc43258a68f70fbad5"),
        (["--n", "3", "--denominator", "(1-t)^4", "--truncate", "60"], 1,
         "0e5cb392f6db21c572889985791c8df3bddd8f3f411382ad112e07af338aac39"),
        (["--n", "2", "--denominator", "(1-t)^3", "--truncate", "170",
          "--specialize", "L=1"], 0,
         "7aa45f90f47f493bddf87cd0f5eae827c6025f040be8ac87aa766d1ec09f0ada"),
        (["--n", "2", "--denominator", "(1-L*t)(1-t)^2", "--truncate", "5"], 1,
         "ef76af02c4c6761e9559ae4303552f02a217f05d171b8ee4324fcd6175ade342"),
        (["--n", "2", "--denominator", "(1-t)^3", "--truncate", "5",
          "--specialize", "L=eps"], 1,
         "032d63dff26d651bd7a993b3f8cafae3a02e2c42668516ce02fd27e3418639b0"),
    ], ids=["p6-deg14", "p3-deg60", "p2-deg170-L1", "L-factor", "L-eps"])
    def test_eq1_pinned_output(self, argv, code, digest, capsys):
        assert main(["verify", "eq1", *argv]) == code
        captured = capsys.readouterr()
        assert sha256(captured.out.encode()).hexdigest() == digest
        assert captured.err == ""

    # each FAIL path below is forced by a monkeypatched library call; the
    # command must print its FAIL line and exit 1 with nothing on stderr
    @pytest.mark.parametrize("extra_factor, line", [
        (False, "FAIL witness: class t, coefficient difference 2"),
        (True, "FAIL: rational forms differ"),
    ])
    def test_localization_fail(self, extra_factor, line, capsys, monkeypatch):
        real = cli.localize_quotient

        def wrong(x, y):
            if not extra_factor:
                return x  # the curve's series, not the quotient
            # (1 - t)/(1 - t): the right expansion in another rational form
            q, t = real(x, y), x.monoid.generator_named("t")
            return RationalSeries(q.ring, q.monoid, q.numerator * binomial_factor_polynomial(
                q.ring, q.monoid, 1, t), q.factors + ((q.ring.one, t, 1),))
        monkeypatch.setattr(cli, "localize_quotient", wrong)
        assert main(["verify", "localization", "--curve", "p1",
                     "--remove", "2", "--truncate", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == line
        assert captured.err == ""

    def test_product_fail(self, capsys, monkeypatch):
        # the square of the pushed-forward series doubles each degree-1 term
        real = cli.pushforward
        monkeypatch.setattr(cli, "pushforward", lambda f, phi: real(f, phi) * real(f, phi))
        p1 = str(ROOT / "fans" / "p1.json")
        assert main(["verify", "product", "--fanA", p1, "--fanB", p1,
                     "--truncate", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == (
            "FAIL witness: class x0_2, coefficient difference 2")
        assert captured.err == ""

    def test_macdonald_fail_on_the_point_factor(self, capsys, monkeypatch):
        # the square of MC_0 has the point class with multiplicity 2 * chi
        real = cli.mc_series_toric
        monkeypatch.setattr(cli, "mc_series_toric", lambda fan, p: real(fan, p) * real(fan, p))
        assert main(["verify", "macdonald", "--fan", str(ROOT / "fans" / "p2.json"),
                     "--truncate", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "MC_0 = 1/(1 - t)^6",
            "FAIL: expected a single point class with multiplicity 3 (one per maximal cone)"]
        assert captured.err == ""

    def test_macdonald_fail_on_a_coefficient(self, capsys, monkeypatch):
        # a point class of degree 2: 1/(1 - t)^3 expanded to degree 3 stops
        # at the coefficient of t, and t^2 (degree 4) reads 0, not C(4, 2)
        def graded_two(fan, p):
            group = AbelianGroupPresentation(1)
            m = GradedMonoid(group, ("t",), group.basis_images(), grading=(2,))
            ring = standard_ring()
            return RationalSeries(ring, m, None, [(ring.one, m.generators[0], 3)])
        monkeypatch.setattr(cli, "mc_series_toric", graded_two)
        assert main(["verify", "macdonald", "--fan", str(ROOT / "fans" / "p2.json"),
                     "--truncate", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "MC_0 = 1/(1 - t)^3", "FAIL witness: degree 2, coefficient 0, expected 6"]
        assert captured.err == ""

    @pytest.mark.parametrize("denominator, message", [
        ("(1 - t+)", "cannot parse monomial fragment '+'"),
        ("(1-t) x (1-t)", "unexpected text 'x' in denominator"),
    ])
    def test_eq1_denominator_parse_errors(self, denominator, message, capsys):
        assert main(["verify", "eq1", "--n", "2", "--truncate", "4",
                     "--denominator", denominator]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_macdonald_builders(self, fan_file, capsys):
        for name, fan in [("p2", projective_space_fan(2)),
                          ("gp", three_point_blowup_fan()),
                          ("p1xp1", product_fan(projective_space_fan(1),
                                                projective_space_fan(1)))]:
            path = fan_file(fan, name)
            assert main(["verify", "macdonald", "--fan", path,
                         "--truncate", "8"]) == 0
            out = capsys.readouterr().out
            assert f"chi = {len(fan.maximal_cones)}" in out


class TestExpandSpecialize:
    def test_expand_zeta(self, zeta_file, capsys):
        assert main(["expand", "--series", zeta_file, "--truncate", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == ("1 + (1 + L)*t + (1 + L + L^2)*t^2"
                       " + (1 + L + L^2 + L^3)*t^3 + O(degree 4)")

    @pytest.mark.parametrize("assignment", ["L=1", "bogus"])
    def test_expand_takes_no_assignments(self, zeta_file, assignment, capsys):
        # the specialize command applies assignments; expand rejects the flag
        assert main(["expand", "--series", zeta_file, "--truncate", "3",
                     "--specialize", assignment]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --specialize" in captured.err

    def test_specialize_merges_factors(self, zeta_file, capsys):
        assert main(["specialize", "--series", zeta_file,
                     "--assign", "L=1"]) == 0
        assert capsys.readouterr().out.strip() == "1/(1 - t)^2"

    def test_expanded_then_specialized(self, zeta_file, tmp_path, capsys):
        assert main(["expand", "--series", zeta_file, "--truncate", "3",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        path = tmp_path / "expanded.json"
        path.write_text(json.dumps(doc["series"]))
        assert main(["specialize", "--series", str(path),
                     "--assign", "L=1", "--assign", "eps=-1",
                     "--strict"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1 + 2*t + 3*t^2 + 4*t^3 + O(degree 4)"

    def test_eps_assignment_signs_coefficients(self, tmp_path, capsys):
        from mcseries.kring import standard_ring
        from mcseries.monoid import free_graded_monoid
        from mcseries.series import TruncatedSeries
        R = standard_ring()
        m = free_graded_monoid(("t",))
        t = m.generator_named("t")
        eps = R.generator("eps")
        f = TruncatedSeries(R, m, 2, {m.zero: R.one,
                                      t: R.one + eps,
                                      2 * t: R.one - eps})
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(series_to_json(f)))
        assert main(["specialize", "--series", str(path),
                     "--assign", "eps=-1"]) == 0
        assert capsys.readouterr().out.strip() == "1 + 2*t^2 + O(degree 3)"

    def test_strict_missing_assignment(self, zeta_file, capsys):
        assert main(["specialize", "--series", zeta_file,
                     "--assign", "eps=-1", "--strict"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_expand_truncated_beyond_data(self, zeta_file, tmp_path, capsys):
        assert main(["expand", "--series", zeta_file, "--truncate", "3",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        path = tmp_path / "expanded.json"
        path.write_text(json.dumps(doc["series"]))
        assert main(["expand", "--series", str(path), "--truncate", "9"]) == 2
        assert main(["expand", "--series", str(path), "--truncate", "2"]) == 0
        assert "t^3" not in capsys.readouterr().out

    def test_cancelled_degree_ends_the_expansion(self, tmp_path, capsys):
        # (1 - t)/(1 - t): degree 1 cancels to nothing, and the expansion
        # stops there instead of walking every empty degree to --truncate
        path = _write(tmp_path, _over_line([_line_term(0, 1), _line_term(1, -1)], 1))
        start = time.perf_counter()
        assert main(["expand", "--series", path, "--truncate", str(10 ** 6)]) == 0
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().out == "1 + O(degree 1000001)\n"

    def test_specialized_to_zero_then_expanded(self, tmp_path, capsys):
        # (1 - L)/(1 - t) at L = 1 is the zero numerator, written as "[]"
        one_minus_l = {"class": {"free": [0], "torsion": []},
                       "coeff": {"terms": [{"coeff": 1, "exp": {}},
                                           {"coeff": -1, "exp": {"L": 1}}]}}
        path = _write(tmp_path, _over_line([one_minus_l], 1))
        assert main(["specialize", "--series", path, "--assign", "L=1",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["series"]["numerator"] == []
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc["series"]))
        assert main(["expand", "--series", str(path), "--truncate", "3"]) == 0
        assert capsys.readouterr().out == "0 + O(degree 4)\n"

    def test_word_over_many_free_generators(self, tmp_path, capsys):
        # the elimination that solves for words skips the rows a pivot
        # leaves unchanged, so 400 free generators cost no 400^3 work
        m = 400
        doc = {"kind": "polynomial", "ring": {"generators": ["L", "eps"]},
               "monoid": {"generators": [f"g{i}" for i in range(m)]},
               "terms": [{"class": {"free": [1, 1] + [0] * (m - 2), "torsion": []},
                          "coeff": {"terms": [{"coeff": 1, "exp": {}}]}}]}
        path = _write(tmp_path, doc)
        start = time.perf_counter()
        assert main(["expand", "--series", path, "--truncate", "2"]) == 0
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().out == "g0*g1 + O(degree 3)\n"

    def test_class_that_is_not_effective_exit_2(self, tmp_path, capsys):
        # the class (-1, 2) over free s, t is no word in s and t
        doc = _free_polynomial([((-1, 2), 1)])
        assert main(["expand", "--series", _write(tmp_path, doc), "--truncate", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: element is not a sum of monoid generators\n"

    def test_huge_exponent_prints_at_once(self, tmp_path, capsys):
        # the word s^(10^12) is one text, not one per exponent up to 10^12
        doc = _free_polynomial([((10 ** 12,), 1)], ("s",))
        start = time.perf_counter()
        assert main(["specialize", "--series", _write(tmp_path, doc),
                     "--assign", "L=1"]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == "s^1000000000000\n"

    def test_assignment_parse_errors(self, zeta_file, capsys):
        for bad in ("L", "L=", "=1", "Q=1", "L=x"):
            assert main(["specialize", "--series", zeta_file,
                         "--assign", bad]) == 2, bad


class TestWideIntegers:
    """An integer in text wider than the 4,300 digits Python converts exits
    2 with one message naming the input, its digit count and the limit, and
    without echoing the digits."""

    @pytest.mark.parametrize("argv, message", [
        (["--denominator", "(1-t)^2", "--truncate", "4",
          "--specialize", "L=" + "1" * 5000], "the value of L has 5000 digits"),
        (["--denominator", "(1 - " + "1" * 4301 + " t)", "--truncate", "4"],
         "a denominator coefficient has 4301 digits"),
        (["--denominator", "(1-t)^2", "--truncate", "1" * 4301],
         "--truncate has 4301 digits"),
    ], ids=["assignment", "denominator", "truncate"])
    def test_one_message(self, argv, message, capsys):
        assert main(["verify", "eq1", "--n", "1", *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {message}, over the limit of 4300\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no limit on integer digits before Python 3.11")
    def test_series_file_coefficient(self, tmp_path, capsys):
        # the file is valid JSON: json.load raises a plain ValueError for
        # the width, not a JSONDecodeError
        doc = {"kind": "polynomial", "ring": {"generators": ["L", "eps"]},
               "monoid": {"generators": ["t"]},
               "terms": [{"class": {"free": [1], "torsion": []},
                          "coeff": {"terms": [{"coeff": 7, "exp": {}}]}}]}
        path = _write(tmp_path, doc)
        Path(path).write_text(Path(path).read_text().replace(
            '"coeff": 7', '"coeff": ' + "1" * 4400))
        assert main(["expand", "--series", path, "--truncate", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} holds an integer wider than the limit of 4300 digits\n")


class TestTermCap:
    """Each MCS_MAX_TERMS cap exits 2 with one message naming the stage, the
    count it reached and the cap."""

    @pytest.fixture
    def inputs(self, fan_file, zeta_file, tmp_path):
        series = tmp_path / "expanded.json"
        series.write_text(json.dumps(series_to_json(curve_zeta(0).expand(3))))
        plane40 = TestToric._many_ray_plane_fan(tmp_path / "plane40.json", 40)
        # under 200 bytes: one generator in a group on 100,000 ambient generators
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({
            "kind": "rational", "ring": {"generators": ["L", "eps"]},
            "monoid": {"ambient_generators": 100000,
                       "generators": [{"name": "t", "ambient": [1]}]},
            "denominator": []}))
        # 1/(1 - t)^(10^25): more passes than itertools.repeat can count
        doc = _over_line([_line_term(0, 1)], 1)
        doc["denominator"][0]["power"] = 10 ** 25
        power = tmp_path / "power.json"
        power.write_text(json.dumps(doc))
        dependent = tmp_path / "dependent.json"
        dependent.write_text(json.dumps(_dependent_polynomial(2, 0)))
        return {"DEPENDENT": str(dependent),
                "P8": fan_file(projective_space_fan(8), "p8"),
                "P16": fan_file(projective_space_fan(16), "p16"),
                "PLANE40": plane40, "SERIES": str(series), "ZETA": zeta_file,
                "WIDE": str(wide), "POWER": str(power)}

    @pytest.mark.parametrize("cap, argv, stage_and_count", [
        # a rational series file is capped inside its expansion
        ("3", ["expand", "--series", "ZETA", "--truncate", "3"],
         "expansion to degree 3: 4 terms"),
        # printing the word of a^2 over a, b and c = a + b enumerates the
        # monoid to degree 2: 0, a, b, c, a^2, a*b and b^2
        ("4", ["expand", "--series", "DEPENDENT", "--truncate", "2"],
         "monoid enumeration to degree 2: 5 elements"),
        ("30", ["toric", "--fan", "PLANE40", "--p", "1"],
         f"fan validation of cone {tuple(range(40))}: 40 candidate 1-faces"),
        # every cone of P^8 is simplicial, with C(8, 4) = 70 faces of dim 4
        ("50", ["toric", "--fan", "P8", "--p", "4"],
         "face enumeration of cone (1, 2, 3, 4, 5, 6, 7, 8):"
         " 70 candidate 4-faces"),
        ("6187", ["verify", "eq1", "--n", "4", "--denominator", "(1-t)^5",
                  "--truncate", "12", "--specialize", "L=1"],
         "divisor series of P^4 to degree 12: 6188 terms"),
        ("3", ["expand", "--series", "SERIES", "--truncate", "3"],
         "series file to degree 3: 4 terms"),
        # C(17, 8) generators times C(17, 7) taus times 9 perp rows: the
        # dense matrix would not fit in memory
        ("1000000", ["toric", "--fan", "P16", "--p", "8"],
         "relation matrix of 8-cycles: 4255027920 entries"),
        # (1 - t)^1999998 is counted before any of its terms is made
        ("1000000", ["verify", "localization", "--curve", "p1", "--remove",
                     "2000000", "--truncate", "2"],
         "binomial power 1999998: 1999999 terms"),
        # the class group Z^100001 would keep two dense 100001^2 matrices
        ("1000000", ["colinear", "--r", "100000", "--truncate", "1",
                     "--format", "json"],
         "colinear blow-up at 100000 points: 10000200001 class coordinates"),
        ("1000000", ["expand", "--series", "WIDE", "--truncate", "2"],
         "monoid on 100000 ambient generators: 10000000000 matrix entries"),
        ("5", ["expand", "--series", "POWER", "--truncate", "1" + "0" * 30],
         f"expansion to degree {10 ** 30}: 6 terms"),
    ], ids=["expansion", "monoid-enumeration", "fan-validation",
            "simplicial-faces", "divisor-series", "series-file",
            "relation-matrix", "binomial-power", "colinear-classes",
            "series-file-monoid", "factor-power-past-maxsize"])
    def test_exit_2_naming_stage_count_and_cap(self, cap, argv, stage_and_count,
                                               inputs, capsys, monkeypatch):
        monkeypatch.setenv("MCS_MAX_TERMS", cap)
        start = time.perf_counter()
        assert main([inputs.get(a, a) for a in argv]) == 2
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {stage_and_count}, over the cap of"
                                f" {cap}; raise MCS_MAX_TERMS\n")

    def test_class_code_spans_follow_the_cap(self, tmp_path, capsys, monkeypatch):
        # 1/(1 - t) to degree 10^4000, and a class of degree 10^3999 printed
        # as a word over a, b and c = a + b, which enumerates the monoid:
        # spans read off the bound alone would give each class code digit
        # about 13,000 bits; read off the cap they stay at most (cap + 1)
        # times the sum of |x_p| over the factor classes, which is 2 for a
        # and c and 1 for the factor t
        spans = []
        codes = AbelianGroupPresentation.codes

        def recording(group, span):
            spans.append(tuple(span))
            return codes(group, span)

        monkeypatch.setattr(AbelianGroupPresentation, "codes", recording)
        monkeypatch.setenv("MCS_MAX_TERMS", "1000")
        line = _write(tmp_path, _over_line([_line_term(0, 1)], 1))
        assert main(["expand", "--series", line, "--truncate", str(10 ** 4000)]) == 2
        assert "expansion to degree" in capsys.readouterr().err
        poly = _write(tmp_path, _dependent_polynomial(10 ** 3999, 0))
        assert main(["expand", "--series", poly, "--truncate", str(10 ** 3999)]) == 2
        assert "monoid enumeration to degree" in capsys.readouterr().err
        assert len(spans) == 2
        assert max(max(span) for span in spans) <= 2 * 1001

    def test_push_weights_are_made_as_they_are_pushed(self, tmp_path, capsys,
                                                      monkeypatch):
        # (1 - t)/(1 - t)^(T + 2) at T = 10^6: its pass with k = T + 1 trips
        # a cap of 1,000 after 1,000 pushes.  Making every weight C(T + 1, i)
        # it could push before the first push takes time quadratic in T.
        doc = _over_line([_line_term(0, 1), _line_term(1, -1)], 1)
        doc["denominator"][0]["power"] = 10 ** 6 + 2
        path = _write(tmp_path, doc)
        monkeypatch.setenv("MCS_MAX_TERMS", "1000")
        start = time.perf_counter()
        assert main(["expand", "--series", path, "--truncate", str(10 ** 6)]) == 2
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().err == (
            "error: expansion to degree 1000000: 1001 terms, over the cap of"
            " 1000; raise MCS_MAX_TERMS\n")

    @pytest.mark.parametrize("k, n, p", [(7, 1, 1), (7, 1, 3), (1, 10, 5)],
                             ids=["p1^7-p1", "p1^7-p3", "p10-p5"])
    def test_relation_matrix_under_the_cap_is_reduced_quickly(
            self, k, n, p, fan_file, capsys):
        # (P^n)^k under the default cap: 448 x 1344 relation entries for
        # (P^1)^7 at p=1 and 462 x 1980 for P^10 at p=5.  The Smith form of
        # the class group keeps no column transform.
        fan = projective_space_fan(n)
        for _ in range(k - 1):
            fan = product_fan(fan, projective_space_fan(n))
        path = fan_file(fan, "power")
        start = time.perf_counter()
        assert main(["toric", "--fan", path, "--p", str(p),
                     "--truncate", "2"]) == 0
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().out.startswith(f"MC_{p} = ")


ROOT = Path(__file__).resolve().parent.parent
P2_FAN = json.loads((ROOT / "fans" / "p2.json").read_text())
SERIES = json.loads((ROOT / "tests" / "golden" / "series.json").read_text())


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestBadShapes:
    """A JSON file of the wrong shape is bad input: exit 2, no traceback."""

    @pytest.mark.parametrize("cmd, doc", [
        ("toric", _set(P2_FAN, ["maximal_cones"], None)),
        ("toric", _set(P2_FAN, ["rays"], 5)),
        ("toric", _set(P2_FAN, ["ray_names"], 7)),
        ("expand", _set(SERIES, ["denominator"], 7)),
        ("expand", _set(SERIES, ["numerator"], 5)),
        ("expand", _set(SERIES, ["monoid", "generators"], 3)),
        ("expand", _set(SERIES, ["denominator", 0, "class"], {"free": None})),
        ("expand", _set(SERIES, ["denominator", 0, "coeff"], {"terms": 1})),
        # JSON integer fields take integers only, never int() of the value
        ("toric", _set(P2_FAN, ["rays", 0, 0], 1.9)),
        ("toric", _set(P2_FAN, ["maximal_cones", 0, 0], "1")),
        ("toric", _set(P2_FAN, ["maximal_cones", 2, 1], True)),
        ("expand", _set(SERIES, ["denominator", 0, "coeff", "terms", 0,
                                 "coeff"], 2.5)),
        # names are JSON strings, never str() of the value
        ("expand", _set(SERIES, ["monoid", "generators", 0, "name"], 1)),
    ], ids=["cones-null", "rays-int", "ray-names-int", "denominator-int",
            "numerator-int", "generators-int", "factor-free-null",
            "factor-terms-int", "ray-float", "cone-index-str",
            "cone-index-bool", "coeff-float", "generator-name-int"])
    def test_exit_2(self, cmd, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = (["toric", "--fan", str(path), "--p", "1", "--truncate", "2"]
                if cmd == "toric" else
                ["expand", "--series", str(path), "--truncate", "2"])
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


def _write(tmp_path, doc):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _with_term(doc, exp):
    """doc with a constant numerator term 3 * exp added."""
    doc = copy.deepcopy(doc)
    doc["numerator"].append({"class": {"free": [0], "torsion": [0]},
                             "coeff": {"terms": [{"coeff": 3, "exp": exp}]}})
    return doc


class TestRingFiles:
    """A ring is L, eps and free symbols: a negative exponent or a declared
    reduction rule is bad input."""

    @pytest.mark.parametrize("name, e", [("L", -1), ("eps", -3)], ids=["L", "eps"])
    def test_negative_exponent_exit_2(self, name, e, tmp_path, capsys):
        path = _write(tmp_path, _with_term(SERIES, {name: e}))
        assert main(["expand", "--series", path, "--truncate", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: exponent of {name!r} must be >= 0, got {e}\n"

    def test_reduction_rule_exit_2(self, tmp_path, capsys):
        # u^2 -> 2u and a coefficient u^5000: rewriting one power at a time
        # once ran past Python's recursion limit
        doc = _with_term(SERIES, {"u": 5000})
        doc["ring"] = {"generators": ["L", "eps", "u"],
                       "reductions": [{"symbol": "u", "power": 2,
                                       "replacement": [[[["u", 1]], 2]]}]}
        start = time.perf_counter()
        assert main(["expand", "--series", _write(tmp_path, doc),
                     "--truncate", "2"]) == 2
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ring field 'reductions' is not supported" in captured.err


def _line_term(degree, coeff):
    return {"class": {"free": [degree], "torsion": []},
            "coeff": {"terms": [{"coeff": coeff, "exp": {}}]}}


def _free_polynomial(terms, names=("s", "t")):
    """The polynomial of (class, integer coefficient) terms over the free
    monoid on names."""
    return {"kind": "polynomial", "ring": {"generators": ["L", "eps"]},
            "monoid": {"generators": list(names)},
            "terms": [{"class": {"free": list(c), "torsion": []},
                       "coeff": {"terms": [{"coeff": k, "exp": {}}]}} for c, k in terms]}


def _dependent_polynomial(x, y):
    """The polynomial t^(x, y) over a, b and c = a + b, whose generators
    have dependent free parts: its pretty word enumerates the monoid."""
    return {"kind": "polynomial", "ring": {"generators": ["L", "eps"]},
            "monoid": {"ambient_generators": 2, "generators": [
                {"name": "a", "ambient": [1, 0]}, {"name": "b", "ambient": [0, 1]},
                {"name": "c", "ambient": [1, 1]}]},
            "terms": [{"class": {"free": [x, y], "torsion": []},
                       "coeff": {"terms": [{"coeff": 1, "exp": {}}]}}]}


def _over_line(numerator, c):
    """numerator / (1 - c t) over the free monoid on t."""
    return {"kind": "rational", "ring": {"generators": ["L", "eps"]},
            "monoid": {"generators": ["t"]}, "numerator": numerator,
            "denominator": [dict(_line_term(1, c), power=1)]}


class TestDigitLimit:
    """A finished coefficient with more digits than Python prints is bad
    input, named by its stage and degree; wide values that cancel are not."""

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["pretty", "json"])
    def test_expansion_past_the_limit_exit_2(self, fmt, tmp_path, capsys):
        # the coefficient of t^d in 1/(1 - 10^100 t) is 10^(100 d)
        path = _write(tmp_path, _over_line([_line_term(0, 1)], 10 ** 100))
        start = time.perf_counter()
        assert main(["expand", "--series", path, "--truncate", "50", *fmt]) == 2
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: expansion to degree 50: the coefficient at"
                                " degree 43 has 4301 digits, over the limit of 4300\n")

    def test_cancelling_wide_factor_exit_0(self, tmp_path, capsys):
        path = _write(tmp_path, _over_line([_line_term(0, 1), _line_term(1, -10 ** 100)],
                                           10 ** 100))
        start = time.perf_counter()
        assert main(["expand", "--series", path, "--truncate", "60"]) == 0
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().out == "1 + O(degree 61)\n"

    def test_other_stages(self, tmp_path, capsys):
        wide = "1" + "0" * 3000
        # (1 - 10^3000 L t)^2 specialized at L = 10^3000
        zeta = {"kind": "rational", "ring": {"generators": ["L", "eps"]},
                "monoid": {"generators": ["t"]}, "denominator": [
                    dict(_line_term(1, 10 ** 3000), power=2)]}
        zeta["denominator"][0]["coeff"]["terms"][0]["exp"] = {"L": 1}
        assert main(["specialize", "--series", _write(tmp_path, zeta),
                     "--assign", f"L={wide}"]) == 2
        assert capsys.readouterr().err == ("error: specialization: the coefficient at"
                                           " degree 1 has 6001 digits, over the"
                                           " limit of 4300\n")
        # the witness of (1 - 10^3000 t)^2 against P^1 has (10^3000 - 1)^2 in it
        assert main(["verify", "eq1", "--n", "1", "--truncate", "4",
                     "--denominator", f"(1 - {wide} t)^2"]) == 2
        assert capsys.readouterr().err == (
            "error: rationality check to degree 4: the coefficient at degree 3"
            " has 6000 digits, over the limit of 4300\n")
        # two terms of 4,300 nines in one class sum to 4,301 digits
        nines = int("9" * 4300)
        doc = _over_line([_line_term(0, 1), _line_term(0, nines), _line_term(0, nines)], 1)
        assert main(["expand", "--series", _write(tmp_path, doc),
                     "--truncate", "2"]) == 2
        assert capsys.readouterr().err == ("error: expansion to degree 2: the coefficient"
                                           " at degree 0 has 4301 digits, over the"
                                           " limit of 4300\n")
        # two factors (1 - t)^N, N of 4,300 nines, merge into (1 - t)^(2N)
        doc = _over_line([_line_term(0, 1)], 1)
        doc["denominator"] = [dict(_line_term(1, 1), power=nines)] * 2
        assert main(["specialize", "--series", _write(tmp_path, doc),
                     "--assign", "L=1"]) == 2
        assert capsys.readouterr().err == ("error: specialization: the power of the factor"
                                           " at degree 1 has 4301 digits, over the"
                                           " limit of 4300\n")

    def test_wide_denominator_in_verify_eq1_exit_2(self, capsys):
        # the claimed numerator degree is 200, so only degree 201 of the
        # product is made: no product of 30,000- to 60,000-digit integers
        # below it
        wide = "1" + "0" * 300
        start = time.perf_counter()
        assert main(["verify", "eq1", "--n", "1", "--denominator",
                     f"(1 - {wide} t)^200", "--truncate", "201"]) == 2
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: rationality check to degree 201: the coefficient at"
                                " degree 201 has 60000 digits, over the limit of 4300\n")

    def test_wide_exponent_in_verify_eq1_exit_2(self, capsys):
        nines = "9" * 4300
        assert main(["verify", "eq1", "--n", "1", "--truncate", "3", "--denominator",
                     f"(1 - L^{nines} L^{nines} t)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: rationality check to degree 3: the coefficient at"
                                " degree 2 has an exponent of L with 4301 digits, over the"
                                " limit of 4300\n")

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["pretty", "json"])
    def test_wide_exponent_in_series_file_exit_2(self, fmt, tmp_path, capsys):
        # 1/(1 - L^N t) has L^(2N) at degree 2
        doc = _over_line([_line_term(0, 1)], 1)
        doc["denominator"][0]["coeff"]["terms"][0]["exp"] = {"L": int("9" * 4300)}
        assert main(["expand", "--series", _write(tmp_path, doc),
                     "--truncate", "2", *fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: expansion to degree 2: the coefficient at"
                                " degree 2 has an exponent of L with 4301 digits, over"
                                " the limit of 4300\n")

    def test_wide_values_that_are_not_printed_exit_0(self, capsys):
        # 1 + X + X^2 at degree 2 has 6,001 digits, but a PASS prints no
        # coefficient
        wide = "1" + "0" * 3000
        assert main(["verify", "eq1", "--n", "1", "--denominator",
                     f"(1 - t)(1 - {wide} t)", "--specialize", f"L={wide}",
                     "--truncate", "6"]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith(": consistent-to-6\nPASS (consistent with a"
                                     " numerator of degree <= 2 up to degree 6)\n")
        assert captured.err == ""

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    @pytest.mark.parametrize("cmd, stage", [
        (["expand", "--truncate", "2"], "expansion to degree 2"),
        (["specialize", "--assign", "L=1"], "specialization"),
    ], ids=["expand", "specialize"])
    @pytest.mark.parametrize("kind", ["truncated", "polynomial"])
    def test_wide_sum_in_a_term_file_exit_2(self, kind, cmd, stage, fmt, tmp_path,
                                            capsys):
        # two terms of 4,300 nines in one class sum to 4,301 digits
        nines = int("9" * 4300)
        doc = {"kind": kind, "ring": {"generators": ["L", "eps"]},
               "monoid": {"generators": ["t"]}, "terms": [
                   _line_term(0, 1), _line_term(1, nines), _line_term(1, nines),
                   _line_term(2, 5)]}
        if kind == "truncated":
            doc["truncation"] = 3
        assert main([cmd[0], "--series", _write(tmp_path, doc), *cmd[1:],
                     "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {stage}: the coefficient at degree 1 has"
                                " 4301 digits, over the limit of 4300\n")


    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_wide_truncation_in_a_series_file_exit_2(self, fmt, tmp_path, capsys):
        # the O-term of truncation 4,300 nines is of degree 10^4300
        doc = dict(_free_polynomial([((1,), 1)], ("t",)), kind="truncated",
                   truncation=int("9" * 4300))
        assert main(["specialize", "--series", _write(tmp_path, doc),
                     "--assign", "L=1", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: series truncation must have fewer than 4300"
                                " digits, so that its O-term prints\n")

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_wide_degree_is_named_by_its_digits(self, fmt, tmp_path, capsys):
        # two terms N * s^N t^N, N of 4,300 nines, sum to 2N at degree 2N:
        # both have 4,301 digits, too many to print in the message too
        nines = int("9" * 4300)
        doc = _free_polynomial([((nines, nines), nines)] * 2)
        assert main(["specialize", "--series", _write(tmp_path, doc),
                     "--assign", "L=1", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: specialization: the coefficient at a degree"
                                " of 4301 digits has 4301 digits, over the limit of"
                                " 4300\n")


class TestIntTextLimit:
    """The output does not depend on PYTHONINTMAXSTRDIGITS: main converts
    ints of up to 4,300 digits to text, and refuses wider ones itself."""

    @staticmethod
    def _run(tmp_path, truncate, fmt, limit=None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        path = _write(tmp_path, _over_line([_line_term(0, 1)], 10 ** 100))
        return subprocess.run([sys.executable, "-m", "mcseries.cli", "expand",
                               "--series", path, "--truncate", str(truncate),
                               "--format", fmt],
                              capture_output=True, text=True, env=env, timeout=60)

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_a_lower_limit_prints_the_same_bytes(self, fmt, tmp_path):
        # the coefficient at degree 10 of 1/(1 - 10^100 t) has 1,001 digits
        low = self._run(tmp_path, 10, fmt, "640")
        assert (low.returncode, low.stderr) == (0, "")
        assert low.stdout == self._run(tmp_path, 10, fmt).stdout
        assert "1" + "0" * 1000 in low.stdout

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_no_limit_still_refuses_wide_coefficients(self, fmt, tmp_path):
        run = self._run(tmp_path, 50, fmt, "0")
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == ("error: expansion to degree 50: the coefficient at"
                              " degree 43 has 4301 digits, over the limit of 4300\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-to-text limit")
    def test_in_process_calls_restore_the_limit(self, tmp_path, capsys):
        path = _write(tmp_path, _over_line([_line_term(0, 1)], 10 ** 100))
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["expand", "--series", path, "--truncate", "10"]) == 0
            assert main(["expand", "--series", path, "--truncate", "50"]) == 2
            assert main(["toric", "--fan", "missing.json", "--p", "1"]) == 2
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)
        assert "1" + "0" * 1000 in capsys.readouterr().out


class TestJsonWriter:
    """--format json writes the term lists of each series straight from its
    packed keys and coefficients: no row dict of series_to_json is made."""

    @pytest.mark.parametrize("name, argv", [
        ("readme-toric-p2", ["toric", "--fan", "fans/p2.json", "--p", "1",
                             "--truncate", "4"]),
        ("readme-expand", ["expand", "--series", "tests/golden/series.json",
                           "--truncate", "3"]),
        ("readme-specialize", ["specialize", "--series", "tests/golden/series.json",
                               "--assign", "L=1", "--assign", "eps=-1", "--strict"]),
    ], ids=["toric", "expand", "specialize"])
    def test_no_row_dicts(self, name, argv, capsys, monkeypatch):
        def no_rows(poly):
            raise AssertionError("made the row dicts of a term list")

        monkeypatch.setattr(serialize, "_terms_to_json", no_rows)
        monkeypatch.chdir(ROOT)
        assert main(argv + ["--format", "json"]) == 0
        golden = ROOT / "tests" / "golden" / "cli" / f"{name}-json.txt"
        assert "exit 0\n" + capsys.readouterr().out == golden.read_text()


    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_stdout_takes_bounded_writes(self, fmt, monkeypatch):
        """gp to degree 20 is 8.6 MB of JSON, written in pieces of at most
        1 MB whose bytes are json_text's and the stdlib's; its pretty text,
        575 KB, is printed whole."""
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["toric", "--fan", str(FANS / "gp.json"), "--p", "1",
                     "--truncate", "20", "--format", fmt]) == 0
        assert max(map(len, out.writes)) <= 1 << 20
        text = "".join(out.writes)
        f = mc_series_toric(serialize.fan_from_json(
            json.loads((FANS / "gp.json").read_text())), 1)
        e = f.expand(20, words=fmt == "pretty")
        notes = list(OrbitClassMonoid.assumptions)
        if fmt == "pretty":
            assert text == "\n".join([f"MC_1 = {f}", f"expansion: {e}",
                                      *(f"note: {note}" for note in notes)]) + "\n"
            return
        assert len(text) > 8 << 20
        doc = {"command": "toric", "p": 1, "notes": notes, "rational": f, "expansion": e}
        assert text == serialize.json_text(doc) + "\n"
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestClosedStdout:
    """A reader that closes stdout early ends the run with exit code 2 and
    nothing on stderr: no traceback, and no report of the closed pipe when
    the interpreter exits."""

    def test_head_1(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # about 1.4 MB of JSON, far more than a pipe holds
        proc = subprocess.Popen([sys.executable, "-m", "mcseries.cli", "toric", "--fan",
                                 str(ROOT / "fans" / "gp.json"), "--p", "1",
                                 "--truncate", "12", "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, text=True)
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_pipe_closed_before_the_run(self, capsys, monkeypatch):
        # in-process: the read end is closed before main starts, so the
        # first flush of stdout fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = os.fdopen(write_end, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main(["verify", "macdonald", "--fan", str(ROOT / "fans" / "p2.json"),
                         "--truncate", "3"]) == 2
        finally:
            stdout.close()
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count descriptors")
    def test_closed_pipe_leaks_no_descriptor(self, capsys, monkeypatch):
        # each closed-stdout exit points stdout at os.devnull and closes the
        # descriptor it opened for that
        argv = ["verify", "macdonald", "--fan", str(ROOT / "fans" / "p2.json"),
                "--truncate", "3"]
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            read_end, write_end = os.pipe()
            os.close(read_end)
            stdout = os.fdopen(write_end, "w")
            monkeypatch.setattr(sys, "stdout", stdout)
            try:
                assert main(argv) == 2
            finally:
                stdout.close()
            assert capsys.readouterr().err == ""
        assert len(os.listdir("/proc/self/fd")) == before


class TestProgramDefects:
    """Only MCSError is bad input: any other exception is a defect and
    escapes main as a traceback, never exit code 2."""

    @pytest.mark.parametrize("exc", [ValueError, KeyError])
    def test_defect_escapes_main(self, exc, monkeypatch):
        def broken(obj):
            raise exc("a defect")
        monkeypatch.setattr(cli, "series_from_json", broken)
        with pytest.raises(exc, match="a defect"):
            main(["expand", "--series", str(ROOT / "tests" / "golden" / "series.json"),
                  "--truncate", "2"])


class TestArgHandling:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["toric", "--p", "1"]) == 2

    def test_truncate_of_4300_digits_is_rejected(self, capsys):
        # the O-term degree, one more, would have 4301 digits
        assert main(["expand", "--series", str(ROOT / "tests" / "golden" / "series.json"),
                     "--truncate", "9" * 4300]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--truncate: must have fewer than 4300 digits" in captured.err

    @pytest.mark.parametrize("argv", [
        ["toric", "--fan", "FAN", "--p"],
        ["colinear", "--truncate", "2", "--r"],
        ["verify", "localization", "--remove"],
        ["verify", "eq1", "--denominator", "(1-t)^3", "--n"],
    ], ids=["p", "r", "remove", "n"])
    def test_integer_options_past_the_digit_limit(self, argv, capsys):
        # the digits are counted before int() is asked: one line naming the
        # option, not argparse's echo of every digit
        argv = [str(ROOT / "fans" / "p2.json") if a == "FAN" else a for a in argv]
        assert main(argv + ["1" * 4301]) == 2
        assert capsys.readouterr() == (
            "", f"error: {argv[-1]} has 4301 digits, over the limit of 4300\n")
        assert main(argv + ["abc"]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {argv[-1]}: invalid int value: 'abc'\n")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())  # undo the line wrap
        assert "toric" in out
        assert "colinear points" in out and "stratified" not in out

    @pytest.mark.parametrize("argv", [
        ["toric", "--fan", "FAN", "--p", "1"],
        ["colinear", "--r", "3"],
        ["verify", "localization", "--remove", "2"],
        ["verify", "product", "--fanA", "FAN", "--fanB", "FAN"],
        ["verify", "eq1", "--n", "2", "--denominator", "(1-t)^3"],
        ["verify", "macdonald", "--fan", "FAN"],
        ["expand", "--series", "SERIES"],
    ], ids=["toric", "colinear", "localization", "product", "eq1",
            "macdonald", "expand"])
    def test_negative_truncate_is_rejected_before_any_output(self, argv,
                                                             capsys):
        paths = {"FAN": str(ROOT / "fans" / "p2.json"),
                 "SERIES": str(ROOT / "tests" / "golden" / "series.json")}
        argv = [paths.get(a, a) for a in argv]
        assert main(argv + ["--truncate", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--truncate: must be >= 0, got -1" in captured.err


class TestDeepNesting:
    """JSON nested past the parser's recursion limit is bad input as well."""

    @pytest.mark.parametrize("argv", [
        ["toric", "--p", "1", "--fan"],
        ["expand", "--truncate", "2", "--series"],
    ], ids=["toric-fan", "expand-series"])
    def test_exit_2_naming_the_file(self, argv, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run([sys.executable, "-m", "mcseries.cli", *argv,
                              str(path)],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert run.returncode == 2
        assert str(path) in run.stderr
        assert "Traceback" not in run.stderr


class TestRepeatedAssignment:
    """A generator assigned twice in one run is bad input, whichever value
    comes last."""

    @pytest.mark.parametrize("values", [("2", "1"), ("1", "2"), ("1", "1")])
    def test_verify_specialize(self, values, capsys):
        argv = ["verify", "eq1", "--n", "1", "--denominator", "(1-t)^2",
                "--truncate", "4"]
        for value in values:
            argv += ["--specialize", f"L={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ring generator 'L' is assigned twice\n"

    @pytest.mark.parametrize("assignments", [
        ["eps=-1", "L=1", "eps=1"], ["L=1", "L=eps"]])
    def test_specialize_assign(self, assignments, zeta_file, capsys):
        argv = ["specialize", "--series", zeta_file]
        for text in assignments:
            argv += ["--assign", text]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = assignments[-1].partition("=")[0]
        assert captured.err == f"error: ring generator {name!r} is assigned twice\n"


class TestParserReuse:
    """main() builds its parser once; no call may see another's options."""

    def test_specialize_does_not_carry_over(self, capsys):
        p2 = str(ROOT / "fans" / "p2.json")
        argv = ["toric", "--fan", p2, "--p", "1", "--truncate", "4"]
        assert main(argv + ["--specialize", "L=1"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        golden = (ROOT / "tests" / "golden" / "cli" / "readme-toric-p2.txt")
        assert "exit 0\n" + capsys.readouterr().out == golden.read_text()
        assert build_parser().parse_args(argv).specialize == []

    def test_verify_specialize_does_not_carry_over(self, capsys):
        argv = ["verify", "eq1", "--n", "2", "--denominator", "(1-t)^3",
                "--truncate", "8"]
        assert main(argv + ["--specialize", "L=1"]) == 0
        assert main(argv) == 1

    def test_only_the_last_calls_assignments_apply(self, capsys):
        path = str(ROOT / "tests" / "golden" / "series.json")
        assert main(["specialize", "--series", path, "--assign", "L=1"]) == 0
        capsys.readouterr()
        assert main(["specialize", "--series", path,
                     "--assign", "eps=-1"]) == 0
        f = series_from_json(SERIES)
        want = f.specialize(Specialization(f.ring, {"eps": -1},
                                           carry_unassigned=True))
        assert capsys.readouterr().out == f"{want}\n"

    def test_usage_error_twice(self, capsys):
        assert main(["toric"]) == 2
        assert main(["toric"]) == 2
