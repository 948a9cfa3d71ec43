"""End-to-end command tests: exit codes, output text, determinism."""

import copy
import json
from pathlib import Path

import pytest

from mcseries.cli import main
from mcseries.serialize import fan_to_json, series_from_json, series_to_json
from mcseries.series import MonoidPolynomial, curve_zeta
from mcseries.toric import (
    mc_series_toric,
    product_fan,
    projective_space_fan,
    three_point_blowup_fan,
)


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

    def test_incomplete_fan(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"rays": [[1, 0], [0, 1]],
                                    "maximal_cones": [[0, 1]]}))
        assert main(["toric", "--fan", str(path), "--p", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_cycle_dimension(self, fan_file, capsys):
        path = fan_file(projective_space_fan(2), "p2")
        assert main(["toric", "--fan", path, "--p", "7"]) == 2

    def test_term_cap_env(self, fan_file, capsys, monkeypatch):
        monkeypatch.setenv("MCS_MAX_TERMS", "5")
        path = fan_file(three_point_blowup_fan(), "gp")
        assert main(["toric", "--fan", path, "--p", "1", "--truncate", "6"]) == 2
        assert "MCS_MAX_TERMS" in capsys.readouterr().err or True

    def test_bad_cap_value(self, fan_file, capsys, monkeypatch):
        monkeypatch.setenv("MCS_MAX_TERMS", "many")
        path = fan_file(projective_space_fan(2), "p2")
        assert main(["toric", "--fan", path, "--p", "1", "--truncate", "2"]) == 2

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_cap_value_without_truncation(self, fan_file, capsys,
                                              monkeypatch, raw):
        # printing the series reads the cap too
        monkeypatch.setenv("MCS_MAX_TERMS", raw)
        path = fan_file(three_point_blowup_fan(), "gp")
        assert main(["toric", "--fan", path, "--p", "1"]) == 2
        assert "MCS_MAX_TERMS" in capsys.readouterr().err

    def test_json_skips_rendering(self, fan_file, capsys, monkeypatch):
        # printing the six generator words enumerates seven classes; JSON
        # output renders no word, so it stays under a cap of three
        monkeypatch.setenv("MCS_MAX_TERMS", "3")
        path = fan_file(three_point_blowup_fan(), "gp")
        argv = ["toric", "--fan", path, "--p", "1"]
        assert main(argv) == 2
        assert main(argv + ["--format", "json"]) == 0

    def test_lp_cap_exits_2_naming_the_stage(self, tmp_path, capsys):
        # face fan of the 4-cube: its rank-12 divisor grading LP would make
        # 10^7 constraints in one elimination step
        rays = [[1 - 2 * (k >> j & 1) for j in range(4)] for k in range(16)]
        cones = [[i for i, v in enumerate(rays) if v[axis] == sign]
                 for axis in range(4) for sign in (1, -1)]
        path = tmp_path / "cube4.json"
        path.write_text(json.dumps({"dim": 4, "rays": rays,
                                    "maximal_cones": cones}))
        assert main(["toric", "--fan", str(path), "--p", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grading gave up:")
        assert "constraints (cap" in captured.err


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
        def no_power(self, k):
            raise AssertionError("denominator power built")
        monkeypatch.setattr(MonoidPolynomial, "__pow__", no_power)
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

    def test_eq1_bad_denominators(self, capsys):
        for bad in ("", "t^2", "(2-t)", "(1-q)", "(1-t", "(1-t)^"):
            assert main(["verify", "eq1", "--n", "2", "--truncate", "4",
                         "--denominator", bad]) == 2, bad

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

    def test_assignment_parse_errors(self, zeta_file, capsys):
        for bad in ("L", "L=", "=1", "Q=1", "L=x"):
            assert main(["specialize", "--series", zeta_file,
                         "--assign", bad]) == 2, bad


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
    ], ids=["cones-null", "rays-int", "ray-names-int", "denominator-int",
            "numerator-int", "generators-int", "factor-free-null",
            "factor-terms-int"])
    def test_exit_2(self, cmd, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = (["toric", "--fan", str(path), "--p", "1", "--truncate", "2"]
                if cmd == "toric" else
                ["expand", "--series", str(path), "--truncate", "2"])
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


class TestArgHandling:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["toric", "--p", "1"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "toric" in capsys.readouterr().out
