"""End-to-end CLI behavior: parsing, output formats, exit codes."""

import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ipszeta import (DomainError, GlobalOperator, ModelSpec, StateKind,
                     ZetaLogSeries, build_local, chebyshev_t, initial_state, qca2_c1_closed_form,
                     qca2_x2_recurrence)
from ipszeta.dynamics import evolve_states
from ipszeta.serialize import complex_pair
from ipszeta.config import DEFAULTS
from ipszeta.cli import main, parse_angle, parse_complex, parse_n_values, states_json

from helpers import qca2_c2_recurrence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a valid run of each command, and the flags it does not take
BASE_ARGV = {
    "validate": ("validate", "--model", "dk", "--params", "0.3,0.7"),
    "zeta": ("zeta", "--model", "dk", "--params", "0.3,0.7", "--n", "3", "--rmax", "2"),
    "verify": ("verify", "prop6_pi2", "--n", "1..2"),
    "evolve": ("evolve", "--model", "qca2", "--params", "0,0", "--n", "3", "--initial", "001"),
    "spectrum": ("spectrum", "--model", "dk", "--params", "0.3,0.7", "--n", "3"),
}
FOREIGN_FLAGS = [
    ("validate", "--n", "3"), ("validate", "--rmax", "2"), ("validate", "--u", "0.1"),
    ("validate", "--format", "csv"),
    ("zeta", "--tol", "1e-6"),
    ("verify", "--model", "qca2"), ("verify", "--params", "0,0"), ("verify", "--matrix", "[]"),
    ("verify", "--format", "csv"),
    ("evolve", "--rmax", "2"), ("evolve", "--u", "0.1"), ("evolve", "--tol", "1e-6"),
    ("spectrum", "--rmax", "2"), ("spectrum", "--u", "0.1"), ("spectrum", "--tol", "1e-6"),
    ("spectrum", "--format", "json"),
]


def _pairs(rows) -> str:
    """A 4x4 matrix as the --matrix JSON of 16 row-major [re, im] pairs."""
    return json.dumps([[complex(x).real, complex(x).imag] for row in rows for x in row])


BIG_IDENTITY = _pairs(1e200 * np.eye(4))


class TestParsers:
    def test_angles(self):
        assert parse_angle("0.7") == 0.7
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("pi/6") == pytest.approx(math.pi / 6)
        assert parse_angle("-3pi/4") == pytest.approx(-3 * math.pi / 4)
        assert parse_angle("2pi") == pytest.approx(2 * math.pi)

    @pytest.mark.parametrize("text", ("pi/0", "2pi/0.0", "-pi/0.00"))
    def test_angle_with_zero_denominator_is_refused(self, capsys, text):
        with pytest.raises(DomainError, match="divides by zero"):
            parse_angle(text)
        code, out, err = run(capsys, "validate", "--model", "qca1", f"--params={text},1")
        assert code == 2 and out == "" and repr(text) in err

    def test_complex(self):
        assert parse_complex("0.3") == 0.3
        assert parse_complex("0.4j") == 0.4j
        assert parse_complex("0.1+0.2j") == 0.1 + 0.2j

    def test_n_values(self):
        assert parse_n_values("6") == [6]
        assert parse_n_values("5..8") == [5, 6, 7, 8]


class TestValidate:
    def test_qca1(self, capsys):
        code, out, _ = run(capsys, "validate", "--model", "qca1", "--params", "0.4,1.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_qca"] is True and doc["is_pca"] is False

    def test_rule90_is_both(self, capsys):
        code, out, _ = run(capsys, "validate", "--model", "gdk", "--params", "0,0,0,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_pca"] is True and doc["is_qca"] is True and doc["is_ca"] is True

    def test_custom_violation_exits_2(self, capsys):
        bad = [[1, 0], [0.5, 0], [0, 0], [0, 0],
               [0, 0], [1, 0], [0, 0], [0, 0],
               [0, 0], [0, 0], [1, 0], [0, 0],
               [0, 0], [0, 0], [0, 0], [1, 0]]
        code, _, err = run(capsys, "validate", "--model", "custom", "--matrix", json.dumps(bad))
        assert code == 2
        assert "right site" in err

    def test_dk_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "--model", "dk", "--params", "1.5,0.2")
        assert code == 2 and "error" in err

    def test_operator_near_the_float_limit_factors(self, capsys):
        code, out, err = run(capsys, "validate", "--model", "custom", "--matrix", BIG_IDENTITY)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["tensor_factorizable"] is True and not doc["is_pca"] and not doc["is_qca"]
        assert doc["factors"]["right"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_tensor_via_matrix_flag(self, capsys):
        left = [[1, 0], [0, 0], [0, 0], [1, 0]]   # identity, row-major pairs
        right = [[1, 0], [0, 0], [0, 0], [0, 1]]  # diag(1, i)
        code, out, _ = run(capsys, "validate", "--model", "tensor",
                           "--matrix", json.dumps([left, right]))
        assert code == 0
        assert json.loads(out)["tensor_factorizable"] is True


class TestZeta:
    def test_trivial_model_csv(self, capsys):
        code, out, _ = run(capsys, "zeta", "--model", "gdk", "--params", "0,pi/2,0,pi/2",
                           "--n", "5", "--rmax", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,trace_re,trace_im,c_r_re,c_r_im"
        assert len(lines) == 7
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[3]) == pytest.approx(1.0, abs=1e-12)  # c_r == 1
            assert float(fields[4]) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_model_json(self, capsys):
        # default truncation order keeps the series tail far below the
        # 1e-9 cross-check bound at these u points
        xi = 0.9
        code, out, _ = run(capsys, "zeta", "--model", "qca1",
                           "--params", f"{xi},{xi}", "--n", "4",
                           "--u", "0.2,0.1+0.1j")
        assert code == 0
        doc = json.loads(out)
        for row in doc["table"]:
            expected = chebyshev_t(row["r"], math.cos(xi)) ** 3
            assert row["c_r"][0] == pytest.approx(expected, abs=1e-10)
        assert doc["empirical_radius"] == pytest.approx(1.0, abs=1e-9)
        for ev in doc["evaluations"]:
            assert ev["difference"] < 1e-9

    def test_json_forms_the_traces_once(self, capsys, monkeypatch):
        reads = []
        values = ZetaLogSeries.values
        monkeypatch.setattr(ZetaLogSeries, "values",
                            property(lambda ts: reads.append(ts) or values.fget(ts)))
        code, out, _ = run(capsys, "zeta", "--model", "dk", "--params", "0.3,0.7",
                           "--n", "4", "--rmax", "6")
        assert code == 0 and len(json.loads(out)["table"]) == 6
        assert len(reads) == 1

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": "qca1", "params": [0.9, 0.9],
            "n": 3, "rmax": 4, "format": "csv",
        }))
        code, out, _ = run(capsys, "zeta", "--config", str(cfg), "--rmax", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + 2 rows: flag wins

    def test_coefficients_csv(self, capsys):
        code, out, _ = run(capsys, "zeta", "--model", "gdk", "--params", "0,pi/2,0,pi/2",
                           "--n", "3", "--rmax", "4", "--format", "csv", "--coefficients")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,coeff_re,coeff_im"
        assert lines[1] == "1,-1,0"  # trivial model: coefficient of u^r is -1/r

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "traces.csv"
        code, out, _ = run(capsys, "zeta", "--model", "dk", "--params", "0.3,0.7",
                           "--n", "3", "--rmax", "4", "--format", "csv",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("r,trace_re")

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_zero_rmax_exits_2(self, capsys, fmt):
        code, out, err = run(capsys, "zeta", "--model", "dk", "--params", "0.3,0.7",
                             "--n", "3", "--rmax", "0", "--format", fmt)
        assert code == 2 and out == "" and "r_max" in err

    def test_coefficients_need_csv(self, capsys):
        code, out, err = run(capsys, "zeta", "--model", "dk", "--params", "0.3,0.7",
                             "--n", "3", "--rmax", "2", "--coefficients")
        assert code == 2 and out == "" and "--coefficients" in err

    @pytest.mark.parametrize("argv", [
        ("zeta", "--model", "qca2", "--params", "0.3,0.7", "--n", "4", "--rmax", "6"),
        ("verify", "thm6_pi2zeta", "--n", "2..3"),
    ], ids=["zeta", "verify"])
    def test_negative_complex_u_as_a_separate_argument(self, capsys, argv):
        # argparse alone reads a separate -0.2-0.1j as an option and exits 2
        code, joined, _ = run(capsys, *argv, "--u=-0.2-0.1j,0.3")
        assert code == 0
        assert run(capsys, *argv, "--u", "-0.2-0.1j,0.3") == (0, joined, "")

    def test_negative_params_as_a_separate_argument(self, capsys):
        argv = ("zeta", "--model", "qca1", "--n", "3", "--rmax", "2", "--format", "csv")
        code, joined, _ = run(capsys, *argv, "--params=-pi/4,0.3")
        assert code == 0
        assert run(capsys, *argv, "--params", "-pi/4,0.3") == (0, joined, "")

    def test_u_needs_json(self, capsys):
        # the csv tables hold no evaluations, so the points would be dropped
        code, out, err = run(capsys, "zeta", "--model", "dk", "--params", "0.3,0.7",
                             "--n", "3", "--rmax", "2", "--u", "0.3", "--format", "csv")
        assert code == 2 and out == "" and "--u" in err

    def test_u_above_dense_cap_exits_2(self, capsys):
        # refused before the O(r 4^N) trace run, naming the cap
        code, out, err = run(capsys, "zeta", "--model", "qca2", "--params", "0.3,0.7",
                             "--n", str(DEFAULTS.dense_cap + 1), "--rmax", "2", "--u", "0.3")
        assert code == 2 and out == "" and f"N={DEFAULTS.dense_cap}" in err


class TestInputErrors:
    @pytest.mark.parametrize("command", ("validate", "zeta", "evolve", "spectrum"))
    def test_matrix_with_params_exits_2(self, capsys, command):
        argv = list(BASE_ARGV[command]) + ["--matrix", "[0.5, 0.5]"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--matrix" in err

    @pytest.mark.parametrize("model, matrix", [
        ("tensor", "5"), ("custom", "5"), ("tensor", "[1, 2]"),
    ])
    def test_matrix_not_a_list_exits_2(self, capsys, model, matrix):
        code, out, err = run(capsys, "validate", "--model", model, "--matrix", matrix)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_config_tensor_params_not_matrices_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "tensor", "params": [1, 2]}))
        code, out, err = run(capsys, "validate", "--config", str(cfg))
        assert code == 2 and out == "" and "[re, im]" in err

    @pytest.mark.parametrize("n", ("abc", "5..x"))
    def test_non_numeric_n_names_the_flag(self, capsys, n):
        code, out, err = run(capsys, "zeta", "--model", "dk", "--params", "0.3,0.7", "--n", n)
        assert code == 2 and out == "" and "--n" in err

    def test_non_numeric_config_n_names_the_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "dk", "params": [0.3, 0.7], "n": "abc"}))
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 2 and out == "" and "--n" in err

    @pytest.mark.parametrize("argv", [
        ("zeta", "--model", "qca2", "--params", "0,1", "--n", "3", "--u", "nan"),
        ("zeta", "--model", "qca2", "--params", "0,1", "--n", "3", "--u=inf"),
        ("verify", "thm6_pi2zeta", "--n", "2", "--u", "nan"),
    ], ids=["zeta-nan", "zeta-inf", "verify-nan"])
    def test_non_finite_u_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--u" in err

    @pytest.mark.parametrize("argv", [
        ("validate", "--model", "qca1", "--params", "0.4,1.1", "--tol", "nan"),
        ("validate", "--model", "qca1", "--params", "0.4,1.1", "--tol", "-1"),
        ("validate", "--model", "qca1", "--params", "0.4,1.1", "--tol", "inf"),
        ("verify", "thm5_3", "--n", "3", "--tol", "nan"),
    ], ids=["validate-nan", "validate-negative", "validate-inf", "verify-nan"])
    def test_tol_must_be_finite_and_nonnegative(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--tol" in err

    @pytest.mark.parametrize("argv, config", [
        (("--model", "custom", "--matrix", "[true,0,0,0, 0,true,0,0, 0,0,true,0, 0,0,0,true]",
          "--n", "2", "--rmax", "1", "--format", "csv"), None),
        (("--n", "3", "--rmax", "2", "--format", "csv"), {"model": "dk", "params": [True, 0.5]}),
        (("--n", "3", "--rmax", "2"), {"model": "dk", "params": [0.6, 0.8], "u": [[True, False]]}),
    ], ids=["matrix-entry", "family-param", "u-pair"])
    def test_json_boolean_is_not_a_number(self, capsys, tmp_path, argv, config):
        # read as 1, each would run: the identity, dk(1, 0.5), or a pole at u = 1 (exit 1)
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv += ("--config", str(cfg))
        code, out, err = run(capsys, "zeta", *argv)
        assert code == 2 and out == "" and "True" in err

    def test_non_numeric_initial_names_the_flag(self, capsys):
        code, out, err = run(capsys, "evolve", "--model", "qca2", "--params", "0,0",
                             "--n", "3", "--initial", "0x1")
        assert code == 2 and out == "" and "--initial" in err


@pytest.mark.parametrize("command, flag, value", FOREIGN_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in FOREIGN_FLAGS])
def test_flag_the_command_does_not_take_exits_2(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(list(BASE_ARGV[command]) + [flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", BASE_ARGV)
def test_out_file_holds_what_stdout_gets(capsys, tmp_path, command):
    code, out, _ = run(capsys, *BASE_ARGV[command])
    assert code == 0 and out.endswith("\n")
    target = tmp_path / "out.txt"
    code, rest, _ = run(capsys, *BASE_ARGV[command], "--out", str(target))
    assert code == 0 and rest == ""
    assert target.read_text(encoding="utf-8") == out


class TestConfigFile:
    BASE = {"model": "qca1", "params": [0.9, 0.9], "n": 3}

    def write(self, tmp_path, **keys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(self.BASE, **keys)))
        return str(cfg)

    @pytest.mark.parametrize("command", ("zeta", "validate"))
    @pytest.mark.parametrize("keys, needle", [
        pytest.param({"rmax": "5"}, "'rmax'", id="rmax-str"),
        pytest.param({"tol": "x"}, "'tol'", id="tol-str"),
        pytest.param({"tol": math.nan}, "--tol", id="tol-nan"),
        pytest.param({"tol": -1}, "--tol", id="tol-negative"),
        pytest.param({"u": "nan"}, "--u", id="u-nan"),
        pytest.param({"u": [[0.1]]}, "'u'", id="u-short-pair"),
        pytest.param({"format": "xml"}, "'format'", id="format-choice"),
        pytest.param({"rmx": 5}, "'rmx'", id="unknown-key"),
        pytest.param({"n": True}, "'n'", id="n-bool"),
        pytest.param({"params": [[1], 2]}, "params", id="params-nested"),
        pytest.param({"model": "custom", "params": [[[1], [0]]] + [[0, 0]] * 15},
                     "[re, im]", id="matrix-nested"),
    ])
    def test_bad_config_exits_2(self, capsys, tmp_path, command, keys, needle):
        code, out, err = run(capsys, command, "--config", self.write(tmp_path, **keys))
        assert code == 2 and out == "" and needle in err

    @pytest.mark.parametrize("command", ("spectrum", "validate"))
    def test_keys_for_other_commands_are_accepted(self, capsys, tmp_path, command):
        # one file may serve several commands
        cfg = self.write(tmp_path, steps=2, initial="001", rmax=4, u=[0.1])
        code, out, _ = run(capsys, command, "--config", cfg)
        assert code == 0 and out

    def test_empty_u_is_refused_by_verify(self, capsys, tmp_path):
        # an empty grid, not the id's default grid
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"u": []}))
        code, out, err = run(capsys, "verify", "thm6_pi2zeta", "--n", "2", "--config", str(cfg))
        assert code == 2 and out == "" and "nonempty grid" in err

    def test_u_as_string_or_pairs(self, capsys, tmp_path):
        docs = []
        for u in ("0.2,0.1+0.1j", [0.2, [0.1, 0.1]]):
            code, out, _ = run(capsys, "zeta", "--config", self.write(tmp_path, u=u))
            assert code == 0
            docs.append(json.loads(out)["evaluations"])
        assert docs[0] == docs[1] and [e["u"] for e in docs[0]] == [[0.2, 0.0], [0.1, 0.1]]


class TestVerify:
    def test_passing_formula(self, capsys):
        code, out, _ = run(capsys, "verify", "cor5_4", "--n", "1..4", "--rmax", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["max_abs_error"] < 1e-9

    def test_binomial_weights_past_the_float_range_of_the_power_of_two(self, capsys):
        # 2.0 ** (N - 1) overflows from N = 1025; each weight C(N-1, k) / 2^(N-1) does not
        code, out, _ = run(capsys, "verify", "thm5_6", "--n", "1100", "--rmax", "2")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_quarter_turn_periodicity(self, capsys):
        code, out, _ = run(capsys, "verify", "prop6_pi2", "--n", "1..6")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_conjecture_report(self, capsys):
        # the Rule 90 form is proved for every N: the report passes, also on N <= 4
        for n in ("5..6", "1..4"):
            code, out, _ = run(capsys, "verify", "conj_rule90", "--n", n, "--rmax", "48")
            doc = json.loads(out)
            assert code == 0 and doc["passed"] is True
            assert doc["grid"]["conjecture"] is False

    def test_failing_tolerance_exits_3(self, capsys):
        code, out, _ = run(capsys, "verify", "cor5_4", "--n", "2..3", "--rmax", "4",
                           "--tol", "1e-30")
        assert code == 3
        assert json.loads(out)["passed"] is False

    def test_zero_rmax_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "prop6_pi2", "--n", "1..3", "--rmax", "0")
        assert code == 2 and out == "" and "r_max" in err

    @pytest.mark.parametrize("n", ("0", "-3"))
    def test_gaussian_limit_site_count_below_one_exits_2(self, capsys, n):
        # the grid is checked before the first sqrt(N)
        code, out, err = run(capsys, "verify", "cor5_7", "--n", n)
        assert code == 2 and out == ""
        assert f"n_sites must be positive, got {n}" in err

    @pytest.mark.parametrize("argv, needle", [
        pytest.param(("prop6_r1", "--n", "3", "--rmax", "5"), "--rmax", id="prop6_r1-rmax"),
        pytest.param(("cor5_7", "--rmax", "3"), "--rmax", id="cor5_7-rmax"),
        pytest.param(("cor5_4", "--n", "3", "--rmax", "4", "--u", "0.2"), "--u", id="cor5_4-u"),
        pytest.param(("thm6_pi2zeta", "--n", "2", "--u", "1.5"), "1.5", id="thm6_pi2zeta-u"),
    ])
    def test_unsupported_override_or_point_exits_2(self, capsys, argv, needle):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and needle in err

    def test_unknown_formula_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm_nope"])
        assert exc.value.code == 2


class TestEvolve:
    def test_rule90_trajectory(self, capsys):
        code, out, _ = run(capsys, "evolve", "--model", "qca2", "--params", "0,0",
                           "--n", "3", "--initial", "001", "--steps", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,site_0,site_1,site_2"
        assert lines[1].split(",") == ["0", "0", "0", "1"]
        assert [float(v) for v in lines[2].split(",")[1:]] == [0.0, 1.0, 1.0]

    def test_requires_initial(self, capsys):
        code, _, err = run(capsys, "evolve", "--model", "qca2", "--params", "0,0", "--n", "3")
        assert code == 2 and "initial" in err

    def test_full_state_json_dump(self, capsys):
        code, out, _ = run(capsys, "evolve", "--model", "qca2", "--params", "0,0",
                           "--n", "2", "--initial", "01", "--steps", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [s["step"] for s in doc["states"]] == [0, 1, 2]
        assert doc["states"][0]["components"][1] == [1.0, 0.0]
        assert doc["states"][1]["components"][3] == [1.0, 0.0]  # (0,1) -> (1,1)
        assert doc["states"][2]["components"][1] == [1.0, 0.0]  # period 2

    def test_real_model_json_keeps_the_pair_layout(self, capsys):
        # float64 states still print each component as an [re, im] pair
        code, out, _ = run(capsys, "evolve", "--model", "dk", "--params", "0.5,0.25",
                           "--n", "2", "--initial", "01", "--steps", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "model": {"model": "dk", "params": [0.5, 0.25]}, "n_sites": 2,
            "kind": "pca_probability", "states": [
                {"step": 0, "components": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
                {"step": 1, "components": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]},
                {"step": 2, "components": [[0.0, 0.0], [0.625, 0.0], [0.0, 0.0], [0.375, 0.0]]},
            ]}

    @pytest.mark.parametrize("model, params, bits, kind", [
        ("dk", "0.6,0.8", "01101001", StateKind.PCA_PROBABILITY),
        ("qca1", "0.4,1.1", "01101001", StateKind.QCA_AMPLITUDE),
        ("qca2", "0.3,0.7", "1101", StateKind.QCA_AMPLITUDE),
    ])
    def test_json_is_streamed_as_the_whole_document(self, capsys, tmp_path, model, params,
                                                      bits, kind):
        # the bytes of json.dumps of the whole document, on stdout and in --out
        spec = ModelSpec.from_json({"model": model,
                                    "params": [float(p) for p in params.split(",")]})
        start = initial_state(bits, kind)
        op = GlobalOperator(build_local(spec), len(bits))
        doc = {"model": spec.to_json(), "n_sites": len(bits), "kind": kind.value, "states": [
            {"step": s.time_step, "components": [complex_pair(z) for z in s.components]}
            for s in evolve_states(start, op, 3)]}
        expected = json.dumps(doc, indent=2) + "\n"
        argv = ("evolve", "--model", model, "--params", params, "--n", str(len(bits)),
                "--initial", bits, "--kind", kind.value[:3], "--steps", "3", "--format", "json")
        assert run(capsys, *argv)[:2] == (0, expected)
        path = tmp_path / "states.json"
        assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("dtype", (np.float64, np.complex128),
                             ids=("float64", "complex128"))
    def test_states_json_equals_the_whole_document(self, dtype):
        # 2^13 components span two chunks; NaN, infinities and -0.0 read as json writes them
        rng = np.random.default_rng(4)
        states = []
        for step in range(3):
            v = rng.standard_normal(1 << 13).astype(dtype)
            if dtype is np.complex128:
                v += 1j * rng.standard_normal(1 << 13)
            v[:4] = (np.nan, np.inf, -np.inf, -0.0)
            states.append(SimpleNamespace(time_step=step, components=v))
        head = {"model": {"model": "dk", "params": [0.5, 0.25]}, "n_sites": 13, "kind": "k"}
        for drawn in (states, []):
            doc = {**head, "states": [
                {"step": s.time_step, "components": [complex_pair(z) for z in s.components]}
                for s in drawn]}
            assert "".join(states_json(head, drawn)) == json.dumps(doc, indent=2)

    def test_kind_flag(self, capsys):
        code, out, _ = run(capsys, "evolve", "--model", "gdk", "--params", "0,0,0,0",
                           "--n", "2", "--initial", "01", "--steps", "1",
                           "--kind", "qca")
        assert code == 0
        assert [float(v) for v in out.strip().splitlines()[2].split(",")[1:]] == [1.0, 1.0]

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_negative_steps_exits_2(self, capsys, fmt):
        code, out, err = run(capsys, "evolve", "--model", "qca2", "--params", "0,0",
                             "--n", "3", "--initial", "001", "--steps", "-1",
                             "--format", fmt)
        assert code == 2 and out == "" and "steps" in err

    @pytest.mark.parametrize("initial", ("01", "0" * 64), ids=["short", "64-sites"])
    def test_initial_size_must_match_n(self, capsys, initial):
        # refused before the start state is printed, also with no step to take,
        # and before its 2^L vector is built: at 64 sites numpy cannot even
        # allocate it, so only a check made first can name the site counts
        code, out, err = run(capsys, "evolve", "--model", "qca2", "--params", "0,0",
                             "--n", "3", "--initial", initial, "--steps", "0")
        assert code == 2 and out == "" and "sites" in err

    def test_incompatible_kind_exits_2_without_steps(self, capsys):
        code, out, err = run(capsys, "evolve", "--model", "qca1", "--params", "0.4,1.1",
                             "--n", "2", "--initial", "01", "--steps", "0", "--kind", "pca")
        assert code == 2 and out == "" and "column-stochastic" in err

    def test_kind_is_checked_before_the_start_is_built(self, capsys):
        # the 2^40 start vector (8 TiB) cannot be allocated, so only a kind
        # check made first can name the kind
        code, out, err = run(capsys, "evolve", "--model", "dk", "--params", "0.6,0.8",
                             "--n", "40", "--initial", "01" * 20, "--kind", "qca")
        assert code == 2 and out == "" and "allocate" not in err
        assert "qca_amplitude evolution needs a unitary local operator" in err

    @pytest.mark.parametrize("kind", (None, "pca", "qca"))
    def test_model_that_no_kind_fits_exits_2(self, capsys, kind):
        # 0.5 * identity is neither column-stochastic nor unitary, so no --kind helps
        half = json.dumps([[0.5 * (i == j), 0.0] for i in range(4) for j in range(4)])
        argv = ["evolve", "--model", "custom", "--matrix", half, "--n", "2", "--initial", "01"]
        code, out, err = run(capsys, *argv, *(("--kind", kind) if kind else ()))
        assert code == 2 and out == "" and "--kind" not in err
        assert ("neither" if kind is None else "local operator") in err

    def test_operator_near_the_float_limit_fits_no_kind(self, capsys):
        code, out, err = run(capsys, "evolve", "--model", "custom", "--matrix", BIG_IDENTITY,
                             "--n", "3", "--initial", "000")
        assert code == 2 and out == "" and "neither stochastic nor unitary" in err

    @pytest.mark.parametrize("rows", [
        [[1 + 5e-10, 0, 0.5, 0], [0, 1, 0, 0], [-5e-10, 0, 0.5, 0], [0, 0, 0, 1]],
        [[1 + 1e-10j, 0, 0.5, 0], [0, 1, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 1]],
    ], ids=["negative", "imaginary"])
    def test_weights_that_classify_as_pca_evolve(self, capsys, rows):
        # within classify_tol of stochastic, so pca is inferred; each step's
        # leakage below zero or off the real axis is drift, far below drift_tol
        matrix = ("--model", "custom", "--matrix", _pairs(rows))
        code, out, _ = run(capsys, "validate", *matrix)
        assert code == 0 and json.loads(out)["is_pca"] is True
        code, out, err = run(capsys, "evolve", *matrix, "--n", "3", "--initial", "000",
                             "--steps", "2")
        assert code == 0 and err == "" and len(out.splitlines()) == 4

    def test_unknown_config_kind_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": "qca2", "params": [0, 0], "n": 3, "initial": "001", "kind": "bogus",
        }))
        code, out, err = run(capsys, "evolve", "--config", str(cfg))
        assert code == 2 and out == "" and "bogus" in err


@pytest.mark.parametrize("argv", [
    ("zeta", "--model", "dk", "--params", "0.5,0.5", "--n", "40", "--rmax", "60",
     "--format", "csv"),
    ("evolve", "--model", "dk", "--params", "0.5,0.5", "--n", "50", "--initial", "0" * 50),
], ids=["zeta-2PiB", "evolve-8PiB"])
def test_size_that_cannot_be_allocated_exits_2(capsys, argv):
    # both arrays (float64, as the dk weights are real) exceed any 64-bit
    # address space, so numpy refuses them at once, and no slow run is
    # announced; R = 60 at N = 40 picks the brute engine and its 2^40 x 256
    # block (the transfer engine would need 2^61 entries)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "allocate" in err
    assert err.startswith("error: ") and "matrix-free" not in err
    assert not [w for w in caught if "matrix-free" in str(w.message)]


def _trace_rows(out):
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    return [(complex(t_re, t_im), complex(c_re, c_im)) for _, t_re, t_im, c_re, c_im in rows]


@pytest.mark.parametrize("n", (40, 512, 1024))
def test_traces_past_the_brute_wall(capsys, n):
    code, out, err = run(capsys, "zeta", "--model", "qca2", "--params", "0,1.0", "--n", str(n),
                         "--rmax", "2", "--format", "csv")
    assert code == 0 and err == ""
    (trace1, c1), (trace2, c2) = _trace_rows(out)
    if n < 1024:  # the root formula itself drifts by 1e-12 at N = 1024
        assert trace1 == pytest.approx(qca2_c1_closed_form(n, 1.0), rel=1e-12, abs=0)
    assert trace2 == pytest.approx(qca2_x2_recurrence(n, 1.0), rel=1e-12, abs=0)
    for trace, c in ((trace1, c1), (trace2, c2)):
        assert c == complex(math.ldexp(trace.real, -n), math.ldexp(trace.imag, -n))


def test_trace_past_the_float_range_exits_2(capsys):
    code, out, err = run(capsys, "zeta", "--model", "qca2", "--params", "0,1.0", "--n", "2000",
                         "--rmax", "2", "--format", "csv")
    assert code == 2 and out == ""
    assert err == "error: the traces at N=2000 leave the float range: a value is not finite\n"


def test_coefficients_past_the_float_range_of_the_traces(capsys):
    # C_2 = 3.2e-171 at N = 2000, whose trace the table above refuses
    code, out, err = run(capsys, "zeta", "--model", "qca2", "--params", "0,1.0", "--n", "2000",
                         "--rmax", "2", "--format", "csv", "--coefficients")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "2"]
    assert float(rows[1][1]) == pytest.approx(-qca2_c2_recurrence(2000, 1.0) / 2, rel=1e-12, abs=0)
    assert float(rows[1][2]) == 0.0


def test_verify_averages_past_the_float_range_of_the_traces(capsys):
    # tr(Q^r) = 2^1500 for the identity rotation, its C_r = 1
    code, out, err = run(capsys, "verify", "cor5_4", "--n", "1500", "--rmax", "3")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["passed"] and report["max_abs_error"] <= 1e-9


@pytest.mark.parametrize("argv", [
    ("zeta", "--n", "3", "--format", "csv"),
    ("zeta", "--n", "3", "--rmax", "1", "--format", "csv"),
    ("spectrum", "--n", "3"),
], ids=["zeta-brute", "zeta-transfer", "spectrum"])
def test_overflow_is_one_error_line_and_no_warning(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--model", "custom", "--matrix", BIG_IDENTITY)
    assert code == 2 and out == "" and caught == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "N=3" in err and "float range" in err


def test_nilpotent_radius_is_null_in_strict_json(capsys):
    zero = json.dumps([[0.0, 0.0]] * 16)
    code, out, _ = run(capsys, "zeta", "--model", "custom", "--matrix", zero, "--n", "3",
                       "--rmax", "2")
    assert code == 0

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    assert json.loads(out, parse_constant=refuse)["empirical_radius"] is None


class TestSpectrum:
    def test_quarter_turn_signs(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "qca2", "--params", "0,pi/2",
                           "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "idx,re,im,abs"
        assert len(lines) == 17
        for line in lines[1:]:
            _, re_, im_, mag = line.split(",")
            assert abs(abs(float(re_)) - 1.0) < 1e-9
            assert abs(float(im_)) < 1e-9
            assert float(mag) == pytest.approx(1.0, abs=1e-9)

    def test_overflowing_dense_form_exits_2(self, capsys):
        code, out, err = run(capsys, "spectrum", "--model", "custom", "--matrix", BIG_IDENTITY,
                             "--n", "3")
        assert code == 2 and out == ""
        assert "overflows the float range" in err and "eigensolver" not in err

    # qca2 is unitary and solved through eigh, dk through eigvals
    @pytest.mark.parametrize("model, params, solver", (("qca2", "0.3,0.7", "eigh"),
                                                       ("dk", "0.6,0.8", "eigvals")))
    def test_solver_failure_exits_1(self, capsys, monkeypatch, model, params, solver):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        code, out, err = run(capsys, "spectrum", "--model", model, "--params", params, "--n", "4")
        assert code == 1 and out == ""
        assert err == ("error: the eigensolver did not converge on a parity block at N=4: "
                       "Eigenvalues did not converge\n")

    def test_missing_model_exits_2(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n", "3")
        assert code == 2 and "model" in err
