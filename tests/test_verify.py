"""The formula registry: every verifier runs, passes, and is deterministic."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ipszeta import DomainError, FORMULA_IDS, GlobalOperator, run_formula
from ipszeta import transfer, verify
from ipszeta.cli import main
from ipszeta.verify import FORMULAS, TENSOR_PAIRS, Formula, _random_factor_pairs

SRC = Path(__file__).resolve().parents[1] / "src"

# small overrides keep this module fast; full default grids run in the
# acceptance suite
FAST_OVERRIDES = {
    "thm5_3": dict(n_values=(2, 4), r_max=6),
    "cor5_4": dict(n_values=(1, 3, 5), r_max=8),
    "thm5_6": dict(n_values=(1, 3, 5), r_max=8),
    "cor5_7": dict(n_values=(16, 64, 256)),
    "prop6_r1": dict(n_values=(1, 4, 7)),
    "prop6_r2": dict(n_values=(1, 4, 7)),
    "prop6_pi2": dict(n_values=(1, 3, 6), r_max=6),
    "thm6_pi2zeta": dict(n_values=(1, 3, 5)),
    "prop6_rule90_r": dict(),
    "thm6_rule90zeta": dict(),
    "conj_rule90": dict(n_values=(5, 6), r_max=48),
}


def test_registry_is_complete():
    assert set(FORMULA_IDS) == set(FAST_OVERRIDES)


@pytest.mark.parametrize("formula_id", FORMULA_IDS)
def test_formula_passes(formula_id):
    report = run_formula(formula_id, **FAST_OVERRIDES[formula_id])
    assert report.formula_id == formula_id
    assert report.passed, report.witness
    assert report.max_abs_error <= report.tolerance
    assert "error" in report.witness
    formula = FORMULAS[formula_id]
    assert ("r_max" in report.grid) == (formula.r_max is not None)
    assert ("u_points" in report.grid) == (formula.u_points is not None)


MISSING_AXES = [
    (formula_id, axis)
    for formula_id in FORMULA_IDS
    for axis in ("r_max", "u_points")
    if getattr(FORMULAS[formula_id], axis) is None
]
OVERRIDES = {"r_max": 5, "u_points": (0.2,)}


@pytest.mark.parametrize("formula_id,axis", MISSING_AXES)
def test_override_of_missing_axis_is_rejected(formula_id, axis):
    with pytest.raises(DomainError, match=axis):
        run_formula(formula_id, **{axis: OVERRIDES[axis]})


@pytest.mark.parametrize(
    "formula_id", [f for f in FORMULA_IDS if FORMULAS[f].u_points is not None]
)
@pytest.mark.parametrize("u", (1.0, 1.5, 0.8 + 0.8j))
def test_u_outside_disk_is_rejected(formula_id, u):
    with pytest.raises(DomainError, match=r"\|u\| < 1"):
        run_formula(formula_id, u_points=(0.2, u))


@pytest.mark.parametrize("axis", ("n_values", "u_points"))
def test_empty_grid_is_rejected(axis):
    with pytest.raises(DomainError, match="nonempty"):
        run_formula("thm6_pi2zeta", **{axis: ()})


@pytest.mark.parametrize("n_values", [(7, 4), (4, 4)], ids=["decreasing", "repeated"])
def test_grid_that_does_not_increase_is_rejected(n_values):
    # one transfer pass up a grid reads each N on its way, so it needs them in order
    with pytest.raises(DomainError, match="must increase strictly"):
        run_formula("prop6_r1", n_values=n_values)


# each model (angle, tensor pair) of a check makes one transfer pass over the whole grid
@pytest.mark.parametrize("formula_id, grid, models", [
    ("thm5_3", dict(n_values=range(20, 40), r_max=6), TENSOR_PAIRS),
    ("cor5_4", dict(n_values=range(20, 40), r_max=6), len(verify.SIX_XI)),
    ("thm5_6", dict(n_values=range(20, 40), r_max=6), len(verify.SIX_XI)),
    ("prop6_r1", dict(n_values=range(20, 40)), len(verify.R1_XI_GRID)),
    ("prop6_r2", dict(n_values=range(20, 40)), len(verify.R1_XI_GRID)),
    ("prop6_pi2", dict(n_values=range(6, 10)), 1),
    ("thm6_pi2zeta", dict(n_values=range(20, 40), r_max=4), 1),
    ("thm6_rule90zeta", dict(n_values=range(20, 40), r_max=4), 1),
    ("conj_rule90", dict(n_values=range(20, 40), r_max=4), 1),
])
def test_each_model_makes_one_transfer_pass(monkeypatch, formula_id, grid, models):
    calls = []
    traces = transfer.traces
    monkeypatch.setattr(transfer, "traces", lambda q, n_values, r_max:
                        calls.append(list(n_values)) or traces(q, n_values, r_max))
    run_formula(formula_id, **grid)
    assert calls == [list(grid["n_values"])] * models


@pytest.mark.parametrize("formula_id", FORMULA_IDS)
def test_tol_that_is_not_finite_and_nonnegative_is_rejected(formula_id):
    # refused before any check runs, so no report carries a NaN tolerance
    for tol in (math.nan, -1e-3, -math.inf, math.inf):
        with pytest.raises(DomainError, match="tol"):
            run_formula(formula_id, tol=tol)


def test_gaussian_limit_fails_when_the_gaps_rise(monkeypatch):
    # every gap is below tolerance, but each is four times the last
    limit = verify.clt_limit_zeta(verify.CLT_XI, verify.CLT_U)
    monkeypatch.setattr(verify, "binomial_zeta_qca1", lambda n, xi, u: limit + 1e-6 * n)
    report = run_formula("cor5_7")
    assert report.grid["gaps"][-1] < report.tolerance
    assert report.grid["monotone_within_noise"] is False and not report.passed
    assert report.witness == {"check": "gap_decrease_within_noise", "error": 1.0}


def test_quarter_turn_fails_when_period_2_fails(monkeypatch):
    calls = []
    monkeypatch.setattr(GlobalOperator, "power_equals_identity",
                        lambda self, r, tol: calls.append((self.n_sites, r, tol)) or False)
    report = run_formula("prop6_pi2", n_values=(1, 2))
    assert calls == [(1, 2, 1e-10), (2, 2, 1e-10)] and not report.passed
    assert report.witness == {"n": 1, "check": "period_2", "error": 1.0}


def test_unknown_formula_id():
    with pytest.raises(DomainError):
        run_formula("thm9_9")


def test_reports_are_deterministic():
    a = run_formula("prop6_rule90_r").to_json()
    b = run_formula("prop6_rule90_r").to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_tolerance_override_can_fail():
    report = run_formula("cor5_4", n_values=(2, 3), r_max=4, tol=1e-30)
    assert not report.passed
    assert report.max_abs_error > 1e-30


def test_conjecture_report_is_labeled():
    report = run_formula("conj_rule90", n_values=(5,), r_max=48)
    assert report.grid["conjecture"] is False and report.passed


@pytest.mark.parametrize("errors, witness", [
    ((1e-12, math.nan, 5.0), 1),
    ((1e-12, math.inf, math.nan, 9.0), 1),
    ((math.nan, 1e-12), 0),
])
def test_first_deviation_that_is_not_finite_fails_as_the_witness(monkeypatch, capsys,
                                                                errors, witness):
    def check(**_):
        for i, error in enumerate(errors):
            yield error, 0.0, {"i": i}

    monkeypatch.setitem(FORMULAS, "cor5_4", Formula(check, (1,), 1e-8))
    report = run_formula("cor5_4")
    assert not report.passed and report.witness["i"] == witness
    assert report.max_abs_error is report.witness["error"] and not math.isfinite(
        report.max_abs_error)
    assert main(["verify", "cor5_4"]) == 3

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["max_abs_error"] is None and doc["witness"] == {"i": witness, "error": None}


def test_a_row_runs_the_grid_it_prints(monkeypatch):
    passes = []
    trace_series = verify.trace_series
    monkeypatch.setattr(verify, "trace_series", lambda local, n_values, r_max:
                        passes.append(local) or trace_series(local, n_values, r_max))
    monkeypatch.setitem(FORMULAS, "cor5_4",
                        dataclasses.replace(FORMULAS["cor5_4"], fields={"xi_values": [0.5]}))
    report = run_formula("cor5_4")
    assert report.grid["xi_values"] == [0.5] and report.witness["xi"] == 0.5
    assert len(passes) == 1 and report.passed


@pytest.mark.parametrize("fields, error", [({"error_kind": "relative"}, 1e-3), ({}, 1.0)],
                         ids=["relative", "absolute"])
def test_the_printed_error_kind_picks_the_measure(monkeypatch, fields, error):
    def check(**_):
        yield 1000.0, 1001.0, {}

    monkeypatch.setitem(FORMULAS, "cor5_4", Formula(check, (1,), 1e-8, fields=fields))
    report = run_formula("cor5_4")
    assert report.max_abs_error == error and report.witness == {"error": error}
    assert report.grid.get("error_kind") == fields.get("error_kind")


def test_tensor_pairs_are_reproducible_and_in_range():
    pairs = list(_random_factor_pairs(TENSOR_PAIRS))
    assert [p.to_json() for p in pairs] == [p.to_json() for p in _random_factor_pairs(TENSOR_PAIRS)]
    assert len(pairs) == 20 and len({json.dumps(p.to_json()) for p in pairs}) == 20
    for pair in pairs:
        for part in (pair.left.real, pair.left.imag):
            assert np.all((-1.0 <= part) & (part <= 1.0))
        assert not np.diag(pair.right[::-1]).any()
        mags = np.abs(np.diag(pair.right))
        assert np.all((0.3 <= mags) & (mags <= 1.0))


_RANDOM_PROBE = """
import sys
import ipszeta
assert ipszeta.run_formula("thm5_3", n_values=(2, 3), r_max=4).passed
print("numpy.random" in sys.modules)
"""


def test_tensor_check_does_not_load_numpy_random():
    # a fresh interpreter, since this one may have loaded numpy.random;
    # its extension modules add about 6 MB to a verify process
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _RANDOM_PROBE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False"]
