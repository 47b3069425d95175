"""Acceptance suite: every criterion at its declared tolerance.

Each test prints one line ``ACCEPTANCE <id> <PASS|FAIL> ...`` (run pytest
with ``-s`` to see them as they happen).
"""

import math

import numpy as np

from ipszeta import (
    GlobalOperator,
    ModelSpec,
    build_local,
    qca2_c1_closed_form,
    qca2_x2_recurrence,
    reflection,
    run_formula,
)
from ipszeta.cli import main as cli_main

from helpers import E00, E11, parity_dense, product_apply

SQRT2 = math.sqrt(2.0)


def _line(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _report_line(cid: str, report) -> bool:
    return _line(cid, report.passed,
                 f"max_err={report.max_abs_error:.3e} tol={report.tolerance:.1e}")


def _qca2_op(xi, n):
    return GlobalOperator(build_local(ModelSpec.qca2(0.0, xi)), n)


def test_criterion_01_trivial_model_unit_averages():
    local = build_local(ModelSpec.generalized_dk(0.0, math.pi / 2, 0.0, math.pi / 2))
    worst = 0.0
    for n in range(1, 11):
        c = GlobalOperator(local, n).trace_powers(20).c_values
        worst = max(worst, float(np.max(np.abs(c - 1.0))))
    assert _line("01_trivial_model", worst <= 1e-12, f"max_err={worst:.3e} tol=1e-12")


def test_criterion_02_cosine_polynomial_traces():
    report = run_formula("cor5_4")
    assert report.tolerance == 1e-9
    assert _report_line("02_cosine_traces", report)


def test_criterion_03_binomial_series_coefficients():
    report = run_formula("thm5_6")
    assert report.tolerance == 1e-9
    assert _report_line("03_binomial_coefficients", report)


def test_criterion_04_tensor_trace_factorization():
    report = run_formula("thm5_3")
    assert report.tolerance == 1e-9
    assert _report_line("04_tensor_factorization", report)
    # the stdlib-drawn grid deviates by 1.07e-14 at pair 1, N = 7, r = 12
    assert report.max_abs_error <= 1e-12, report.witness


def test_criterion_05_first_power_closed_form():
    report = run_formula("prop6_r1")
    assert report.tolerance == 1e-8
    special = 0.0
    for n in range(1, 11):
        got_zero = qca2_c1_closed_form(n, 0.0)
        special = max(special, abs(got_zero - 2.0))
        brute_zero = _qca2_op(0.0, n).trace_powers(1).values[0]
        special = max(special, abs(brute_zero - 2.0))
        expected = (1 + 1j) ** (n - 1) + (1 - 1j) ** (n - 1)
        got_quarter = qca2_c1_closed_form(n, math.pi / 2)
        special = max(special, abs(got_quarter - expected))
        brute_quarter = _qca2_op(math.pi / 2, n).trace_powers(1).values[0]
        special = max(special, abs(brute_quarter - expected))
    ok = report.passed and special <= 1e-10
    assert _line("05_first_power", ok,
                 f"grid_err={report.max_abs_error:.3e} special_err={special:.3e}")


def test_criterion_06_second_power_recurrence():
    report = run_formula("prop6_r2")
    assert report.tolerance == 1e-8
    special = 0.0
    for n in range(2, 11):
        special = max(special, abs(qca2_x2_recurrence(n, 0.0) - 4.0))
    for n in range(1, 11):
        special = max(special, abs(qca2_x2_recurrence(n, math.pi / 2) - 2.0 ** n))
    ok = report.passed and special <= 1e-12
    assert _line("06_second_power", ok,
                 f"grid_err={report.max_abs_error:.3e} special_err={special:.3e}")


def test_criterion_07_periodicity():
    ok = True
    for n in range(1, 11):
        ok &= _qca2_op(math.pi / 2, n).power_equals_identity(2, 1e-10)
    detail = [f"quarter_turn_period2={'ok' if ok else 'broken'}"]
    for n, period in ((2, 2), (3, 4), (4, 4)):
        op = _qca2_op(0.0, n)
        at_period = op.power_equals_identity(period, 1e-10)
        at_half = op.power_equals_identity(period // 2, 1e-10)
        ok &= at_period and not at_half
        detail.append(f"rule90_N{n}={'2^m' if at_period and not at_half else 'wrong'}")
    assert _line("07_periodicity", ok, " ".join(detail))


def test_criterion_08_rule90_power_trace_rule():
    report = run_formula("prop6_rule90_r")
    assert _report_line("08_rule90_power_traces", report)


def test_criterion_09_closed_form_zeta_values():
    quarter = run_formula("thm6_pi2zeta")
    rule90 = run_formula("thm6_rule90zeta")
    assert quarter.tolerance == 1e-8 and rule90.tolerance == 1e-8
    ok = quarter.passed and rule90.passed
    assert _line("09_zeta_closed_forms", ok,
                 f"quarter_err={quarter.max_abs_error:.3e} "
                 f"rule90_err={rule90.max_abs_error:.3e}")


def test_criterion_10_rule90_conjecture_report(capsys):
    # the paper's Rule 90 conjecture for N = 5..8, proved in the README,
    # is asserted like every other closed form
    code = cli_main(["verify", "conj_rule90", "--n", "5..8"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"conjecture": false' in out
    report = run_formula("conj_rule90", n_values=range(5, 9))
    assert report.grid["n_values"] == [5, 6, 7, 8] and report.tolerance == 1e-8
    assert _report_line("10_rule90_beyond_paper_range", report)


def test_criterion_11_gaussian_limit():
    report = run_formula("cor5_7")
    gaps = report.grid["gaps"]
    monotone = all(gaps[i + 1] <= gaps[i] * 1.1 for i in range(len(gaps) - 1))
    ok = report.passed and monotone and gaps[-1] < 1e-2
    assert _line("11_gaussian_limit", ok,
                 "gaps=" + "/".join(f"{g:.2e}" for g in gaps))


def test_criterion_12_structural_invariants():
    worst_stochastic = 0.0
    for n in range(2, 11):
        grid = np.linspace(0.0, 1.0, 4) if n <= 7 else (0.3, 0.7)
        for p in grid:
            for q in grid:
                op = GlobalOperator(build_local(ModelSpec.dk(p, q)), n)
                for half in (op._half(0), op._half(1)):
                    worst_stochastic = max(worst_stochastic,
                                           float(np.max(np.abs(half.sum(axis=0) - 1.0))))

    worst_unitary = 0.0
    for model in ("qca1", "qca2"):
        for n in range(2, 11):
            angles = (np.linspace(0.0, 2 * math.pi, 4, endpoint=False)
                      if n <= 8 else (0.9, 2.4))
            for a in angles:
                for b in angles:
                    op = GlobalOperator(build_local(ModelSpec(model, (a, b))), n)
                    for half in (op._half(0), op._half(1)):
                        gram = half.conj().T @ half
                        worst_unitary = max(worst_unitary,
                                            float(np.max(np.abs(gram - np.eye(2 ** (n - 1))))))

    worst_apply = 0.0
    rng = np.random.default_rng(20260808)
    for spec in (ModelSpec.dk(0.35, 0.8), ModelSpec.generalized_dk(0.3, 1.2, 2.1, 0.7),
                 ModelSpec.qca1(0.8, 2.3), ModelSpec.qca2(1.4, 0.5)):
        for n in range(2, 11):
            op = GlobalOperator(build_local(spec), n)
            v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            oracle = product_apply(op.local.entries, n, v)
            worst_apply = max(worst_apply, float(np.max(np.abs(op.apply(v) - oracle))))

    worst_recursion = 0.0
    for xi in (0.0, math.pi / 6, 1.0, math.pi / 2, 4.0):
        sigma = reflection(xi)
        for n in range(1, 9):
            q_n = parity_dense(_qca2_op(xi, n))
            q_n1 = parity_dense(_qca2_op(xi, n + 1))
            sigma_n = np.kron(np.eye(2 ** (n - 1)), sigma)
            expected = np.kron(q_n, E00) + np.kron(sigma_n @ q_n, E11)
            worst_recursion = max(worst_recursion,
                                  float(np.max(np.abs(q_n1 - expected))))

    ok = (worst_stochastic <= 1e-10 and worst_unitary <= 1e-10
          and worst_apply <= 1e-12 and worst_recursion <= 1e-12)
    assert _line(
        "12_structural_invariants", ok,
        f"stochastic={worst_stochastic:.2e} unitary={worst_unitary:.2e} "
        f"apply_vs_dense={worst_apply:.2e} append_recursion={worst_recursion:.2e}",
    )
