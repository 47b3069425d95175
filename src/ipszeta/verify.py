"""Formula verification registry.

Each identifier maps to a grid evaluator that compares one closed form
against brute-force linear algebra on the global operator and reports the
worst deviation, its witness point, and pass/fail at the declared
tolerance.  Identifiers are the stable tokens the CLI exposes:

    thm5_3            tensor-factor eigenvalue product vs brute C_r
    cor5_4            cosine-polynomial C_r identity, uniform-rotation model
    thm5_6            binomial log-sum coefficients vs trace series
    cor5_7            Gaussian-limit quadrature vs finite-N binomial form
    prop6_r1          first-power trace closed form, reflection family
    prop6_r2          second-power trace recurrence, reflection family
    prop6_pi2         quarter-turn trace values and period-2 identity
    thm6_pi2zeta      quarter-turn arctanh closed form vs trace series
    prop6_rule90_r    Rule 90 power-trace rule, proved range N in {2,3,4}
    thm6_rule90zeta   Rule 90 closed form vs trace series, N in {1..4}
    conj_rule90       Rule 90 closed form beyond the proved range (labeled
                      a conjecture check, never asserted)

Grids iterate in a fixed order and ties keep the earliest witness, so
reports are deterministic.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import DomainError
from .models import LocalOperator, ModelSpec, TensorFactors, build_local
from .operators import GlobalOperator
from .zeta import (
    SQRT2,
    ClosedFormReport,
    binomial_zeta_qca1,
    chebyshev_t,
    clt_limit_zeta,
    conjecture_test_rule90,
    qca2_c1_closed_form,
    qca2_x2_recurrence,
    rule90_trace_general_r,
    tensor_model_cr,
    zeta_closed_form_qca2,
    zeta_log_series,
)

SIX_XI = (0.0, math.pi / 6, math.pi / 4, 1.0, 2.0, math.pi / 2)
# both angles in [0, 2pi) with sin(xi) = 3 - 2 sqrt(2), where the
# characteristic roots of the first-power recurrence coalesce
DOUBLE_ROOT_XI = math.asin(3.0 - 2.0 * SQRT2)
R1_XI_GRID = SIX_XI + (DOUBLE_ROOT_XI, math.pi - DOUBLE_ROOT_XI, 4.0, 5.5)
U_POINTS = (0.1, 0.3, 0.5, 0.4j)


class _Worst:
    """Running maximum with the earliest witness kept on ties."""

    def __init__(self):
        self.error = 0.0
        self.witness: dict = {}

    def update(self, err: float, **point):
        err = float(err)
        if err > self.error or not self.witness:
            self.error = err
            self.witness = dict(point, error=err)


def _report(formula_id, grid, worst: _Worst, tol: float, **extra) -> ClosedFormReport:
    grid = dict(grid, **extra)
    return ClosedFormReport(
        formula_id=formula_id,
        grid=grid,
        max_abs_error=worst.error,
        passed=bool(worst.error <= tol),
        witness=worst.witness,
        tolerance=tol,
    )


def _qca2_operator(xi: float, n: int) -> GlobalOperator:
    return GlobalOperator(build_local(ModelSpec.qca2(0.0, xi)), n)


def _random_factor_pairs(count: int, seed: int = 20127):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        left = rng.uniform(-1.0, 1.0, (2, 2)) + 1j * rng.uniform(-1.0, 1.0, (2, 2))
        mags = rng.uniform(0.3, 1.0, 2)
        phases = rng.uniform(0.0, 2.0 * math.pi, 2)
        right = np.diag(mags * np.exp(1j * phases))
        pairs.append(TensorFactors(left, right))
    return pairs


def verify_tensor_eigen_traces(n_values=None, r_max=None, u_points=None, tol=None):
    """thm5_3: eigenvalue-product C_r of tensor models vs brute traces."""
    n_values = tuple(n_values) if n_values else tuple(range(2, 9))
    r_max = 12 if r_max is None else r_max
    tol = tol if tol is not None else 1e-9
    pairs = _random_factor_pairs(20)
    worst = _Worst()
    for idx, factors in enumerate(pairs):
        local = LocalOperator(factors.kron())
        for n in n_values:
            brute = GlobalOperator(local, n).trace_powers(r_max).c_values
            for r in range(1, r_max + 1):
                closed = tensor_model_cr(factors, n, r)
                rel = abs(closed - brute[r - 1]) / max(1.0, abs(brute[r - 1]))
                worst.update(rel, pair=idx, n=n, r=r)
    return _report(
        "thm5_3",
        {"pairs": len(pairs), "n_values": list(n_values), "r_max": r_max,
         "error_kind": "relative"},
        worst, tol,
    )


def verify_rotation_cosine_traces(n_values=None, r_max=None, u_points=None, tol=None):
    """cor5_4: brute C_r of the uniform-rotation model vs T_r(cos xi)^(N-1)."""
    n_values = tuple(n_values) if n_values else tuple(range(1, 9))
    r_max = 16 if r_max is None else r_max
    tol = tol if tol is not None else 1e-9
    worst = _Worst()
    for xi in SIX_XI:
        local = build_local(ModelSpec.qca1(xi, xi))
        for n in n_values:
            brute = GlobalOperator(local, n).trace_powers(r_max).c_values
            for r in range(1, r_max + 1):
                closed = chebyshev_t(r, math.cos(xi)) ** (n - 1)
                worst.update(abs(brute[r - 1] - closed), xi=xi, n=n, r=r)
    return _report(
        "cor5_4",
        {"xi_values": list(SIX_XI), "n_values": list(n_values), "r_max": r_max},
        worst, tol,
    )


def verify_binomial_series_coefficients(n_values=None, r_max=None, u_points=None, tol=None):
    """thm5_6: binomial log-sum coefficients -sum_k w_k z_k^r / r vs -C_r / r."""
    n_values = tuple(n_values) if n_values else tuple(range(1, 9))
    r_max = 16 if r_max is None else r_max
    tol = tol if tol is not None else 1e-9
    worst = _Worst()
    for xi in SIX_XI:
        local = build_local(ModelSpec.qca1(xi, xi))
        for n in n_values:
            series = zeta_log_series(GlobalOperator(local, n), r_max)
            k = np.arange(n)
            weights = np.array([math.comb(n - 1, kk) for kk in k]) / 2.0 ** (n - 1)
            phases = np.exp(1j * (2 * k - (n - 1)) * xi)
            for r in range(1, r_max + 1):
                closed = -np.sum(weights * phases ** r) / r
                worst.update(abs(series.coefficients[r - 1] - closed), xi=xi, n=n, r=r)
    return _report(
        "thm5_6",
        {"xi_values": list(SIX_XI), "n_values": list(n_values), "r_max": r_max},
        worst, tol,
    )


def verify_gaussian_limit(n_values=None, r_max=None, u_points=None, tol=None,
                          xi: float = 0.8, u: complex = 0.3, noise_factor: float = 1.1):
    """cor5_7: quadrature limit vs the finite-N binomial form at xi/sqrt(N).

    Passes when the gap sequence decreases up to 10% noise and the final
    gap is below tolerance; the limit statement gives no rate, so the gap
    sequence itself is part of the report.
    """
    n_values = tuple(n_values) if n_values else (16, 64, 256, 1024)
    tol = tol if tol is not None else 1e-2
    limit = clt_limit_zeta(xi, u)
    quad_stability = abs(limit - clt_limit_zeta(xi, u, 128))
    gaps = [abs(binomial_zeta_qca1(n, xi / math.sqrt(n), u) - limit) for n in n_values]
    monotone = all(gaps[i + 1] <= gaps[i] * noise_factor for i in range(len(gaps) - 1))
    worst = _Worst()
    worst.update(gaps[-1], n=n_values[-1], xi=xi, u=[complex(u).real, complex(u).imag])
    if not monotone:
        worst.update(1.0, check="gap_decrease_within_noise")
    return _report(
        "cor5_7",
        {"n_values": list(n_values), "xi": xi, "u": [complex(u).real, complex(u).imag],
         "gaps": gaps, "monotone_within_noise": monotone,
         "quadrature_stability": quad_stability},
        worst, tol,
    )


def verify_reflection_first_trace(n_values=None, r_max=None, u_points=None, tol=None):
    """prop6_r1: closed-form first-power trace vs brute, both root branches."""
    n_values = tuple(n_values) if n_values else tuple(range(1, 11))
    tol = tol if tol is not None else 1e-8
    worst = _Worst()
    for xi in R1_XI_GRID:
        for n in n_values:
            brute = _qca2_operator(xi, n).trace_powers(1).values[0]
            closed = qca2_c1_closed_form(n, xi).trace
            worst.update(abs(brute - closed), xi=xi, n=n)
    return _report(
        "prop6_r1", {"xi_values": list(R1_XI_GRID), "n_values": list(n_values)},
        worst, tol,
    )


def verify_reflection_second_trace(n_values=None, r_max=None, u_points=None, tol=None):
    """prop6_r2: iterated order-3 recurrence vs brute second-power trace."""
    n_values = tuple(n_values) if n_values else tuple(range(1, 11))
    tol = tol if tol is not None else 1e-8
    worst = _Worst()
    for xi in R1_XI_GRID:
        for n in n_values:
            brute = _qca2_operator(xi, n).trace_powers(2).values[1]
            worst.update(abs(brute - qca2_x2_recurrence(n, xi)), xi=xi, n=n)
    return _report(
        "prop6_r2", {"xi_values": list(R1_XI_GRID), "n_values": list(n_values)},
        worst, tol,
    )


def verify_quarter_turn(n_values=None, r_max=None, u_points=None, tol=None):
    """prop6_pi2: quarter-turn trace values for odd/even powers + period 2."""
    n_values = tuple(n_values) if n_values else tuple(range(1, 11))
    r_max = 8 if r_max is None else r_max
    tol = tol if tol is not None else 1e-10
    worst = _Worst()
    for n in n_values:
        op = _qca2_operator(math.pi / 2, n)
        traces = op.trace_powers(r_max).values
        amp = 2.0 ** ((n + 1) / 2.0) * chebyshev_t(n - 1, SQRT2 / 2.0)
        for r in range(1, r_max + 1):
            expected = amp if r % 2 else float(2 ** n)
            worst.update(abs(traces[r - 1] - expected), n=n, r=r)
        if not op.power_equals_identity(2, tol):
            worst.update(1.0, n=n, check="period_2")
    return _report(
        "prop6_pi2", {"n_values": list(n_values), "r_max": r_max}, worst, tol,
    )


def verify_quarter_turn_zeta(n_values=None, r_max=None, u_points=None, tol=None):
    """thm6_pi2zeta: quarter-turn arctanh closed form vs truncated series."""
    n_values = tuple(n_values) if n_values else tuple(range(1, 9))
    r_max = 60 if r_max is None else r_max
    u_points = tuple(u_points) if u_points else U_POINTS
    tol = tol if tol is not None else 1e-8
    worst = _Worst()
    for n in n_values:
        series = zeta_log_series(_qca2_operator(math.pi / 2, n), r_max)
        for u in u_points:
            closed = zeta_closed_form_qca2(n, "pi_half", u)
            err = abs(closed - series.evaluate(u))
            worst.update(err, n=n, u=[complex(u).real, complex(u).imag])
    return _report(
        "thm6_pi2zeta",
        {"n_values": list(n_values), "r_max": r_max,
         "u_points": [[complex(u).real, complex(u).imag] for u in u_points]},
        worst, tol,
    )


def verify_rule90_power_traces(n_values=None, r_max=None, u_points=None, tol=None):
    """prop6_rule90_r: brute Rule 90 power traces vs the 2^(2^k) / 2^N rule."""
    n_values = tuple(n_values) if n_values else (2, 3, 4)
    tol = tol if tol is not None else 1e-8
    k_max, s_max = 3, 4
    worst = _Worst()
    for n in n_values:
        top = (2 ** k_max) * (2 * s_max - 1)
        traces = _qca2_operator(0.0, n).trace_powers(top).values
        for k in range(k_max + 1):
            for s in range(1, s_max + 1):
                r = (2 ** k) * (2 * s - 1)
                expected = rule90_trace_general_r(n, k, s)
                worst.update(abs(traces[r - 1] - expected), n=n, k=k, s=s, r=r)
    return _report(
        "prop6_rule90_r",
        {"n_values": list(n_values), "k_max": k_max, "s_max": s_max},
        worst, tol,
    )


def verify_rule90_zeta(n_values=None, r_max=None, u_points=None, tol=None):
    """thm6_rule90zeta: Rule 90 closed form vs truncated series, N <= 4."""
    n_values = tuple(n_values) if n_values else (1, 2, 3, 4)
    r_max = 60 if r_max is None else r_max
    u_points = tuple(u_points) if u_points else U_POINTS
    tol = tol if tol is not None else 1e-8
    worst = _Worst()
    for n in n_values:
        series = zeta_log_series(_qca2_operator(0.0, n), r_max)
        for u in u_points:
            closed = zeta_closed_form_qca2(n, "rule90", u)
            worst.update(abs(closed - series.evaluate(u)),
                         n=n, u=[complex(u).real, complex(u).imag])
    return _report(
        "thm6_rule90zeta",
        {"n_values": list(n_values), "r_max": r_max,
         "u_points": [[complex(u).real, complex(u).imag] for u in u_points]},
        worst, tol,
    )


def verify_rule90_conjecture(n_values=None, r_max=None, u_points=None, tol=None):
    """conj_rule90: merged conjecture reports over the unproved N range."""
    n_values = tuple(n_values) if n_values else (5, 6, 7, 8)
    r_max = 64 if r_max is None else r_max
    u_points = tuple(u_points) if u_points else (0.3, 0.5j)
    tol = tol if tol is not None else 1e-8
    worst = _Worst()
    for n in n_values:
        sub = conjecture_test_rule90(n, r_max=r_max, u_samples=u_points, tol=tol)
        worst.update(sub.max_abs_error, **sub.witness)
    return _report(
        "conj_rule90",
        {"n_values": list(n_values), "r_max": r_max,
         "u_samples": [[complex(u).real, complex(u).imag] for u in u_points],
         "conjecture": True},
        worst, tol,
    )


VERIFIERS: Dict[str, Callable[..., ClosedFormReport]] = {
    "thm5_3": verify_tensor_eigen_traces,
    "cor5_4": verify_rotation_cosine_traces,
    "thm5_6": verify_binomial_series_coefficients,
    "cor5_7": verify_gaussian_limit,
    "prop6_r1": verify_reflection_first_trace,
    "prop6_r2": verify_reflection_second_trace,
    "prop6_pi2": verify_quarter_turn,
    "thm6_pi2zeta": verify_quarter_turn_zeta,
    "prop6_rule90_r": verify_rule90_power_traces,
    "thm6_rule90zeta": verify_rule90_zeta,
    "conj_rule90": verify_rule90_conjecture,
}

FORMULA_IDS = tuple(VERIFIERS)


def run_formula(
    formula_id: str,
    n_values: Optional[Sequence[int]] = None,
    r_max: Optional[int] = None,
    u_points: Optional[Sequence[complex]] = None,
    tol: Optional[float] = None,
) -> ClosedFormReport:
    """Run one registered verifier with optional grid overrides."""
    try:
        fn = VERIFIERS[formula_id]
    except KeyError:
        raise DomainError(
            f"unknown formula id {formula_id!r}; expected one of {FORMULA_IDS}"
        )
    return fn(n_values=n_values, r_max=r_max, u_points=u_points, tol=tol)
