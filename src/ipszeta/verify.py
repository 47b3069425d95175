"""Formula verification registry.

Each identifier maps to one row of ``FORMULAS``: its default grid, its
tolerance and a check that compares one closed form against the C_r
that ``operators.trace_series`` reads, one pass per model.  ``run_formula``
resolves the grid, keeps the worst deviation and its witness point (the
first that is not finite, if any), and reports pass/fail at the
tolerance.  Identifiers are the stable tokens the CLI exposes:

    thm5_3            tensor-factor eigenvalue product vs brute C_r
    cor5_4            cosine-polynomial C_r identity, uniform-rotation model
    thm5_6            binomial log-sum coefficients vs trace series
    cor5_7            Gaussian-limit quadrature vs finite-N binomial form
    prop6_r1          first-power trace closed form, reflection family
    prop6_r2          second-power trace recurrence, reflection family
    prop6_pi2         quarter-turn trace values and period-2 identity
    thm6_pi2zeta      quarter-turn arctanh closed form vs trace series
    prop6_rule90_r    Rule 90 power-trace rule 2^min(2^k, N), any N
    thm6_rule90zeta   Rule 90 closed form vs trace series, N in {1..4}
    conj_rule90       the same check on N in {5..8}; the paper leaves these
                      N a conjecture, the README proves them

Grids iterate in a fixed order and ties keep the earliest witness, so
reports are deterministic.
"""

from __future__ import annotations

import math
import random
from functools import partial
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError
from .models import ModelSpec, TensorFactors, build_local
from .operators import GlobalOperator, trace_series
from .serialize import complex_pair, positive_int, tolerance, unit_disk_point
from .zeta import (
    SQRT2,
    binomial_zeta_qca1,
    chebyshev_t,
    clt_limit_zeta,
    qca2_c1_closed_form,
    qca2_x2_recurrence,
    rule90_trace_general_r,
    tensor_model_cr,
    zeta_closed_form_qca2,
)

SIX_XI = (0.0, math.pi / 6, math.pi / 4, 1.0, 2.0, math.pi / 2)
# both angles in [0, 2pi) with sin(xi) = 3 - 2 sqrt(2), where the
# characteristic roots of the first-power recurrence coalesce
DOUBLE_ROOT_XI = math.asin(3.0 - 2.0 * SQRT2)
R1_XI_GRID = SIX_XI + (DOUBLE_ROOT_XI, math.pi - DOUBLE_ROOT_XI, 4.0, 5.5)
U_POINTS = (0.1, 0.3, 0.5, 0.4j)
TENSOR_PAIRS = 20
# cor5_7 compares at one angle and one point; the limit gives no rate, so
# the gap sequence may rise by this factor between sizes
CLT_XI, CLT_U, CLT_NOISE = 0.8, 0.3, 1.1
RULE90_K_MAX, RULE90_S_MAX = 3, 4


@dataclass(frozen=True)
class ClosedFormReport:
    """Grid comparison of a closed form against brute linear algebra."""

    formula_id: str
    grid: dict
    max_abs_error: float
    passed: bool
    witness: dict
    tolerance: float

    def to_json(self) -> dict:
        """The report for strict JSON: a deviation that is not finite is None."""
        doc = asdict(self)
        for part, key in ((doc, "max_abs_error"), (doc["witness"], "error")):
            if key in part and not math.isfinite(part[key]):
                part[key] = None
        return doc


@dataclass(frozen=True)
class Formula:
    """One verifier: its check, default grid, tolerance and fixed report fields.

    ``r_max`` or ``u_points`` is None when the check has no such axis.  The
    check takes the resolved grid and ``tol`` as keywords, plus a ``notes``
    dict for measured report fields, and yields ``(error, point)`` pairs.
    """

    check: Callable[..., Iterator[tuple]]
    n_values: tuple
    tol: float
    r_max: Optional[int] = None
    u_points: Optional[tuple] = None
    fields: dict = field(default_factory=dict)


def _random_factor_pairs(count: int, seed: int = 20127):
    # the stdlib generator: numpy's loads extension modules of about 6 MB
    rng = random.Random(seed)
    for _ in range(count):
        left = [[rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0) for _ in range(2)]
                for _ in range(2)]
        mags = np.array([rng.uniform(0.3, 1.0) for _ in range(2)])
        phases = np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(2)])
        yield TensorFactors(np.array(left), right=np.diag(mags * np.exp(1j * phases)))


def _tensor_eigen_traces(n_values, r_max, **_):
    """Eigenvalue-product C_r of tensor models vs brute traces, relative."""
    for idx, factors in enumerate(_random_factor_pairs(TENSOR_PAIRS)):
        for n, series in trace_series(factors.kron(), n_values, r_max):
            brute = series.c_values
            for r in range(1, r_max + 1):
                closed = tensor_model_cr(factors, n, r)
                rel = abs(closed - brute[r - 1]) / max(1.0, abs(brute[r - 1]))
                yield rel, {"pair": idx, "n": n, "r": r}


def _rotation_cosine_traces(n_values, r_max, **_):
    """Brute C_r of the uniform-rotation model vs T_r(cos xi)^(N-1)."""
    for xi in SIX_XI:
        for n, series in trace_series(build_local(ModelSpec.qca1(xi, xi)), n_values, r_max):
            for r in range(1, r_max + 1):
                closed = chebyshev_t(r, math.cos(xi)) ** (n - 1)
                yield abs(series.c_values[r - 1] - closed), {"xi": xi, "n": n, "r": r}


def _binomial_series_coefficients(n_values, r_max, **_):
    """Binomial log-sum coefficients -sum_k w_k z_k^r / r vs -C_r / r."""
    for xi in SIX_XI:
        for n, series in trace_series(build_local(ModelSpec.qca1(xi, xi)), n_values, r_max):
            k = np.arange(n)
            # int true division is correctly rounded: 2.0 ** (n - 1) overflows from N = 1025
            weights = np.array([math.comb(n - 1, kk) / (1 << (n - 1)) for kk in k])
            phases = np.exp(1j * (2 * k - (n - 1)) * xi)
            for r in range(1, r_max + 1):
                closed = -np.sum(weights * phases ** r) / r
                yield abs(series.coefficients[r - 1] - closed), {"xi": xi, "n": n, "r": r}


def _gaussian_limit(n_values, notes, **_):
    """Quadrature limit vs the finite-N binomial form at xi/sqrt(N).

    Passes when the gap sequence decreases up to the noise factor and the
    final gap is below tolerance; the gaps themselves go in the report.
    """
    n_values = [positive_int("n_sites", n) for n in n_values]
    limit = clt_limit_zeta(CLT_XI, CLT_U)
    gaps = [abs(binomial_zeta_qca1(n, CLT_XI / math.sqrt(n), CLT_U) - limit) for n in n_values]
    monotone = all(gaps[i + 1] <= gaps[i] * CLT_NOISE for i in range(len(gaps) - 1))
    notes.update(gaps=gaps, monotone_within_noise=monotone,
                 quadrature_stability=abs(limit - clt_limit_zeta(CLT_XI, CLT_U, 128)))
    yield gaps[-1], {"n": n_values[-1], "xi": CLT_XI, "u": complex_pair(CLT_U)}
    if not monotone:
        yield 1.0, {"check": "gap_decrease_within_noise"}


def _reflection_trace(n_values, power: int, closed: Callable[[int, float], complex], **_):
    """Brute power-th trace of qca2(0, xi) vs ``closed(n, xi)``, relative."""
    for xi in R1_XI_GRID:
        for n, series in trace_series(build_local(ModelSpec.qca2(0.0, xi)), n_values, power):
            brute = series.values[power - 1]
            yield abs(brute - closed(n, xi)) / max(1.0, abs(brute)), {"xi": xi, "n": n}


def _quarter_turn(n_values, r_max, tol, **_):
    """Quarter-turn trace values for odd/even powers and period 2."""
    local = build_local(ModelSpec.qca2(0.0, math.pi / 2))
    for n, series in trace_series(local, n_values, r_max):
        traces = series.values
        amp = 2.0 ** ((n + 1) / 2.0) * chebyshev_t(n - 1, SQRT2 / 2.0)
        for r in range(1, r_max + 1):
            expected = amp if r % 2 else float(2 ** n)
            yield abs(traces[r - 1] - expected), {"n": n, "r": r}
        if not GlobalOperator(local, n).power_equals_identity(2, tol):
            yield 1.0, {"n": n, "check": "period_2"}


def _rule90_power_traces(n_values, **_):
    """Brute Rule 90 power traces vs the 2^(2^k) / 2^N rule."""
    top = (2 ** RULE90_K_MAX) * (2 * RULE90_S_MAX - 1)
    for n, series in trace_series(build_local(ModelSpec.qca2(0.0, 0.0)), n_values, top):
        traces = series.values
        for k in range(RULE90_K_MAX + 1):
            for s in range(1, RULE90_S_MAX + 1):
                r = (2 ** k) * (2 * s - 1)
                expected = rule90_trace_general_r(n, k, s)
                yield abs(traces[r - 1] - expected), {"n": n, "k": k, "s": s, "r": r}


def _zeta_series(n_values, r_max, u_points, xi: float,
                 closed: Callable[[int, complex], complex], **_):
    """``closed(n, u)`` vs the truncated trace series of qca2(0, xi)."""
    for n, series in trace_series(build_local(ModelSpec.qca2(0.0, xi)), n_values, r_max):
        for u in u_points:
            yield abs(closed(n, u) - series.evaluate(u)), {"n": n, "u": complex_pair(u)}


# the lambdas look each closed form up by name at call time, so a wrapper
# installed on the module attribute (a profiler, a tracer) sees every call
_rule90_series = partial(_zeta_series, xi=0.0,
                         closed=lambda n, u: zeta_closed_form_qca2(n, "rule90", u))

FORMULAS: Dict[str, Formula] = {
    "thm5_3": Formula(
        _tensor_eigen_traces, tuple(range(2, 9)), 1e-9, r_max=12,
        fields={"pairs": TENSOR_PAIRS, "error_kind": "relative"}),
    "cor5_4": Formula(
        _rotation_cosine_traces, tuple(range(1, 9)), 1e-9, r_max=16,
        fields={"xi_values": list(SIX_XI)}),
    "thm5_6": Formula(
        _binomial_series_coefficients, tuple(range(1, 9)), 1e-9, r_max=16,
        fields={"xi_values": list(SIX_XI)}),
    "cor5_7": Formula(
        _gaussian_limit, (16, 64, 256, 1024), 1e-2,
        fields={"xi": CLT_XI, "u": complex_pair(CLT_U)}),
    "prop6_r1": Formula(
        partial(_reflection_trace, power=1,
                closed=lambda n, xi: qca2_c1_closed_form(n, xi)),
        tuple(range(1, 11)), 1e-8,
        fields={"xi_values": list(R1_XI_GRID), "error_kind": "relative"}),
    "prop6_r2": Formula(
        partial(_reflection_trace, power=2,
                closed=lambda n, xi: qca2_x2_recurrence(n, xi)),
        tuple(range(1, 11)), 1e-8,
        fields={"xi_values": list(R1_XI_GRID), "error_kind": "relative"}),
    "prop6_pi2": Formula(_quarter_turn, tuple(range(1, 11)), 1e-10, r_max=8),
    "thm6_pi2zeta": Formula(
        partial(_zeta_series, xi=math.pi / 2,
                closed=lambda n, u: zeta_closed_form_qca2(n, "pi_half", u)),
        tuple(range(1, 9)), 1e-8, r_max=60, u_points=U_POINTS),
    "prop6_rule90_r": Formula(
        _rule90_power_traces, (2, 3, 4), 1e-8,
        fields={"k_max": RULE90_K_MAX, "s_max": RULE90_S_MAX}),
    "thm6_rule90zeta": Formula(_rule90_series, (1, 2, 3, 4), 1e-8, r_max=60, u_points=U_POINTS),
    "conj_rule90": Formula(
        _rule90_series, (5, 6, 7, 8), 1e-8, r_max=64, u_points=(0.3, 0.5j),
        fields={"conjecture": False}),
}

FORMULA_IDS = tuple(FORMULAS)


def run_formula(
    formula_id: str,
    n_values: Optional[Sequence[int]] = None,
    r_max: Optional[int] = None,
    u_points: Optional[Sequence[complex]] = None,
    tol: Optional[float] = None,
) -> ClosedFormReport:
    """Run one registered verifier; None keeps the default of an axis.

    An override of an axis the verifier lacks, an empty grid, a point
    with |u| >= 1 or a ``tol`` that is not finite and >= 0 raises
    DomainError.
    """
    try:
        formula = FORMULAS[formula_id]
    except KeyError:
        raise DomainError(
            f"unknown formula id {formula_id!r}; expected one of {FORMULA_IDS}"
        )
    for axis, flag, value in (("r_max", "--rmax", r_max), ("u_points", "--u", u_points)):
        if value is not None and getattr(formula, axis) is None:
            raise DomainError(f"{formula_id} has no {axis} axis; it takes no {flag}")
    n_values = tuple(formula.n_values if n_values is None else n_values)
    r_max = formula.r_max if r_max is None else r_max
    u_points = formula.u_points if u_points is None else u_points
    u_points = None if u_points is None else tuple(map(unit_disk_point, u_points))
    tol = formula.tol if tol is None else tolerance("tol", tol)
    if not n_values or u_points == ():
        raise DomainError(f"{formula_id} needs a nonempty grid")

    notes: dict = {}
    error, witness = 0.0, {}
    for err, point in formula.check(n_values=n_values, r_max=r_max, u_points=u_points,
                                    tol=tol, notes=notes):
        err = float(err)
        # the first deviation that is not finite (NaN too) stays the witness and fails
        if not witness or (math.isfinite(error) and not err <= error):
            error, witness = err, dict(point, error=err)

    grid = {"n_values": list(n_values)}
    if r_max is not None:
        grid["r_max"] = r_max
    if u_points is not None:
        grid["u_points"] = [complex_pair(u) for u in u_points]
    grid.update(formula.fields, **notes)
    return ClosedFormReport(formula_id, grid, error, bool(error <= tol), witness, tol)
