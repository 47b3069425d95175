"""Formula verification registry.

Each identifier maps to one row of ``FORMULAS``: its default grid, its
tolerance and a check that compares one closed form against the C_r
that ``operators.trace_series`` reads, one pass per model.  ``run_formula``
passes the whole resolved grid to the check, so a report prints the grid
that ran, measures each ``(got, want, point)`` the check yields, keeps the
worst deviation and its witness point (the first that is not finite, if
any), and reports pass/fail at the tolerance.  Identifiers are the stable
tokens the CLI exposes:

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
    check takes the resolved ``n_values``, ``r_max``, ``u_points``, every
    ``fields`` entry, ``tol`` and a ``notes`` dict (measured report fields)
    as keywords, and yields ``(got, want, point)``: the deviation is
    |got - want|, over max(1, |got|) if ``fields["error_kind"]`` is
    ``"relative"``.  A pass/fail side check yields ``(1.0, 0.0, point)``.
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


def _tensor_eigen_traces(n_values, r_max, pairs, **_):
    """Brute C_r of tensor models vs their eigenvalue-product C_r."""
    for idx, factors in enumerate(_random_factor_pairs(pairs)):
        for n, series in trace_series(factors.kron(), n_values, r_max):
            for r in range(1, r_max + 1):
                closed = tensor_model_cr(factors, n, r)
                yield series.c_values[r - 1], closed, {"pair": idx, "n": n, "r": r}


def _rotation_cosine_traces(n_values, r_max, xi_values, **_):
    """Brute C_r of the uniform-rotation model vs T_r(cos xi)^(N-1)."""
    for xi in xi_values:
        for n, series in trace_series(build_local(ModelSpec.qca1(xi, xi)), n_values, r_max):
            for r in range(1, r_max + 1):
                closed = chebyshev_t(r, math.cos(xi)) ** (n - 1)
                yield series.c_values[r - 1], closed, {"xi": xi, "n": n, "r": r}


def _binomial_series_coefficients(n_values, r_max, xi_values, **_):
    """Series coefficients -C_r / r vs the binomial log-sum -sum_k w_k z_k^r / r."""
    for xi in xi_values:
        for n, series in trace_series(build_local(ModelSpec.qca1(xi, xi)), n_values, r_max):
            k = np.arange(n)
            # int true division is correctly rounded: 2.0 ** (n - 1) overflows from N = 1025
            weights = np.array([math.comb(n - 1, kk) / (1 << (n - 1)) for kk in k])
            phases = np.exp(1j * (2 * k - (n - 1)) * xi)
            for r in range(1, r_max + 1):
                closed = -np.sum(weights * phases ** r) / r
                yield series.coefficients[r - 1], closed, {"xi": xi, "n": n, "r": r}


def _gaussian_limit(n_values, xi, u, notes, **_):
    """The finite-N binomial form at xi/sqrt(N) vs its quadrature limit.

    Passes when the reported gaps decrease up to the noise factor and the
    last is below tolerance."""
    n_values = [positive_int("n_sites", n) for n in n_values]
    u = complex(*u)  # the [re, im] pair the row prints
    limit = clt_limit_zeta(xi, u)
    values = [binomial_zeta_qca1(n, xi / math.sqrt(n), u) for n in n_values]
    gaps = [abs(value - limit) for value in values]
    monotone = all(gaps[i + 1] <= gaps[i] * CLT_NOISE for i in range(len(gaps) - 1))
    notes.update(gaps=gaps, monotone_within_noise=monotone,
                 quadrature_stability=abs(limit - clt_limit_zeta(xi, u, 128)))
    yield values[-1], limit, {"n": n_values[-1], "xi": xi, "u": complex_pair(u)}
    if not monotone:
        yield 1.0, 0.0, {"check": "gap_decrease_within_noise"}


def _reflection_trace(n_values, xi_values, power, closed, **_):
    """Brute power-th trace of qca2(0, xi) vs ``closed(n, xi)``."""
    for xi in xi_values:
        for n, series in trace_series(build_local(ModelSpec.qca2(0.0, xi)), n_values, power):
            yield series.values[power - 1], closed(n, xi), {"xi": xi, "n": n}


def _quarter_turn(n_values, r_max, tol, **_):
    """Quarter-turn trace values for odd/even powers and period 2."""
    local = build_local(ModelSpec.qca2(0.0, math.pi / 2))
    for n, series in trace_series(local, n_values, r_max):
        traces = series.values
        amp = 2.0 ** ((n + 1) / 2.0) * chebyshev_t(n - 1, SQRT2 / 2.0)
        for r in range(1, r_max + 1):
            yield traces[r - 1], (amp if r % 2 else float(2 ** n)), {"n": n, "r": r}
        if not GlobalOperator(local, n).power_equals_identity(2, tol):
            yield 1.0, 0.0, {"n": n, "check": "period_2"}


def _rule90_power_traces(n_values, k_max, s_max, **_):
    """Brute Rule 90 power traces vs the 2^(2^k) / 2^N rule."""
    top = (2 ** k_max) * (2 * s_max - 1)
    for n, series in trace_series(build_local(ModelSpec.qca2(0.0, 0.0)), n_values, top):
        traces = series.values
        for k in range(k_max + 1):
            for s in range(1, s_max + 1):
                r = (2 ** k) * (2 * s - 1)
                expected = rule90_trace_general_r(n, k, s)
                yield traces[r - 1], expected, {"n": n, "k": k, "s": s, "r": r}


def _zeta_series(n_values, r_max, u_points, xi, closed, **_):
    """The truncated trace series of qca2(0, xi) vs ``closed(n, u)``."""
    for n, series in trace_series(build_local(ModelSpec.qca2(0.0, xi)), n_values, r_max):
        for u in u_points:
            yield series.evaluate(u), closed(n, u), {"n": n, "u": complex_pair(u)}


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
        raise DomainError(f"unknown formula id {formula_id!r}; expected one of {FORMULA_IDS}")
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

    # one grid runs and is printed; an axis the verifier lacks (None) is not printed
    grid = {"n_values": n_values, "r_max": r_max, "u_points": u_points, **formula.fields}
    relative = grid.get("error_kind") == "relative"
    notes: dict = {}
    error, witness = 0.0, {}
    for got, want, point in formula.check(**grid, tol=tol, notes=notes):
        err = float(abs(got - want) / (max(1.0, abs(got)) if relative else 1.0))
        # the first deviation that is not finite (NaN too) stays the witness and fails
        if not witness or (math.isfinite(error) and not err <= error):
            error, witness = err, dict(point, error=err)

    grid.update(notes, n_values=list(n_values))
    if u_points is not None:
        grid["u_points"] = [complex_pair(u) for u in u_points]
    grid = {key: value for key, value in grid.items() if value is not None}
    return ClosedFormReport(formula_id, grid, error, bool(error <= tol), witness, tol)
