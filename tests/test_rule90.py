"""Rule 90 traces and zeta values against oracles that share no code with them.

qca2(0, 0) is the permutation matrix of the GF(2)-linear map A = I + S, so
tr(Q^r) = #Fix(A^r) = 2^min(2^k, N) for r = 2^k m, m odd (README, "Rule
90").  The fixed points are counted in plain integers by ``tests/helpers``:
by GF(2) rank, and, to check that count, by iterating the map on every
state.
"""

import pytest

from ipszeta import (
    DomainError,
    GlobalOperator,
    ModelSpec,
    build_local,
    rule90_trace_general_r,
    zeta_closed_form_qca2,
)

from helpers import rule90_fixed_points_enumerated, rule90_fixed_points_gf2

BRUTE_N = tuple(range(1, 11))
BRUTE_R = 64
SERIES_TERMS = 200


def _split_power(r: int) -> tuple:
    """(k, s) with r = 2^k (2s - 1)."""
    k = (r & -r).bit_length() - 1
    return k, ((r >> k) + 1) // 2


@pytest.fixture(scope="module")
def brute():
    """The brute operator and its exact traces r = 1..64 for N = 1..10."""
    ops = {n: GlobalOperator(build_local(ModelSpec.qca2(0.0, 0.0)), n) for n in BRUTE_N}
    return {n: (op, op.trace_powers(BRUTE_R).values) for n, op in ops.items()}


@pytest.mark.parametrize("n", range(1, 9))
def test_gf2_count_matches_full_enumeration(n):
    assert rule90_fixed_points_gf2(n, BRUTE_R) == rule90_fixed_points_enumerated(n, BRUTE_R)


def test_trace_rule_equals_gf2_count():
    for n in range(1, 65):
        for r, count in enumerate(rule90_fixed_points_gf2(n, 128), start=1):
            assert rule90_trace_general_r(n, *_split_power(r)) == count, (n, r)


@pytest.mark.parametrize("n", BRUTE_N)
def test_brute_traces_equal_gf2_count(n, brute):
    _, traces = brute[n]
    assert traces.tolist() == [complex(c) for c in rule90_fixed_points_gf2(n, BRUTE_R)]


@pytest.mark.parametrize("n", BRUTE_N)
def test_closed_form_matches_brute_series(n, brute):
    # the first r with tr(Q^r) = 2^N fixes every state of the permutation,
    # so Q^r = I, checked exactly, and the brute traces repeat with period r
    op, traces = brute[n]
    period = 1 + next(i for i, t in enumerate(traces) if t == 2 ** n)
    assert op.power_equals_identity(period, 0.0)
    c = [traces[(r - 1) % period] / 2 ** n for r in range(1, SERIES_TERMS + 1)]
    for u in (0.3, 0.5j, 0.6):
        series = -sum(c[r - 1] * u ** r / r for r in range(1, SERIES_TERMS + 1))
        assert abs(zeta_closed_form_qca2(n, "rule90", u) - series) <= 1e-12, u


def test_overflowing_trace_is_refused():
    assert rule90_trace_general_r(1023, 10 ** 9, 1) == 2.0 ** 1023
    assert rule90_trace_general_r(2000, 9, 1) == 2.0 ** 512
    for n, k in ((1024, 10), (2000, 11), (2000, 10 ** 9)):
        with pytest.raises(DomainError, match="overflows"):
            rule90_trace_general_r(n, k, 1)
