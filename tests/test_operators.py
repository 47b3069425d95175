"""Global operator assembly, application, traces, spectra."""

import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ipszeta import kernels, operators, transfer
from ipszeta import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    GlobalOperator,
    LocalOperator,
    ModelSpec,
    SingularAtU,
    SizeExceeded,
    TensorFactors,
    ZetaLogSeries,
    build_local,
    binomial_zeta_qca1,
    classify,
    qca2_c1_closed_form,
    qca2_x2_recurrence,
    reflection,
    rotation,
    tensor_model_cr,
)
from ipszeta.config import DEFAULTS
from ipszeta.operators import _UNITARY_TOL, _brute_traces, _transfer_cheaper, trace_series

from helpers import (
    E00,
    E01,
    E10,
    E11,
    exact_transfer_c,
    kron_global,
    parity_dense,
    product_apply,
    product_global,
    product_half,
    qca2_c2_recurrence,
    spectral_calls,
)

MODELS = (
    ModelSpec.dk(0.3, 0.6),
    ModelSpec.generalized_dk(0.2, 1.1, 2.5, 0.9),
    ModelSpec.qca1(0.4, 1.1),
    ModelSpec.qca2(0.7, 2.2),
)

RULE90 = build_local(ModelSpec.qca2(0, 0))

# real orthogonal local operators, whose zeta value comes from the cosines of the spectrum
_REAL_ORTHOGONAL = (
    ModelSpec.qca2(0.3, 0.7),
    ModelSpec.qca2(0, math.pi / 2),
    ModelSpec.qca1(0, 0),
    ModelSpec.qca2(0, 0),
    ModelSpec.dk(1, 0),
    ModelSpec.tensor(reflection(0.9), np.diag([1.0, -1.0])),
)
_REAL_ORTHOGONAL_IDS = ("qca2", "qca2-quarter", "qca1-identity", "rule90", "dk-swap", "tensor")
# a unitary local operator with complex entries, assembled from its right-site blocks
_COMPLEX_UNITARY = LocalOperator.from_blocks(
    [[0.6, -0.8j], [-0.8j, 0.6]], np.diag(np.exp([0.3j, -1.1j]))).entries


def _op(spec, n):
    return GlobalOperator(build_local(spec), n)


def _mp_log_abs_det(dense, u) -> float:
    """log|det(I - uQ)| / 2^N at 50 digits, from the two parity blocks of a dense Q."""
    import mpmath

    assert not dense[0::2, 1::2].any() and not dense[1::2, 0::2].any()
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for block in (dense[0::2, 0::2], dense[1::2, 1::2]):
            factor = mpmath.eye(len(block)) - mpmath.mpc(u) * mpmath.matrix(block.tolist())
            total += mpmath.log(abs(mpmath.det(factor)))
        return float(total / len(dense))


def _mean_arg(dense, u) -> float:
    """Mean principal Arg of 1 - u*lambda over the nonsymmetric QR spectrum of a dense Q."""
    return float(np.mean(np.angle(1.0 - u * np.linalg.eigvals(dense))))


def random_vec(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)


def test_matrix_units_and_reflection():
    np.testing.assert_array_equal(E00 + E11, np.eye(2))
    assert E01[0, 1] == 1 and E10[1, 0] == 1
    for xi in np.linspace(0, 2 * math.pi, 9):
        np.testing.assert_allclose(reflection(xi) @ reflection(xi), np.eye(2),
                                   rtol=0, atol=1e-15)


class TestApply:
    def test_three_site_expansion(self):
        # image of (0,0,1) is the four-term combination of pair weights
        local = build_local(ModelSpec.dk(0.3, 0.6))
        m = local.entries
        out = GlobalOperator(local, 3).apply(np.eye(8)[1])
        expected = np.zeros(8, dtype=complex)
        expected[1] = m[0, 0] * m[1, 1]   # (0,0,1)
        expected[3] = m[0, 0] * m[3, 1]   # (0,1,1)
        expected[5] = m[2, 0] * m[1, 1]   # (1,0,1)
        expected[7] = m[2, 0] * m[3, 1]   # (1,1,1)
        np.testing.assert_allclose(out, expected, rtol=0, atol=0)

    def test_identity_local_is_identity(self):
        op = GlobalOperator(np.eye(4), 5)
        v = random_vec(5, 3)
        np.testing.assert_allclose(op.apply(v), v, rtol=0, atol=0)

    def test_agrees_with_dense(self):
        op = _op(ModelSpec.qca1(0.8, 0.8), 4)
        v = random_vec(4, 11)
        np.testing.assert_allclose(op.apply(v), product_apply(op.local.entries, 4, v),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", MODELS, ids=[m.model for m in MODELS])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_dense_across_sizes(self, spec, n):
        op = _op(spec, n)
        v = random_vec(n, 1000 + n)
        np.testing.assert_allclose(op.apply(v), product_apply(op.local.entries, n, v),
                                   rtol=0, atol=1e-12)

    def test_single_site(self):
        v = random_vec(1, 9)
        np.testing.assert_allclose(_op(ModelSpec.dk(0.5, 0.5), 1).apply(v), v,
                                   rtol=0, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            _op(ModelSpec.dk(0.5, 0.5), 3).apply(np.ones(4))

    @pytest.mark.parametrize("spec", MODELS, ids=[m.model for m in MODELS])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_complex_vector_through_real_operator(self, spec, n):
        op = _op(spec, n)
        v = random_vec(n, 2000 + n)
        out = op.apply(v)
        assert out.dtype == np.complex128
        parts = op.apply(v.real) + 1j * op.apply(v.imag)
        np.testing.assert_allclose(out, parts, rtol=0, atol=1e-13 * np.abs(v).sum())

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_integer_vector_promotes_to_the_operator_format(self, n):
        # at N = 1 no site pair runs, so the promotion cannot come from matmul
        basis = [1] + [0] * (2 ** n - 1)
        real = _op(ModelSpec.dk(0.3, 0.6), n).apply(basis)
        assert real.dtype == np.float64 and real.sum() == 1.0
        tensor = ModelSpec.tensor(rotation(0.7), np.diag([1.0, 1j]))
        assert _op(tensor, n).apply(basis).dtype == np.complex128


class TestMaterialize:
    """The dense parity blocks ``_half(0)`` and ``_half(1)`` that the spectrum rests on."""

    def test_two_sites_equals_local(self):
        local = build_local(ModelSpec.qca2(1.1, 0.4))
        np.testing.assert_allclose(parity_dense(GlobalOperator(local, 2)),
                                   local.entries, rtol=0, atol=0)

    def test_single_site_is_identity(self):
        np.testing.assert_array_equal(parity_dense(_op(ModelSpec.dk(0.1, 0.9), 1)), np.eye(2))

    def test_tensor_three_site_form(self):
        left = rotation(0.7)
        right = np.diag(np.exp(1j * np.array([0.3, -0.8])))
        op = _op(ModelSpec.tensor(left, right), 3)
        np.testing.assert_allclose(parity_dense(op),
                                   np.kron(left, np.kron(left @ right, right)),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spec", MODELS, ids=[m.model for m in MODELS])
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_product_oracle(self, spec, n):
        local = build_local(spec)
        op = GlobalOperator(local, n)
        for b in (0, 1):
            np.testing.assert_allclose(op._half(b), product_half(local.entries, n, b),
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_matches_kron_oracle(self, n):
        local = build_local(ModelSpec.qca2(0.9, 1.7))
        np.testing.assert_allclose(parity_dense(GlobalOperator(local, n)),
                                   kron_global(local.entries, n),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_one_full_width_sweep(self, n):
        # each parity half is filled in 256-column blocks; from N=10 on a
        # half is more than one block.  From N=6 on the (N-1)-site sweep plus
        # the 2x2 right block and the N-site sweep fuse the pairs into
        # different blocks, so they round apart by up to 1 ulp
        for spec in MODELS:
            op = _op(spec, n)
            eye = np.eye(op.dim).reshape(-1)
            full = kernels.sweep(eye, op.local.entries, n, tail=op.dim)
            dense = parity_dense(op)
            assert dense.dtype == full.dtype == np.float64
            np.testing.assert_allclose(dense, full.reshape(op.dim, op.dim),
                                       rtol=0, atol=4 * np.finfo(np.float64).eps)

    def test_cap(self):
        # refused before the block is allocated
        op = _op(ModelSpec.dk(0.5, 0.5), DEFAULTS.dense_cap + 1)
        for b in (0, 1):
            with pytest.raises(SizeExceeded):
                op._half(b)

    def test_overflow_is_invalid_input(self):
        # entries 1e200 are finite at N = 2; their products 1e400 at N = 3 are not
        big = 1e200 * np.eye(4)
        np.testing.assert_array_equal(parity_dense(GlobalOperator(big, 2)), big)
        op = GlobalOperator(big, 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for stage in (partial(op._half, 0), partial(op._half, 1), op.eigenvalues):
                with pytest.raises(DomainError, match="N=3 overflows the float range"):
                    stage()
        assert caught == []


class TestStructurePreservation:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_column_stochastic(self, n):
        grid = np.linspace(0, 1, 4) if n <= 7 else (0.3, 0.7)
        for p in grid:
            for q in grid:
                op = _op(ModelSpec.dk(p, q), n)
                for b in (0, 1):
                    np.testing.assert_allclose(op._half(b).sum(axis=0), np.ones(2 ** (n - 1)),
                                               rtol=0, atol=1e-10)

    @pytest.mark.parametrize("model", ("qca1", "qca2"))
    @pytest.mark.parametrize("n", range(2, 11))
    def test_unitary(self, model, n):
        angles = np.linspace(0, 2 * math.pi, 4, endpoint=False) if n <= 8 else (0.9,)
        for a in angles:
            for b in angles:
                op = _op(ModelSpec(model, (a, b)), n)
                for half in (op._half(0), op._half(1)):
                    np.testing.assert_allclose(half.conj().T @ half, np.eye(2 ** (n - 1)),
                                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("xi", (0.0, math.pi / 6, 1.0, math.pi / 2, 4.0))
@pytest.mark.parametrize("n", range(1, 9))
def test_append_site_recursion(xi, n):
    # appending a site splits the operator along the new site's value:
    # Q_{N+1} = Q_N (x) E00 + (sigma_N Q_N) (x) E11
    q_n = parity_dense(_op(ModelSpec.qca2(0.0, xi), n))
    q_n1 = parity_dense(_op(ModelSpec.qca2(0.0, xi), n + 1))
    sigma_n = np.kron(np.eye(2 ** (n - 1)), reflection(xi))
    expected = np.kron(q_n, E00) + np.kron(sigma_n @ q_n, E11)
    np.testing.assert_allclose(q_n1, expected, rtol=0, atol=1e-12)


# any finite float: a signed mantissa of at most 1 times 2^e
_SCALED = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023))


class TestTracePowers:
    def test_identity_local(self):
        for n in (1, 3, 6):
            ts = GlobalOperator(np.eye(4), n).trace_powers(5)
            np.testing.assert_allclose(ts.values, np.full(5, 2.0 ** n), rtol=0, atol=0)
            np.testing.assert_allclose(ts.c_values, np.ones(5), rtol=0, atol=0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rule90_second_power(self, n):
        assert GlobalOperator(RULE90, n).trace_powers(2).values[1] == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_quarter_turn_second_power(self, n):
        ts = _op(ModelSpec.qca2(0, math.pi / 2), n).trace_powers(2)
        assert ts.values[1] == 2 ** n

    def test_tensor_trace_factorization(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            left = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            right = np.diag(rng.uniform(0.3, 1, 2) * np.exp(1j * rng.uniform(0, 2 * math.pi, 2)))
            local = np.kron(left, right)
            for n in range(2, 9):
                traces = GlobalOperator(local, n).trace_powers(12).values
                for r in range(1, 13):
                    lr = np.linalg.matrix_power(left, r)
                    mr = np.linalg.matrix_power(left @ right, r)
                    rr = np.linalg.matrix_power(right, r)
                    expected = np.trace(lr) * np.trace(mr) ** (n - 2) * np.trace(rr)
                    got = traces[r - 1]
                    assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    # N=9 spans two 256-column blocks, so it checks the block accumulation
    @pytest.mark.parametrize("spec", MODELS, ids=[m.model for m in MODELS])
    @pytest.mark.parametrize("n", (5, 9))
    def test_matches_kron_oracle(self, spec, n):
        base = kron_global(build_local(spec).entries, n)
        expected = []
        power = np.eye(2 ** n)
        for _ in range(6):
            power = base @ power
            expected.append(np.trace(power))
        np.testing.assert_allclose(_op(spec, n).trace_powers(6).values, expected,
                                   rtol=1e-12, atol=1e-10)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            _op(ModelSpec.dk(0.5, 0.5), 2).trace_powers(0)

    def test_pca_traces_real(self):
        for n in range(2, 7):
            values = _op(ModelSpec.dk(0.35, 0.81), n).trace_powers(10).values
            assert np.max(np.abs(values.imag)) <= 1e-12

    @pytest.mark.parametrize("spec", (ModelSpec.qca1(0.8, 2.3), ModelSpec.qca2(1.4, 0.5)))
    def test_unitary_traces_bounded_by_dimension(self, spec):
        for n in range(1, 8):
            values = _op(spec, n).trace_powers(12).values
            assert np.max(np.abs(values)) <= 2 ** n + 1e-9

    def test_sequence_finite_enforced(self):
        with pytest.raises(DomainError):
            ZetaLogSeries(2, np.array([1.0, np.inf]))

    def test_averages_past_the_float_range_of_2_to_the_n(self):
        # C_r is stored: 2^-50 is a float, its trace 2^1050 at N = 1100 is not
        ts = ZetaLogSeries(1100, [2.0 ** -100, -3.0j * 2.0 ** -50])
        np.testing.assert_array_equal(ts.c_values, [2.0 ** -100, -3.0j * 2.0 ** -50])
        # the series needs no trace, so zeta --coefficients works past the float range
        np.testing.assert_array_equal(ts.coefficients, [-2.0 ** -100, 1.5j * 2.0 ** -50])
        assert ts.evaluate(0.5) == -2.0 ** -101 + 1.5j * 2.0 ** -52
        with pytest.raises(DomainError, match="N=1100 leave the float range"):
            ts.values

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(complex, _SCALED, _SCALED), min_size=1, max_size=4),
           st.integers(1, 5000))
    def test_sequence_stores_c_and_forms_traces_on_request(self, c, n):
        ts = ZetaLogSeries(n, c)
        assert ts.c_values.tobytes() == np.array(c, dtype=np.complex128).tobytes()
        r = np.arange(1, len(c) + 1, dtype=np.float64)
        assert ts.coefficients.tobytes() == (-np.array(c, dtype=np.complex128) / r).tobytes()
        for stored in (ts.c_values, ts.coefficients):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0
        try:
            expected = [complex(math.ldexp(z.real, n), math.ldexp(z.imag, n)) for z in c]
        except OverflowError:
            with pytest.raises(DomainError, match=f"N={n} leave the float range"):
                ts.values
        else:
            np.testing.assert_array_equal(ts.values, expected)


_UNIT = st.floats(-1.0, 1.0)
_REAL_BLOCK = st.lists(_UNIT, min_size=4, max_size=4)
_COMPLEX_BLOCK = st.lists(st.builds(complex, _UNIT, _UNIT), min_size=4, max_size=4)


def _no_cancellation_traces(local, n, r_max):
    """C_r of |Q|: every history weight taken by magnitude, an upper bound on |C_r|."""
    return _brute_traces(np.abs(local.entries), (n,), r_max)[0].real


# the engines round a subnormal C_r differently (transfer halves after every
# step, brute scales once by 2^-N), so their bound has a floor of 256
# subnormal steps; that is below 1e-12 * tiny, so wherever the scale is a
# normal float it widens the relative bound by less than 6%
_SUBNORMAL_FLOOR = 256 * np.finfo(np.float64).smallest_subnormal


class TestTraceEngines:
    # draws whose C_r is subnormal, where the engines differ by 1-10 subnormal steps
    @example(([0.0, 1.0, 0.610132465262121, 1.401298464324817e-45],
              [0.0, 1.0, 1.401298464324817e-45, 0.0]), 5, 3)
    @example(([0.0, 0.0, 0.0, 0.5], [1.2976696819569642e-78, 0.0, 0.0, 0.0]), 9, 1)
    @example(([0j, 0j, 0j, 0.0030104465908695754j],
              [0j, 1.1754943508222875e-38j, 1.1754943508222875e-38j, 1.1754943508222875e-38j]),
             7, 2)
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.tuples(_REAL_BLOCK, _REAL_BLOCK), st.tuples(_COMPLEX_BLOCK, _COMPLEX_BLOCK)),
           st.integers(1, 9), st.integers(1, 10))
    def test_engines_agree(self, blocks, n, r_max):
        local = LocalOperator.from_blocks(*(np.reshape(b, (2, 2)) for b in blocks))
        brute = _brute_traces(local.entries, (n,), r_max)[0]
        transferred = transfer.traces(local.entries, (n,), r_max)[0]
        scale = _no_cancellation_traces(local, n, r_max)
        assert np.all(np.abs(transferred - brute) <= 1e-12 * scale + _SUBNORMAL_FLOOR)

    # dyadic models: dk in quarters, and gdk at angles whose cos^2 are 1/2, 1/4 and 3/4
    @pytest.mark.parametrize("spec", [
        ModelSpec.dk(0.5, 0.75),
        ModelSpec.generalized_dk(math.pi / 4, math.pi / 3, math.pi / 6, math.pi / 3),
    ], ids=["dk", "gdk"])
    @pytest.mark.parametrize("sizes, r_max, engines, rel", [
        (range(2, 10), 6, ("brute", "transfer"), 1e-13),
        ((64, 256, 512, 1000), 3, ("transfer",), 1e-12),
        # log10 C_1..C_3 of dk are -646.582, -932.221 and -1069.533 here
        pytest.param((4096,), 3, ("transfer",), 1e-12, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="C_r below the float range reads 0 (ROADMAP item 1)")),
    ], ids=["small", "large", "underflow"])
    def test_engines_match_the_exact_oracle(self, spec, sizes, r_max, engines, rel):
        entries = build_local(spec).entries
        exact_q = [[Fraction(round(4 * x), 4) for x in row] for row in entries]
        np.testing.assert_allclose(np.array(exact_q, dtype=float), entries, rtol=0, atol=1e-15)
        for n in sizes:
            exact = exact_transfer_c(exact_q, n, r_max)
            for engine in engines:
                c_values = (_brute_traces if engine == "brute"
                            else transfer.traces)(entries, (n,), r_max)[0]
                # in Fractions: a float difference of C_r near 1e-646 is 0
                for c, want in zip(c_values, exact):
                    assert c.imag == 0 and abs(Fraction(c.real) - want) <= Fraction(rel) * want, (
                        engine, n)

    # the brute engine sweeps two 2^(N-1) parity blocks, the last site held in
    # the kernel.  Brute vs transfer, best of 9, in-process, qca2(0.3, 0.7),
    # 2 vCPUs, ranges over 2-4 runs: (8, 12) 1.3-1.5 vs 2.5-2.7 ms, (8, 13)
    # 1.2-1.7 vs 2.5-4.0, (9, 14) 8.7-10.2 vs 7.2-7.9, (9, 15) 8.6-10.6 vs
    # 11-16, (10, 16) 37-48 vs 25-37, (10, 17) 35-45 vs 52-72, (11, 17) 311
    # vs 71, (11, 18) 170-188 vs 134-144, (12, 19) 0.87 vs 0.35 s, (12, 20)
    # 0.92 vs 0.76 s, (13, 20) 4.6 vs 0.82 s and (13, 21) 4.6 vs 2.0 s.  Each
    # pick timed here is the engine measured faster but (8, 12), where brute
    # led by 0.1 ms before the held kernel too, and (12, 20) and (13, 21),
    # which the memory guard hands to brute
    @pytest.mark.parametrize("n, r_max, transfer", [
        (10, 20, False), (10, 17, False), *((10, r, True) for r in range(1, 17)),
        (8, 12, True), (8, 13, False), (9, 14, True), (9, 15, False), (11, 17, True),
        (11, 18, True), (12, 19, True), (12, 20, False),
        (13, 2, True), (13, 20, True), (13, 21, False), (4, 12, False), (4, 2, True),
        (1, 1, False), (40, 60, False), (512, 2, True),
    ])
    def test_cost_model_picks(self, n, r_max, transfer):
        assert _transfer_cheaper(n, r_max) is transfer

    def test_trace_powers_runs_the_picked_engine(self, monkeypatch):
        calls = []
        monkeypatch.setattr(operators, "_brute_traces", lambda q, n_values, r_max:
                            calls.append("_brute_traces") or np.ones((len(n_values), r_max)))
        monkeypatch.setattr(transfer, "traces", lambda q, n_values, r_max:
                            calls.append("_transfer_traces") or np.ones((len(n_values), r_max)))
        op = _op(ModelSpec.dk(0.4, 0.2), 4)
        op.trace_powers(12)
        op.trace_powers(2)
        assert calls == ["_brute_traces", "_transfer_traces"]

    def test_cost_model_is_monotone_in_n(self):
        # so a grid whose largest N runs brute is cheaper on brute at every N
        for r_max in range(1, 65):
            picks = [_transfer_cheaper(n, r_max) for n in range(1, 600)]
            assert picks == sorted(picks), r_max

    @staticmethod
    def _engine_calls(monkeypatch, sizes, r_max):
        """The (engine, grid) of each engine call ``trace_series`` makes over ``sizes``."""
        calls = []
        brute, traces = operators._brute_traces, transfer.traces
        monkeypatch.setattr(operators, "_brute_traces", lambda q, n_values, r_max:
                            calls.append(("brute", list(n_values))) or brute(q, n_values, r_max))
        monkeypatch.setattr(transfer, "traces", lambda q, n_values, r_max:
                            calls.append(("transfer", list(n_values))) or traces(q, n_values, r_max))
        series = trace_series(build_local(ModelSpec.dk(0.4, 0.2)), sizes, r_max)
        assert [n for n, _ in series] == list(sizes)
        return calls

    def test_a_mixed_range_makes_one_transfer_pass(self, monkeypatch):
        # at R = 12 the cost model crosses from brute to transfer at N = 8, and the
        # largest N picks the engine: the pass to N = 20 reads N = 2..7 on its way
        calls = self._engine_calls(monkeypatch, range(2, 21), 12)
        assert calls == [("transfer", list(range(2, 21)))]

    def test_a_range_below_the_crossover_makes_one_brute_call(self, monkeypatch):
        calls = self._engine_calls(monkeypatch, range(2, 8), 12)
        assert calls == [("brute", list(range(2, 8)))]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.tuples(_REAL_BLOCK, _REAL_BLOCK), st.tuples(_COMPLEX_BLOCK, _COMPLEX_BLOCK)),
           st.integers(1, 12), st.data())
    def test_one_pass_equals_per_n_traces_bitwise(self, blocks, r_max, data):
        crossover = self._crossover(r_max)
        below = data.draw(st.sets(st.integers(1, crossover - 1), min_size=1), label="below")
        above = data.draw(st.sets(st.integers(crossover, crossover + 40), max_size=6),
                          label="above")
        self._check_one_pass(blocks, r_max, sorted(below | above))

    def test_one_pass_on_a_cancelling_sum(self):
        # at N = 6 the engines differ by 2.0e-8 in C_12 = 1.09e4 (1.9e-12 of it),
        # but by 6.8e-18 of the C_12 of |Q|: the sum cancels, neither engine errs
        block = [1 + 0.25j, -0.5, -0.25, 1 + 1j]
        self._check_one_pass((block, block), 12, [1, 2, 3, 4, 5, 6, 8])

    @staticmethod
    def _crossover(r_max):
        """The smallest N at which the cost model picks transfer for ``r_max``."""
        return next(n for n in range(1, 64) if _transfer_cheaper(n, r_max))

    def _check_one_pass(self, blocks, r_max, sizes):
        """Each row of a grid is bitwise the one-N row of the grid's engine, and agrees with
        ``trace_powers`` at that N as the two engines agree in ``test_engines_agree``."""
        local = LocalOperator.from_blocks(*(np.reshape(b, (2, 2)) for b in blocks))
        crossover = self._crossover(r_max)
        engine = transfer.traces if sizes[-1] >= crossover else _brute_traces
        pass_ = list(trace_series(local, sizes, r_max))
        assert [n for n, _ in pass_] == sizes
        for n, series in pass_:
            with np.errstate(over="ignore", invalid="ignore"):
                alone = engine(local.entries, (n,), r_max)[0]
            assert series.c_values.tobytes() == alone.tobytes(), n
            one = GlobalOperator(local, n).trace_powers(r_max).c_values
            if n >= crossover:  # the one-N call picks the grid's engine
                assert one.tobytes() == alone.tobytes(), n
            else:  # it picks brute, where the grid's row may come from transfer
                scale = _no_cancellation_traces(local, n, r_max)
                assert np.all(np.abs(series.c_values - one) <= 1e-12 * scale + _SUBNORMAL_FLOOR), n

    @pytest.mark.parametrize("sizes", [(7, 4), (4, 4)], ids=["decreasing", "repeated"])
    def test_grids_that_do_not_increase_are_refused(self, sizes):
        with pytest.raises(DomainError, match="must increase strictly"):
            next(trace_series(RULE90, sizes, 2))

    def test_an_empty_grid_yields_nothing(self):
        assert list(trace_series(RULE90, (), 2)) == []

    def test_no_errstate_reaches_the_loop_body(self):
        # N = 2, 3 and 64 are one transfer pass; numpy warns in the body each time
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in trace_series(RULE90, (2, 3, 64), 2):
                np.float64(1e300) * np.float64(1e300)
        assert [issubclass(w.category, RuntimeWarning) for w in caught] == [True] * 3

    # the recurrence and the root formula share no code with either engine;
    # the double-root angle is left out, where the root formula itself loses digits
    @pytest.mark.parametrize("xi", (0.3, 1.0, 2.0, math.pi / 6, 4.0, 5.5))
    @pytest.mark.parametrize("n", (40, 64, 512))
    def test_reflection_family_past_the_brute_wall(self, n, xi):
        traces = _op(ModelSpec.qca2(0.0, xi), n).trace_powers(2).values
        assert traces[0] == pytest.approx(qca2_c1_closed_form(n, xi), rel=1e-12, abs=0)
        assert traces[1] == pytest.approx(qca2_x2_recurrence(n, xi), rel=1e-12, abs=0)

    def test_tensor_models_past_the_brute_wall(self):
        # left = s * unitary and a diagonal unitary right factor: every
        # eigenvalue has modulus s or 1, so s^(r(N-1)) bounds |C_r| without
        # cancellation and stays far inside the float range at N = 256
        n = 256
        rng = np.random.default_rng(11)
        for _ in range(6):
            unitary, _ = np.linalg.qr(rng.standard_normal((2, 2))
                                      + 1j * rng.standard_normal((2, 2)))
            s = rng.uniform(0.95, 1.05)
            factors = TensorFactors(s * unitary, np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 2))))
            c_values = GlobalOperator(factors.kron(), n).trace_powers(8).c_values
            for r in range(1, 9):
                error = abs(c_values[r - 1] - tensor_model_cr(factors, n, r))
                assert error <= 1e-12 * s ** (r * (n - 1))

    def test_trace_past_the_float_range_is_refused(self):
        # tr(Q^2) of qca2(0, 1) grows like 1.64^N: 1.16e221 at N = 1024, no float at
        # N = 2000, where C_2 is 3.2e-171
        traces = _op(ModelSpec.qca2(0.0, 1.0), 1024).trace_powers(2).values
        assert traces[1] == pytest.approx(qca2_x2_recurrence(1024, 1.0), rel=1e-12, abs=0)
        ts = _op(ModelSpec.qca2(0.0, 1.0), 2000).trace_powers(2)
        assert ts.c_values[1] == pytest.approx(qca2_c2_recurrence(2000, 1.0), rel=1e-12, abs=0)
        with pytest.raises(DomainError, match="N=2000 leave the float range"):
            ts.values

    @pytest.mark.parametrize("r_max", (1, 20), ids=("transfer", "brute"))
    def test_overflow_is_refused_quietly(self, r_max):
        op = GlobalOperator(1e200 * np.eye(4), 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="N=3 leave the float range"):
                op.trace_powers(r_max)
        assert caught == []


class TestEigenvalues:
    def test_identity_local_all_ones(self):
        eig = GlobalOperator(np.eye(4), 4).eigenvalues()
        np.testing.assert_allclose(eig, np.ones(16), rtol=0, atol=1e-12)

    def test_quarter_turn_spectrum_is_signs(self):
        eig = _op(ModelSpec.qca2(0, math.pi / 2), 5).eigenvalues()
        assert np.all(np.minimum(np.abs(eig - 1), np.abs(eig + 1)) < 1e-12)

    @pytest.mark.parametrize("spec", (ModelSpec.qca1(0.4, 1.1), ModelSpec.qca2(2.2, 0.3)))
    def test_unitary_spectrum_on_circle(self, spec):
        eig = _op(spec, 5).eigenvalues()
        np.testing.assert_allclose(np.abs(eig), np.ones(32), rtol=0, atol=1e-9)

    def test_requires_dense(self):
        with pytest.raises(SizeExceeded):
            _op(ModelSpec.dk(0.5, 0.5), DEFAULTS.dense_cap + 1).eigenvalues()

    def test_solver_failure_is_a_convergence_failure(self, monkeypatch):
        def fail(matrix):
            assert np.isfinite(matrix).all()
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            _op(ModelSpec.dk(0.5, 0.5), 3).eigenvalues()

    @pytest.mark.parametrize("spec", MODELS + (ModelSpec.generalized_dk(0, 0, 0, 0),),
                             ids=[m.model for m in MODELS] + ["rule90"])
    @pytest.mark.parametrize("n", (1, 4, 7))
    def test_real_operator_spectrum_is_complex128_with_exact_conjugate_pairs(self, spec, n):
        op = _op(spec, n)
        assert op._half(0).dtype == op._half(1).dtype == np.float64
        eig = op.eigenvalues()
        assert eig.dtype == np.complex128
        # the conjugates, sorted the same way, are the spectrum itself, bit
        # for bit, so each pair is listed as (-im, +im)
        np.testing.assert_array_equal(np.sort_complex(eig.conj()), eig)


class TestLogDetFactor:
    def test_identity_local(self):
        op = GlobalOperator(np.eye(4), 3)
        for u in (0.2, -0.5, 0.3 + 0.4j):
            assert abs(op.log_det_factor(u) - np.log(1 - complex(u))) < 1e-12

    def test_zero_point(self):
        assert _op(ModelSpec.qca1(0.5, 0.5), 3).log_det_factor(0.0) == 0

    def test_matches_binomial_closed_form(self):
        op = _op(ModelSpec.qca1(0.5, 0.5), 3)
        got = op.log_det_factor(0.3)
        assert abs(got - binomial_zeta_qca1(3, 0.5, 0.3)) < 1e-12

    def test_singular_at_eigenvalue(self):
        with pytest.raises(SingularAtU):
            GlobalOperator(np.eye(4), 3).log_det_factor(1.0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_quarter_turn_singular_at_each_unit_eigenvalue(self, n):
        local = build_local(ModelSpec.qca2(0, math.pi / 2))
        op = GlobalOperator(local, n)
        # the spectrum is signs: {1} at N = 1, {-1, 1} beyond
        signs = set(np.rint(np.linalg.eigvals(kron_global(local.entries, n)).real))
        assert signs == ({1.0} if n == 1 else {-1.0, 1.0})
        for sign in signs:
            with pytest.raises(SingularAtU):
                op.log_det_factor(sign)

    def test_mean_past_the_float_range_is_refused_without_a_warning(self):
        # Q = 4 I at N = 3, so each factor 1 - 4u overflows
        op = GlobalOperator(2.0 * np.eye(4), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="mean log factor .* must be finite"):
                op.log_det_factor(1e308)

    def test_each_spectral_fact_is_solved_once(self, monkeypatch):
        calls = spectral_calls(monkeypatch)
        op = _op(ModelSpec.qca2(0.3, 0.7), 6)

        def facts():
            # one point on each side of the cosine radius
            return [op.spectral_radius(), op.log_det_factor(0.3), op.log_det_factor(0.95)]

        first = facts()
        once = {"classify": 1, "eigvalsh": 2, "eigh": 2}
        assert calls == once
        assert facts() == first and calls == once

    @pytest.mark.parametrize("n", (4, 8))
    @pytest.mark.parametrize("u", (0.99, -0.999, 0.95j))
    def test_real_orthogonal_near_the_unit_circle_keeps_the_eigenvalue_path(self, n, u):
        # a cosine within rounding of +-1 would err by ~eps / (1 - |u|)^2 here
        local = build_local(ModelSpec.qca2(0, math.pi / 2))
        op = GlobalOperator(local, n)
        got = op.log_det_factor(u)
        assert "_cosines" not in vars(op)
        signs = np.rint(np.linalg.eigvals(kron_global(local.entries, n)).real)
        plus = int(np.sum(signs > 0))
        exact = (plus * np.log(1 - u) + (len(signs) - plus) * np.log(1 + u)) / len(signs)
        assert abs(got - exact) < 1e-13

    @pytest.mark.parametrize("n, u", ((1, 0.9), (3, -0.6 + 0.6j), (6, 0.45 - 0.75j)))
    @pytest.mark.parametrize("spec", _REAL_ORTHOGONAL, ids=_REAL_ORTHOGONAL_IDS)
    def test_real_orthogonal_cosines_match_oracles(self, spec, n, u):
        local = build_local(spec)
        op = GlobalOperator(local, n)
        got = op.log_det_factor(u)
        assert "_spectrum" not in vars(op) and "_cosines" in vars(op)
        dense = kron_global(local.entries, n)
        assert abs(got.real - _mp_log_abs_det(dense, u)) < 1e-13
        assert abs(got.imag - _mean_arg(dense, u)) < 1e-13

    def test_cosine_solver_failure_is_a_convergence_failure(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            _op(ModelSpec.qca2(0.3, 0.7), 3).log_det_factor(0.3)

    @pytest.mark.parametrize("n", (1, 3, 5))
    def test_complex_unitary_keeps_the_eigenvalue_path(self, n):
        local = build_local(ModelSpec.custom(_COMPLEX_UNITARY))
        assert local.entries.dtype == np.complex128 and classify(local, _UNITARY_TOL).is_qca
        op = GlobalOperator(local, n)
        u = 0.7 * np.exp(0.4j)
        got = op.log_det_factor(u)
        assert "_spectrum" in vars(op) and "_cosines" not in vars(op)
        dense = kron_global(local.entries, n)
        assert abs(got.real - _mp_log_abs_det(dense, u)) < 1e-13
        assert abs(got.imag - _mean_arg(dense, u)) < 1e-13


class TestSpectralRadius:
    @pytest.mark.parametrize("spec", (ModelSpec.dk(0.6, 0.8),
                                      ModelSpec.generalized_dk(0.2, 1.1, 2.5, 0.9),
                                      *_REAL_ORTHOGONAL,
                                      ModelSpec.custom(_COMPLEX_UNITARY)))
    def test_stochastic_or_unitary_is_one_without_a_spectrum(self, spec, monkeypatch):
        def unsolved(op):
            raise AssertionError("the spectrum was solved")

        monkeypatch.setattr(GlobalOperator, "eigenvalues", unsolved)
        assert _op(spec, 4).spectral_radius() == 1.0


class TestPowerEqualsIdentity:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_quarter_turn_period_two(self, n):
        assert _op(ModelSpec.qca2(0, math.pi / 2), n).power_equals_identity(2, 1e-10)

    # from N=10 on each 2^(N-1) parity half spans more than one 256-column block
    @pytest.mark.parametrize("n, period", ((3, 4), (4, 4), (9, 16), (10, 16)))
    def test_rule90_period(self, n, period):
        op = GlobalOperator(RULE90, n)
        assert op.power_equals_identity(period, 1e-10)
        assert not op.power_equals_identity(period // 2, 1e-10)

    # N = 10 has two 256-column blocks per parity
    @pytest.mark.parametrize("n", (9, 10))
    @pytest.mark.parametrize("local, r, expected", [
        (build_local(ModelSpec.qca2(0, math.pi / 2)), 2, True),
        (build_local(ModelSpec.qca2(0, math.pi / 2)), 1, False),
        (RULE90, 16, True),
        (RULE90, 8, False),
    ], ids=["quarter-turn-r2", "quarter-turn-r1", "rule90-period", "rule90-half-period"])
    def test_matches_the_dense_reference(self, local, r, expected, n):
        op = GlobalOperator(local, n)
        eye = np.eye(op.dim >> 1)
        dense = all(np.allclose(np.linalg.matrix_power(op._half(b), r), eye, atol=1e-10, rtol=0)
                    for b in (0, 1))
        assert op.power_equals_identity(r, 1e-10) is dense is expected

    def test_rejects_nonpositive_power(self):
        with pytest.raises(DomainError):
            GlobalOperator(RULE90, 2).power_equals_identity(0, 1e-10)

    @pytest.mark.parametrize("tol", (math.nan, -1e-10))
    def test_rejects_nan_or_negative_tolerance(self, tol):
        with pytest.raises(DomainError, match="tol must be a number >= 0"):
            _op(ModelSpec.dk(0.6, 0.8), 4).power_equals_identity(1, tol)

    def test_nan_entry_fails(self):
        # the products 1e400 overflow at N = 4, and the zeros of the local
        # operator times inf leave NaN in every block
        op = GlobalOperator(1e200 * np.eye(4), 4)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not op.power_equals_identity(1, 1e300)


@pytest.mark.parametrize("call", [
    lambda: GlobalOperator(RULE90, 2.5),
    lambda: GlobalOperator(RULE90, 2).trace_powers(1.5),
    lambda: GlobalOperator(RULE90, 2).power_equals_identity(1.5, 1e-10),
    lambda: GlobalOperator(RULE90, "3"),
    lambda: GlobalOperator(RULE90, True),
    lambda: GlobalOperator(RULE90, 2).trace_powers(np.True_),
], ids=["n_sites", "trace_powers", "power_equals_identity", "string", "bool", "numpy-bool"])
def test_sizes_and_powers_must_be_integers(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_numpy_integer_sizes_are_accepted():
    op = GlobalOperator(RULE90, np.int64(3))
    assert type(op.n_sites) is int and len(op.trace_powers(np.int32(2)).c_values) == 2


def _unitary_block(alpha, beta, gamma, theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.exp(1j * alpha) * np.array([[c * np.exp(1j * beta), -s * np.exp(-1j * gamma)],
                                          [s * np.exp(1j * gamma), c * np.exp(-1j * beta)]])


def _columns_summing_to_one(a):
    return [[a[0], a[1]], [1 - a[0], 1 - a[1]]]


_UNIT = st.floats(0.0, 1.0)
_PHASE = st.floats(0.0, 2.0 * math.pi)
_STOCHASTIC = st.tuples(_UNIT, _UNIT).map(_columns_summing_to_one)
# column sums 1, but entries may leave [0, 1]: stochastic only when they do not
_AFFINE = st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)).map(_columns_summing_to_one)
_UNITARY = st.tuples(_PHASE, _PHASE, _PHASE, _PHASE).map(lambda a: _unitary_block(*a))
# unitary up to a scale near 1: unitary only at scale 1
_SCALED_UNITARY = st.tuples(st.floats(0.9, 1.1), _UNITARY).map(lambda a: a[0] * a[1])
_GENERIC = st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
                    min_size=4, max_size=4).map(lambda e: np.reshape(e, (2, 2)))
_ANY = _STOCHASTIC | _UNITARY | _GENERIC
# (the class both blocks were drawn from, or None, block at right site 0, at right site 1)
BLOCK_PAIRS = st.one_of(st.tuples(st.just("pca"), _STOCHASTIC, _STOCHASTIC),
                        st.tuples(st.just("qca"), _UNITARY, _UNITARY),
                        st.tuples(st.none(), _AFFINE, _AFFINE),
                        st.tuples(st.none(), _SCALED_UNITARY, _SCALED_UNITARY),
                        st.tuples(st.none(), _ANY, _ANY))


@settings(max_examples=100, deadline=None)
@given(BLOCK_PAIRS, st.integers(1, 7))
def test_sweep_and_classification_agree_with_the_kron_oracle(blocks, n):
    drawn, right0, right1 = blocks
    local = LocalOperator.from_blocks(right0, right1)
    op = GlobalOperator(local, n)
    q = kron_global(local.entries, n)
    atol = 1e-12 * max(1.0, np.abs(q).max())
    np.testing.assert_allclose(parity_dense(op), q, rtol=0, atol=atol)
    vec = random_vec(n, n)
    np.testing.assert_allclose(op.apply(vec), q @ vec, rtol=0, atol=atol * np.abs(vec).sum())
    cls = classify(local)
    assert drawn is None or getattr(cls, f"is_{drawn}")
    tol = 1e-8 * n  # classify allows 1e-9 per local entry; Q multiplies N-1 of them
    if cls.is_pca:
        assert np.abs(q.imag).max() <= tol and q.real.min() >= -tol
        np.testing.assert_allclose(q.real.sum(axis=0), 1.0, rtol=0, atol=tol)
    if cls.is_qca:
        np.testing.assert_allclose(q.conj().T @ q, np.eye(2 ** n), rtol=0, atol=tol)


_REAL_BLOCK = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(
    lambda e: np.reshape(e, (2, 2)))


@settings(max_examples=100, deadline=None)
@given(_REAL_BLOCK, _REAL_BLOCK, st.integers(1, 7))
def test_float64_sweep_matches_the_complex128_kron_oracle(right0, right1, n):
    local = LocalOperator.from_blocks(right0, right1)
    assert local.entries.dtype == np.float64
    op = GlobalOperator(local, n)
    q = kron_global(local.entries.astype(np.complex128), n)
    dense = parity_dense(op)
    assert dense.dtype == np.float64
    np.testing.assert_allclose(dense, q, rtol=0, atol=1e-13)
    vec = np.random.default_rng(n).standard_normal(2 ** n)
    out = op.apply(vec)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, q @ vec, rtol=0, atol=1e-13 * np.abs(vec).sum())


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(_REAL_BLOCK, _REAL_BLOCK), st.tuples(_GENERIC, _GENERIC)),
       st.integers(1, 6))
def test_parity_blocks_assemble_the_product_oracle(blocks, n):
    local = LocalOperator.from_blocks(*blocks)
    op = GlobalOperator(local, n)
    q = product_global(local.entries, n)
    for b in (0, 1):
        np.testing.assert_allclose(op._half(b), q[b::2, b::2], rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(q).max()))
    # the last site never changes: rows and columns of different parity never meet
    index = np.arange(2 ** n)
    assert np.all(q[(index[:, None] ^ index[None, :]) & 1 == 1] == 0)


@settings(max_examples=40, deadline=None)
@given(_UNITARY, _UNITARY, st.integers(1, 6))
def test_parity_block_spectrum_matches_the_kron_oracle(right0, right1, n):
    local = LocalOperator.from_blocks(right0, right1)
    eig = GlobalOperator(local, n).eigenvalues()
    expected = np.linalg.eigvals(kron_global(local.entries, n))
    # a unitary spectrum is well conditioned, so the closest pairing is within rounding
    distance = np.abs(eig[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert distance[rows, cols].max() <= 1e-10


def test_spectrum_never_allocates_the_dense_form():
    # the 2^10-square float64 form alone is 8 MiB, one parity block 2 MiB;
    # qca2 takes the unitary path, dk the general one, and the complex
    # tensor the unitary path in complex128, whose parity block is 4 MiB
    complex_unitary = LocalOperator(np.kron([[0.6, -0.8j], [-0.8j, 0.6]],
                                            np.diag([0.6 + 0.8j, -0.8 + 0.6j])))
    for local, unitary, bound in ((build_local(ModelSpec.qca2(0.3, 0.7)), True, 9 * 2 ** 20),
                                  (build_local(ModelSpec.dk(0.6, 0.8)), False, 9 * 2 ** 20),
                                  (complex_unitary, True, 3 * 4 * 2 ** 20)):
        op = GlobalOperator(local, 10)
        assert classify(op.local, _UNITARY_TOL).is_qca == unitary
        tracemalloc.start()
        try:
            op.eigenvalues()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, local.entries


def test_block_power_step_allocates_no_second_image():
    # at N = 12 an image is a (2^11, 256) float64 array of 4 MiB, above the
    # sweep's buffer, so the next power is swept into it
    powers = _op(ModelSpec.dk(0.6, 0.8), 12)._block_powers(2)
    _, _, image = next(powers)
    assert image.shape == (2 ** 11, 256)
    tracemalloc.start()
    try:
        _, r, second = next(powers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == 2 and np.shares_memory(second, image)
    assert peak <= kernels._SLAB_BYTES + (64 << 10)


def test_period_check_allocates_no_block_sized_temporary():
    # at N = 12 an image is a (2^11, 256) float64 array of 4 MiB; the check
    # subtracts the identity in place and reduces 64 rows at a time, and the
    # next block's identity columns are written over the last power
    op = _op(ModelSpec.qca2(0, math.pi / 2), 12)
    tracemalloc.start()
    try:
        assert op.power_equals_identity(2, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (4 << 20) + kernels._SLAB_BYTES + (256 << 10)


# numpy refuses the (2^49, 256) image at N = 50 with MemoryError (2^60 bytes) and the
# (2^63, 256) one at N = 64 with ValueError; both before any power is drawn
@pytest.mark.parametrize("n, call", [
    (50, lambda op: op.power_equals_identity(2, 1e-10)),
    (64, lambda op: op.power_equals_identity(2, 1e-10)),
    (64, lambda op: op.trace_powers(80)),  # R + 1 > N + 8: brute
], ids=["memory", "dimension", "brute-traces"])
def test_a_block_image_numpy_cannot_allocate_is_refused(n, call):
    with pytest.raises(SizeExceeded, match=rf"N={n} needs a block image of shape \(\d+, 256\), "
                                           r"\d+ bytes"):
        call(_op(ModelSpec.qca2(0.3, 0.7), n))


def _largest_matched_distance(eig, expected):
    """Largest |eig - expected| over the pairing that minimizes the total distance."""
    distance = np.abs(eig[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(distance)
    return distance[rows, cols].max()


# rotations and reflections; the exact angles give clusters of equal cosines
# up to the whole parity block (Rule 90, the identity, the quarter turn)
_ORTHOGONAL = st.tuples(st.sampled_from((rotation, reflection)),
                        st.sampled_from((0.0, math.pi / 2, math.pi)) | _PHASE).map(
    lambda a: a[0](a[1]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(_ORTHOGONAL, _ORTHOGONAL), st.tuples(_UNITARY, _UNITARY)),
       st.integers(1, 8))
def test_unitary_spectrum_matches_the_oracles(blocks, n):
    local = LocalOperator.from_blocks(*blocks)
    assert classify(local, _UNITARY_TOL).is_qca
    op = GlobalOperator(local, n)
    eig = op.eigenvalues()
    assert _largest_matched_distance(eig, np.linalg.eigvals(kron_global(local.entries, n))) <= 1e-12
    assert np.abs(np.abs(eig) - 1.0).max() <= 1e-13
    power_sums = [np.sum(eig ** r) for r in (1, 2, 3)]
    np.testing.assert_allclose(power_sums, _brute_traces(local.entries, (n,), 3)[0] * 2.0 ** n,
                               rtol=0, atol=1e-12 * 2 ** n)
    if local.entries.dtype == np.float64:
        # each conjugate pair is exact: the conjugates are the spectrum, bit for bit
        np.testing.assert_array_equal(np.sort_complex(eig.conj()), eig)


@pytest.mark.parametrize("eigh_fails", (False, True), ids=["lapack", "forced"])
def test_a_block_eigh_cannot_solve_goes_to_qr(monkeypatch, eigh_fails):
    # LAPACK's divide-and-conquer eigh (scipy-openblas 0.3.31) does not converge on
    # parity block 1 of this real orthogonal Q at N = 7; a forced failure sends both blocks
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    if eigh_fails:
        monkeypatch.setattr(np.linalg, "eigh", fail)
    local = LocalOperator.from_blocks(reflection(2.52752890862069), rotation(1e-05))
    assert classify(local, _UNITARY_TOL).is_qca
    eig = GlobalOperator(local, 7).eigenvalues()
    assert len(eig) == 128
    assert np.abs(np.abs(eig) - 1.0).max() <= 1e-12
    assert _largest_matched_distance(eig, np.linalg.eigvals(kron_global(local.entries, 7))) <= 1e-12


# a Gram matrix off the identity by 4 ulps passes the gate, by 15 it does not
@pytest.mark.parametrize("scale, unitary", ((1 + _UNITARY_TOL / 4, True),
                                            (1 + _UNITARY_TOL, False)),
                         ids=["inside", "past"])
def test_an_operator_past_the_unitary_gate_takes_the_general_path(monkeypatch, scale, unitary):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    local = LocalOperator.from_blocks(scale * rotation(0.3), reflection(0.7))
    assert classify(local, _UNITARY_TOL).is_qca == unitary
    eig = GlobalOperator(local, 6).eigenvalues()
    assert calls == ([(32, 32)] * 2 if unitary else [])
    assert _largest_matched_distance(eig, np.linalg.eigvals(kron_global(local.entries, 6))) <= 1e-12
