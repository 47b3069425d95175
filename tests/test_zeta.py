"""Log series, special functions and every closed-form evaluator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipszeta import (
    DomainError,
    GlobalOperator,
    ModelSpec,
    SingularAtU,
    TensorFactors,
    arctanh,
    binomial_zeta_qca1,
    build_local,
    chebyshev_t,
    clt_limit_zeta,
    qca2_c1_closed_form,
    qca2_x2_recurrence,
    rotation,
    rule90_trace_general_r,
    run_formula,
    tensor_model_cr,
    zeta_closed_form_qca2,
)

SQRT2 = math.sqrt(2.0)


def _qca2_op(xi, n, **kw):
    return GlobalOperator(build_local(ModelSpec.qca2(0.0, xi)), n, **kw)


def _series(op, r_max):
    return op.trace_powers(r_max)


class TestChebyshev:
    def test_first_kind_values(self):
        assert chebyshev_t(3, 0.5) == pytest.approx(-1.0, abs=1e-15)
        for n in range(21):
            assert chebyshev_t(n, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_trigonometric_identities(self, n):
        for theta in np.linspace(0.1, math.pi - 0.1, 7):
            x = math.cos(theta)
            assert chebyshev_t(n, x) == pytest.approx(math.cos(n * theta), abs=1e-12)

    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            chebyshev_t(-1, 0.5)


class TestZetaLogSeries:
    def test_trivial_model_coefficients(self):
        # log of the inverse zeta value is log(1-u), so coefficients are -1/r
        series = _series(GlobalOperator(np.eye(4), 5), 12)
        expected = np.array([-1.0 / r for r in range(1, 13)])
        np.testing.assert_allclose(series.coefficients, expected, rtol=0, atol=1e-14)

    def test_single_site_any_model(self):
        series = _series(GlobalOperator(build_local(ModelSpec.qca2(1.0, 2.0)), 1), 8)
        expected = np.array([-1.0 / r for r in range(1, 9)])
        np.testing.assert_allclose(series.coefficients, expected, rtol=0, atol=1e-14)

    def test_rotation_model_coefficients(self):
        xi = math.pi / 3
        series = _series(GlobalOperator(build_local(ModelSpec.qca1(xi, xi)), 4), 10)
        expected = [-chebyshev_t(r, math.cos(xi)) ** 3 / r for r in range(1, 11)]
        np.testing.assert_allclose(series.coefficients, expected, rtol=0, atol=1e-12)

    def test_evaluate_is_truncated_log(self):
        series = _series(GlobalOperator(np.eye(4), 3), 50)
        u = 0.4
        assert series.evaluate(u) == pytest.approx(math.log(1 - u), abs=1e-13)

    def test_evaluate_past_the_float_range_is_refused_without_a_warning(self):
        series = _series(GlobalOperator(build_local(ModelSpec.qca2(0.3, 0.7)), 3), 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="the series at N=3 .* must be finite"):
                series.evaluate(1e20)

    @pytest.mark.parametrize("spec", (
        ModelSpec.dk(0.25, 0.85),
        ModelSpec.generalized_dk(0.4, 1.3, 2.2, 5.1),
        ModelSpec.qca1(0.8, 2.4),
        ModelSpec.qca2(1.9, 0.6),
    ), ids=lambda s: s.model)
    @pytest.mark.parametrize("n", (2, 4))
    def test_series_consistent_with_spectrum(self, spec, n):
        # truncated series vs mean log over the spectrum, inside the disk
        op = GlobalOperator(build_local(spec), n)
        radius = max(abs(l) for l in op.eigenvalues())
        series = _series(op, 40)
        for direction in (1.0, 1.0j, (1.0 + 1.0j) / SQRT2):
            u = 0.5 / radius * direction
            bound = 10.0 * abs(u * radius) ** 41
            assert abs(series.evaluate(u) - op.log_det_factor(u)) <= bound


class TestTensorModelCr:
    def test_identity_factors(self):
        factors = TensorFactors(np.eye(2), np.eye(2))
        for n in range(2, 7):
            for r in (1, 3, 8):
                assert tensor_model_cr(factors, n, r) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_factor_gives_cosine_powers(self):
        xi = 0.9
        factors = TensorFactors(rotation(xi), np.eye(2))
        for n in range(2, 7):
            for r in range(1, 9):
                expected = math.cos(r * xi) ** (n - 1)
                assert tensor_model_cr(factors, n, r) == pytest.approx(expected, abs=1e-11)

    def test_matches_brute_traces(self):
        rng = np.random.default_rng(11)
        left = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        right = np.diag(rng.uniform(0.3, 1, 2) * np.exp(1j * rng.uniform(0, 2 * math.pi, 2)))
        factors = TensorFactors(left, right)
        op = GlobalOperator(factors.kron(), 5)
        brute = op.trace_powers(6).c_values
        for r in range(1, 7):
            closed = tensor_model_cr(factors, 5, r)
            assert abs(closed - brute[r - 1]) <= 1e-10 * max(1.0, abs(brute[r - 1]))

    def test_past_the_float_range_of_2_to_the_n(self):
        # 2^1024 is no float; C_r = cos(r xi)^(N-1) is
        factors = TensorFactors(rotation(0.3), np.eye(2))
        for r in (1, 2, 5):
            assert tensor_model_cr(factors, 1024, r) == pytest.approx(
                math.cos(0.3 * r) ** 1023, rel=1e-12, abs=0)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            tensor_model_cr(TensorFactors(np.eye(2), np.eye(2)), 1, 2)
        with pytest.raises(DomainError):
            tensor_model_cr(TensorFactors(np.eye(2), rotation(0.4)), 3, 2)


class TestBinomialZeta:
    def test_single_site_is_plain_log(self):
        for u in (0.2, -0.4, 0.3 + 0.2j):
            assert binomial_zeta_qca1(1, 1.3, u) == pytest.approx(np.log(1 - complex(u)))

    def test_zero_angle_collapses(self):
        for n in (1, 4, 9, 1024):
            got = binomial_zeta_qca1(n, 0.0, 0.35)
            assert got == pytest.approx(math.log(1 - 0.35), abs=1e-12)

    def test_matches_spectral_value(self):
        op = GlobalOperator(build_local(ModelSpec.qca1(0.9, 0.9)), 4)
        got = binomial_zeta_qca1(4, 0.9, 0.2)
        assert abs(got - op.log_det_factor(0.2)) < 1e-12

    def test_large_site_count_is_stable(self):
        value = binomial_zeta_qca1(1024, 0.025, 0.3)
        assert np.isfinite(value.real) and np.isfinite(value.imag)

    def test_singular_point(self):
        with pytest.raises(SingularAtU):
            binomial_zeta_qca1(3, 0.0, 1.0)


class TestGaussianLimit:
    def test_zero_angle(self):
        for u in (0.3, -0.2, 0.1 + 0.4j):
            assert clt_limit_zeta(0.0, u) == pytest.approx(np.log(1 - complex(u)), abs=1e-12)

    def test_zero_point(self):
        assert clt_limit_zeta(0.8, 0.0) == 0

    def test_node_doubling_stability(self):
        a = clt_limit_zeta(0.8, 0.3, 64)
        b = clt_limit_zeta(0.8, 0.3, 128)
        assert abs(a - b) < 1e-10

    def test_finite_size_formula_converges(self):
        limit = clt_limit_zeta(0.8, 0.3)
        gap = abs(binomial_zeta_qca1(256, 0.8 / 16.0, 0.3) - limit)
        assert gap < 1e-3

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            clt_limit_zeta(0.5, 1.0)
        with pytest.raises(DomainError):
            clt_limit_zeta(0.5, 0.3, quad_nodes=4)


XI_GRID = (0.0, math.pi / 6, math.pi / 4, 1.0, 2.0, math.pi / 2, 4.0,
           math.asin(3 - 2 * SQRT2), math.pi - math.asin(3 - 2 * SQRT2))


class TestFirstPowerTrace:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rule90_values(self, n):
        got = qca2_c1_closed_form(n, 0.0)
        assert got == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_quarter_turn_values(self, n):
        expected = (1 + 1j) ** (n - 1) + (1 - 1j) ** (n - 1)
        assert qca2_c1_closed_form(n, math.pi / 2) == pytest.approx(expected, abs=1e-10)

    def test_pi_sixth_chebyshev_form(self):
        got = qca2_c1_closed_form(4, math.pi / 6) / 2 ** 4
        expected = 0.5 ** 5 * (4 * chebyshev_t(3, 0.75) + _loop_u(2, 0.75))
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("xi", XI_GRID)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_recurrence_agrees_with_closed_form(self, xi, n):
        assert _loop_x1(n, xi) == pytest.approx(
            qca2_c1_closed_form(n, xi), abs=1e-10)

    def test_double_root_branch_matches_brute(self):
        xi = math.asin(3 - 2 * SQRT2)
        for n in range(1, 9):
            brute = _qca2_op(xi, n).trace_powers(1).values[0]
            assert qca2_c1_closed_form(n, xi) == pytest.approx(brute, abs=1e-10)

    def test_root_forms_near_coalescence_match_mpmath(self):
        # oracle: the order-2 recurrence run at 60 digits on the same angle;
        # grid: both coalescence angles offset by +-10^k, k = -16..-2, where
        # the distinct-root form divides by a small l2 - l1
        import mpmath

        worst = 0.0
        for base in (math.asin(3 - 2 * SQRT2), math.pi - math.asin(3 - 2 * SQRT2)):
            for xi in (base + sign * 10.0 ** k for k in range(-16, -1) for sign in (1, -1)):
                with mpmath.workdps(60):
                    s = mpmath.sin(mpmath.mpf(xi))
                    x = [mpmath.mpf(2), mpmath.mpf(2)]
                    while len(x) < 40:
                        x.append((1 + s) * x[-1] - 2 * s * x[-2])
                for n in (*range(1, 11), 20, 40):
                    got = qca2_c1_closed_form(n, xi)
                    worst = max(worst, abs(got - complex(x[n - 1])))
        assert worst <= 1e-9

    def test_order_two_recurrence_on_brute_traces(self):
        for xi in XI_GRID:
            s = math.sin(xi)
            x = [complex(_qca2_op(xi, n).trace_powers(1).values[0]) for n in range(1, 9)]
            for i in range(6):
                residual = x[i + 2] - (1 + s) * x[i + 1] + 2 * s * x[i]
                assert abs(residual) < 1e-8


@pytest.mark.parametrize("f, n, xi", [
    (qca2_x2_recurrence, 1, math.inf), (qca2_x2_recurrence, 4, -math.inf),
    (qca2_c1_closed_form, 3, math.nan), (qca2_c1_closed_form, 1, math.inf),
    (lambda n, xi: binomial_zeta_qca1(n, xi, 0.3), 3, math.nan),
    (lambda n, xi: binomial_zeta_qca1(n, xi, 0.3), 4, math.inf),
    (lambda n, u: binomial_zeta_qca1(n, 0.2, u), 3, math.nan),
    (lambda n, u: binomial_zeta_qca1(n, 0.2, u), 3, math.inf),
    (lambda _, xi: clt_limit_zeta(xi, 0.3), None, math.nan),
    (lambda _, xi: clt_limit_zeta(xi, 0.3), None, math.inf),
], ids=["x2-1-inf", "x2-4-neginf", "c1-3-nan", "c1-1-inf",
        "binomial-3-nan", "binomial-4-inf", "binomial-u-nan", "binomial-u-inf",
        "clt-nan", "clt-inf"])
def test_angle_must_be_finite(f, n, xi):
    # the binomial-u cases pass the point u: it must be finite too
    with pytest.raises(DomainError, match="finite"):
        f(n, xi)


class TestSecondPowerTrace:
    def test_rule90_value(self):
        assert qca2_x2_recurrence(5, 0.0) == 4.0
        assert qca2_x2_recurrence(1, 0.0) == 2.0

    def test_quarter_turn_value(self):
        assert qca2_x2_recurrence(6, math.pi / 2) == 64.0

    def test_pi_sixth_root_formula(self):
        # three characteristic roots of the order-3 recurrence at sin = 1/2
        l1 = -1.0
        l2 = (9 + 1j * math.sqrt(15)) / 8
        l3 = (9 - 1j * math.sqrt(15)) / 8
        for n in range(1, 10):
            explicit = ((-4 / 19) * l1 ** (n - 1)
                        + (3 / 95) * (35 - 11j * math.sqrt(15)) * l2 ** (n - 1)
                        + (3 / 95) * (35 + 11j * math.sqrt(15)) * l3 ** (n - 1))
            assert qca2_x2_recurrence(n, math.pi / 6) == pytest.approx(explicit, abs=1e-10)

    @pytest.mark.parametrize("xi", XI_GRID)
    def test_order_three_recurrence_on_brute_traces(self, xi):
        s, c2 = math.sin(xi), math.cos(xi) ** 2
        x = [complex(_qca2_op(xi, n).trace_powers(2).values[1]) for n in range(1, 8)]
        for i in range(4):
            residual = (x[i + 3] - (1 + s * s) * x[i + 2]
                        - 2 * s * c2 * x[i + 1] + 4 * s * c2 * x[i])
            assert abs(residual) < 1e-8

    @pytest.mark.parametrize("xi", XI_GRID)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute(self, xi, n):
        brute = _qca2_op(xi, n).trace_powers(2).values[1]
        assert qca2_x2_recurrence(n, xi) == pytest.approx(brute, abs=1e-8)


class TestPastTheFloatRangeOf2ToTheN:
    def test_first_power_closed_form_at_n_1024(self):
        trace = qca2_c1_closed_form(1024, 1.0)
        assert trace == pytest.approx(_loop_x1(1024, 1.0), rel=1e-11, abs=0)

    def test_recurrence_term_past_the_float_range_is_refused(self):
        # tr(Q^2) at N = 2000 is about 1e431; iterating gave inf - inf = nan
        assert math.isfinite(qca2_x2_recurrence(1024, 1.0))
        with pytest.raises(DomainError, match="leaves the float range"):
            qca2_x2_recurrence(3000, 1.0)
        with pytest.raises(DomainError, match="leaves the float range"):
            chebyshev_t(1100, 2.0)


def _loop_t(n, x):
    prev, cur = 1.0, float(x)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def _loop_u(n, x):
    prev, cur = 1.0, 2.0 * float(x)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def _loop_x1(n, xi):
    if n <= 2:
        return 2.0
    s = math.sin(xi)
    prev, cur = 2.0, 2.0
    for _ in range(n - 2):
        prev, cur = cur, (1.0 + s) * cur - 2.0 * s * prev
    return cur


def _loop_x2(n, xi):
    s = math.sin(xi)
    sc = 2.0 * s * math.cos(xi) ** 2
    seeds = [2.0, 4.0, 4.0 * (1.0 + s * s)]
    if n <= 3:
        return seeds[n - 1]
    x1, x2, x3 = seeds
    for _ in range(n - 3):
        x1, x2, x3 = x2, x3, (1.0 + s * s) * x3 + sc * x2 - 2.0 * sc * x1
    return x3


_ANY_ANGLE = st.floats(allow_nan=False, allow_infinity=False)


class TestRecurrencesMatchExplicitLoops:
    """Each recurrence equals its explicit loop exactly, signed zeros included."""

    @staticmethod
    def same(got, want):
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 80), st.floats(-4.0, 4.0))
    def test_chebyshev(self, n, x):
        assert self.same(chebyshev_t(n, x), _loop_t(n, x))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 80), _ANY_ANGLE)
    def test_reflection_traces(self, n, xi):
        assert self.same(qca2_x2_recurrence(n, xi), _loop_x2(n, xi))


class TestRule90TraceRule:
    def test_examples(self):
        assert rule90_trace_general_r(4, 1, 3) == 4.0
        assert rule90_trace_general_r(4, 2, 1) == 16.0
        assert rule90_trace_general_r(2, 0, 7) == 2.0

    def test_rejects_outside_proved_range(self):
        # the rule holds for every N >= 1, not only the paper's N in {2, 3, 4}
        assert rule90_trace_general_r(5, 1, 1) == 4.0
        assert rule90_trace_general_r(5, 3, 1) == 32.0
        assert rule90_trace_general_r(1, 0, 1) == 2.0
        with pytest.raises(DomainError):
            rule90_trace_general_r(0, 0, 1)
        with pytest.raises(DomainError):
            rule90_trace_general_r(3, -1, 1)
        with pytest.raises(DomainError):
            rule90_trace_general_r(3, 0, 0)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 8))
    def test_odd_power_traces_are_two(self, n):
        traces = _qca2_op(0.0, n).trace_powers(11).values
        for s in range(1, 7):
            assert traces[2 * s - 2] == 2.0  # exact: permutation-matrix arithmetic


class TestClosedFormZeta:
    def test_rule90_single_site(self):
        for u in (0.2, 0.5j):
            got = zeta_closed_form_qca2(1, "rule90", u)
            assert got == pytest.approx(np.log(1 - complex(u)), abs=1e-14)

    def test_quarter_turn_against_series(self):
        series = _series(_qca2_op(math.pi / 2, 3), 60)
        got = zeta_closed_form_qca2(3, "pi_half", 0.4)
        assert abs(got - series.evaluate(0.4)) < 1e-10

    def test_quarter_turn_large_size_limit(self):
        # the arctanh amplitude decays, leaving the even part only
        u = 0.37
        limit = 0.5 * (np.log(1 - u) + np.log(1 + u))
        assert abs(zeta_closed_form_qca2(40, "pi_half", u) - limit) < 1e-5
        assert abs(zeta_closed_form_qca2(80, "pi_half", u) - limit) < 1e-9

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_rule90_against_series(self, n):
        series = _series(_qca2_op(0.0, n), 60)
        for u in (0.1, 0.3, 0.5, 0.4j):
            got = zeta_closed_form_qca2(n, "rule90", u)
            assert abs(got - series.evaluate(u)) < 1e-10

    def test_rejects_bad_input(self):
        # every N >= 1 is valid; N = 0, |u| = 1 and an unknown variant are not
        assert np.isfinite(zeta_closed_form_qca2(5, "rule90", 0.3))
        with pytest.raises(DomainError):
            zeta_closed_form_qca2(0, "rule90", 0.3)
        with pytest.raises(DomainError):
            zeta_closed_form_qca2(3, "pi_half", 1.0)
        with pytest.raises(DomainError):
            zeta_closed_form_qca2(3, "rule_90", 0.3)

    def test_arctanh_matches_reference(self):
        for u in (0.3, -0.6, 0.2 + 0.4j):
            assert arctanh(u) == pytest.approx(np.arctanh(complex(u)), abs=1e-14)


@pytest.mark.parametrize("u", (1.0, 1.5, math.nan, math.inf))
@pytest.mark.parametrize("evaluate", [
    lambda u: run_formula("thm6_pi2zeta", n_values=(2,), u_points=(u,)),
    lambda u: clt_limit_zeta(0.5, u),
    lambda u: zeta_closed_form_qca2(3, "pi_half", u),
], ids=["run_formula", "clt_limit_zeta", "zeta_closed_form_qca2"])
def test_points_off_the_open_unit_disk_are_refused(evaluate, u):
    with pytest.raises(DomainError, match=r"\|u\| < 1"):
        evaluate(u)


class TestConjecture:
    """conj_rule90: the Rule 90 closed form on the paper's conjectured N = 5..8."""

    def test_rejects_proved_range(self):
        # N <= 4 runs exactly like thm6_rule90zeta on the same grid
        grid = dict(n_values=(4,), r_max=64, u_points=(0.3, 0.5j))
        report = run_formula("conj_rule90", **grid)
        assert report.passed
        assert report.max_abs_error == run_formula("thm6_rule90zeta", **grid).max_abs_error

    def test_report_structure(self):
        report = run_formula("conj_rule90", n_values=(5,), r_max=48, u_points=(0.3,))
        assert report.formula_id == "conj_rule90"
        assert report.grid["conjecture"] is False and report.passed
        assert report.grid["u_points"] == [[0.3, 0.0]]
        assert np.isfinite(report.max_abs_error)
        assert set(report.witness) == {"n", "u", "error"}
        doc = report.to_json()
        assert doc["passed"] == report.passed and doc["tolerance"] == 1e-8

    def test_rejects_u_outside_disk(self):
        with pytest.raises(DomainError):
            run_formula("conj_rule90", n_values=(5,), u_points=(1.5,))
