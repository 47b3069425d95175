"""Wire formats: [re, im] pairs, matrix round-trips, CSV headers; the input checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipszeta import (
    DimensionMismatch,
    DomainError,
    GlobalOperator,
    LocalOperator,
    ModelSpec,
    StateKind,
    StateVector,
    TensorFactors,
    ZetaLogSeries,
    arctanh,
    binomial_zeta_qca1,
    build_local,
    chebyshev_t,
    classify,
    clt_limit_zeta,
    factor_tensor,
    initial_state,
    qca2_c1_closed_form,
    qca2_x2_recurrence,
    reflection,
    rotation,
    rule90_trace_general_r,
    run_formula,
    tensor_model_cr,
    zeta_closed_form_qca2,
)
from ipszeta.dynamics import evolve_states
from ipszeta.models import is_unitary
from ipszeta.serialize import (
    complex_pair,
    from_pair,
    matrix_from_pairs,
    matrix_pairs,
    positive_int,
    series_csv,
    spectrum_csv,
    tolerance,
    trace_csv,
    trajectory_csv,
)

from helpers import product_global


def test_pair_round_trip():
    for z in (0.0, 1.5, -2j, 0.3 + 0.4j):
        assert from_pair(complex_pair(z)) == complex(z)
    assert from_pair(2) == 2.0 + 0j


@pytest.mark.parametrize("scalar, expected", [(np.int64(3), 3), (np.float32(0.5), 0.5)],
                         ids=["numpy-int", "numpy-float"])
def test_numpy_scalars_read_like_python_numbers(scalar, expected):
    assert from_pair(scalar) == complex(expected)


@pytest.mark.parametrize("flag", (True, np.True_), ids=["bool", "numpy-bool"])
def test_pair_refuses_booleans(flag):
    with pytest.raises(DomainError, match="boolean"):
        from_pair(flag)


def test_pair_shape_checked():
    for bad in ([1.0, 2.0, 3.0], [[1.0], 2.0], ["x", 0.0], None):
        with pytest.raises(DimensionMismatch):
            from_pair(bad)
    for bad in ([[1, 0]] * 5, 5, None, {"re": 1}):
        with pytest.raises(DimensionMismatch):
            matrix_from_pairs(bad, 2, 2)


def test_local_matrix_round_trip():
    m = build_local(ModelSpec.qca2(0.7, 1.9)).entries
    back = matrix_from_pairs(matrix_pairs(m), 4, 4)
    np.testing.assert_array_equal(back, m)


def test_dense_global_round_trip():
    # dense operators use the same row-major pair format as model matrices
    dense = product_global(build_local(ModelSpec.qca1(0.4, 1.1)).entries, 3)
    back = matrix_from_pairs(matrix_pairs(dense), 8, 8)
    np.testing.assert_array_equal(back, dense)


def test_trace_csv_header_and_values():
    op = GlobalOperator(np.eye(4), 3)
    text = trace_csv(op.trace_powers(3))
    lines = text.strip().splitlines()
    assert lines[0] == "r,trace_re,trace_im,c_r_re,c_r_im"
    assert lines[1] == "1,8,0,1,0"


def test_series_csv_header_and_values():
    series = GlobalOperator(np.eye(4), 2).trace_powers(4)
    lines = series_csv(series).strip().splitlines()
    assert lines[0] == "r,coeff_re,coeff_im"
    assert lines[1] == "1,-1,0"
    assert lines[2] == "2,-0.5,0"


def test_spectrum_csv_header_and_values():
    lines = spectrum_csv([1.0, complex(0.0, -0.5), 3 - 4j]).strip().splitlines()
    assert lines == ["idx,re,im,abs", "0,1,0,1", "1,0,-0.5,0.5", "2,3,-4,5"]


def test_trajectory_csv_header_and_values():
    rows = [(0, [0.0, 1.0]), (1, [0.25, 1 / 3])]
    lines = trajectory_csv(rows, 2).strip().splitlines()
    assert lines == ["step,site_0,site_1", "0,0,1", "1,0.25,0.33333333333333331"]


@pytest.mark.parametrize("minimum, value, message", [
    (1, 0, "count must be positive, got 0"),
    (0, -1, "count must be >= 0, got -1"),
    (2, 1, "count must be >= 2, got 1"),
    (1, 2.0, "count must be an integer, got 2.0"),
])
def test_count_messages(minimum, value, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        positive_int("count", value, minimum)


def test_counts_at_their_minimum_come_back_as_int():
    for minimum in (0, 1, 2, 8):
        for value in (minimum, np.int64(minimum), np.uint8(minimum)):
            count = positive_int("count", value, minimum)
            assert type(count) is int and count == minimum


def test_tolerances_come_back_unchanged():
    for value in (0, 0.0, 1e-12, 3, np.float32(0.5), np.float64(1e300), np.int64(2)):
        assert tolerance("tol", value) is value


_PCA = StateKind.PCA_PROBABILITY
_QCA2 = GlobalOperator(build_local(ModelSpec.qca2(0.3, 0.7)), 3)
_FACTORS = TensorFactors(np.array([[0.6, -0.8], [0.8, 0.6]]), np.diag([1.0, 0.5]))
_ZETA = ZetaLogSeries(2, [0.5, 0.25])
_START = initial_state((0, 0, 1), StateKind.QCA_AMPLITUDE)


# a fractional or boolean count, a tolerance, point, angle or parameter that is not a
# finite number of its kind, and an array of booleans or strings, each where the library
# takes it
@pytest.mark.parametrize("call", [
    lambda: tensor_model_cr(_FACTORS, 2.5, 1),
    lambda: chebyshev_t(True, 0.3),
    lambda: _QCA2.power_equals_identity(2, math.inf),
    lambda: initial_state((0.5, 1), _PCA),
    lambda: initial_state((1.7, 0), _PCA),
    lambda: initial_state((True, 0), _PCA),
    lambda: ZetaLogSeries(2.5, [0.5]),
    lambda: StateVector(1, _PCA, [1.0, 0.0], time_step=-3.5),
    lambda: _ZETA.evaluate(math.nan),
    lambda: _ZETA.evaluate(complex(0.1, math.inf)),
    lambda: _QCA2.log_det_factor(math.nan),
    lambda: binomial_zeta_qca1(3, True, 0.3),
    lambda: binomial_zeta_qca1(3, np.True_, 0.3),
    lambda: _ZETA.evaluate(True),
    lambda: _ZETA.evaluate("0.3"),
    lambda: clt_limit_zeta(0.8, False),
    lambda: zeta_closed_form_qca2(3, "pi_half", False),
    lambda: run_formula("thm6_pi2zeta", n_values=(2,), u_points=(False,)),
    lambda: binomial_zeta_qca1(3, 0.3, True),
    lambda: clt_limit_zeta(1j, 0.3),
    lambda: qca2_c1_closed_form(5, 1j),
    lambda: qca2_x2_recurrence(5, "0.3"),
    lambda: binomial_zeta_qca1(3, None, 0.2),
    lambda: chebyshev_t(2, True),
    lambda: ModelSpec.qca1("0.3", 0),
    lambda: ZetaLogSeries(3, [True, "0.5"]),
    lambda: LocalOperator(np.eye(4).astype(str)),
    lambda: TensorFactors(np.eye(2).astype(str), np.eye(2)),
    lambda: StateVector(1, _PCA, ["1", "0"]),
    lambda: from_pair([0.5, math.nan]),
    lambda: classify(_QCA2.local, True),
    lambda: classify(_QCA2.local, "x"),
    lambda: classify(_QCA2.local, math.nan),
    lambda: ModelSpec.qca1(10 ** 400, 0.0),
    lambda: clt_limit_zeta(0.8, complex(1.5e308, 1.5e308)),
    lambda: ZetaLogSeries(3, [True, 0.5]),
    lambda: StateVector(1, _PCA, [True, 0.0]),
    lambda: LocalOperator([[1], [2, 3]]),
], ids=["tensor-fractional-n", "chebyshev-bool-order", "period-infinite-tol",
        "bit-half", "bit-fraction", "bit-bool", "series-fractional-n", "state-fractional-time",
        "series-nan-u", "series-infinite-u", "log-det-nan-u", "binomial-bool-angle",
        "binomial-numpy-bool-angle", "series-bool-u", "series-string-u", "clt-bool-u",
        "closed-form-bool-u", "run-formula-bool-u", "binomial-bool-u", "clt-complex-angle",
        "c1-complex-angle", "x2-string-angle", "binomial-none-angle", "chebyshev-bool-x",
        "spec-string-param", "series-string-c", "local-string-array", "factors-string-array",
        "state-string-array", "pair-nan-part", "classify-bool-tol", "classify-string-tol",
        "classify-nan-tol", "param-past-the-float-range", "u-past-the-abs-range",
        "series-bool-among-numbers", "state-bool-among-numbers", "local-ragged-array"])
def test_unchecked_inputs_are_refused(call):
    with pytest.raises(DomainError):
        call()


# every public count: a call that passes the drawn value to it, and its minimum
_COUNTS = {
    "chebyshev_t-order": (lambda v: chebyshev_t(v, 0.3), 0),
    "tensor_model_cr-n_sites": (lambda v: tensor_model_cr(_FACTORS, v, 1), 2),
    "tensor_model_cr-power": (lambda v: tensor_model_cr(_FACTORS, 3, v), 1),
    "clt_limit_zeta-quad_nodes": (lambda v: clt_limit_zeta(0.8, 0.3, v), 8),
    "rule90_trace_general_r-k": (lambda v: rule90_trace_general_r(4, v, 1), 0),
    "rule90_trace_general_r-s": (lambda v: rule90_trace_general_r(4, 1, v), 1),
    "evolve_states-steps": (lambda v: next(evolve_states(_START, _QCA2, v)), 0),
    "initial_state-site_state": (lambda v: initial_state((v, 1), _PCA), 0),
    "ZetaLogSeries-n_sites": (lambda v: ZetaLogSeries(v, [0.5]), 1),
    "StateVector-time_step": (lambda v: StateVector(1, _PCA, [1.0, 0.0], time_step=v), 0),
}
# every public tolerance: a call that passes the drawn value, and whether None is refused
_TOLERANCES = {
    "run_formula-tol": (lambda v: run_formula("prop6_pi2", tol=v), False),  # None: the default
    "power_equals_identity-tol": (lambda v: _QCA2.power_equals_identity(2, v), True),
    "classify-tol": (lambda v: classify(_QCA2.local, v), True),
    "is_unitary-tol": (lambda v: is_unitary(_QCA2.local, v), True),
    "factor_tensor-tol": (lambda v: factor_tensor(_QCA2.local, v), True),
}
# every public number: a call that passes the drawn value, and whether it must be real
_NUMBERS = {
    "evaluate-u": (_ZETA.evaluate, False),
    "log_det_factor-u": (_QCA2.log_det_factor, False),
    "binomial_zeta_qca1-u": (lambda v: binomial_zeta_qca1(3, 0.2, v), False),
    "clt_limit_zeta-u": (lambda v: clt_limit_zeta(0.8, v), False),
    "zeta_closed_form_qca2-u": (lambda v: zeta_closed_form_qca2(3, "pi_half", v), False),
    "run_formula-u": (lambda v: run_formula("thm6_pi2zeta", n_values=(2,), u_points=(v,)),
                      False),
    "arctanh-u": (arctanh, False),
    "binomial_zeta_qca1-angle": (lambda v: binomial_zeta_qca1(3, v, 0.2), True),
    "clt_limit_zeta-angle": (lambda v: clt_limit_zeta(v, 0.3), True),
    "qca2_c1_closed_form-angle": (lambda v: qca2_c1_closed_form(5, v), True),
    "qca2_x2_recurrence-angle": (lambda v: qca2_x2_recurrence(5, v), True),
    "rotation-angle": (rotation, True),
    "reflection-angle": (reflection, True),
    "chebyshev_t-x": (lambda v: chebyshev_t(2, v), True),
    "dk-param": (lambda v: ModelSpec.dk(0.3, v), True),
    "gdk-param": (lambda v: ModelSpec.generalized_dk(0.1, v, 0.3, 0.4), True),
    "qca1-param": (lambda v: ModelSpec.qca1(v, 0.0), True),
    "qca2-param": (lambda v: ModelSpec.qca2(0.3, v), True),
}
# every public array: a call that passes the drawn entries, and how many it takes
_ARRAYS = {
    "LocalOperator-entries": (lambda v: LocalOperator(v.reshape(4, 4)), 16),
    "TensorFactors-left": (lambda v: TensorFactors(v.reshape(2, 2), np.eye(2)), 4),
    "TensorFactors-right": (lambda v: TensorFactors(np.eye(2), v.reshape(2, 2)), 4),
    "StateVector-components": (lambda v: StateVector(1, _PCA, v), 2),
    "ZetaLogSeries-c_values": (lambda v: ZetaLogSeries(2, v), 2),
}
_NEITHER = (st.booleans(), st.sampled_from((np.True_, np.False_)), st.text(max_size=3))


def _not_a_count(minimum):
    return st.one_of(st.floats().filter(lambda x: not x.is_integer()),
                     st.integers(-2 ** 53, 2 ** 53).map(float), *_NEITHER, st.none(),
                     st.integers(max_value=minimum - 1))


def _not_a_tolerance(none_refused):
    return st.one_of(st.floats(max_value=0.0, exclude_max=True), st.integers(max_value=-1),
                     st.sampled_from((math.nan, math.inf, np.float64(math.nan), 1j)),
                     *_NEITHER, *((st.none(),) if none_refused else ()))


def _not_a_number(real):
    not_finite = st.sampled_from((math.nan, math.inf, -math.inf, np.float64(math.nan),
                                  complex(0.1, math.inf), complex(math.nan, 0.0)))
    complexes = (st.complex_numbers(), st.just(np.complex128(0.5))) if real else ()
    return st.one_of(not_finite, *_NEITHER, st.none(), *complexes)


def _not_a_number_array(size):
    entries = st.one_of(st.booleans(), st.text(max_size=3))
    return st.lists(entries, min_size=size, max_size=size).map(np.array)


# counts, tolerances, numbers and arrays: every public argument that one input rule checks
@pytest.mark.parametrize("argument", [*_COUNTS, *_TOLERANCES, *_NUMBERS, *_ARRAYS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_counts_and_tolerances_refuse_what_they_do_not_take(argument, data):
    if argument in _COUNTS:
        call, minimum = _COUNTS[argument]
        value = data.draw(_not_a_count(minimum), label="value")
    elif argument in _TOLERANCES:
        call, none_refused = _TOLERANCES[argument]
        value = data.draw(_not_a_tolerance(none_refused), label="value")
    elif argument in _NUMBERS:
        call, real = _NUMBERS[argument]
        value = data.draw(_not_a_number(real), label="value")
    else:
        call, size = _ARRAYS[argument]
        value = data.draw(_not_a_number_array(size), label="value")
    # DomainError, never a returned value nor numpy's or Python's TypeError or ValueError
    with pytest.raises(DomainError):
        call(value)
