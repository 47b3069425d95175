"""Wire formats: [re, im] pairs, matrix round-trips, CSV headers."""

import numpy as np
import pytest

from ipszeta import DimensionMismatch, GlobalOperator, ModelSpec, ZetaLogSeries, build_local
from ipszeta.serialize import (
    complex_pair,
    from_pair,
    matrix_from_pairs,
    matrix_pairs,
    series_csv,
    spectrum_csv,
    trace_csv,
    trajectory_csv,
)

from helpers import product_global


def test_pair_round_trip():
    for z in (0.0, 1.5, -2j, 0.3 + 0.4j):
        assert from_pair(complex_pair(z)) == complex(z)
    assert from_pair(2) == 2.0 + 0j


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
    series = ZetaLogSeries.from_traces(GlobalOperator(np.eye(4), 2).trace_powers(4))
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
