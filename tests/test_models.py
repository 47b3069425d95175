"""Local-operator construction, classification and tensor factorization."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ipszeta import (
    ConstraintViolation,
    DimensionMismatch,
    DomainError,
    GlobalOperator,
    LocalOperator,
    ModelSpec,
    TensorFactors,
    build_local,
    classify,
    factor_tensor,
    rotation,
)

RULE90 = np.array([
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
], dtype=complex)


def test_rule90_from_generalized_dk():
    op = build_local(ModelSpec.generalized_dk(0, 0, 0, 0))
    np.testing.assert_array_equal(op.entries, RULE90)


def test_trivial_model_is_identity():
    op = build_local(ModelSpec.generalized_dk(0, math.pi / 2, 0, math.pi / 2))
    np.testing.assert_allclose(op.entries, np.eye(4), rtol=0, atol=1e-15)


def test_qca2_zero_angles_is_rule90():
    a = build_local(ModelSpec.qca2(0, 0)).entries
    b = build_local(ModelSpec.generalized_dk(0, 0, 0, 0)).entries
    np.testing.assert_array_equal(a, b)


def test_dk_matrix_layout():
    p, q = 0.3, 0.8
    op = build_local(ModelSpec.dk(p, q)).entries
    expected = np.array([
        [1, 0, 1 - p, 0],
        [0, 1 - p, 0, 1 - q],
        [0, 0, p, 0],
        [0, p, 0, q],
    ], dtype=complex)
    np.testing.assert_allclose(op, expected, rtol=0, atol=0)


def test_dk_rejects_out_of_range():
    with pytest.raises(DomainError):
        ModelSpec.dk(1.2, 0.5)
    with pytest.raises(DomainError):
        ModelSpec.dk(0.5, -0.01)


def test_angles_accept_any_real():
    a = build_local(ModelSpec.qca1(0.4, 1.1)).entries
    b = build_local(ModelSpec.qca1(0.4 + 2 * math.pi, 1.1 - 4 * math.pi)).entries
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


def test_custom_rejects_forbidden_positions():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 0.5  # couples input right=1 to output right=0
    with pytest.raises(ConstraintViolation):
        build_local(ModelSpec.custom(bad))


@pytest.mark.parametrize("right0, right1", [
    (1.0, np.eye(2)), (np.eye(2), np.eye(3)), (np.ones(4), np.eye(2)),
], ids=["scalar", "3x3", "flat"])
def test_from_blocks_rejects_non_2x2(right0, right1):
    with pytest.raises(ConstraintViolation):
        LocalOperator.from_blocks(right0, right1)


def test_custom_rejects_non_finite():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ConstraintViolation):
        LocalOperator(bad)


@pytest.mark.parametrize("build", [
    lambda: LocalOperator(np.eye(4, dtype=bool)),
    lambda: build_local(ModelSpec.custom(np.eye(4, dtype=bool))),
    lambda: build_local(ModelSpec.tensor(np.eye(2, dtype=bool), np.eye(2))),
    lambda: TensorFactors(np.eye(2), np.eye(2, dtype=bool)),
    lambda: GlobalOperator(np.eye(4, dtype=bool), 2),
], ids=["local", "custom", "tensor", "factors", "global"])
def test_boolean_matrices_are_refused(build):
    # a cast to complex128 would read True as 1 and build the identity
    with pytest.raises(DomainError, match="boolean array"):
        build()


def test_unknown_model_name():
    with pytest.raises(DomainError):
        ModelSpec("ising", (1.0,))


@pytest.mark.parametrize("model, params", [
    ("qca2", (1, [2])), ("dk", 5), ("gdk", ("0", "x", "0", "0")),
], ids=["nested", "not-a-sequence", "non-numeric-string"])
def test_family_params_that_are_not_numbers(model, params):
    with pytest.raises(DomainError):
        ModelSpec(model, params)
    with pytest.raises(DomainError):
        ModelSpec.from_json({"model": model, "params": params})


GRID_SPECS = []
_ticks = np.linspace(0.0, 1.0, 10)
GRID_SPECS += [ModelSpec.dk(p, q) for p in _ticks for q in _ticks]
_angles = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
GRID_SPECS += [ModelSpec.qca1(a, b) for a in _angles for b in _angles]
GRID_SPECS += [ModelSpec.qca2(a, b) for a in _angles for b in _angles]
_rng = np.random.default_rng(42)
GRID_SPECS += [ModelSpec.generalized_dk(*_rng.uniform(0, 2 * math.pi, 4)) for _ in range(100)]
GRID_SPECS += [
    ModelSpec.tensor(
        _rng.uniform(-1, 1, (2, 2)) + 1j * _rng.uniform(-1, 1, (2, 2)),
        np.diag(_rng.uniform(0.2, 1, 2) * np.exp(1j * _rng.uniform(0, 2 * math.pi, 2))),
    )
    for _ in range(100)
]


@pytest.mark.parametrize("build, error, needle", [
    (lambda: LocalOperator(np.eye(3)), ConstraintViolation, r"4x4, got shape \(3, 3\)"),
    (lambda: TensorFactors(np.eye(4), np.eye(2)), DimensionMismatch,
     r"left factor must be 2x2, got shape \(4, 4\)"),
    (lambda: TensorFactors(np.eye(2), [[1.0, 0.0], [0.0, math.inf]]), DomainError,
     "right factor entries must be finite"),
    (lambda: ModelSpec("dk", (0.3,)), DomainError, "dk takes 2 parameters, got 1"),
    (lambda: ModelSpec.qca1(0.4, math.nan), DomainError, "qca1 parameters must be finite"),
    (lambda: ModelSpec("tensor", (np.eye(2),)), DomainError, "tensor takes two 2x2 matrices"),
    (lambda: ModelSpec("custom", (np.eye(4), np.eye(4))), DomainError,
     "custom takes one 4x4 matrix"),
    (lambda: ModelSpec.from_json({"model": "dk"}), DomainError, "'model' and 'params' keys"),
    (lambda: ModelSpec.from_json([0.3, 0.7]), DomainError, "'model' and 'params' keys"),
], ids=["local-not-4x4", "factor-not-2x2", "factor-not-finite", "family-count",
        "family-not-finite", "tensor-count", "custom-count", "json-without-params",
        "json-not-object"])
def test_malformed_models_are_refused(build, error, needle):
    with pytest.raises(error, match=needle):
        build()


def test_zero_pattern_exact_on_grids():
    forbidden = np.array([[(r ^ c) & 1 for c in range(4)] for r in range(4)], dtype=bool)
    for spec in GRID_SPECS:
        entries = build_local(spec).entries
        assert not entries[forbidden].any(), spec


def test_classify_dk_is_pca():
    cls = classify(build_local(ModelSpec.dk(0.3, 0.7)))
    assert cls.is_pca and not cls.is_qca


@pytest.mark.parametrize("p", np.linspace(0, 1, 6))
@pytest.mark.parametrize("q", np.linspace(0, 1, 6))
def test_classify_dk_grid(p, q):
    assert classify(build_local(ModelSpec.dk(p, q))).is_pca


@pytest.mark.parametrize("model", ("qca1", "qca2"))
def test_classify_qca_grids(model):
    for a in _angles:
        for b in _angles:
            cls = classify(build_local(ModelSpec(model, (a, b))), tol=1e-12)
            assert cls.is_qca, (model, a, b)


def test_classify_qca1_example():
    assert classify(build_local(ModelSpec.qca1(0.4, 1.1))).is_qca


def test_rule90_is_pca_qca_and_ca():
    cls = classify(LocalOperator(RULE90))
    assert cls.is_pca and cls.is_qca and cls.is_ca
    assert cls.factors is None


def test_identity_is_every_class():
    cls = classify(LocalOperator(np.eye(4)))
    assert cls.is_pca and cls.is_qca and cls.is_ca and cls.factors is not None


def test_factor_tensor_rotation_model():
    op = build_local(ModelSpec.qca1(0.7, 0.7))
    factors = factor_tensor(op)
    assert factors is not None
    np.testing.assert_allclose(factors.left, rotation(0.7), rtol=0, atol=1e-15)
    np.testing.assert_allclose(factors.right, np.eye(2), rtol=0, atol=1e-15)


def test_factor_tensor_rule90_absent():
    assert factor_tensor(LocalOperator(RULE90)) is None


def test_factor_tensor_identity():
    factors = factor_tensor(LocalOperator(np.eye(4)))
    np.testing.assert_allclose(factors.left, np.eye(2), rtol=0, atol=0)
    np.testing.assert_allclose(factors.right, np.eye(2), rtol=0, atol=0)


def test_factor_tensor_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        left = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        right = np.diag(rng.uniform(0.2, 1, 2) * np.exp(1j * rng.uniform(0, 2 * math.pi, 2)))
        op = LocalOperator(np.kron(left, right))
        factors = factor_tensor(op)
        assert factors is not None
        np.testing.assert_allclose(np.kron(factors.left, factors.right), op.entries,
                                   rtol=0, atol=1e-12)
        # gauge: the right factor's leading diagonal entry is exactly 1
        assert factors.right[0, 0] == 1


def test_factor_tensor_zero_left_block():
    op = LocalOperator(np.kron(rotation(0.3), np.diag([0.0, 0.5])))
    factors = factor_tensor(op)
    assert factors is not None
    assert factors.right[0, 0] == 0 and factors.right[1, 1] == 1
    np.testing.assert_allclose(np.kron(factors.left, factors.right), op.entries,
                               rtol=0, atol=1e-12)


def test_factor_tensor_rejects_non_proportional_blocks():
    op = build_local(ModelSpec.qca1(0.3, 1.2))  # distinct rotations per right value
    assert factor_tensor(op) is None


def test_factor_tensor_near_the_float_limit():
    # |b0|^2 = 2e400 overflows an unscaled fit; the scaled one is exact
    op = LocalOperator(1e200 * np.eye(4))
    factors = factor_tensor(op)
    np.testing.assert_array_equal(factors.left, 1e200 * np.eye(2))
    np.testing.assert_array_equal(factors.right, np.eye(2))
    cls = classify(op)
    assert cls.factors is not None and not (cls.is_pca or cls.is_qca or cls.is_ca)


def test_factor_tensor_without_a_finite_pair_is_none():
    # proportional blocks whose ratio 1e600 is no float
    op = LocalOperator.from_blocks(1e-300 * np.eye(2), 1e300 * np.eye(2))
    assert factor_tensor(op) is None
    assert classify(op).factors is None


def test_tensor_factors_reject_zero_matrix():
    with pytest.raises(DomainError):
        TensorFactors(np.zeros((2, 2)), np.eye(2))


def test_tensor_spec_rejects_coupled_right_factor():
    with pytest.raises(ConstraintViolation):
        build_local(ModelSpec.tensor(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_model_spec_json_round_trip():
    for spec in (
        ModelSpec.dk(0.3, 0.7),
        ModelSpec.qca1(0.4, 1.1),
        ModelSpec.tensor(rotation(0.3), np.diag([1.0, 1.0j])),
        ModelSpec.custom(RULE90),
    ):
        back = ModelSpec.from_json(spec.to_json())
        np.testing.assert_allclose(build_local(back).entries, build_local(spec).entries,
                                   rtol=0, atol=0)


@pytest.mark.parametrize("make", [
    lambda x: ModelSpec.tensor(np.diag([1.0, x]), np.eye(2)),
    lambda x: ModelSpec.custom(np.diag([1.0, 1.0, x, 1.0])),
    lambda x: ModelSpec.dk(0.3, x),
], ids=["tensor", "custom", "dk"])
def test_model_specs_compare_and_hash_by_value(make):
    a, b = make(0.5), make(0.5)
    assert a == b and hash(a) == hash(b)
    assert a != make(0.25)


def test_entries_are_read_only():
    op = build_local(ModelSpec.dk(0.1, 0.2))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0


def _right_site_blocks(op):
    """The 2x2 blocks of ``op`` at right site 0 and 1: the rows and columns of parity 0, then 1."""
    return [op.entries[np.ix_(rows, rows)] for rows in ((0, 2), (1, 3))]


def _hand_written_layout(model, params):
    """The 4x4 matrix of each parametric family, written out entry by entry."""
    if model == "dk":
        p, q = params
        rows = [[1.0, 0.0, 1.0 - p, 0.0],
                [0.0, 1.0 - p, 0.0, 1.0 - q],
                [0.0, 0.0, p, 0.0],
                [0.0, p, 0.0, q]]
    elif model == "gdk":
        xi = [float(x) % (2.0 * math.pi) for x in params]
        c = [math.cos(x) ** 2 for x in xi]
        s = [math.sin(x) ** 2 for x in xi]
        rows = [[c[0], 0.0, s[2], 0.0],
                [0.0, s[1], 0.0, c[3]],
                [s[0], 0.0, c[2], 0.0],
                [0.0, c[1], 0.0, s[3]]]
    else:
        x1, x2 = (float(x) % (2.0 * math.pi) for x in params)
        c1, s1 = math.cos(x1), math.sin(x1)
        c2, s2 = math.cos(x2), math.sin(x2)
        if model == "qca1":
            rows = [[c1, 0.0, -s1, 0.0],
                    [0.0, c2, 0.0, -s2],
                    [s1, 0.0, c1, 0.0],
                    [0.0, s2, 0.0, c2]]
        else:  # qca2
            rows = [[c1, 0.0, -s1, 0.0],
                    [0.0, -s2, 0.0, c2],
                    [s1, 0.0, c1, 0.0],
                    [0.0, c2, 0.0, s2]]
    return np.array(rows, dtype=np.float64)


def _stored(matrix):
    """``matrix`` as a local operator keeps it: float64 unless an entry is complex."""
    return matrix if matrix.imag.any() else matrix.real.copy()


_ANGLE = st.floats(allow_nan=False, allow_infinity=False)
_PROBABILITY = st.floats(0.0, 1.0) | st.just(-0.0)
FAMILY_SPECS = st.one_of(
    st.tuples(_PROBABILITY, _PROBABILITY).map(lambda p: ModelSpec("dk", p)),
    st.tuples(_ANGLE, _ANGLE, _ANGLE, _ANGLE).map(lambda p: ModelSpec("gdk", p)),
    st.tuples(_ANGLE, _ANGLE).map(lambda p: ModelSpec("qca1", p)),
    st.tuples(_ANGLE, _ANGLE).map(lambda p: ModelSpec("qca2", p)),
)
_ENTRY = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_BLOCK = st.lists(_ENTRY, min_size=4, max_size=4).map(
    lambda v: np.array(v, dtype=np.complex128).reshape(2, 2))


@settings(max_examples=300, deadline=None)
@given(FAMILY_SPECS)
def test_family_entries_match_hand_written_layout(spec):
    # byte equality also pins the signed zeros; every family is real
    expected = _hand_written_layout(spec.model, spec.params)
    op = build_local(spec)
    assert op.entries.dtype == np.float64
    assert op.entries.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(FAMILY_SPECS)
def test_family_blocks_round_trip(spec):
    op = build_local(spec)
    back = LocalOperator.from_blocks(*_right_site_blocks(op))
    assert back.entries.tobytes() == op.entries.tobytes()


@settings(max_examples=300, deadline=None)
@given(FAMILY_SPECS)
def test_family_json_round_trip_is_exact(spec):
    back = ModelSpec.from_json(spec.to_json())
    assert back.model == spec.model
    assert np.array(back.params).tobytes() == np.array(spec.params).tobytes()


@settings(max_examples=100, deadline=None)
@given(_BLOCK, _ENTRY, _ENTRY)
def test_tensor_entries_and_round_trips(left, e, h):
    right = np.diag([e, h])
    assume(left.any() and right.any())  # a zero factor is rejected
    spec = ModelSpec.tensor(left, right)
    op = build_local(spec)
    assert op.entries.tobytes() == _stored(np.kron(left, right)).tobytes()
    np.testing.assert_array_equal(
        LocalOperator.from_blocks(*_right_site_blocks(op)).entries, op.entries)
    back = ModelSpec.from_json(spec.to_json())
    assert build_local(back).entries.tobytes() == op.entries.tobytes()


@settings(max_examples=100, deadline=None)
@given(_BLOCK, _BLOCK)
def test_custom_entries_and_round_trips(right0, right1):
    matrix = np.zeros((4, 4), dtype=np.complex128)
    matrix[np.ix_((0, 2), (0, 2))] = right0
    matrix[np.ix_((1, 3), (1, 3))] = right1
    spec = ModelSpec.custom(matrix)
    expected = _stored(matrix).tobytes()
    op = build_local(spec)
    assert op.entries.tobytes() == expected
    assert LocalOperator.from_blocks(right0, right1).entries.tobytes() == expected
    back = ModelSpec.from_json(spec.to_json())
    assert build_local(back).entries.tobytes() == expected


@settings(max_examples=100, deadline=None)
@given(_BLOCK, _BLOCK, st.integers(0, 7), st.floats(1e-300, 1e3) | st.floats(-1e3, -1e-300))
def test_a_nonzero_imaginary_entry_keeps_complex128(right0, right1, position, imag):
    blocks = [right0.real.astype(np.complex128), right1.real.astype(np.complex128)]
    blocks[position // 4][divmod(position % 4, 2)] += 1j * imag
    assert LocalOperator.from_blocks(*blocks).entries.dtype == np.complex128
    tensor = build_local(ModelSpec.tensor(rotation(0.3), np.diag([1.0, 1j * imag])))
    assert tensor.entries.dtype == np.complex128


def test_real_input_of_any_format_is_stored_as_float64():
    for entries in (np.eye(4, dtype=int), np.eye(4, dtype=np.float32), np.eye(4) + 0j,
                    np.eye(4).tolist()):
        op = LocalOperator(entries)
        assert op.entries.dtype == np.float64 and op.entries.flags.c_contiguous
        np.testing.assert_array_equal(op.entries, np.eye(4))


def _scaled_block(lo: float, hi: float):
    """2x2 complex blocks whose entries are zero or of magnitude 10^lo .. 10^hi."""
    entry = st.just(0j) | st.builds(lambda x, t: 10.0 ** x * cmath.exp(1j * t),
                                    st.floats(lo, hi), st.floats(0.0, 2 * math.pi))
    return st.lists(entry, min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=np.complex128).reshape(2, 2))


@settings(max_examples=300, deadline=None)
@given(_scaled_block(-150, 150), _scaled_block(-150, 150), _scaled_block(-150, 150).map(
    lambda b: b[0, 0]), st.booleans())
def test_classify_never_raises(right0, right1, ratio, proportional):
    op = LocalOperator.from_blocks(right0, ratio * right0 if proportional else right1)
    cls = classify(op)
    if cls.factors is not None:
        assert np.max(np.abs(cls.factors.kron() - op.entries)) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(_scaled_block(-1.5, 1.5), _scaled_block(-1.5, 1.5).map(lambda b: np.diag(np.diag(b))))
def test_factor_tensor_round_trips_in_its_gauge(left, right):
    # kron entries of magnitude 1e-3 .. 1e3 (or zero)
    assume(left.any() and right.any())
    e, h = right[0, 0], right[1, 1]
    factors = factor_tensor(LocalOperator(np.kron(left, right)))
    assert factors is not None
    if e != 0:
        assert factors.right[0, 0] == 1
        np.testing.assert_array_equal(factors.left, left * e)
        assert factors.right[1, 1] == pytest.approx(h / e, rel=1e-12, abs=0)
    else:
        assert factors.right[0, 0] == 0 and factors.right[1, 1] == 1
        np.testing.assert_array_equal(factors.left, left * h)
