"""Correctness of the site-blocked sweep kernel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipszeta
from ipszeta import GlobalOperator, LocalOperator, ModelSpec, build_local, kernels
from ipszeta.operators import _space_time_dual

from helpers import dual_product_global, pairwise_sweep, product_global, product_half

MODELS = (
    ModelSpec.dk(0.3, 0.6),
    ModelSpec.generalized_dk(0.2, 1.1, 2.5, 0.9),
    ModelSpec.qca1(0.4, 1.1),
    ModelSpec.qca2(0.7, 2.2),
)
# one copy, an odd count and the brute engine's block width
TAILS = (1, 3, 256)
# no held site, or one more site to the right held at 0 or at 1
HELD = (None, 0, 1)


def random_vec(n, seed, tail=1):
    rng = np.random.default_rng(seed)
    shape = (2 ** n, tail)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def held_pairwise_sweep(vec, local, n, tail, held):
    """``pairwise_sweep`` of n + 1 sites on the copies placed at the indices of parity ``held``.

    Returns the rows of that parity; with ``held`` None, the plain sweep of n sites.
    """
    if held is None:
        return pairwise_sweep(vec, local, n, tail=tail)
    placed = np.zeros((2 ** n, 2, tail), dtype=np.asarray(vec).dtype)
    placed[:, held] = np.reshape(vec, (2 ** n, tail))
    swept = pairwise_sweep(placed.reshape(-1), local, n + 1, tail=tail)
    return swept.reshape(2 ** n, 2, tail)[:, held].reshape(-1)


def assert_sweeps(oracle, local, n, seed, held=None):
    """The sweep of 2^n x tail random columns equals ``oracle`` times them, for every tail."""
    for tail in TAILS:
        v = random_vec(n, seed, tail)
        np.testing.assert_allclose(kernels.sweep(v.reshape(-1), local, n, tail=tail, held=held),
                                   (oracle @ v).reshape(-1), rtol=0, atol=1e-12)


def test_backend_reported():
    assert kernels.BACKEND == "python"
    assert ipszeta.KERNEL_BACKEND == kernels.BACKEND


# from N = 6 on the pairs span two fused groups, from N = 10 three
@pytest.mark.parametrize("spec", MODELS, ids=[m.model for m in MODELS])
@pytest.mark.parametrize("n", range(2, 11))
def test_sweep_matches_product_oracle(spec, n):
    local = build_local(spec).entries
    assert_sweeps(product_global(local, n), local, n, seed=7 * n + 1)
    # a held site to the right: n + 1 sites on the rows and columns of its parity
    for held in (0, 1):
        assert_sweeps(product_half(local, n + 1, held), local, n, seed=7 * n + 2 + held,
                      held=held)


@pytest.mark.parametrize("spec", MODELS, ids=[m.model for m in MODELS])
@pytest.mark.parametrize("n", range(2, 11))
def test_dual_sweep_matches_product_oracle(spec, n):
    # the transfer engine's space-time dual keeps the left site of each pair
    dual = _space_time_dual(build_local(spec).entries)
    assert_sweeps(dual_product_global(dual, n), dual, n, seed=5 * n + 2)


_ENTRY = st.floats(-1.0, 1.0)
_REAL_LOCAL = st.lists(_ENTRY, min_size=16, max_size=16)
_COMPLEX_LOCAL = st.lists(st.builds(complex, _ENTRY, _ENTRY), min_size=16, max_size=16)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_REAL_LOCAL, _COMPLEX_LOCAL), st.integers(1, 14),
       st.sampled_from(TAILS[:2]), st.sampled_from(HELD), st.integers(0, 2 ** 32 - 1))
def test_sweep_matches_pairwise_loop(entries, n, tail, held, seed):
    local = np.reshape(entries, (4, 4))
    v = random_vec(n, seed, tail).reshape(-1)
    swept = kernels.sweep(v, local, n, tail=tail, held=held)
    expected = held_pairwise_sweep(v, local, n, tail, held)
    # rounding is relative to the sum of magnitudes, whatever cancels; below
    # the smallest normal float the spacing of subnormals bounds it instead
    scale = held_pairwise_sweep(np.abs(v), np.abs(local), n, tail, held)
    assert swept.dtype == expected.dtype
    assert np.all(np.abs(swept - expected) <= 1e-13 * scale + np.finfo(np.float64).tiny)


# Every group after the first is applied in place, one slab at a time, in
# three layouts.  At N = 18, tail 1 the second group (1, 5) takes column
# chunks of its two slabs, the middle groups batches of slabs and the last
# group batches of rows of its right product; at N = 10, tail 256 the second
# group takes column chunks and the third batches; at N = 15, tail 3 every
# later group takes batches.  Each layout loops at least twice there.
LAYOUT_SIZES = ((18, 1), (10, 256), (15, 3))


@pytest.mark.parametrize("n, tail", LAYOUT_SIZES)
@pytest.mark.parametrize("dtype", (np.float64, np.complex128), ids=("float64", "complex128"))
def test_in_place_layouts_match_pairwise_loop(n, tail, dtype):
    local = build_local(ModelSpec.qca2(0.7, 2.2)).entries.astype(dtype)
    v = random_vec(n, seed=n + tail, tail=tail).reshape(-1)
    v = v.real.copy() if dtype is np.float64 else v
    assert kernels._SLAB_BYTES < v.nbytes
    for held in HELD:
        swept = kernels.sweep(v, local, n, tail=tail, held=held)
        expected = held_pairwise_sweep(v, local, n, tail, held)
        scale = held_pairwise_sweep(np.abs(v), np.abs(local), n, tail, held)
        assert swept.dtype == dtype
        assert np.all(np.abs(swept - expected) <= 1e-13 * scale)


def test_sweep_leaves_input_untouched():
    local = build_local(ModelSpec.qca2(0.3, 0.8)).entries
    # the last sizes are above the slab, so later groups work in place
    for n, tail in ((3, 1), (7, 1), (7, 3), (17, 1), (9, 256)):
        v = random_vec(n, seed=5, tail=tail).reshape(-1)
        keep = v.copy()
        for held in HELD:
            kernels.sweep(v, local, n, tail=tail, held=held)
            np.testing.assert_array_equal(v, keep)


def test_result_is_fresh_in_promoted_dtype():
    local = build_local(ModelSpec.dk(0.2, 0.9)).entries
    # 2^17 entries are above the slab in both dtypes
    for n in (0, 1, 2, 6, 17):
        v = np.zeros(2 ** n)
        v[0] = 1.0
        for vec, dtype in ((v, np.float64), (v.astype(int), np.float64),
                           (v.astype(complex), np.complex128)):
            for held in HELD:
                out = kernels.sweep(vec, local, n, held=held)
                assert out.dtype == dtype and not np.shares_memory(out, vec)


def test_single_site_is_identity():
    local = build_local(ModelSpec.dk(0.2, 0.9)).entries
    v = random_vec(1, seed=2).reshape(-1)
    np.testing.assert_allclose(kernels.sweep(v, local, 1), v, rtol=0, atol=0)
    # no site beside the held one: the 1x1 identity on every copy
    w = random_vec(0, seed=3, tail=3).reshape(-1)
    for held in (0, 1):
        np.testing.assert_array_equal(kernels.sweep(w, local, 0, tail=3, held=held), w)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_REAL_LOCAL, _COMPLEX_LOCAL), st.integers(1, 12),
       st.sampled_from(TAILS[:2]), st.sampled_from(HELD), st.integers(0, 2 ** 32 - 1))
def test_in_place_sweep_matches_fresh_sweep(entries, n, tail, held, seed):
    local = np.reshape(entries, (4, 4))
    v = random_vec(n, seed, tail).reshape(-1)
    v = v.astype(local.dtype) if local.dtype.kind == "c" else v.real.copy()
    fresh = kernels.sweep(v, local, n, tail=tail, held=held)
    work = v.copy()
    out = kernels.sweep(work, local, n, tail=tail, held=held, in_place=True)
    assert np.shares_memory(out, work) and out.dtype == fresh.dtype
    assert np.max(np.abs(out - fresh)) <= 1e-15 * np.max(np.abs(fresh))


def test_in_place_sweep_needs_the_promoted_dtype():
    # a copy would be swept in place of the caller's array, so none is made
    local = build_local(ModelSpec.qca2(0.3, 0.8)).entries * np.exp(0.3j)
    op = GlobalOperator(LocalOperator(local), 3)
    v = np.zeros(8)
    v[0] = 1.0
    for vec in (v, v.astype(complex)[::-1], v.astype(complex).reshape(2, 4).T):
        keep = vec.copy()
        for apply in (lambda u: kernels.sweep(u, local, 3, in_place=True),
                      lambda u: op.apply(u, in_place=True)):
            with pytest.raises(ValueError, match="in-place sweep"):
                apply(vec)
            np.testing.assert_array_equal(vec, keep)


def test_promoted_copy_is_the_result():
    # a float64 vector through a complex local: the complex copy is swept in
    # place, so the call holds one result and the buffer
    v = np.full(1 << 18, 1.0 / (1 << 18))
    local = build_local(ModelSpec.qca2(0.3, 0.8)).entries.astype(complex)
    tracemalloc.start()
    try:
        out = kernels.sweep(v, local, 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.dtype == np.complex128
    assert peak <= out.nbytes + kernels._SLAB_BYTES + (64 << 10)
    np.testing.assert_allclose(out, kernels.sweep(v.astype(complex), local, 18), rtol=0, atol=1e-15)
