"""Correctness of the two-site sweep kernel."""

import numpy as np
import pytest

import ipszeta
from ipszeta import ModelSpec, build_local, kernels

from helpers import product_global

MODELS = (
    ModelSpec.dk(0.3, 0.6),
    ModelSpec.generalized_dk(0.2, 1.1, 2.5, 0.9),
    ModelSpec.qca1(0.4, 1.1),
    ModelSpec.qca2(0.7, 2.2),
)


def random_vec(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)


def test_backend_reported():
    assert kernels.BACKEND == "python"
    assert ipszeta.KERNEL_BACKEND == kernels.BACKEND


@pytest.mark.parametrize("spec", MODELS, ids=[m.model for m in MODELS])
@pytest.mark.parametrize("n", range(2, 6))
def test_sweep_matches_product_oracle(spec, n):
    local = build_local(spec).entries
    oracle = product_global(local, n)
    v = random_vec(n, seed=7 * n + 1)
    np.testing.assert_allclose(kernels.sweep(v, local, n), oracle @ v,
                               rtol=0, atol=1e-12)


def test_sweep_leaves_input_untouched():
    local = build_local(ModelSpec.qca2(0.3, 0.8)).entries
    v = random_vec(3, seed=5)
    keep = v.copy()
    kernels.sweep(v, local, 3)
    np.testing.assert_array_equal(v, keep)


def test_single_site_is_identity():
    local = build_local(ModelSpec.dk(0.2, 0.9)).entries
    v = random_vec(1, seed=2)
    np.testing.assert_allclose(kernels.sweep(v, local, 1), v, rtol=0, atol=0)
