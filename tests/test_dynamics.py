"""State construction, evolution, probabilities and marginals."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipszeta.dynamics
from ipszeta import (
    DimensionMismatch,
    DomainError,
    GlobalOperator,
    InvariantDrift,
    KindMismatch,
    ModelSpec,
    StateKind,
    StateVector,
    build_local,
    classify,
    evolve_trajectory,
    initial_state,
    kernels,
    site_marginals,
    state_kind,
)
from ipszeta.config import DEFAULTS
from ipszeta.dynamics import evolve_states

from helpers import last_state, one_step_distribution

RULE90 = build_local(ModelSpec.qca2(0, 0))
# a unitary local operator with complex entries: qca1 with a phase on each site pair
COMPLEX_QCA = ModelSpec.custom(build_local(ModelSpec.qca1(0.4, 1.1)).entries
                               @ np.diag(np.exp(1j * np.array([0.3, 0.0, 1.1, 0.0]))))


def _op(spec, n):
    return GlobalOperator(build_local(spec), n)


def _held_states(start, op, steps):
    """(time_step, state) per state of ``evolve_states``: the json path's rows."""
    return ((s.time_step, s) for s in evolve_states(start, op, steps))


class TestInitialState:
    def test_three_site_example(self):
        state = initial_state((0, 0, 1), StateKind.PCA_PROBABILITY)
        expected = np.zeros(8)
        expected[1] = 1.0
        np.testing.assert_array_equal(state.components, expected)
        assert state.time_step == 0

    def test_single_site(self):
        state = initial_state((0,), StateKind.QCA_AMPLITUDE)
        np.testing.assert_array_equal(state.components, [1.0, 0.0])

    def test_two_site_index(self):
        state = initial_state((1, 1), StateKind.PCA_PROBABILITY)
        assert state.components[3] == 1.0

    def test_site_count_is_checked_before_the_vector_is_built(self):
        assert initial_state((1, 0), StateKind.QCA_AMPLITUDE, 2).n_sites == 2
        # 2^64 entries cannot be allocated, so this passes only if the check comes first
        with pytest.raises(DimensionMismatch, match="64 sites, need 3"):
            initial_state((0,) * 64, StateKind.PCA_PROBABILITY, 3)


    def test_msb_first_index_convention(self):
        # site 0 is the most significant bit: (0,0,1) sits at index 1
        v = initial_state((0, 0, 1), StateKind.PCA_PROBABILITY).components
        assert v[1] == 1 and np.count_nonzero(v) == 1

    def test_rejects_bad_bits(self):
        with pytest.raises(DomainError, match=r"site states must be 0 or 1, got \(0, 2\)"):
            initial_state((0, 2), StateKind.PCA_PROBABILITY)
        with pytest.raises(DomainError, match="at least one site"):
            initial_state((), StateKind.PCA_PROBABILITY)


class TestStateInvariants:
    def test_pca_rejects_negative(self):
        with pytest.raises(DomainError):
            StateVector(1, StateKind.PCA_PROBABILITY, np.array([1.5, -0.5]))

    def test_pca_rejects_complex(self):
        with pytest.raises(DomainError):
            StateVector(1, StateKind.PCA_PROBABILITY, np.array([0.5, 0.5j]))

    def test_pca_rejects_unnormalized(self):
        with pytest.raises(InvariantDrift):
            StateVector(1, StateKind.PCA_PROBABILITY, np.array([0.7, 0.7]))

    def test_qca_rejects_unnormalized(self):
        with pytest.raises(InvariantDrift):
            StateVector(1, StateKind.QCA_AMPLITUDE, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("kind", tuple(StateKind))
    @pytest.mark.parametrize("components", ([np.nan, np.nan], [1.0, np.nan],
                                            [1.0, complex(0.0, np.nan)], [np.inf, 0.0]))
    def test_non_finite_components_are_refused(self, kind, components):
        # NaN compares False with every tolerance: invalid input when fresh,
        # drift when evolved
        v = np.array(components)
        with pytest.raises(DomainError):
            StateVector(1, kind, v)
        with pytest.raises(InvariantDrift):
            StateVector(1, kind, v, 1, evolved=True)

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            StateVector(3, StateKind.QCA_AMPLITUDE, np.ones(4) / 2.0)


class TestStateOwnership:
    def test_state_copies_the_callers_array(self):
        source = np.array([0.25, 0.75])
        state = StateVector(1, StateKind.PCA_PROBABILITY, source)
        source[0] = 0.5
        np.testing.assert_array_equal(state.components, [0.25, 0.75])
        assert source.flags.writeable

    def test_evolved_state_takes_the_operators_array(self):
        fresh = np.array([0.25, 0.75])
        state = StateVector(1, StateKind.PCA_PROBABILITY, fresh, 1, evolved=True)
        assert np.shares_memory(state.components, fresh)

    def test_evolved_real_state_allocates_no_state_sized_array(self):
        # no copy, and no all-zero imaginary part of a float64 state
        fresh = np.full(1 << 16, 1.0 / (1 << 16))
        tracemalloc.start()
        try:
            StateVector(16, StateKind.PCA_PROBABILITY, fresh, 1, evolved=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fresh.nbytes / 4

    def test_sweep_holds_one_result_sized_array(self):
        # the array is larger than the buffer, so every fused group updates it in place
        v = np.full(1 << 20, 1.0 / (1 << 20))
        local = build_local(ModelSpec.dk(0.6, 0.8)).entries
        tracemalloc.start()
        try:
            out = kernels.sweep(v, local, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float64 and peak <= 1.25 * out.nbytes

    def test_initial_state_owns_its_basis_vector(self):
        tracemalloc.start()
        try:
            state = initial_state((1,) * 18, StateKind.PCA_PROBABILITY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= state.components.nbytes + (64 << 10)

    @pytest.mark.parametrize("spec, kind, evolution", (
        pytest.param(ModelSpec.dk(0.6, 0.8), StateKind.PCA_PROBABILITY, evolve_trajectory,
                     id="spec0-pca_probability"),
        pytest.param(COMPLEX_QCA, StateKind.QCA_AMPLITUDE, evolve_trajectory,
                     id="spec1-qca_amplitude"),
        pytest.param(ModelSpec.dk(0.6, 0.8), StateKind.PCA_PROBABILITY, _held_states,
                     id="json-pca_probability"),
    ))
    def test_trajectory_holds_one_state(self, spec, kind, evolution):
        # from the first step on: the working array, the sweep's buffer and
        # the marginals' row and column sums, or every state drawn, each a view
        # of that array; a complex run promotes the start once
        bits = tuple(int(b) for b in "011010010110100101")
        rows = evolution(initial_state(bits, kind), _op(spec, 18), 3)
        next(rows)
        tracemalloc.start()
        try:
            held = list(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        itemsize = np.result_type(float, build_local(spec).entries).itemsize
        assert [step for step, _ in held] == [1, 2, 3]
        assert peak <= (itemsize << 18) + kernels._SLAB_BYTES + (64 << 10)

    def test_trajectory_matches_the_evolved_states(self):
        # oracle: out-of-place applications from the start vector; a float64
        # start under a complex local, so the working array is promoted once
        op = _op(COMPLEX_QCA, 7)
        start = initial_state((0, 1, 1, 0, 1, 0, 0), StateKind.QCA_AMPLITUDE)
        rows = list(evolve_trajectory(start, op, 4))
        assert [step for step, _ in rows] == [0, 1, 2, 3, 4]
        v = start.components
        for step, marginals in rows:
            state = StateVector(7, StateKind.QCA_AMPLITUDE, v, step, evolved=True)
            np.testing.assert_allclose(marginals, site_marginals(state), rtol=0, atol=1e-15)
            v = op.apply(v)


_LEAK_MESSAGE = {"negative": "must be nonnegative", "imaginary": "must be real"}


class TestEvolve:
    def test_rule90_is_deterministic(self):
        op = GlobalOperator(RULE90, 3)
        state = initial_state((0, 0, 1), StateKind.PCA_PROBABILITY)
        out = last_state(state, op, 1)
        assert out.components[3] == 1.0
        assert out.time_step == 1

    def test_pca_branch_probability(self):
        # one step from (0,0,1): the (0,1,1) branch carries weight 1 * p
        p, q = 0.3, 0.6
        out = last_state(initial_state((0, 0, 1), StateKind.PCA_PROBABILITY),
                         _op(ModelSpec.dk(p, q), 3), 1)
        assert out.components[3] == pytest.approx(p)

    def test_qca_branch_probability(self):
        x1, x2 = 0.4, 1.1
        out = last_state(initial_state((0, 0, 1), StateKind.QCA_AMPLITUDE),
                         _op(ModelSpec.qca1(x1, x2), 3), 1)
        expected = abs(math.cos(x1) * math.sin(x2)) ** 2
        amplitude = out.components[3]
        assert abs(amplitude) ** 2 == pytest.approx(expected)

    def test_kind_mismatch(self):
        pca_state = initial_state((0, 0), StateKind.PCA_PROBABILITY)
        with pytest.raises(KindMismatch):
            last_state(pca_state, _op(ModelSpec.qca1(0.4, 1.1), 2), 1)
        qca_state = initial_state((0, 0), StateKind.QCA_AMPLITUDE)
        with pytest.raises(KindMismatch):
            last_state(qca_state, _op(ModelSpec.dk(0.3, 0.7), 2), 1)

    @pytest.mark.parametrize("spec, kind", [
        (ModelSpec.dk(0.3, 0.7), StateKind.PCA_PROBABILITY),
        (ModelSpec.qca1(0.4, 1.1), StateKind.QCA_AMPLITUDE),
        (ModelSpec.qca2(0, 0), StateKind.PCA_PROBABILITY),  # Rule 90 is both: pca first
    ], ids=["dk", "qca1", "rule90"])
    def test_kind_is_inferred_pca_first(self, spec, kind):
        assert state_kind(build_local(spec)) is kind
        assert state_kind(build_local(spec), kind) is kind

    def test_no_kind_fits_an_operator_that_is_neither(self):
        local = build_local(ModelSpec.custom(0.5 * np.eye(4)))
        for kind in (None, *StateKind):
            with pytest.raises(KindMismatch) as exc:
                state_kind(local, kind)
            assert "--kind" not in str(exc.value)

    def test_site_count_mismatch(self):
        state = initial_state((0, 0), StateKind.PCA_PROBABILITY)
        with pytest.raises(DimensionMismatch):
            last_state(state, _op(ModelSpec.dk(0.3, 0.7), 3), 1)

    def test_states_follow_the_operator_format(self):
        # a real model keeps float64 states; a complex one promotes them
        start = initial_state((0, 1, 1), StateKind.PCA_PROBABILITY)
        assert start.components.dtype == np.float64
        for state in evolve_states(start, _op(ModelSpec.dk(0.3, 0.7), 3), 3):
            assert state.components.dtype == np.float64
        phase = _op(ModelSpec.tensor(np.eye(2), np.diag([1.0, 1j])), 3)
        start = initial_state((0, 0, 1), StateKind.QCA_AMPLITUDE)
        out = last_state(start, phase, 1)  # only pair (1, 2) sees a right site 1
        assert out.components.dtype == np.complex128 and out.components[1] == 1j

    @pytest.mark.parametrize("p", (0.0, 0.35, 0.8, 1.0))
    @pytest.mark.parametrize("n", (2, 5, 10))
    def test_probability_conserved_100_steps(self, p, n):
        op = _op(ModelSpec.dk(p, 1 - p / 2), n)
        state = initial_state((1,) * n, StateKind.PCA_PROBABILITY)
        out = last_state(state, op, 100)
        assert abs(out.components.real.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("model", ("qca1", "qca2"))
    @pytest.mark.parametrize("angles", ((0.4, 1.1), (2.0, 5.5), (math.pi / 2, 0.0)))
    def test_norm_conserved_100_steps(self, model, angles):
        op = _op(ModelSpec(model, angles), 6)
        state = initial_state((0, 1) * 3, StateKind.QCA_AMPLITUDE)
        out = last_state(state, op, 100)
        assert abs(np.linalg.norm(out.components) - 1.0) < 1e-10

    @pytest.mark.parametrize("n,period", ((2, 2), (3, 4), (4, 4)))
    def test_rule90_returns_after_period(self, n, period):
        op = GlobalOperator(RULE90, n)
        start = initial_state((0,) * (n - 1) + (1,), StateKind.PCA_PROBABILITY)
        out = last_state(start, op, period)
        np.testing.assert_allclose(out.components, start.components, rtol=0, atol=1e-12)
        half = last_state(start, op, period // 2)
        assert np.max(np.abs(half.components - start.components)) > 0.5

    def test_drift_detected(self):
        # columns summing to 1 + 5e-10 pass classification but drift over
        # 100 steps on 4 sites
        m = build_local(ModelSpec.dk(0.4, 0.7)).entries.copy()
        m += np.eye(4) * 5e-10
        op = GlobalOperator(build_local(ModelSpec.custom(m)), 4)
        state = StateVector(4, StateKind.PCA_PROBABILITY, np.full(16, 1 / 16))
        with pytest.raises(InvariantDrift):
            last_state(state, op, 100)

    @pytest.mark.parametrize("leak", ("negative", "imaginary"))
    @pytest.mark.parametrize("factor", (0.5, 2.0))
    def test_evolved_leakage_is_judged_as_drift(self, leak, factor):
        # below drift_tol an evolved state stands; above it is InvariantDrift,
        # while a fresh state with the same leakage is invalid input
        eps = factor * DEFAULTS.drift_tol
        v = np.array([1.0 + eps, -eps]) if leak == "negative" else np.array([1.0 + 1j * eps, 0])
        if factor < 1:
            StateVector(1, StateKind.PCA_PROBABILITY, v, 1, evolved=True)
        else:
            with pytest.raises(InvariantDrift, match=_LEAK_MESSAGE[leak]):
                StateVector(1, StateKind.PCA_PROBABILITY, v, 1, evolved=True)
        with pytest.raises(DomainError, match=_LEAK_MESSAGE[leak]):
            StateVector(1, StateKind.PCA_PROBABILITY, v)

    def test_imaginary_leakage_accumulates_into_drift(self):
        # 1e-10j in one weight passes classification; the imaginary part of
        # the state grows by 2e-10 per step and crosses drift_tol at step 51
        m = [[1 + 1e-10j, 0, 0.5, 0], [0, 1, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 1]]
        op = GlobalOperator(build_local(ModelSpec.custom(m)), 3)
        start = initial_state((0, 0, 0), StateKind.PCA_PROBABILITY)
        assert state_kind(op.local) is StateKind.PCA_PROBABILITY
        last_state(start, op, 45)
        with pytest.raises(InvariantDrift, match="must be real"):
            last_state(start, op, 55)


class TestObservables:
    def test_basis_marginals(self):
        state = initial_state((0, 0, 1), StateKind.PCA_PROBABILITY)
        np.testing.assert_array_equal(site_marginals(state), [0.0, 0.0, 1.0])

    def test_uniform_marginals(self):
        state = StateVector(2, StateKind.PCA_PROBABILITY, np.full(4, 0.25))
        np.testing.assert_allclose(site_marginals(state), [0.5, 0.5], rtol=0, atol=0)

    def test_single_site_marginal(self):
        state = initial_state((1,), StateKind.PCA_PROBABILITY)
        np.testing.assert_array_equal(site_marginals(state), [1.0])

    # the leading floor(N/2) sites come from row sums, the others from column
    # sums; odd N splits unevenly, and a complex amplitude sums both parts
    @pytest.mark.parametrize("kind", tuple(StateKind))
    @pytest.mark.parametrize("n", range(1, 14))
    def test_marginals_match_an_exact_bit_sum(self, n, kind):
        # oracle: math.fsum over the configurations whose bit x is set
        rng = np.random.default_rng(n)
        for dtype in (float, complex):
            p = rng.random(2 ** n)
            p /= p.sum()
            if kind is StateKind.QCA_AMPLITUDE:
                phases = (np.exp(2j * math.pi * rng.random(2 ** n)) if dtype is complex
                          else rng.choice((-1.0, 1.0), 2 ** n))
                p = np.sqrt(p) * phases
            state = StateVector(n, kind, p.astype(dtype))
            probs = (state.components.real if kind is StateKind.PCA_PROBABILITY
                     else np.abs(state.components) ** 2)
            oracle = [math.fsum(probs[i] for i in range(2 ** n) if i >> (n - 1 - x) & 1)
                      for x in range(n)]
            np.testing.assert_allclose(site_marginals(state), oracle, rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(tuple(StateKind)), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_marginals_match_a_per_site_sum(self, n, kind, complex_dtype, seed):
        # oracle: math.fsum, site by site, over the configurations whose bit x is set
        rng = np.random.default_rng(seed)
        p = rng.random(2 ** n)
        p /= p.sum()
        if kind is StateKind.QCA_AMPLITUDE:
            signs = rng.choice((-1.0, 1.0), 2 ** n)
            phases = np.exp(2j * math.pi * rng.random(2 ** n)) if complex_dtype else signs
            components = np.sqrt(p) * phases
            p = np.abs(components) ** 2
        else:
            components = p.astype(complex) if complex_dtype else p
        state = StateVector(n, kind, components)
        index = np.arange(2 ** n)
        oracle = [math.fsum(p[index >> (n - 1 - x) & 1 == 1]) for x in range(n)]
        np.testing.assert_allclose(site_marginals(state), oracle, rtol=0, atol=1e-14)

    def test_dk_one_step_marginals_match_enumeration(self):
        # oracle: exhaustive outcome weights of one step from all-ones
        p = 0.3
        local = build_local(ModelSpec.dk(p, p))
        dist = one_step_distribution(local.entries, (1, 1, 1, 1))
        oracle = np.zeros(4)
        for out_bits, w in dist.items():
            for x, b in enumerate(out_bits):
                if b:
                    oracle[x] += w.real
        out = last_state(initial_state((1, 1, 1, 1), StateKind.PCA_PROBABILITY),
                         _op(ModelSpec.dk(p, p), 4), 1)
        got = site_marginals(out)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-14)
        # frozen values computed with the oracle above: only interior sites
        # flip (each independently with weight 1-q) and the last never does
        np.testing.assert_allclose(got, [0.3, 0.3, 0.3, 1.0], rtol=0, atol=1e-14)

    def test_qca_probabilities_sum_to_one(self):
        out = last_state(initial_state((0, 1, 0), StateKind.QCA_AMPLITUDE),
                         _op(ModelSpec.qca2(0.7, 1.9), 3), 3)
        assert (np.abs(out.components) ** 2).sum() == pytest.approx(1.0, abs=1e-12)

    def test_trajectory_classifies_once(self, monkeypatch):
        calls = []

        def counting(local, *args, **kwargs):
            calls.append(local)
            return classify(local, *args, **kwargs)

        monkeypatch.setattr(ipszeta.dynamics, "classify", counting)
        state = initial_state((0, 0, 1), StateKind.PCA_PROBABILITY)
        rows = list(evolve_trajectory(state, GlobalOperator(RULE90, 3), 20))
        assert len(rows) == 21 and len(calls) == 1

    def test_trajectory_frees_each_state_after_its_step(self):
        # a 2^N start state held for the whole run would raise peak memory by its size
        start = initial_state((0, 0, 1), StateKind.PCA_PROBABILITY)
        ref = weakref.ref(start)
        rows = evolve_trajectory(start, GlobalOperator(RULE90, 3), 3)
        del start
        next(rows), next(rows)
        assert ref() is None

    def test_trajectory_steps(self):
        op = GlobalOperator(RULE90, 3)
        state = initial_state((0, 0, 1), StateKind.PCA_PROBABILITY)
        rows = list(evolve_trajectory(state, op, 2))
        assert [r[0] for r in rows] == [0, 1, 2]
        np.testing.assert_array_equal(rows[0][1], [0, 0, 1])
        np.testing.assert_array_equal(rows[1][1], [0, 1, 1])
