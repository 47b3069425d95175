"""State evolution under a global operator.

A run starts from one configuration of the N sites, given as its bits.
Probabilistic states carry configuration probabilities directly; quantum
states carry amplitudes whose squared moduli are the probabilities.
Evolution sweeps one working array a step and yields a read-only view of
it after every step, each valid until the next is drawn; every view
re-checks normalization instead of silently renormalizing.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass
from typing import Optional

import numpy as np

from . import kernels
from .config import DEFAULTS
from .errors import DimensionMismatch, DomainError, InvariantDrift, KindMismatch
from .models import LocalOperator, classify
from .operators import GlobalOperator

_CONSTRUCT_TOL = 1e-10  # normalization tolerance for freshly built states
_REAL_TOL = 1e-12       # allowed imaginary / negative leakage of fresh probabilities


class StateKind(str, enum.Enum):
    PCA_PROBABILITY = "pca_probability"
    QCA_AMPLITUDE = "qca_amplitude"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Length-2^N configuration vector at a given time step.

    A fresh state copies its components and is held to strict tolerances,
    and a probability vector that leaks below zero or off the real axis is
    invalid input (DomainError).  An ``evolved`` state is held to
    ``DEFAULTS.drift_tol``: its leakage, like its normalization error, is
    numerical drift of the weights that classification accepted
    (InvariantDrift).  A NaN component fails either check.  An evolved
    state, or one built ``owned``, takes the array it is given (the
    operator's fresh result, a new basis vector) without copying it and
    holds a read-only view of it.
    """

    n_sites: int
    kind: StateKind
    components: np.ndarray
    time_step: int = 0
    evolved: InitVar[bool] = False
    owned: InitVar[bool] = False

    def __post_init__(self, evolved, owned):
        v = (np.asarray if evolved or owned else np.array)(self.components).reshape(-1)
        if v.shape[0] != (1 << self.n_sites):
            raise DimensionMismatch(
                f"state length {v.shape[0]} does not match 2^{self.n_sites}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "components", v)
        object.__setattr__(self, "kind", StateKind(self.kind))
        self._check(evolved)

    def _check(self, evolved: bool):
        v = self.components
        norm_tol = DEFAULTS.drift_tol if evolved else _CONSTRUCT_TOL
        # invalid input in a fresh state, numerical drift in an evolved one
        error = InvariantDrift if evolved else DomainError
        # each test below is written so that NaN fails it
        if self.kind is StateKind.PCA_PROBABILITY:
            leak_tol = norm_tol if evolved else _REAL_TOL
            # a real array has no imaginary part to leak into; no temporary either way
            leaks = (((max(v.imag.max(), -v.imag.min()), "real"),)
                     if v.dtype.kind == "c" else ())
            for leak, rule in leaks + ((-v.real.min(), "nonnegative"),):
                if not leak <= leak_tol:
                    raise error(f"probabilities must be {rule}: leakage {leak:.3e} "
                                f"exceeds {leak_tol:.1e}")
            drift = abs(v.real.sum() - 1.0)
        else:
            drift = abs(np.linalg.norm(v) - 1.0)
        if not drift <= norm_tol:
            # a fresh state's non-finite norm is invalid input, not drift
            raise (InvariantDrift if np.isfinite(drift) else error)(
                f"normalization error {drift:.3e} exceeds {norm_tol:.1e}"
            )


def initial_state(bits, kind: StateKind, n_sites: Optional[int] = None) -> StateVector:
    """Point mass at time step 0 on the configuration with site states ``bits``.

    Site 0 is the most significant bit of the index.  The bits and a given
    ``n_sites`` (say, the operator's) are checked before the 2^N vector is
    allocated, and the state owns that vector: no copy is made.
    """
    bits = tuple(int(b) for b in bits)
    if not bits:
        raise DomainError("a configuration needs at least one site")
    if any(b not in (0, 1) for b in bits):
        raise DomainError(f"site states must be 0 or 1, got {bits}")
    if n_sites is not None and len(bits) != n_sites:
        raise DimensionMismatch(f"configuration has {len(bits)} sites, need {n_sites}")
    v = np.zeros(1 << len(bits))
    v[int("".join(map(str, bits)), 2)] = 1.0
    return StateVector(len(bits), StateKind(kind), v, 0, owned=True)


def state_kind(local: LocalOperator, kind: Optional[StateKind] = None) -> StateKind:
    """The kind of state that can evolve under ``local``.

    Probabilistic states need a column-stochastic local operator, quantum
    states a unitary one.  A given ``kind`` is checked; without one the
    probabilistic kind is tried first.
    """
    cls = classify(local)
    if kind is None:
        if not (cls.is_pca or cls.is_qca):
            raise KindMismatch("model is neither stochastic nor unitary; no state kind evolves")
        return StateKind.PCA_PROBABILITY if cls.is_pca else StateKind.QCA_AMPLITUDE
    pca = kind is StateKind.PCA_PROBABILITY
    if not (cls.is_pca if pca else cls.is_qca):
        need = "column-stochastic" if pca else "unitary"
        raise KindMismatch(f"{kind.value} evolution needs a {need} local operator")
    return kind


def evolve_states(state: StateVector, op: GlobalOperator, steps: int):
    """Yield the start state and the state after each of the next ``steps`` steps.

    The kind is checked against the operator once, before the first yield,
    and normalization at every yield.  The run holds one 2^N array: a copy
    of ``state`` in the dtype the operator promotes it to, which each step
    hands to ``kernels.sweep`` and replaces by the array it returns.
    ``state`` is not held past that copy.  Each yielded state is a
    read-only view of the array, valid until the next one is drawn.
    """
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    if state.n_sites != op.n_sites:
        raise DimensionMismatch(
            f"state has {state.n_sites} sites, operator has {op.n_sites}"
        )
    n, kind, t = state.n_sites, state_kind(op.local, state.kind), state.time_step
    v = state.components
    work = np.zeros(v.size, np.result_type(v, op.local.entries))
    # zeros are not written: the pages of a sparse start (a basis vector)
    # are first touched by the sweep, once the start state is freed
    np.copyto(work, v, where=v != 0)
    del state, v
    yield StateVector(n, kind, work, t, evolved=True)
    for t in range(t + 1, t + steps + 1):
        work = kernels.sweep(work, op.local.entries, n)
        yield StateVector(n, kind, work, t, evolved=True)


def site_marginals(state: StateVector) -> np.ndarray:
    """P(site x occupied) for each x, summed over configurations.

    Read as a (2^floor(N/2), 2^ceil(N/2)) matrix, the probabilities hold
    the leading sites in the row index and the trailing sites in the
    column index, so the leading marginals come from the row sums and the
    trailing ones from the column sums.  Each of those vectors is folded
    one site at a time from its last: the odd entries hold that site
    occupied, and adding each odd entry to its even neighbour sums the site
    out.  No state-sized temporary is made: squared moduli are summed as
    dot products over the float64 view of the amplitudes, where a complex
    entry is a (re, im) pair of columns, so its column sums fold in pairs.
    """
    n = state.n_sites
    lead = n // 2
    v = state.components.reshape(1 << lead, -1)
    if state.kind is StateKind.PCA_PROBABILITY:
        rows, cols = v.real.sum(axis=1), v.real.sum(axis=0)
    else:
        w = np.ascontiguousarray(v).view(np.float64)
        rows = np.einsum("ij,ij->i", w, w)
        cols = np.einsum("ij,ij->j", w, w).reshape(v.shape[1], -1).sum(axis=1)
    marginals = np.empty(n)
    for sums, sites in ((rows, range(lead)), (cols, range(lead, n))):
        for x in reversed(sites):
            marginals[x] = sums[1::2].sum()
            sums = sums[0::2] + sums[1::2]
    return marginals


def evolve_trajectory(state: StateVector, op: GlobalOperator, steps: int):
    """Yield (time_step, site_marginals) of each state of ``evolve_states``."""
    return ((s.time_step, site_marginals(s)) for s in evolve_states(state, op, steps))
