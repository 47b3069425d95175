"""State evolution under a global operator.

A run starts from one configuration of the N sites, given as its bits.
Probabilistic states carry configuration probabilities directly; quantum
states carry amplitudes whose squared moduli are the probabilities.

The local update never changes the right site of its pair, so the last
site never changes and Q = Q_0 (+) Q_1 by index parity.  A state is held
as its two parity blocks, each over the first N - 1 sites, and a block
that holds no mass is not held at all: a basis start occupies the one
block of its last bit.  Evolution steps each occupied block in place with
one held sweep, ``GlobalOperator._step``, and yields a read-only view of
the blocks after every step, each valid until the next is drawn; every
view re-checks normalization instead of silently renormalizing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import DimensionMismatch, DomainError, InvariantDrift, KindMismatch
from .models import LocalOperator, classify
from .operators import GlobalOperator
from .serialize import number_array, positive_int

_CONSTRUCT_TOL = 1e-10  # normalization tolerance for freshly built states
_REAL_TOL = 1e-12       # allowed imaginary / negative leakage of fresh probabilities


class StateKind(str, enum.Enum):
    PCA_PROBABILITY = "pca_probability"
    QCA_AMPLITUDE = "qca_amplitude"


@dataclass(frozen=True, eq=False, init=False)
class StateVector:
    """Configuration vector of N sites at a given time step, held as its parity blocks.

    ``blocks[b]`` holds the components at the indices 2i + b, those whose
    last site holds b, as a read-only contiguous array of 2^(N-1) entries,
    or is None when the state has no mass there.  A state built from a 2^N
    vector copies its two parity slices into two blocks; ``components``
    forms the 2^N vector from the blocks on each request and ``chunks``
    yields it piece by piece.

    A fresh state is held to strict tolerances, and a probability vector
    that leaks below zero or off the real axis is invalid input
    (DomainError).  An ``evolved`` state is held to ``DEFAULTS.drift_tol``:
    its leakage, like its normalization error, is numerical drift of the
    weights that classification accepted (InvariantDrift).  A NaN component
    fails either check.
    """

    n_sites: int
    kind: StateKind
    time_step: int
    blocks: tuple = field(repr=False)

    def __init__(self, n_sites: int, kind: StateKind, components, time_step: int = 0,
                 evolved: bool = False):
        n_sites = positive_int("n_sites", n_sites)
        v = number_array("state components", components).reshape(-1)
        if v.shape[0] != (1 << n_sites):
            raise DimensionMismatch(f"state length {v.shape[0]} does not match 2^{n_sites}")
        self._hold(n_sites, kind, (v[0::2].copy(), v[1::2].copy()), time_step, evolved)

    @classmethod
    def _of_blocks(cls, n_sites: int, kind: StateKind, blocks, time_step: int,
                   evolved: bool = True) -> "StateVector":
        """The state whose parity blocks are ``blocks``, taken without a copy."""
        state = cls.__new__(cls)
        state._hold(n_sites, kind, blocks, time_step, evolved)
        return state

    def _hold(self, n_sites, kind, blocks, time_step, evolved):
        views = []
        for block in blocks:
            if block is not None:
                block = block.reshape(-1)
                block.setflags(write=False)
            views.append(block)
        for name, value in (("n_sites", n_sites), ("kind", StateKind(kind)),
                            ("time_step", positive_int("time_step", time_step, 0)),
                            ("blocks", tuple(views))):
            object.__setattr__(self, name, value)
        self._check(evolved)

    @property
    def components(self) -> np.ndarray:
        """The 2^N vector, read-only, formed from the blocks."""
        v = self._interleave(0, 1 << (self.n_sites - 1))
        v.setflags(write=False)
        return v

    def chunks(self, size: int):
        """Yield ``components`` in order, ``size`` entries at a time; ``size`` is even and >= 2."""
        size = positive_int("chunk size", size)
        if size % 2:
            raise DomainError(f"chunk size must be even, got {size}")
        half, step = 1 << (self.n_sites - 1), size >> 1
        return (self._interleave(lo, min(lo + step, half)) for lo in range(0, half, step))

    def _interleave(self, lo: int, hi: int) -> np.ndarray:
        """Components 2 lo .. 2 hi - 1: the blocks' entries lo .. hi - 1, zeros where one is absent."""
        held = [(b, block) for b, block in enumerate(self.blocks) if block is not None]
        out = np.zeros(2 * (hi - lo), np.result_type(*(block for _, block in held)))
        for b, block in held:
            out[b::2] = block[lo:hi]
        return out

    def _check(self, evolved: bool):
        blocks = [block for block in self.blocks if block is not None]
        norm_tol = DEFAULTS.drift_tol if evolved else _CONSTRUCT_TOL
        # invalid input in a fresh state, numerical drift in an evolved one
        error = InvariantDrift if evolved else DomainError
        # each test below is written so that NaN fails it; np.max, unlike max, keeps a NaN
        if self.kind is StateKind.PCA_PROBABILITY:
            leak_tol = norm_tol if evolved else _REAL_TOL
            # a real array has no imaginary part to leak into; no temporary either way
            imag = [max(v.imag.max(), -v.imag.min()) for v in blocks if v.dtype.kind == "c"]
            leaks = ((np.max(imag), "real"),) if imag else ()
            leaks += ((np.max([-v.real.min() for v in blocks]), "nonnegative"),)
            for leak, rule in leaks:
                if not leak <= leak_tol:
                    raise error(f"probabilities must be {rule}: leakage {leak:.3e} "
                                f"exceeds {leak_tol:.1e}")
            drift = abs(sum(v.real.sum() for v in blocks) - 1.0)
        else:
            drift = abs(math.hypot(*(np.linalg.norm(v) for v in blocks)) - 1.0)
        if not drift <= norm_tol:
            # a fresh state's non-finite norm is invalid input, not drift
            raise (InvariantDrift if np.isfinite(drift) else error)(
                f"normalization error {drift:.3e} exceeds {norm_tol:.1e}"
            )


def initial_state(bits, kind: StateKind, n_sites: Optional[int] = None) -> StateVector:
    """Point mass at time step 0 on the configuration with site states ``bits``.

    Site 0 is the most significant bit of the index.  The bits and a given
    ``n_sites`` (say, the operator's) are checked before any array is
    allocated.  Only the parity block of the last bit is built, a basis
    vector of 2^(N-1) entries, and the state owns it: no copy is made.
    """
    bits = tuple(positive_int("site state", b, 0) for b in bits)
    if not bits:
        raise DomainError("a configuration needs at least one site")
    if any(b not in (0, 1) for b in bits):
        raise DomainError(f"site states must be 0 or 1, got {bits}")
    if n_sites is not None and len(bits) != n_sites:
        raise DimensionMismatch(f"configuration has {len(bits)} sites, need {n_sites}")
    block = np.zeros(1 << (len(bits) - 1))
    block[int("0" + "".join(map(str, bits[:-1])), 2)] = 1.0
    blocks = (None, block) if bits[-1] else (block, None)
    return StateVector._of_blocks(len(bits), StateKind(kind), blocks, 0, evolved=False)


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
    and normalization at every yield.  The run holds one working array per
    occupied parity block of ``state``, a (2^(N-1), 1) copy in the dtype
    the operator promotes it to, and each step replaces block b by
    ``op._step(b, block)``, one held sweep, in place above the kernel's
    buffer.  A block without mass is never allocated or swept.  ``state``
    is not held past those copies.  Each yielded state is a read-only view
    of the working arrays, valid until the next one is drawn.
    """
    steps = positive_int("steps", steps, 0)
    if state.n_sites != op.n_sites:
        raise DimensionMismatch(
            f"state has {state.n_sites} sites, operator has {op.n_sites}"
        )
    n, kind, t = state.n_sites, state_kind(op.local, state.kind), state.time_step
    dtype = np.result_type(*(v for v in state.blocks if v is not None), op.local.entries)
    work = [None, None]
    for b, v in enumerate(state.blocks):
        nonzero = v is not None and v != 0
        if np.any(nonzero):
            work[b] = np.zeros((v.size, 1), dtype)
            # zeros are not written: the pages of a sparse start (a basis vector)
            # are first touched by the sweep, once the start state is freed
            np.copyto(work[b][:, 0], v, where=nonzero)
    del state, v, nonzero
    yield StateVector._of_blocks(n, kind, work, t)
    for t in range(t + 1, t + steps + 1):
        work = [None if w is None else op._step(b, w) for b, w in enumerate(work)]
        yield StateVector._of_blocks(n, kind, work, t)


def site_marginals(state: StateVector) -> np.ndarray:
    """P(site x occupied) for each x, summed over configurations.

    The last site never changes, and its marginal is the share of the mass
    in parity block 1: exactly 0 or 1 when one block holds the state, as in
    every run from a configuration.  Each block, read as a
    (2^floor((N-1)/2), 2^ceil((N-1)/2)) matrix, holds the leading sites in
    the row index and the other sites but the last in the column index, so
    the leading marginals come from the row sums and the others from the
    column sums, added over the blocks.  Each of those vectors is folded
    one site at a time from its last: the odd entries hold that site
    occupied, and adding each odd entry to its even neighbour sums the site
    out.  No block-sized temporary is made: squared moduli are summed as
    dot products over the float64 view of the amplitudes, where a complex
    entry is a (re, im) pair of columns, so its
    column sums fold in pairs.
    """
    n = state.n_sites
    lead = (n - 1) // 2
    marginals = np.empty(n)
    rows = cols = 0.0
    mass = [0.0, 0.0]
    for b, block in enumerate(state.blocks):
        if block is None:
            continue
        v = block.reshape(1 << lead, -1)
        if state.kind is StateKind.PCA_PROBABILITY:
            row_sums, col_sums = v.real.sum(axis=1), v.real.sum(axis=0)
        else:
            w = np.ascontiguousarray(v).view(np.float64)
            row_sums = np.einsum("ij,ij->i", w, w)
            col_sums = np.einsum("ij,ij->j", w, w).reshape(v.shape[1], -1).sum(axis=1)
        rows, cols, mass[b] = rows + row_sums, cols + col_sums, row_sums.sum()
    marginals[n - 1] = mass[1] / (mass[0] + mass[1])
    for sums, sites in ((rows, range(lead)), (cols, range(lead, n - 1))):
        for x in reversed(sites):
            marginals[x] = sums[1::2].sum()
            sums = sums[0::2] + sums[1::2]
    return marginals


def evolve_trajectory(state: StateVector, op: GlobalOperator, steps: int):
    """Yield (time_step, site_marginals) of each state of ``evolve_states``."""
    return ((s.time_step, site_marginals(s)) for s in evolve_states(state, op, steps))
