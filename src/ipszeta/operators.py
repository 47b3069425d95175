"""Global evolution operators on the N-site path.

The global operator chains the two-site local update across adjacent site
pairs, pair (0, 1) first.  Site 0 is the most significant bit of the
configuration index, so Kronecker products read left to right along the
path.  N = 1 is the 2x2 identity by convention.

The last site never changes, so Q splits by index parity into two
2^(N-1)-square blocks, Q = Q_0 (+) Q_1, and everything dense works on
them: the brute traces, ``eigenvalues`` and ``power_equals_identity``.
The 2^N-square form is never built.  A step of Q_b is one kernel sweep
of the first N - 1 sites with the last held at b.  The blocks of a
unitary Q are normal, so ``eigenvalues`` solves them through the
Hermitian eigensolver; every other block goes to nonsymmetric QR.

Traces have two engines behind ``GlobalOperator.trace_powers``, which
returns the averages C_r as a ``zeta.ZetaLogSeries``.  The brute engine
sweeps blocks of identity columns through both halves in O(r 4^N / 2).
The transfer engine reads the r-periodic space-time
histories along space: the right site of each pair is read before it
changes, so the weight of a history is a product over neighbouring sites
of

    T_r[a, b] = prod_t q[2 a_(t+1) + b_t, 2 a_t + b_t]

(a and b the cyclic time histories of sites x and x+1), and
tr(Q^r) = 1^T T_r^(N-1) c, with c the indicator of the two constant
histories of the last site, which never changes.  That costs O(N r 2^r).
A cost model picks the engine; see ``_transfer_cheaper``.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from . import kernels
from .config import DEFAULTS
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    SingularAtU,
    SizeExceeded,
)
from .models import LocalOperator, classify
from .serialize import positive_int
from .zeta import ZetaLogSeries, _ldexp

__all__ = ["GlobalOperator"]

# identity columns swept together by the brute trace and power engine
_BLOCK_BITS = 8
_BLOCK_COLUMNS = 1 << _BLOCK_BITS
# time per swept entry of the transfer engine (small arrays) over the brute
# engine's, as measured where the two cross at N = 8..11
_TRANSFER_COST = 2
_EPS = np.finfo(np.float64).eps
# a local operator whose Gram matrix is the identity to this many ulps takes
# the unitary spectrum path; a wider gate would admit a Q far enough from
# normal that the compressions below miss its eigenvalues by more than rounding
_UNITARY_TOL = 8 * _EPS
# sorted eigenvalues of the Hermitian part split into clusters at gaps above
# this; eigh's eigenvectors then span each cluster's subspace to within an
# angle ~eps / gap, and the compression's eigenvalues err by its square
_CLUSTER_GAP = _EPS ** (1 / 3)


def _transfer_cheaper(n_sites: int, r_max: int) -> bool:
    """Whether the transfer engine does less work than the brute one, in bounded memory.

    Both make about N - 1 pair steps per swept array.  Brute sweeps the two
    parity blocks, R 2 4^(N-1) = R 2^(2N-1) entries; transfer sweeps
    sum_{r<=R} r 2^(r+1) = (R - 1) 2^(R+2) + 4 at ``_TRANSFER_COST`` times
    the cost per entry.  Transfer's largest array, 2^(R+1) entries, must
    fit in one brute block of each parity together, 2^N min(2^(N-1), 256),
    at most twice the block brute sweeps.
    """
    if r_max + 1 > n_sites + min(n_sites - 1, _BLOCK_BITS):
        return False
    return _TRANSFER_COST * (((r_max - 1) << (r_max + 2)) + 4) < r_max << (2 * n_sites - 1)


def _space_time_dual(q: np.ndarray) -> np.ndarray:
    """M[2a + a', 2a + b] = q[2a' + b, 2a + b]: one time step of T_r.

    It keeps the left site's value a and trades the right site's b for the
    left site's next value a'.
    """
    m = np.zeros_like(q)
    for a, a_next, b in itertools.product((0, 1), repeat=3):
        m[2 * a + a_next, 2 * a + b] = q[2 * a_next + b, 2 * a + b]
    return m


class GlobalOperator:
    """Lazy 2^N x 2^N evolution operator built from one local operator.

    Vectors are applied matrix-free through the sweep kernel in
    O(N 2^N).  Powers run on the two parity blocks Q_0 and Q_1 of
    2^(N-1) dimensions each, one block of identity columns at a time.
    Traces take those blocks or the space-time transfer engine, whichever
    the cost model picks.  The spectrum solves the two blocks apart, up to
    ``DEFAULTS.dense_cap`` sites.
    """

    def __init__(self, local: LocalOperator, n_sites: int):
        if not isinstance(local, LocalOperator):
            local = LocalOperator(local)
        self.local = local
        self.n_sites = positive_int("n_sites", n_sites)
        self._eigenvalues: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    def apply(self, vec) -> np.ndarray:
        """Matrix-free product with a length-2^N vector, swept on one promoted flat copy."""
        v = np.asarray(vec)
        if v.size != self.dim:
            raise DimensionMismatch(
                f"vector length {v.size} does not match 2^{self.n_sites}"
            )
        work = v.astype(np.result_type(v, self.local.entries), order="C")
        return kernels.sweep(work, self.local.entries, self.n_sites)

    # the blocks are checked for finiteness, so numpy need not warn of overflow
    @np.errstate(over="ignore", invalid="ignore")
    def _half(self, b: int) -> np.ndarray:
        """Q_b as a dense 2^(N-1)-square array: one held sweep of the identity.

        Refused with SizeExceeded above ``DEFAULTS.dense_cap`` before any
        allocation, and with DomainError when an entry is not finite.
        """
        if self.n_sites > DEFAULTS.dense_cap:
            raise SizeExceeded(f"N={self.n_sites} exceeds the dense cap {DEFAULTS.dense_cap}")
        q_b = self._step(b, np.eye(self.dim >> 1, dtype=self.local.entries.dtype))
        if not np.isfinite(q_b).all():
            raise DomainError(f"the dense form at N={self.n_sites} overflows the "
                              "float range: an entry is not finite")
        return q_b

    def trace_powers(self, r_max: int) -> ZetaLogSeries:
        """C_r for r = 1..r_max and their log series, from the engine the cost model picks.

        Transfer costs O(N r 2^r) per r, brute O(r 4^N / 2).  A C_r that leaves
        the float range raises DomainError, and so does a trace read from
        ``values`` that leaves it.
        """
        r_max = positive_int("r_max", r_max)
        engine = (self._transfer_traces if _transfer_cheaper(self.n_sites, r_max)
                  else self._brute_traces)
        # ZetaLogSeries refuses what is not finite, so numpy need not warn of overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return ZetaLogSeries(self.n_sites, engine(r_max))

    def _brute_traces(self, r_max: int) -> np.ndarray:
        """C_r for r = 1..r_max from the diagonals of both parity blocks, in O(r 4^N / 2)."""
        traces = np.zeros(r_max, dtype=np.complex128)
        for start, r, image in self._block_powers(r_max):
            traces[r - 1] += np.trace(image, offset=-start)
        return _ldexp(traces, -self.n_sites)

    def _transfer_traces(self, r_max: int) -> np.ndarray:
        """C_r = 1^T T_r^(N-1) c / 2^N for r = 1..r_max in O(N r 2^r) per r.

        Each application of T_r is one sweep of the space-time dual over
        r + 1 "sites" (a_0, b_0, .., b_(r-1)): a_0 is a leading batch axis
        and step t trades b_t for a_(t+1); the diagonal a_r = a_0 closes the
        cycle.  Starting from c / 2 and halving after each application
        carries C_r itself, so no 2^N is ever formed.
        """
        dual = _space_time_dual(self.local.entries)
        c_values = np.empty(r_max, dtype=np.complex128)
        for r in range(1, r_max + 1):
            v = np.zeros(1 << r, dtype=dual.dtype)
            v[[0, -1]] = 0.5
            for _ in range(self.n_sites - 1):
                swept = kernels.sweep(np.concatenate((v, v)), dual, r + 1).reshape(2, -1, 2)
                v = np.concatenate((swept[0, :, 0], swept[1, :, 1])) * 0.5
            c_values[r - 1] = v.sum()
        return c_values

    def _block_powers(self, r_max: int):
        """Yield ``(start, r, Q_b^r E)`` for b = 0, 1 and r = 1..r_max.

        Q_b is Q on the configurations whose last site holds b, the indices
        of parity b.  E holds columns ``start .. start + width - 1`` of the
        2^(N-1) identity, with width ``min(2^(N-1), 256)``.  Each step
        sweeps the image in place once it is larger than the sweep's
        buffer, so an image is valid until the next one is drawn.  Blocks
        come in a fixed order, so sums over them are deterministic.
        """
        half = self.dim >> 1
        width = min(half, _BLOCK_COLUMNS)
        for b in (0, 1):
            for start in range(0, half, width):
                image = np.eye(half, width, -start, dtype=self.local.entries.dtype)
                for r in range(1, r_max + 1):
                    image = self._step(b, image)
                    yield start, r, image

    def eigenvalues(self) -> np.ndarray:
        """All 2^N eigenvalues, sorted by (re, im).  Cached.

        The spectrum of Q is that of Q_0 and Q_1, each solved as a
        2^(N-1)-square block by ``_block_spectrum``; the 2^N-square form is
        never built.  A local operator that ``classify`` finds unitary to
        ``_UNITARY_TOL`` makes both blocks unitary, and they go through the
        Hermitian eigensolver; any other block goes to nonsymmetric QR,
        ``np.linalg.eigvals``.  Refused above ``DEFAULTS.dense_cap``.
        """
        if self._eigenvalues is None:
            unitary = classify(self.local, _UNITARY_TOL).is_qca
            try:
                eig = np.concatenate([self._block_spectrum(b, unitary) for b in (0, 1)])
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"the eigensolver did not converge on a parity block "
                                         f"at N={self.n_sites}: {exc}")
            eig = eig.astype(np.complex128, copy=False)
            eig = eig[np.lexsort((eig.imag, eig.real))]
            eig.setflags(write=False)
            self._eigenvalues = eig
        return self._eigenvalues

    def _block_spectrum(self, b: int, unitary: bool) -> np.ndarray:
        """Eigenvalues of Q_b; a unitary block's come from its Hermitian part.

        H = (Q_b + Q_b^H) / 2 has the eigenvectors V of a unitary Q_b and
        the eigenvalues cos(theta) of its e^(i theta), so ``eigh`` gives
        them; the sorted eigenvalues split into clusters at gaps above
        ``_CLUSTER_GAP``.  Each cluster's columns V_c span an invariant
        subspace of Q_b, and the eigenvalues of the compression
        V_c^H Q_b V_c are the cluster's, solved by one
        ``np.linalg.eigvals`` per cluster size.  A conjugate pair of a real
        block shares its cosine, so it never splits, and a real block stays
        in float64 throughout, which keeps the pair exact.  H overwrites
        Q_b, and Q_b V is one held sweep of a copy of V.
        """
        h = self._half(b)
        if not unitary:
            return np.linalg.eigvals(h)
        h += h.conj().T  # numpy buffers the overlapping operand
        h *= 0.5
        w, v = np.linalg.eigh(h)
        del h
        qv = self._step(b, v.copy())
        starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > _CLUSTER_GAP)
        sizes = np.diff(starts, append=len(w))
        eig = []
        # bincount, not np.unique, which imports numpy.ma (18 ms, 1.1 MB)
        for k in np.flatnonzero(np.bincount(sizes)):
            compressions = np.stack([v[:, lo:lo + k].conj().T @ qv[:, lo:lo + k]
                                     for lo in starts[sizes == k]])
            eig.append(np.linalg.eigvals(compressions).reshape(-1))
        return np.concatenate(eig)

    def _step(self, b: int, columns: np.ndarray) -> np.ndarray:
        """Q_b applied to each column of a (2^(N-1), width) array, in one held sweep of it."""
        return kernels.sweep(columns, self.local.entries, self.n_sites - 1,
                             tail=columns.shape[1], held=b).reshape(columns.shape)

    def log_det_factor(self, u) -> complex:
        """Mean principal log of the factors 1 - u*lambda over the spectrum.

        Equals the log of the inverse zeta-type function without ever
        taking a 2^N-th root, so the branch is unambiguous.
        """
        lam = self.eigenvalues()
        factors = 1.0 - complex(u) * lam
        if np.min(np.abs(factors)) < DEFAULTS.singular_eps:
            raise SingularAtU(f"1 - u*lambda vanishes at u={u}")
        return complex(np.sum(np.log(factors)) / self.dim)

    def power_equals_identity(self, r: int, tol: float) -> bool:
        """Whether Q^r is the identity to max-abs tolerance ``tol``, block by block.

        A NaN or negative ``tol`` raises DomainError; a NaN entry fails.
        """
        r = positive_int("power", r)
        if not tol >= 0:
            raise DomainError(f"tol must be a number >= 0, got {tol!r}")
        for start, power, image in self._block_powers(r):
            if power == r and not np.max(np.abs(image - np.eye(*image.shape, -start))) <= tol:
                return False
        return True
