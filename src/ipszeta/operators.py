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

Traces have two engines behind ``GlobalOperator.trace_powers``.  The brute
engine sweeps blocks of identity columns through both halves in
O(r 4^N / 2).  The transfer engine reads the r-periodic space-time
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
import operator
from dataclasses import dataclass
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
from .models import LocalOperator

__all__ = ["Configuration", "GlobalOperator", "TraceSequence"]

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


@dataclass(frozen=True)
class Configuration:
    """Site occupation pattern and its index (site 0 = most significant bit)."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not bits:
            raise DomainError("a configuration needs at least one site")
        if any(b not in (0, 1) for b in bits):
            raise DomainError(f"site states must be 0 or 1, got {bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def n_sites(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        n = self.n_sites
        return sum(b << (n - 1 - x) for x, b in enumerate(self.bits))

    def basis_vector(self) -> np.ndarray:
        v = np.zeros(1 << self.n_sites)
        v[self.index] = 1.0
        return v


@dataclass(frozen=True)
class TraceSequence:
    """The averages C_r = tr(Q^r) / 2^N for r = 1..R; the traces on request."""

    n_sites: int
    c_values: np.ndarray

    def __post_init__(self):
        c = self._finite(np.array(self.c_values, dtype=np.complex128).reshape(-1))
        c.setflags(write=False)
        object.__setattr__(self, "c_values", c)

    def _finite(self, v: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(v)):
            raise DomainError(f"the traces at N={self.n_sites} leave the float range: "
                              "a value is not finite")
        return v

    @property
    def order(self) -> int:
        return len(self.c_values)

    @property
    def values(self) -> np.ndarray:
        """tr(Q^r) = 2^N C_r; a trace that leaves the float range raises DomainError."""
        # the check refuses what is not finite, so numpy need not warn of overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return self._finite(_ldexp(self.c_values, self.n_sites))


def _ldexp(z: np.ndarray, exponent: int) -> np.ndarray:
    """Complex ``z * 2**exponent`` for any int exponent; exact unless it leaves the float range."""
    return np.ldexp(z.real, exponent) + 1j * np.ldexp(z.imag, exponent)


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


# an entry whose square overflows fails the test, silently
@np.errstate(over="ignore", invalid="ignore")
def _is_unitary(q: np.ndarray) -> bool:
    """Whether q^H q is the identity to ``_UNITARY_TOL`` in every entry."""
    return bool(np.max(np.abs(q.conj().T @ q - np.eye(len(q)))) <= _UNITARY_TOL)


def _space_time_dual(q: np.ndarray) -> np.ndarray:
    """M[2a + a', 2a + b] = q[2a' + b, 2a + b]: one time step of T_r.

    It keeps the left site's value a and trades the right site's b for the
    left site's next value a'.
    """
    m = np.zeros_like(q)
    for a, a_next, b in itertools.product((0, 1), repeat=3):
        m[2 * a + a_next, 2 * a + b] = q[2 * a_next + b, 2 * a + b]
    return m


def _positive_int(name: str, value) -> int:
    """``value`` as an int, refused with DomainError unless it is an integer >= 1."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be positive, got {value}")
    return value


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
        self.n_sites = _positive_int("n_sites", n_sites)
        self._eigenvalues: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    def apply(self, vec, in_place: bool = False) -> np.ndarray:
        """Matrix-free product with a length-2^N vector (pair (0,1) first).

        Returns a fresh array; ``in_place`` overwrites ``vec`` instead (see
        ``kernels.sweep``).
        """
        # not flattened here: a flattened copy would take an in-place update
        v = np.asarray(vec)
        if v.size != self.dim:
            raise DimensionMismatch(
                f"vector length {v.size} does not match 2^{self.n_sites}"
            )
        return kernels.sweep(v, self.local.entries, self.n_sites, in_place=in_place)

    # the blocks are checked for finiteness, so numpy need not warn of overflow
    @np.errstate(over="ignore", invalid="ignore")
    def _half(self, b: int) -> np.ndarray:
        """Q_b as a dense 2^(N-1)-square array, filled from ``_block_powers``.

        Refused with SizeExceeded above ``DEFAULTS.dense_cap`` before any
        allocation, and with DomainError when an entry is not finite.
        """
        if self.n_sites > DEFAULTS.dense_cap:
            raise SizeExceeded(f"N={self.n_sites} exceeds the dense cap {DEFAULTS.dense_cap}")
        half = self.dim >> 1
        q_b = np.empty((half, half), dtype=self.local.entries.dtype)
        for _, start, _, image in self._block_powers(1, parities=(b,)):
            if not np.isfinite(image).all():
                raise DomainError(f"the dense form at N={self.n_sites} overflows the "
                                  "float range: an entry is not finite")
            q_b[:, start:start + image.shape[1]] = image
        return q_b

    def trace_powers(self, r_max: int) -> TraceSequence:
        """C_r for r = 1..r_max from the engine the cost model picks.

        Transfer costs O(N r 2^r) per r, brute O(r 4^N / 2).  A C_r that leaves
        the float range raises DomainError, and so does a trace read from
        ``values`` that leaves it.
        """
        r_max = _positive_int("r_max", r_max)
        engine = (self._transfer_traces if _transfer_cheaper(self.n_sites, r_max)
                  else self._brute_traces)
        # TraceSequence refuses what is not finite, so numpy need not warn of overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return TraceSequence(self.n_sites, engine(r_max))

    def _brute_traces(self, r_max: int) -> np.ndarray:
        """C_r for r = 1..r_max from the diagonals of both parity blocks, in O(r 4^N / 2)."""
        traces = np.zeros(r_max, dtype=np.complex128)
        for _, start, r, image in self._block_powers(r_max):
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

    def _block_powers(self, r_max: int, parities=(0, 1)):
        """Yield ``(b, start, r, Q_b^r E)`` for b in ``parities`` and r = 1..r_max.

        Q_b is Q on the configurations whose last site holds b, the indices
        of parity b.  E holds columns ``start .. start + width - 1`` of the
        2^(N-1) identity, with width ``min(2^(N-1), 256)``.  Blocks come in
        a fixed order, so sums over them are deterministic.
        """
        half = self.dim >> 1
        width = min(half, _BLOCK_COLUMNS)
        for b in parities:
            for start in range(0, half, width):
                image = np.eye(half, width, -start, dtype=self.local.entries.dtype)
                for r in range(1, r_max + 1):
                    image = self._step(b, image)
                    yield b, start, r, image

    def eigenvalues(self) -> np.ndarray:
        """All 2^N eigenvalues, sorted by (re, im).  Cached.

        The spectrum of Q is that of Q_0 and Q_1, each solved as a
        2^(N-1)-square block; the 2^N-square form is never built.  A
        unitary local operator (to ``_UNITARY_TOL``) makes both blocks
        unitary, and ``_unitary_spectrum`` solves them through the
        Hermitian eigensolver; any other block goes to nonsymmetric QR,
        ``np.linalg.eigvals``.  Refused above ``DEFAULTS.dense_cap``.
        """
        if self._eigenvalues is None:
            try:
                if _is_unitary(self.local.entries):
                    eig = self._unitary_spectrum()
                else:
                    eig = np.concatenate([np.linalg.eigvals(self._half(b)) for b in (0, 1)])
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"the eigensolver did not converge on a parity block "
                                         f"at N={self.n_sites}: {exc}")
            eig = eig.astype(np.complex128, copy=False)
            eig = eig[np.lexsort((eig.imag, eig.real))]
            eig.setflags(write=False)
            self._eigenvalues = eig
        return self._eigenvalues

    def _unitary_spectrum(self) -> np.ndarray:
        """Eigenvalues of the unitary blocks Q_0 and Q_1, from their Hermitian parts.

        H = (Q_b + Q_b^H) / 2 has Q_b's eigenvectors and the eigenvalues
        cos(theta) of its e^(i theta), so ``eigh`` gives them; the sorted
        eigenvalues split into clusters at gaps above ``_CLUSTER_GAP``.
        Each cluster's columns V_c of the eigenvector matrix span an
        invariant subspace of Q_b, and the eigenvalues of the compression
        V_c^H Q_b V_c are the cluster's.  A conjugate pair of a real block
        shares its cosine, so it never splits, and a real block stays in
        float64 throughout, which keeps the pair exact.  One block at a
        time, H overwrites Q_b; the compressions of both blocks are solved
        after the last ``eigh``, by one ``np.linalg.eigvals`` per cluster
        size.
        """
        compressions = {}
        for b in (0, 1):
            h = self._half(b)
            h += h.conj().T  # numpy buffers the overlapping operand
            h *= 0.5
            w, v = np.linalg.eigh(h)
            del h
            for k, stack in self._compressions(b, w, v).items():
                compressions.setdefault(k, []).append(stack)
            del v  # before the next block's eigh
        return np.concatenate([np.linalg.eigvals(np.concatenate(c)).reshape(-1)
                               for c in compressions.values()])

    def _compressions(self, b: int, w: np.ndarray, v: np.ndarray) -> dict:
        """V_c^H Q_b V_c of each cluster of the sorted ``w``, stacked by cluster size.

        Q_b V is formed again by ``_step``, at most 256 columns at a time,
        on spans of whole clusters.  The stacks are allocated before those
        sweeps, so the sweeps' freed arrays leave no hole under a live one
        and the next block's ``eigh`` reuses their memory.
        """
        starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > _CLUSTER_GAP)
        sizes = np.diff(starts, append=len(w))
        # bincount, not np.unique, which imports numpy.ma (18 ms, 1.1 MB)
        counts = np.bincount(sizes)
        stacks = {k: np.empty((counts[k], k, k), v.dtype) for k in np.flatnonzero(counts)}
        filled = dict.fromkeys(stacks, 0)
        # a span holds the clusters that start in one 256-column window
        firsts = np.flatnonzero(np.diff(starts // _BLOCK_COLUMNS, prepend=-1))
        for span in map(slice, firsts, np.append(firsts[1:], len(starts))):
            lo = starts[span][0]
            hi = lo + sizes[span].sum()
            # V^H Q_b V on the span; its diagonal blocks are the compressions
            projected = np.empty((hi - lo, hi - lo), dtype=v.dtype)
            for j in range(lo, hi, _BLOCK_COLUMNS):
                cols = slice(j, min(hi, j + _BLOCK_COLUMNS))
                projected[:, j - lo:cols.stop - lo] = (v[:, lo:hi].conj().T
                                                       @ self._step(b, v[:, cols]))
            for k in np.flatnonzero(np.bincount(sizes[span])):
                idx = starts[span][sizes[span] == k, None] - lo + np.arange(k)
                stacks[k][filled[k]:filled[k] + len(idx)] = (
                    projected[idx[:, :, None], idx[:, None, :]])
                filled[k] += len(idx)
        return stacks

    def _step(self, b: int, columns: np.ndarray) -> np.ndarray:
        """Q_b applied to each column of a (2^(N-1), width) array, in one held sweep."""
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
        r = _positive_int("power", r)
        if not tol >= 0:
            raise DomainError(f"tol must be a number >= 0, got {tol!r}")
        for _, start, power, image in self._block_powers(r):
            if power == r and not np.max(np.abs(image - np.eye(*image.shape, -start))) <= tol:
                return False
        return True
