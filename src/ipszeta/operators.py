"""Global evolution operators on the N-site path.

The global operator chains the two-site local update across adjacent site
pairs, pair (0, 1) first.  Site 0 is the most significant bit of the
configuration index, so Kronecker products read left to right along the
path.  N = 1 is the 2x2 identity by convention.

The last site never changes, so Q splits by index parity into two
2^(N-1)-square blocks, Q = Q_0 (+) Q_1, and everything dense works on
them: the brute traces, ``eigenvalues`` and ``power_equals_identity``.
The 2^N-square form is never built.  A step of Q_b is one kernel sweep
of the first N - 1 sites with the last held at b, ``_step``, which also
steps each occupied parity block of an evolving state.

One classification per operator, ``models.classify`` to 8 ulps, picks
how its spectrum is read, and each spectral result is solved once.  A
unitary Q has normal blocks, which ``eigenvalues`` solves through the
Hermitian eigensolver; other blocks go to nonsymmetric QR.  The radius
of a stochastic or unitary Q is 1 by proof, and ``log_det_factor`` of a
real orthogonal Q reads only the cosines of its spectrum, the
eigenvalues of the symmetric parts of the blocks, with no eigenvectors.

Traces have two engines of one call shape, ``engine(q, n_values, r_max)``
giving one row of C_r per N.  The brute engine, ``_brute_traces``, sweeps
blocks of identity columns through both halves in O(r 4^N / 2) per N.
The transfer engine, ``transfer.traces``, reads the r-periodic
space-time histories along space in O(N r 2^r), all N of a grid in one
pass; ``transfer.py`` gives its T_r.  ``trace_series`` splits a grid
between them by a cost model monotone in N, ``_transfer_cheaper``, and
yields a ``zeta.ZetaLogSeries`` per N (``trace_powers`` at one N).
"""

from __future__ import annotations

import functools

import numpy as np

from . import kernels, transfer
from .config import DEFAULTS
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    SingularAtU,
    SizeExceeded,
)
from .models import LocalOperator, ModelClass, classify
from .serialize import number, positive_int, tolerance
from .zeta import ZetaLogSeries, _ldexp

__all__ = ["GlobalOperator", "trace_series"]

# identity columns swept together by the brute trace and power engine
_BLOCK_BITS = 8
_BLOCK_COLUMNS = 1 << _BLOCK_BITS
# rows of a block image that ``power_equals_identity`` reduces at a time
_CHECK_ROWS = 64
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
# largest |u| at which ``log_det_factor`` takes the cosines of a real orthogonal
# Q; a cosine c near +-1 is solved to about eps, so the pair factor
# 1 + u^2 - 2uc errs by about eps / (1 - |u|)^2 relative.  Against the
# eigenvalue path up to N = 11: 1.7e-14 at |u| = 0.9, 2.1e-12 at |u| = 0.99
_COSINE_RADIUS = 0.9


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


def trace_series(local, n_values, r_max: int):
    """Yield ``(N, ZetaLogSeries)`` for each of the strictly increasing site counts ``n_values``.

    All are checked before any trace is computed.  The cost model is monotone in N:
    each N below its crossover runs the brute engine, one operator per N, and all N
    above it come from one transfer pass.  A C_r past the float range raises DomainError.
    """
    if not isinstance(local, LocalOperator):
        local = LocalOperator(local)
    n_values = [positive_int("n_sites", n) for n in n_values]
    r_max = positive_int("r_max", r_max)
    if any(lo >= hi for lo, hi in zip(n_values, n_values[1:])):
        raise DomainError(f"site counts must increase strictly, got {n_values}")
    split = sum(not _transfer_cheaper(n, r_max) for n in n_values)
    for engine, grid in ((_brute_traces, n_values[:split]), (transfer.traces, n_values[split:])):
        if not grid:
            continue
        # ZetaLogSeries refuses overflow; no errstate holds a yield, so the caller still warns
        with np.errstate(over="ignore", invalid="ignore"):
            rows = engine(local.entries, grid, r_max)
        for n, c_values in zip(grid, rows):
            yield n, ZetaLogSeries(n, c_values)


def _brute_traces(q: np.ndarray, n_values, r_max: int) -> np.ndarray:
    """C_r for r = 1..r_max from the diagonals of both parity blocks, one row per N, O(r 4^N / 2)."""
    rows = np.zeros((len(n_values), r_max), dtype=np.complex128)
    for row, n in zip(rows, n_values):
        for start, r, image in GlobalOperator(q, n)._block_powers(r_max):
            row[r - 1] += np.trace(image, offset=-start)
        row[:] = _ldexp(row, -n)
    return rows


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
        """C_r for r = 1..r_max and their log series: ``trace_series`` at this N."""
        return next(trace_series(self.local, (self.n_sites,), r_max))[1]

    def _block_powers(self, r_max: int):
        """Yield ``(start, r, Q_b^r E)`` for b = 0, 1 and r = 1..r_max.

        Q_b is Q on the configurations whose last site holds b, the indices
        of parity b.  E holds columns ``start .. start + width - 1`` of the
        2^(N-1) identity, with width ``min(2^(N-1), 256)``.  Each step
        sweeps the image in place once it is larger than the sweep's
        buffer, and the next block's E is written over the last power, so
        an image is valid until the next one is drawn.  The last power of a
        block, r = r_max, is never stepped again, so a caller may overwrite
        it.  Blocks come in a fixed order, so sums over them are
        deterministic.
        """
        half = self.dim >> 1
        width = min(half, _BLOCK_COLUMNS)
        image = np.empty((half, width), dtype=self.local.entries.dtype)
        for b in (0, 1):
            for start in range(0, half, width):
                image[...] = 0
                image[start:start + width].flat[::width + 1] = 1
                for r in range(1, r_max + 1):
                    image = self._step(b, image)
                    yield start, r, image

    def eigenvalues(self) -> np.ndarray:
        """All 2^N eigenvalues, sorted by (re, im).  Cached.

        The spectrum of Q is that of Q_0 and Q_1, each solved as a
        2^(N-1)-square block by ``_block_spectrum``: through the Hermitian
        eigensolver when ``_model_class`` finds Q unitary, else by
        nonsymmetric QR, ``np.linalg.eigvals``.  The 2^N-square form is
        never built.  Refused above ``DEFAULTS.dense_cap``.
        """
        return self._spectrum

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        eig = self._solve_blocks(self._block_spectrum).astype(np.complex128, copy=False)
        eig = eig[np.lexsort((eig.imag, eig.real))]
        eig.setflags(write=False)
        return eig

    @functools.cached_property
    def _model_class(self) -> ModelClass:
        """``models.classify`` to ``_UNITARY_TOL``: picks solver, radius proof and cosine path."""
        return classify(self.local, _UNITARY_TOL)

    def _solve_blocks(self, solve) -> np.ndarray:
        """``solve(b)`` of both parity blocks, joined; a solver that fails raises ConvergenceFailure."""
        try:
            return np.concatenate([solve(b) for b in (0, 1)])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"the eigensolver did not converge on a parity block "
                                     f"at N={self.n_sites}: {exc}")

    def spectral_radius(self) -> float:
        """max |lambda| over the spectrum: 1.0 by proof for a stochastic or unitary Q.

        A column-stochastic Q has norm 1 in the column-sum norm and 1 as a
        left eigenvector, and a unitary Q has its spectrum on the unit
        circle, so ``_model_class`` decides without a spectrum.  Any other
        Q takes the largest modulus of ``eigenvalues``.
        """
        if self._model_class.is_pca or self._model_class.is_qca:
            return 1.0
        return float(np.max(np.abs(self.eigenvalues())))

    def _block_spectrum(self, b: int) -> np.ndarray:
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
        if not self._model_class.is_qca:
            return np.linalg.eigvals(self._half(b))
        w, v = np.linalg.eigh(self._hermitian_part(b))
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

    def _hermitian_part(self, b: int) -> np.ndarray:
        """H = (Q_b + Q_b^H) / 2, written over a fresh Q_b."""
        h = self._half(b)
        h += h.conj().T  # numpy buffers the overlapping operand
        h *= 0.5
        return h

    def _step(self, b: int, columns: np.ndarray) -> np.ndarray:
        """Q_b applied to each column of a (2^(N-1), width) array, in one held sweep of it."""
        return kernels.sweep(columns, self.local.entries, self.n_sites - 1,
                             tail=columns.shape[1], held=b).reshape(columns.shape)

    # the mean is checked for finiteness, so numpy need not warn of overflow
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def log_det_factor(self, u) -> complex:
        """Mean principal log of the factors 1 - u*lambda over the spectrum.

        Equals the log of the inverse zeta-type function without ever
        taking a 2^N-th root, so the branch is unambiguous.  A real
        orthogonal Q, a float64 local operator that ``_model_class`` finds
        unitary, needs only the cosines of its spectrum at
        |u| <= ``_COSINE_RADIUS``, ``_cosines``: the spectrum is closed
        under conjugation, so each cosine c stands for the pair c +- is,
        whose factors have positive real parts (so none vanishes, and the
        Log of their product 1 - u(2c - u) is the sum of their Logs): the
        mean is half the mean of Log(1 - u(2c - u)).  Every other Q or u
        takes ``eigenvalues``, where each factor keeps its own principal log
        and its own test against ``DEFAULTS.singular_eps``.  A mean outside
        the float range raises DomainError.
        """
        # u is checked before the spectrum is solved
        u = number("u", u)
        if (abs(u) <= _COSINE_RADIUS and self.local.entries.dtype == np.float64
                and self._model_class.is_qca):
            mean = np.mean(np.log(1.0 - u * (2.0 * self._cosines - u))) / 2.0
        else:
            factors = 1.0 - u * self.eigenvalues()
            if np.min(np.abs(factors)) < DEFAULTS.singular_eps:
                raise SingularAtU(f"1 - u*lambda vanishes at u={u}")
            mean = np.sum(np.log(factors)) / len(factors)
        return number(f"the mean log factor at u={u}", mean)

    @functools.cached_property
    def _cosines(self) -> np.ndarray:
        """The 2^N eigenvalues of the Hermitian parts ``_hermitian_part``: for a
        real orthogonal Q_b the real parts cos(theta) of its e^(i theta), with
        multiplicity, from ``eigvalsh`` with no eigenvectors, one block's H
        freed before the next is built."""
        cosines = self._solve_blocks(lambda b: np.linalg.eigvalsh(self._hermitian_part(b)))
        cosines.setflags(write=False)
        return cosines

    def power_equals_identity(self, r: int, tol: float) -> bool:
        """Whether Q^r is the identity to max-abs tolerance ``tol``, block by block.

        A ``tol`` that is not a finite number >= 0 raises DomainError; a NaN entry fails.
        """
        r = positive_int("power", r)
        tolerance("tol", tol)
        for start, power, image in self._block_powers(r):
            if power < r:
                continue
            # the last power is free to overwrite: subtract E in place
            width = image.shape[1]
            image[start:start + width].flat[::width + 1] -= 1
            for lo in range(0, len(image), _CHECK_ROWS):
                # a NaN compares false, so it fails
                if not np.max(np.abs(image[lo:lo + _CHECK_ROWS])) <= tol:
                    return False
        return True
