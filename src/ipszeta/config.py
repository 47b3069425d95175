"""Numeric defaults shared across the package.

``DEFAULTS`` holds the defaults that the CLI or more than one module reads,
plus ``drift_tol``, ``quad_nodes`` and ``double_root_tol``.  A constant
private to one module (``_UNITARY_TOL``, ``_CLUSTER_GAP``, ``_COSINE_RADIUS``,
``_TRANSFER_COST``, ``_CONSTRUCT_TOL``, ``_REAL_TOL``, ``_SLAB_BYTES``) stays
next to its code.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    # classification of local operators as stochastic / unitary / CA
    classify_tol: float = 1e-9
    # largest N with dense parity blocks (the spectrum, and zeta --u); the two
    # 2^(N-1)-square blocks are solved one after the other: at N = 12 each is
    # ~34 MB in float64 (real models), ~67 MB in complex128.  `spectrum` of a
    # unitary model holds about five such buffers during eigh (qca2 peaks at
    # ~200 MB RSS), QR about two (104 MB); the cosines that zeta --u takes for
    # a real orthogonal model hold about three (qca2: ~100 MB)
    dense_cap: int = 12
    # default truncation order R of the log series
    series_order: int = 20
    # Gauss-Hermite node count for Gaussian expectations
    quad_nodes: int = 64
    # state-normalization drift that aborts an evolution
    drift_tol: float = 1e-8
    # |1 - u*lambda| below this counts as a pole
    singular_eps: float = 1e-14
    # discriminant magnitude selecting the double-root branch
    double_root_tol: float = 1e-12


DEFAULTS = Defaults()
