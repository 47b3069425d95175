"""Numeric defaults shared across the package.

Every tolerance, cap, and truncation default lives in this one structure so
nothing is tuned ad hoc at call sites.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    # classification of local operators as stochastic / unitary / CA
    classify_tol: float = 1e-9
    # largest N with a dense spectrum; it solves the two 2^(N-1)-square parity
    # blocks one after the other: at N = 12 each block is ~34 MB in float64
    # (real models), ~67 MB in complex128; the unitary solver holds about five
    # such buffers during eigh (qca2 peaks at ~200 MB RSS), QR about two (104 MB)
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
