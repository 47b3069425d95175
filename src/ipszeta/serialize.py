"""JSON and CSV encodings shared by the library and the CLI.

Complex scalars serialize as ``[re, im]`` pairs and matrices as row-major
lists of such pairs.  CSV writers carry fixed headers documented per
function.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator

import numpy as np

from .errors import DimensionMismatch, DomainError

_SCALARS = (numbers.Number, np.bool_)  # what ``from_pair`` takes for one part of a pair


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def positive_int(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int; DomainError unless it is an integer >= ``minimum``, not a bool."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        rule = "positive" if minimum == 1 else f">= {minimum}"
        raise DomainError(f"{name} must be {rule}, got {value}")
    return value


def tolerance(name: str, value):
    """``value`` unchanged; DomainError unless it is a finite real number >= 0, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value < np.inf:
        raise DomainError(f"{name} must be a number >= 0, got {value!r}")
    return value


def number(name: str, value, real: bool = False):
    """``value`` as a finite float (``real``) or complex; DomainError for a bool (Python or
    numpy), a string, None, a complex value where a real one is required, or a value not finite."""
    if isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be a number, got the boolean {value!r}")
    if not isinstance(value, numbers.Real if real else numbers.Complex):
        raise DomainError(f"{name} must be a {'real ' if real else ''}number, got {value!r}")
    try:
        value = float(value) if real else complex(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def unit_disk_point(u) -> complex:
    """``number("u", u)`` with |u| < 1; a NaN or inf u is refused as off the disk."""
    # a non-number falls through to ``number``; hypot, unlike abs, is inf for a far-out u
    z = complex(u) if isinstance(u, numbers.Complex) and not isinstance(u, bool) else 0j
    if not math.hypot(z.real, z.imag) < 1.0:
        raise DomainError(f"u points must satisfy |u| < 1, got u={z}")
    return number("u", u)


def number_array(name: str, value) -> np.ndarray:
    """``np.asarray(value)``; DomainError unless it is rectangular, of integers, floats or
    complex numbers, with no bool in a sequence (numpy would read it as a number)."""
    try:
        m = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DomainError(f"{name} must be a rectangular array, got {value!r}")
    kind = m.dtype.kind
    if kind in "iufc" and not isinstance(value, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat):
        kind = "b"
    if kind not in "iufc":
        kind = {"b": "boolean", "U": "string"}.get(kind, m.dtype.name)
        raise DomainError(f"{name} must be numbers, got a {kind} array")
    return m


def from_pair(pair) -> complex:
    """A complex number from ``[re, im]`` or a bare real; each part goes through ``number``."""
    try:
        real, imag = (pair, 0.0) if isinstance(pair, _SCALARS) else pair
        if not (isinstance(real, _SCALARS) and isinstance(imag, _SCALARS)):
            raise TypeError
    except (TypeError, ValueError):
        raise DimensionMismatch(f"expected [re, im], got {pair!r}")
    return complex(number("re", real, real=True), number("im", imag, real=True))


def matrix_pairs(m) -> list:
    """Row-major list of [re, im] pairs for a 2-D complex matrix."""
    m = np.asarray(m)
    return [complex_pair(z) for z in m.reshape(-1)]


def matrix_from_pairs(data, rows: int, cols: int) -> np.ndarray:
    if not isinstance(data, (list, tuple)):
        raise DimensionMismatch(f"expected a list of {rows * cols} [re, im] pairs, got {data!r}")
    if len(data) != rows * cols:
        raise DimensionMismatch(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
        )
    flat = np.array([from_pair(p) for p in data], dtype=np.complex128)
    return flat.reshape(rows, cols)


def _csv_table(header, rows) -> str:
    """CSV text: the header, then per row its label and its values as .17g."""
    lines = [",".join(header)]
    for label, *values in rows:
        lines.append(",".join([f"{label}"] + [f"{v:.17g}" for v in values]))
    return "\n".join(lines) + "\n"


def trace_csv(series) -> str:
    """CSV table of trace powers: header r,trace_re,trace_im,c_r_re,c_r_im."""
    return _csv_table(
        ("r", "trace_re", "trace_im", "c_r_re", "c_r_im"),
        ((r, t.real, t.imag, c.real, c.imag)
         for r, (t, c) in enumerate(zip(series.values, series.c_values), 1)),
    )


def series_csv(series) -> str:
    """CSV table of log-series coefficients: header r,coeff_re,coeff_im."""
    return _csv_table(("r", "coeff_re", "coeff_im"),
                      ((r, z.real, z.imag) for r, z in enumerate(series.coefficients, 1)))


def spectrum_csv(eigenvalues) -> str:
    """CSV table of eigenvalues: header idx,re,im,abs."""
    values = map(complex, eigenvalues)
    return _csv_table(("idx", "re", "im", "abs"),
                      ((i, z.real, z.imag, abs(z)) for i, z in enumerate(values)))


def trajectory_csv(rows, n_sites: int) -> str:
    """CSV table of site marginals per step: header step,site_0,...,site_{N-1}."""
    return _csv_table(["step"] + [f"site_{x}" for x in range(n_sites)],
                      ((step, *marginals) for step, marginals in rows))
