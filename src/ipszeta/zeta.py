"""Zeta-type log series of global operators and their closed forms.

The log of the inverse zeta-type function of an operator Q on N sites
expands as sum_r (-C_r / r) u^r with C_r = tr(Q^r) / 2^N.  This module
holds that sequence, ``ZetaLogSeries``, the value of
``GlobalOperator.trace_powers``, and evaluates every closed form the
library verifies: the tensor-factor eigenvalue product, the binomial log
sum and its Gaussian limit for the uniform-rotation family, and the
recurrences, trace rules and arctanh forms for the reflection family
(including the quarter-turn angle, and Rule 90 for every N by the GF(2)
proof in the README, "Rule 90 for every N").

Branch convention: every closed form is a sum of principal logs of linear
factors; arctanh(u) is (Log(1+u) - Log(1-u)) / 2.  Nothing takes a 2^N-th
root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .errors import DomainError, SingularAtU
from .models import TensorFactors
from .serialize import positive_int

SQRT2 = math.sqrt(2.0)


def _linear_recurrence(coeffs: tuple, seeds: tuple, index: int) -> float:
    """Term ``index`` of x_m = coeffs[0] x_{m-1} + coeffs[1] x_{m-2} + ...
    whose first terms are ``seeds``; each new term adds its products highest
    order first.  A term that leaves the float range raises DomainError."""
    window = list(seeds)
    for _ in range(index + 1 - len(seeds)):
        value = coeffs[0] * window[-1]
        for c, x in zip(coeffs[1:], window[-2::-1]):
            value += c * x
        window = window[1:] + [value]
    value = window[min(index, len(seeds) - 1)]
    if not math.isfinite(value):
        raise DomainError(f"recurrence term {index} leaves the float range")
    return value


def chebyshev_t(n: int, x: float) -> float:
    """First-kind value T_n(x) by the three-term recurrence (any real x)."""
    if n < 0:
        raise DomainError(f"first-kind order must be >= 0, got {n}")
    return _linear_recurrence((2.0 * float(x), -1.0), (1.0, float(x)), n)


def _unit_disk_point(u) -> complex:
    """``u`` as a complex number, refused with DomainError unless |u| < 1 (NaN too)."""
    u = complex(u)
    if not abs(u) < 1.0:
        raise DomainError(f"u points must satisfy |u| < 1, got u={u}")
    return u


def arctanh(u) -> complex:
    """Principal arctanh from its two linear log factors."""
    u = complex(u)
    return 0.5 * (np.log(1.0 + u) - np.log(1.0 - u))


def _ldexp(z: np.ndarray, exponent: int) -> np.ndarray:
    """Complex ``z * 2**exponent`` for any int exponent; exact unless it leaves the float range."""
    return np.ldexp(z.real, exponent) + 1j * np.ldexp(z.imag, exponent)


@dataclass(frozen=True, eq=False)
class ZetaLogSeries:
    """The averages C_r = tr(Q^r) / 2^N for r = 1..R and their truncated log series.

    ``coefficients`` holds the coefficient -C_r / r of u^r at index r-1;
    ``values`` forms the traces on request.
    """

    n_sites: int
    c_values: np.ndarray
    coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = self._finite(np.array(self.c_values, dtype=np.complex128).reshape(-1))
        c.setflags(write=False)
        object.__setattr__(self, "c_values", c)
        coefficients = -c / np.arange(1, len(c) + 1, dtype=np.float64)
        coefficients.setflags(write=False)
        object.__setattr__(self, "coefficients", coefficients)

    def _finite(self, v: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(v)):
            raise DomainError(f"the traces at N={self.n_sites} leave the float range: "
                              "a value is not finite")
        return v

    @property
    def values(self) -> np.ndarray:
        """tr(Q^r) = 2^N C_r; a trace that leaves the float range raises DomainError."""
        # the check refuses what is not finite, so numpy need not warn of overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return self._finite(_ldexp(self.c_values, self.n_sites))

    def evaluate(self, u) -> complex:
        """Sum of coefficient_r * u^r in ascending order of r."""
        u = complex(u)
        total = 0.0 + 0.0j
        power = 1.0 + 0.0j
        for c in self.coefficients:
            power *= u
            total += c * power
        return total


def _eig2(m: np.ndarray) -> tuple:
    """Eigenvalue pair of a 2x2 matrix from its characteristic roots."""
    t = complex(m[0, 0] + m[1, 1])
    d = complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    s = np.sqrt(complex(t * t - 4.0 * d))
    return (t + s) / 2.0, (t - s) / 2.0


def tensor_model_cr(factors: TensorFactors, n_sites: int, r: int) -> complex:
    """C_r of a tensor-factorizable operator from three eigenvalue pairs.

    Requires N >= 2 and a diagonal right factor; the value is
    (l+^r + l-^r) (m+^r + m-^r)^(N-2) (e^r + h^r) / 2^N with l the left
    factor's eigenvalues and m those of left @ right, taken as the product
    of the three halved sums, so no 2^N is formed.
    """
    if n_sites < 2:
        raise DomainError(f"tensor C_r needs N >= 2, got {n_sites}")
    r = positive_int("power", r)
    right = factors.right
    if right[0, 1] != 0 or right[1, 0] != 0:
        raise DomainError("right factor must be diagonal")
    lp, lm = _eig2(factors.left)
    mp, mm = _eig2(factors.left @ right)
    e = complex(right[0, 0])
    h = complex(right[1, 1])

    def half_sum(x, y):
        return (x ** r + y ** r) / 2

    return half_sum(lp, lm) * half_sum(mp, mm) ** (n_sites - 2) * half_sum(e, h)


def _check_finite(name: str, value) -> None:
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def _check_sites_and_angle(n_sites: int, xi: float) -> None:
    positive_int("n_sites", n_sites)
    _check_finite("angle", xi)


def binomial_zeta_qca1(n_sites: int, xi: float, u) -> complex:
    """Log of the inverse zeta value for the uniform-rotation model.

    Weighted sum of principal logs of the factors
    1 - exp(i (2k - (N-1)) xi) u with normalized binomial weights.  The
    weights come from log-gamma differences, so the sum stays stable for
    N in the thousands.
    """
    _check_sites_and_angle(n_sites, xi)
    u = complex(u)
    _check_finite("u", u)
    n = n_sites
    k = np.arange(n)
    log_w = np.array(
        [math.lgamma(n) - math.lgamma(kk + 1) - math.lgamma(n - kk) for kk in k]
    ) - (n - 1) * math.log(2.0)
    weights = np.exp(log_w)
    phases = np.exp(1j * (2 * k - (n - 1)) * float(xi))
    factors = 1.0 - phases * u
    if np.min(np.abs(factors)) < DEFAULTS.singular_eps:
        raise SingularAtU(f"a log factor vanishes at u={u}")
    return complex(np.sum(weights * np.log(factors)))


def clt_limit_zeta(xi: float, u, quad_nodes: int = DEFAULTS.quad_nodes) -> complex:
    """Gaussian expectation of Log(1 - exp(i xi Z) u), Z standard normal.

    Gauss-Hermite quadrature with the sqrt(2) change of variables;
    deterministic for a fixed node count.
    """
    _check_finite("angle", xi)
    u = _unit_disk_point(u)
    if quad_nodes < 8:
        raise DomainError(f"need at least 8 quadrature nodes, got {quad_nodes}")
    nodes, weights = np.polynomial.hermite.hermgauss(quad_nodes)
    values = np.log(1.0 - np.exp(1j * float(xi) * SQRT2 * nodes) * u)
    return complex((weights @ values) / math.sqrt(math.pi))


def qca2_c1_closed_form(n_sites: int, xi: float) -> complex:
    """Root-formula value of the first-power trace (verification path).

    Uses the double-root expression when the discriminant of
    l^2 - (1 + sin xi) l + 2 sin xi vanishes numerically and the
    distinct-root expression everywhere else, also close to coalescence,
    where it stays within 1e-9 of a 60-digit run of the recurrence.
    """
    _check_sites_and_angle(n_sites, xi)
    s = math.sin(xi)
    disc = (1.0 + s) ** 2 - 8.0 * s
    if abs(disc) < DEFAULTS.double_root_tol:
        trace = (SQRT2 * (n_sites - 1) + 2.0) * (2.0 - SQRT2) ** (n_sites - 1)
    else:
        root = np.sqrt(complex(disc))
        l1 = (1.0 + s - root) / 2.0
        l2 = (1.0 + s + root) / 2.0
        trace = 2.0 * ((l2 - 1.0) * l1 ** (n_sites - 1)
                       - (l1 - 1.0) * l2 ** (n_sites - 1)) / (l2 - l1)
    return complex(trace)


def qca2_x2_recurrence(n_sites: int, xi: float) -> float:
    """Second-power trace by iterating the order-3 recurrence.

    x_{N+3} = (1 + sin^2 xi) x_{N+2} + 2 sin(xi) cos^2(xi) x_{N+1}
              - 4 sin(xi) cos^2(xi) x_N
    with x_1 = 2, x_2 = 4, x_3 = 4 (1 + sin^2 xi).
    """
    _check_sites_and_angle(n_sites, xi)
    s = math.sin(xi)
    sc = 2.0 * s * math.cos(xi) ** 2
    return _linear_recurrence((1.0 + s * s, sc, -2.0 * sc), (2.0, 4.0, 4.0 * (1.0 + s * s)),
                              n_sites - 1)


def rule90_trace_general_r(n_sites: int, k: int, s: int) -> float:
    """Trace of the 2^k (2s-1) power of the Rule 90 operator: 2^min(2^k, N).

    Exact for every N >= 1 (README, "Rule 90 for every N"); a value above
    the float range, 2^min(2^k, N) >= 2^1024, raises DomainError.
    """
    n_sites = positive_int("n_sites", n_sites)
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    # 2^k > N once k reaches the bit length of N, so no larger 2^k is built
    exponent = min(1 << min(k, n_sites.bit_length()), n_sites)
    if exponent >= 1024:
        raise DomainError(f"trace 2^{exponent} of N={n_sites}, k={k} overflows a float")
    return float(2 ** exponent)


def _rule90_zeta_formula(n_sites: int, u: complex) -> complex:
    """log(1 - u^(2^m)) / 2^m - sum_{k<m} 2^-(N - 2^k + k) arctanh(u^(2^k)).

    m = ceil(log2 N), the first k with 2^k >= N.
    """
    m = (n_sites - 1).bit_length()
    value = np.log(1.0 - u ** (2 ** m)) / 2 ** m
    for k in range(m):
        value -= 2.0 ** (-(n_sites - (2 ** k - k))) * arctanh(u ** (2 ** k))
    return complex(value)


def zeta_closed_form_qca2(n_sites: int, variant: str, u) -> complex:
    """Closed-form log of the inverse zeta value for the two solved angles.

    Both ``pi_half`` and ``rule90`` hold for every N >= 1.
    """
    positive_int("n_sites", n_sites)
    u = _unit_disk_point(u)
    if variant == "pi_half":
        amplitude = 2.0 ** (-(n_sites - 1) / 2.0) * chebyshev_t(n_sites - 1, SQRT2 / 2.0)
        return complex(0.5 * (np.log(1.0 - u) + np.log(1.0 + u)) - amplitude * arctanh(u))
    if variant == "rule90":
        return _rule90_zeta_formula(n_sites, u)
    raise DomainError(f"unknown variant {variant!r}; expected 'pi_half' or 'rule90'")
