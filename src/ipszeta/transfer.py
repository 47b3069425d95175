"""The transfer engine behind ``operators.trace_series``.

It reads the r-periodic space-time histories along space: the right site
of each pair is read before it changes, so the weight of a history is a
product over neighbouring sites of

    T_r[a, b] = prod_t q[2 a_(t+1) + b_t, 2 a_t + b_t]

(a and b the cyclic time histories of sites x and x+1), and
tr(Q^r) = 1^T T_r^(N-1) c, with c the indicator of the two constant
histories of the last site, which never changes.  That costs O(N r 2^r)
for all N of a grid at once.
"""

import itertools

import numpy as np

from . import kernels


def dual(q: np.ndarray) -> np.ndarray:
    """M[2a + a', 2a + b] = q[2a' + b, 2a + b]: one time step of T_r.

    It keeps the left site's value a and trades the right site's b for the
    left site's next value a'.
    """
    m = np.zeros_like(q)
    for a, a_next, b in itertools.product((0, 1), repeat=3):
        m[2 * a + a_next, 2 * a + b] = q[2 * a_next + b, 2 * a + b]
    return m


def traces(q: np.ndarray, n_values, r_max: int) -> np.ndarray:
    """C_r = 1^T T_r^(N-1) c / 2^N for r = 1..r_max, one row per N of ``n_values``.

    The counts must increase strictly: per r one loop steps to each N from
    the last (``np.diff``), so a grid costs its largest N.  Each application
    of T_r is one sweep of the space-time dual over r + 1 "sites" (a_0, b_0,
    .., b_(r-1)): a_0 is a leading batch axis and step t trades b_t for
    a_(t+1); the diagonal a_r = a_0 closes the cycle.  Starting from c / 2
    and halving after each application carries C_r itself, so no 2^N is
    ever formed.
    """
    m = dual(q)
    c_values = np.empty((len(n_values), r_max), dtype=np.complex128)
    for r in range(1, r_max + 1):
        v = np.zeros(1 << r, dtype=m.dtype)
        v[[0, -1]] = 0.5
        for row, steps in enumerate(np.diff(n_values, prepend=1)):
            for _ in range(steps):
                swept = kernels.sweep(np.concatenate((v, v)), m, r + 1).reshape(2, -1, 2)
                v = np.concatenate((swept[0, :, 0], swept[1, :, 1])) * 0.5
            c_values[row, r - 1] = v.sum()
    return c_values
