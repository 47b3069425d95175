"""Brute-force oracles used across the suite, and two readers of the library.

Three oracles build the global operator without touching the library's
sweep kernel: one from the closed product of transition weights (the
weight of pair x is ``local[2*out_x + in_{x+1}, 2*in_x + in_{x+1}]`` and
the last site never changes), its mirror for a 4x4 that keeps the left
site of each pair, and one that multiplies explicit Kronecker embeddings
of the local operator.  The product oracle also builds one parity block
alone, with the last site fixed, and applies the two blocks to a vector.
The pairwise sweep applies the pairs one batched matmul at a time, the
loop the kernel builds its fused blocks from.  Two more count the fixed
points of Rule 90, the map x_i <- x_i + x_{i+1} (mod 2) with the last
site fixed, in plain integers: by iterating the map on every state, and
by GF(2) rank.  The last runs the reflection family's second-power trace
recurrence on the scale of C_2, for N past the float range of 2^N.
An integer transfer loop gives C_r exactly for a local operator of
rational entries, from the definition of T_r, with neither the space-time
dual nor the sweep kernel.
The 2x2 matrix units E_ab write out the append-site recursion of Q.

The library builds no 2^N-square form and keeps no single-state evolve:
``parity_dense`` places its two parity blocks in the dense form, and
``last_state`` runs ``evolve_states`` to its end.  ``spectral_calls``
counts the spectral work an operator does.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from ipszeta import operators
from ipszeta.dynamics import evolve_states

# the 2x2 matrix units: E_ab has a single 1 at row a, column b
E00 = np.array([[1.0, 0.0], [0.0, 0.0]])
E01 = np.array([[0.0, 1.0], [0.0, 0.0]])
E10 = np.array([[0.0, 0.0], [1.0, 0.0]])
E11 = np.array([[0.0, 0.0], [0.0, 1.0]])
for _m in (E00, E01, E10, E11):
    _m.setflags(write=False)


def product_entry(local: np.ndarray, out_bits, in_bits) -> complex:
    if out_bits[-1] != in_bits[-1]:
        return 0.0j
    w = 1.0 + 0.0j
    for x in range(len(in_bits) - 1):
        w *= local[2 * out_bits[x] + in_bits[x + 1], 2 * in_bits[x] + in_bits[x + 1]]
    return w


def _bit_grid(n: int):
    """Bits of the row (out) and the column (in) of every entry of a 2^n-square matrix."""
    bits = (np.arange(2 ** n)[:, None] >> (n - 1 - np.arange(n))) & 1
    return bits[:, None, :], bits[None, :, :]


def product_global(local: np.ndarray, n: int) -> np.ndarray:
    """``product_entry`` of every (row, column), one site pair at a time."""
    out, inp = _bit_grid(n)
    g = (out[..., -1] == inp[..., -1]).astype(complex)
    for x in range(n - 1):
        g = g * local[2 * out[..., x] + inp[..., x + 1], 2 * inp[..., x] + inp[..., x + 1]]
    return g


def product_half(local: np.ndarray, n: int, b: int) -> np.ndarray:
    """Q_b: ``product_global`` on the indices of parity b, built with the last site held at b."""
    out, inp = _bit_grid(n - 1)
    g = np.ones((2 ** (n - 1),) * 2, dtype=complex)
    for x in range(n - 1):
        right = inp[..., x + 1] if x < n - 2 else b
        g = g * local[2 * out[..., x] + right, 2 * inp[..., x] + right]
    return g


def product_apply(local: np.ndarray, n: int, vec: np.ndarray) -> np.ndarray:
    """``product_global(local, n) @ vec``, one parity block at a time."""
    vec = np.asarray(vec)
    out = np.empty(2 ** n, dtype=complex)
    for b in (0, 1):
        out[b::2] = product_half(local, n, b) @ vec[b::2]
    return out


def parity_dense(op) -> np.ndarray:
    """The library's dense form of ``op``: Q_0 = ``op._half(0)`` at the even
    rows and columns, Q_1 at the odd ones, 0 wherever the parities differ."""
    q_0 = op._half(0)
    dense = np.zeros((op.dim, op.dim), dtype=q_0.dtype)
    dense[0::2, 0::2] = q_0
    dense[1::2, 1::2] = op._half(1)
    return dense


def last_state(state, op, steps: int):
    """The state after ``steps`` steps: the last one ``evolve_states`` yields,
    valid since no step follows it."""
    for state in evolve_states(state, op, steps):
        pass
    return state


def dual_product_global(dual: np.ndarray, n: int) -> np.ndarray:
    """Closed product of a 4x4 that keeps the left site of each pair.

    Pair x reads site x after pair x - 1 has set it and keeps it, so its
    weight is ``dual[2*out_x + out_{x+1}, 2*out_x + in_{x+1}]``, and site 0
    never changes.
    """
    out, inp = _bit_grid(n)
    g = (out[..., 0] == inp[..., 0]).astype(complex)
    for x in range(n - 1):
        g = g * dual[2 * out[..., x] + out[..., x + 1], 2 * out[..., x] + inp[..., x + 1]]
    return g


def pairwise_sweep(vec, local, n: int, tail: int = 1) -> np.ndarray:
    """The site pairs of ``kernels.sweep`` applied one batched matmul at a time."""
    q = np.asarray(local)
    out = np.asarray(vec).reshape(-1)
    out = out.astype(np.result_type(out, q))
    for x in range(n - 1):
        inner = (1 << (n - 2 - x)) * tail
        # middle axis is the packed site pair 2k+l, exactly the row index of q
        out = np.matmul(q, out.reshape(-1, 4, inner)).reshape(-1)
    return out


def kron_global(local: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return np.eye(2, dtype=complex)
    g = np.eye(2 ** n, dtype=complex)
    for x in range(n - 1):  # pair (0, 1) applies first, so it sits rightmost
        factor = np.kron(np.kron(np.eye(2 ** x), local), np.eye(2 ** (n - 2 - x)))
        g = factor @ g
    return g


def one_step_distribution(local: np.ndarray, start_bits) -> dict:
    """Outcome weights of a single step from a basis configuration."""
    n = len(start_bits)
    dist = {}
    for out_bits in product((0, 1), repeat=n):
        w = product_entry(local, out_bits, tuple(start_bits))
        if w != 0:
            dist[out_bits] = w
    return dist


def rule90_step(state: int, n: int) -> int:
    """One Rule 90 step of an n-site state (site 0 the most significant bit)."""
    return state ^ ((state << 1) & ((1 << n) - 1))


def rule90_fixed_points_enumerated(n: int, r_max: int) -> list:
    """#Fix(A^r) for r = 1..r_max, iterating the map on all 2^n states."""
    images = list(range(1 << n))
    counts = []
    for _ in range(r_max):
        images = [rule90_step(state, n) for state in images]
        counts.append(sum(image == state for state, image in enumerate(images)))
    return counts


def gf2_matmul(a, b) -> list:
    """Product of two GF(2) matrices given as integer bit rows (bit j is column j)."""
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc ^= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def gf2_rank(rows) -> int:
    """Rank over GF(2) of a matrix given as integer bit rows."""
    basis = {}  # bit length (leading bit + 1) -> basis row
    for row in rows:
        while row and row.bit_length() in basis:
            row ^= basis[row.bit_length()]
        if row:
            basis[row.bit_length()] = row
    return len(basis)


def rule90_fixed_points_gf2(n: int, r_max: int) -> list:
    """#Fix(A^r) = 2^(n - rank(A^r + I)) for r = 1..r_max, exact in integers.

    A = I + S over GF(2) with bit rows: row x holds bits x and x + 1 (site x
    reads site x + 1), the last row only bit n - 1.
    """
    a = [(1 << x) | (1 << (x + 1)) if x < n - 1 else 1 << x for x in range(n)]
    power = [1 << x for x in range(n)]
    counts = []
    for _ in range(r_max):
        power = gf2_matmul(a, power)
        counts.append(2 ** (n - gf2_rank(p ^ (1 << x) for x, p in enumerate(power))))
    return counts


def qca2_c2_recurrence(n: int, xi: float) -> float:
    """C_2 = tr(Q^2) / 2^N of qca2(0, xi) by the order-3 trace recurrence on the C scale.

    y_N = x_N / 2^N turns x_(N+3) = a x_(N+2) + b x_(N+1) + c x_N into
    y_(N+3) = (a/2) y_(N+2) + (b/4) y_(N+1) + (c/8) y_N, so no 2^N is formed.
    """
    s, sc = math.sin(xi), 2.0 * math.sin(xi) * math.cos(xi) ** 2
    y = [1.0, 1.0, (1.0 + s * s) / 2.0]
    while len(y) < n:
        y.append((1.0 + s * s) / 2.0 * y[-1] + sc / 4.0 * y[-2] - 2.0 * sc / 8.0 * y[-3])
    return y[n - 1]


def exact_transfer_c(q, n: int, r_max: int) -> list:
    """C_r = 1^T T_r^(N-1) c / 2^N for r = 1..r_max as exact Fractions; ``q`` a 4x4 of Fractions.

    T_r[a, b] = prod_t q[2 a_(t+1) + b_t, 2 a_t + b_t] is built entry by entry
    over the cyclic time histories a and b of neighbouring sites, and c is
    the indicator of the two constant histories.  The loop runs in Python
    integers on d^r T_r, with d the common denominator of ``q``, one
    object-array matmul a site, and divides once at the end.
    """
    d = math.lcm(*(Fraction(x).denominator for row in q for x in row))
    dq = [[int(d * Fraction(x)) for x in row] for row in q]
    c_values = []
    for r in range(1, r_max + 1):
        histories = list(product((0, 1), repeat=r))
        t = np.array([[math.prod(dq[2 * a[(s + 1) % r] + b[s]][2 * a[s] + b[s]] for s in range(r))
                       for b in histories] for a in histories], dtype=object)
        v = np.array([int(len(set(h)) == 1) for h in histories], dtype=object)
        for _ in range(n - 1):
            v = t @ v
        c_values.append(Fraction(int(v.sum()), d ** (r * (n - 1)) << n))
    return c_values


def spectral_calls(monkeypatch) -> dict:
    """Count each call of the classification and of the two Hermitian solvers."""
    calls = {}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators, "classify", counted("classify", operators.classify))
    for solver in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, solver, counted(solver, getattr(np.linalg, solver)))
    return calls
