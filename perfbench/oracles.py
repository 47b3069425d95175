"""Reference values of the workloads, computed in a process of their own.

    python3 perfbench/oracles.py <workload> '<JSON list of CLI argv>'

prints the reference as one JSON object.  The benchmark runs this once per
invocation, before the timed loop.  It runs apart from the benchmark
process because a child started by ``subprocess`` inherits its parent's
peak RSS in ``ru_maxrss``: the benchmark itself must never hold the
Kronecker-product operator.

Nothing here calls into ``ipszeta``: the local matrices, the dense
operator, the recurrences and the one-step einsum are written out from
the paper's definitions.
"""

import json
import math
import sys

import numpy as np

from workloads import flag


def qca2_local(xi1: float, xi2: float) -> np.ndarray:
    """Rotation block for right site 0, reflection block for right site 1."""
    c1, s1, c2, s2 = math.cos(xi1), math.sin(xi1), math.cos(xi2), math.sin(xi2)
    return np.array([[c1, 0, -s1, 0], [0, -s2, 0, c2], [s1, 0, c1, 0], [0, c2, 0, s2]])


def dk_local(p: float, q: float) -> np.ndarray:
    return np.array([[1, 0, 1 - p, 0], [0, 1 - p, 0, 1 - q], [0, 0, p, 0], [0, p, 0, q]])


def kron_operator(local: np.ndarray, n: int) -> np.ndarray:
    """Dense Q = U_{N-2} ... U_0 with U_x = I_{2^x} (x) local (x) I_{2^(N-2-x)}."""
    total = np.eye(1 << n)
    for x in range(n - 1):
        u = np.kron(np.kron(np.eye(1 << x), local), np.eye(1 << (n - 2 - x)))
        total = u @ total
    return total


def kron_traces(local: np.ndarray, n: int, r_max: int) -> list:
    """tr(Q^r), r = 1..r_max, as sum(Q^a * (Q^b)^T) with a + b = r."""
    q = kron_operator(local, n)
    powers = [np.eye(1 << n), q]
    while len(powers) <= (r_max + 1) // 2:
        powers.append(powers[-1] @ q)
    return [float(np.sum(powers[(r + 1) // 2] * powers[r // 2].T)) for r in range(1, r_max + 1)]


def linear_recurrence(coeffs, seeds, n: int) -> float:
    """x_n of x_{k+d} = sum_i coeffs[i] x_{k+d-1-i}, seeds x_1..x_d, by companion power."""
    d = len(seeds)
    if n <= d:
        return float(seeds[n - 1])
    companion = np.zeros((d, d))
    companion[0, :] = coeffs
    companion[1:, :-1] = np.eye(d - 1)
    state = np.linalg.matrix_power(companion, n - d) @ np.array(seeds[::-1], dtype=float)
    return float(state[0])


def qca2_traces_r1_r2(xi: float, n: int) -> list:
    """tr(Q), tr(Q^2) of qca2(0, xi) from the paper's order-2 and order-3 recurrences."""
    s, c2 = math.sin(xi), math.cos(xi) ** 2
    x1 = linear_recurrence([1 + s, -2 * s], [2.0, 2.0], n)
    x2 = linear_recurrence([1 + s * s, 2 * s * c2, -4 * s * c2],
                           [2.0, 4.0, 4.0 * (1 + s * s)], n)
    return [x1, x2]


def one_step_marginals(local: np.ndarray, bits) -> list:
    """Site marginals after one step from a point mass, pair by pair with einsum."""
    n = len(bits)
    state = np.zeros(1 << n)
    state[int("".join(map(str, bits)), 2)] = 1.0
    pair = local.reshape(2, 2, 2, 2)  # [out left, out right, in left, in right]
    for x in range(n - 1):
        block = state.reshape(1 << x, 2, 2, -1)
        state = np.einsum("klij,aijb->aklb", pair, block).reshape(-1)
    return [float(state.reshape(1 << x, 2, -1)[:, 1, :].sum()) for x in range(n)]


def _params(argv):
    return [float(p) for p in flag(argv, "--params").split(",")]


def reference(workload: str, commands) -> dict:
    argv = commands[0]
    if workload == "zeta-dense":
        n, r_max = int(flag(argv, "--n")), int(flag(argv, "--rmax"))
        traces = kron_traces(qca2_local(*_params(argv)), n, r_max)
        return {"c_r": [t / 2.0 ** n for t in traces]}
    if workload == "trace-mf":
        n = int(flag(argv, "--n"))
        return {"n": n, "traces": qca2_traces_r1_r2(_params(argv)[1], n)}
    if workload == "evolve-wide":
        bits = [int(b) for b in flag(argv, "--initial")]
        return {"step1": one_step_marginals(dk_local(*_params(argv)), bits)}
    return {}


if __name__ == "__main__":
    print(json.dumps(reference(sys.argv[1], json.loads(sys.argv[2]))))
