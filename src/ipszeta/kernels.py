"""Two-site sweep kernel.

The hot loop of every global-operator application is the sweep of 2x2
block updates across the site chain, done here with one batched numpy
matmul per site pair.
"""

import numpy as np

# reported as ``ipszeta.KERNEL_BACKEND``; the numpy sweep is the only one
BACKEND = "python"


def sweep(vec, local, n_sites, tail=1):
    """Apply the chain of two-site updates to a flat array.

    The array holds ``tail`` interleaved vectors of length ``2**n_sites``
    (configuration index major, copy index minor), so a row-major dense
    matrix is swept column-by-column with ``tail`` equal to its column
    count.  Site pairs update left to right: (0, 1) first,
    (n_sites-2, n_sites-1) last.  Any 4x4 ``local`` is applied as given:
    a local operator keeps the right site of each pair, and the trace
    engine's space-time dual keeps the left one.

    Returns a fresh array in the inputs' promoted dtype, also at N = 1.
    """
    q = np.asarray(local)
    out = np.asarray(vec).reshape(-1)
    out = out.astype(np.result_type(out, q))
    for x in range(n_sites - 1):
        inner = (1 << (n_sites - 2 - x)) * tail
        # middle axis is the packed site pair 2k+l, exactly the row index of q
        out = np.matmul(q, out.reshape(-1, 4, inner)).reshape(-1)
    return out


__all__ = ["sweep", "BACKEND"]
