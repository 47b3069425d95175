"""Site-blocked sweep kernel.

The hot loop of every global-operator application is the chain of
two-site updates across the sites, pair (0, 1) first.  The kernel fuses
runs of up to four consecutive pairs (five sites) into one dense
2^w-square block, as state-vector simulators fuse gates (Haener and
Steiger, "0.5 Petabyte Simulation of a 45-Qubit Quantum Circuit",
SC '17).  The caller hands over an array it owns and uses the one the
sweep returns.  An array larger than ``_SLAB_BYTES`` is updated in
place, group by group, one part of at most ``_SLAB_BYTES`` at a time,
through one buffer of that size, so a call holds that array plus the
buffer.  A smaller array is never written: each group is one numpy
matmul into a fresh array.  Both go through ``_update``, the one place a
group's product is written, the right product of a last group included.
A site held fixed to the right of the array joins the last block, which
keeps the rows and columns where that site holds its value.  Blocks are
built by the pairwise loop on the identity and kept in a bounded cache.
"""

import functools

import numpy as np

# reported as ``ipszeta.KERNEL_BACKEND``; the numpy sweep is the only one
BACKEND = "python"

# widest fused block: 5 sites, 4 pairs, a 32 x 32 matrix
_GROUP_SITES = 5
# rows of each batch of a last group's right product when tail = 1; one tall
# product raises the peak RSS under a threaded BLAS (0.45 MB at N = 64, R = 16)
_ROWS = 256
# bytes of the buffer through which a group updates an array larger than
# this in place; a smaller array is replaced group by group; 512 KB was the
# fastest of 128 KB..2 MB at N = 20..22
_SLAB_BYTES = 1 << 19


@functools.lru_cache(maxsize=64)
def _block(local_bytes: bytes, dtype: str, width: int, held=None) -> np.ndarray:
    """The pair updates of ``width`` sites as one 2^width-square matrix.

    Column j is the image of basis vector j under the pairwise loop.  With
    ``held`` = b it runs over width + 1 sites, keeping the parity-b rows and columns.
    """
    q = np.frombuffer(local_bytes, dtype=dtype).reshape(4, 4)
    sites = width + (held is not None)
    dim = 1 << sites
    out = np.eye(dim, dtype=dtype).reshape(-1)
    for x in range(sites - 1):
        inner = (1 << (sites - 2 - x)) * dim
        # middle axis is the packed site pair 2k+l, exactly the row index of q
        out = np.matmul(q, out.reshape(-1, 4, inner)).reshape(-1)
    out = out.reshape(dim, dim)
    if held is not None:
        out = out[held::2, held::2]
    # column-major, so that the transpose of the right product is row-major
    block = np.asfortranarray(out)
    block.setflags(write=False)
    return block


def _groups(n_sites: int):
    """(first site, width) of each fused group, left to right.

    Groups are laid out from the right end and overlap by one site, so
    each pair falls in exactly one group and every group but the last
    leaves at least 2^4 entries per copy to its right.
    """
    groups = []
    end = n_sites
    while True:
        start = max(0, end - _GROUP_SITES)
        groups.append((start, end - start))
        if start == 0:
            return groups[::-1]
        end = start + 1


def sweep(vec, local, n_sites, tail=1, held=None):
    """Apply the chain of two-site updates to a flat array the caller owns.

    The array holds ``tail`` interleaved vectors of length ``2**n_sites``
    (configuration index major, copy index minor), so a row-major dense
    matrix is swept column-by-column with ``tail`` equal to its column
    count.  Site pairs update left to right: (0, 1) first,
    (n_sites-2, n_sites-1) last.  ``held`` = b adds the pair (n_sites-1,
    n_sites) with site n_sites held at b: the array is placed at the
    parity-b indices of n_sites + 1 sites, swept, and read back from them.
    Any 4x4 ``local`` is applied as given: a local operator keeps the
    right site of each pair, and the space-time dual ``transfer.dual`` keeps
    the left one.

    ``vec`` must be a writable C-contiguous array in the promoted dtype of
    it and ``local``; anything else raises ValueError untouched.  Use the
    flat array the sweep returns.  An array larger than ``_SLAB_BYTES``
    is updated in place through one buffer of that size and returned.  A
    smaller one is left untouched, and each group writes a fresh array
    (with no pair to update, ``vec`` itself comes back).
    """
    q = np.asarray(local)
    v = np.asarray(vec)
    dtype = np.result_type(v, q)
    if v.dtype != dtype or not (v.flags.c_contiguous and v.flags.writeable):
        raise ValueError(f"a sweep needs a writable contiguous {dtype} array")
    out = v.reshape(-1)
    if n_sites + (held is not None) < 2:
        return out
    key = q.tobytes(), q.dtype.str
    buf = np.empty(_SLAB_BYTES // out.itemsize, out.dtype) if out.nbytes > _SLAB_BYTES else None
    for start, width in _groups(n_sites):
        # the held site joins the group that ends at the array's last site
        block = _block(*key, width, held if start + width == n_sites else None)
        inner = (1 << (n_sites - start - width)) * tail
        out = _update(out.reshape(-1, 1 << width, inner), block, buf).reshape(-1)
    return out


def _update(slabs, block, buf):
    """Apply ``block`` to each (dim, inner) slab of ``slabs``: in place through ``buf``,
    or, with ``buf`` None, into a fresh array.  Returns the product.

    When inner = 1 the group is the right product ``slabs @ block.T``, in
    batches of ``_ROWS`` rows.  The group is block-diagonal over the slabs,
    so in place each part is multiplied into the front of ``buf`` and
    copied back: batches of whole slabs when they fit, column chunks of
    one slab when they do not.
    """
    count, dim, inner = slabs.shape
    right = inner == 1
    if right:
        slabs = slabs.reshape(-1, min(_ROWS, count), dim)

    def product(part, out=None):
        return np.matmul(part, block.T, out=out) if right else np.matmul(block, part, out=out)

    if buf is None:
        return product(slabs)
    rows, cols = slabs.shape[1:]
    batch = max(1, buf.size // (rows * cols))
    width = min(cols, buf.size // rows)
    for i in range(0, len(slabs), batch):
        for j in range(0, cols, width):
            part = slabs[i:i + batch, :, j:j + width]
            part[...] = product(part, buf[:part.size].reshape(part.shape))
    return slabs


__all__ = ["sweep", "BACKEND"]
