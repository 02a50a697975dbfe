"""Allocation of the n x n float matrices the package builds.

NumPy takes array memory from the C heap. Once glibc has freed one large
mapped block it raises its mmap threshold and serves later blocks of that
size from the heap, where small allocations made in between can pin the
pages of a freed matrix. How much memory a long run keeps resident then
depends on its history: a run of synth2 protocol ops (n = 750) stepped up
by one 4.3 MiB matrix after some 70-300 ops, at an op count that moved
with nothing but the path of the checkout. A matrix in its own anonymous
mapping goes back to the system when the array is freed, so resident
memory follows the matrices that are alive.
"""

from __future__ import annotations

import mmap

import numpy as np

_MAP_BYTES = 1 << 20  # smaller matrices come from the heap


def empty_matrix(n: int) -> np.ndarray:
    """An uninitialised, writable, C-contiguous n x n float64 matrix.

    From ``_MAP_BYTES`` up it lives in its own anonymous mapping, marked
    for transparent huge pages where the system offers them, as NumPy marks
    its own large arrays. Where anonymous mappings are not available it
    comes from ``np.empty``.
    """
    size = n * n * np.dtype(float).itemsize
    if size < _MAP_BYTES or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.empty((n, n))
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(n, n)


def copy_matrix(d: np.ndarray) -> np.ndarray:
    """A copy of the square float matrix ``d`` in a matrix from ``empty_matrix``."""
    out = empty_matrix(d.shape[0])
    np.copyto(out, d)
    return out
