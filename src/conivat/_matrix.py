"""Allocation of the n x n matrices the package builds.

NumPy takes array memory from the C heap. Once glibc has freed one large
mapped block it raises its mmap threshold and serves later blocks of that
size from the heap, where small allocations made in between can pin the
pages of a freed matrix. How much memory a long run keeps resident then
depends on its history: a run of synth2 protocol ops (n = 750) stepped up
by one 4.3 MiB matrix after some 70-300 ops, at an op count that moved
with nothing but the path of the checkout. A matrix in its own anonymous
mapping goes back to the system when the array is freed, so resident
memory follows the matrices that are alive. The 8-bit images drawn by
``rdi.render`` take the same path.

A caller's own large blocks still land on the heap, and the pages of the
freed ones stay resident there: in a run of assess ops (n = 3000) whose
caller reads each op's 9 MB PGM file back into memory, the heap held two
or three 9 MB blocks, and the run's peak stepped by 8.6 MiB at an op count
that changed from run to run. So before it maps a matrix, ``empty_matrix`` hands the
heap's free pages back to the system with glibc's ``malloc_trim``, and
the peak, which is reached while the largest matrix is alive, counts the
memory that is in use and not the heap's history.
"""

from __future__ import annotations

import ctypes
import mmap

import numpy as np

_MAP_BYTES = 1 << 20  # smaller matrices come from the heap


def _heap_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


_TRIM = _heap_trim()


def empty_matrix(n: int, dtype=float) -> np.ndarray:
    """An uninitialised, writable, C-contiguous n x n matrix of ``dtype``.

    From ``_MAP_BYTES`` up it lives in its own anonymous mapping, marked
    for transparent huge pages where the system offers them, as NumPy marks
    its own large arrays, and the heap is trimmed first. Where anonymous
    mappings are not available it comes from ``np.empty``.
    """
    dtype = np.dtype(dtype)
    size = n * n * dtype.itemsize
    if size < _MAP_BYTES or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.empty((n, n), dtype=dtype)
    if _TRIM is not None:
        _TRIM(0)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=dtype).reshape(n, n)


def copy_matrix(d: np.ndarray) -> np.ndarray:
    """A copy of the square float matrix ``d`` in a matrix from ``empty_matrix``."""
    out = empty_matrix(d.shape[0])
    np.copyto(out, d)
    return out
