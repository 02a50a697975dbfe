"""Allocation of the n x n matrices the package builds.

Every matrix and 8-bit image comes from NumPy, after glibc's
``malloc_trim`` has handed the heap's free pages back to the system.
Once glibc has freed one large mapped block it raises its mmap threshold
and serves later blocks of that size from the heap, where the pages of a
freed block stay resident. In a run of assess ops (n = 3000) whose caller
reads each op's 9 MB PGM file back into memory, the heap held two or
three such 9 MB blocks, and without the trim the run's peak RSS stepped
from 122 to 139 MiB at an op count that changed from run to run. With it
the peak, which is reached while the largest matrix is alive, counts the
memory that is in use and not the heap's history.
"""

from __future__ import annotations

import ctypes

import numpy as np


def _heap_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


_TRIM = _heap_trim()


def empty_matrix(n: int, dtype=float) -> np.ndarray:
    """An uninitialised, C-contiguous n x n matrix of ``dtype``, taken after a heap trim."""
    if _TRIM is not None:
        _TRIM(0)
    return np.empty((n, n), dtype=dtype)


def copy_matrix(d: np.ndarray) -> np.ndarray:
    """A copy of the square float matrix ``d`` in a matrix from ``empty_matrix``."""
    out = empty_matrix(d.shape[0])
    np.copyto(out, d)
    return out
