"""Mahalanobis metric learning from pairwise constraints.

The learner maximizes the summed distance between dissimilar pairs,

    g(A) = sum_{(i,j) dissimilar} sqrt((xi-xj)^T A (xi-xj)),

by gradient ascent on the symmetric weight matrix A, subject to two convex
constraints (Xing et al., NIPS 2002):

    C1:  sum_{(i,j) similar} (xi-xj)^T A (xi-xj) <= 1
    C2:  A positive semi-definite.

C1 is a half-space in the Frobenius inner product against
M_S = sum_similar v v^T and C2 is the PSD cone. After every ascent step A
moves to the nearest point of their intersection, which is
P_PSD(A - lam M_S) at the smallest multiplier lam >= 0 that satisfies C1;
P_PSD clamps negative eigenvalues to zero, and lam comes from a scalar
root-find on ``np.linalg.eigh`` warm-started from the previous step's
multiplier, refined by at most ``_MAX_PROJECTIONS`` evaluations.
``project_psd`` projects onto the PSD cone alone.

Ascent stops when the objective change drops below ``epsilon`` or after
``max_iters`` steps. A starts at the identity, so the pre-learning
distance is plain Euclidean.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintSet
from .data import FeatureMatrix, _is_index

_TILE = 128  # side of the square tiles of the dense passes here, in vat and in clustering
_MIN_DIST = 1e-12  # dissimilar pairs closer than this under A add no gradient
_MAX_PROJECTIONS = 10000  # cap on root-find refinements per projection


def _heap_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_TRIM = _heap_trim()


@dataclass(frozen=True)
class LearnConfig:
    """Optimizer settings; defaults are the standard benchmark protocol.

    ``alpha`` and ``epsilon`` must be finite and positive, ``max_iters`` a
    positive integer.
    """

    alpha: float = 0.1
    epsilon: float = 0.001
    max_iters: int = 100

    def __post_init__(self):
        for name in ("alpha", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (_is_index(self.max_iters) and self.max_iters > 0):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters}")


@dataclass
class LearnReport:
    """Diagnostics from one ``learn_metric`` call."""

    objective_trace: list[float] = field(default_factory=list)
    c1_residual: float = 0.0
    min_eigenvalue: float = 0.0
    learned: bool = False

    @property
    def iterations_used(self) -> int:
        """Objective evaluations made, the starting one included."""
        return len(self.objective_trace)


def _pair_diffs(data: FeatureMatrix, pairs) -> np.ndarray:
    pairs = sorted(pairs)
    if not pairs:
        return np.zeros((0, data.dim))
    idx = np.array(pairs, dtype=int)
    return data.points[idx[:, 0]] - data.points[idx[:, 1]]


def _objective_and_gradient(a: np.ndarray, diffs: np.ndarray) -> tuple[float, np.ndarray]:
    """g(A) and its ascent direction sum_dissimilar v v^T / (2 d_A), from one pass over the pairs.

    Pairs closer than ``_MIN_DIST`` under A add to g but not to the direction.
    """
    d = np.sqrt(np.maximum(0.0, np.einsum("ki,ij,kj->k", diffs, a, diffs)))
    keep = d >= _MIN_DIST
    grad = (diffs[keep] * (0.5 / d[keep])[:, None]).T @ diffs[keep]
    return float(np.sum(d)), (grad + grad.T) / 2.0


def _similar_outer(data: FeatureMatrix, cs: ConstraintSet) -> np.ndarray:
    vs = _pair_diffs(data, cs.similar)
    return vs.T @ vs


def project_psd(a: np.ndarray) -> np.ndarray:
    """Nearest positive semi-definite matrix to symmetric A: clamp negative eigenvalues."""
    vals, vecs = np.linalg.eigh(a)
    out = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return (out + out.T) / 2.0


# refinement stops once the feasible end lies this close to the C1 boundary
_C1_GAP = 1e-9


def _project_feasible(a, m_s, m_s_sq, lam_warm):
    """Frobenius-nearest point of {X PSD, <X, M_S> <= 1}; returns ``(X, lam)``.

    By the projection program's KKT conditions the answer is
    X(lam) = P_PSD(A - lam M_S) at the smallest lam >= 0 with
    f(lam) = <X(lam), M_S> - 1 <= 0 (Malick 2004), and f never increases
    because M_S is PSD. P_PSD is 1-Lipschitz, so f(lam) >= f(0) - lam ||M_S||^2
    and the root is at least f(0) / ||M_S||^2; bracketing doubles from there,
    or from ``lam_warm`` (the previous step's multiplier) when that is larger,
    and always ends because lam >= ||A||^2 / 4 is feasible. Illinois regula
    falsi then refines for at most ``_MAX_PROJECTIONS`` evaluations. The
    bracket's feasible end is returned, so X always satisfies both
    constraints.
    """

    def trial(lam):
        x = project_psd(a - lam * m_s)
        return x, float(np.vdot(x, m_s)) - 1.0

    x_hi, f_lo = trial(0.0)
    if f_lo <= 0.0:
        return x_hi, 0.0
    lo, hi = 0.0, max(f_lo / m_s_sq, lam_warm)
    x_hi, f_hi = trial(hi)
    while f_hi > 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        x_hi, f_hi = trial(hi)
    # Illinois halves the stale end's weight, so the true gap is kept apart
    gap, side = f_hi, 0
    for _ in range(_MAX_PROJECTIONS):
        # written so that a NaN ends the loop
        if not (gap < -_C1_GAP and hi - lo > 1e-12 * hi):
            break
        lam = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        x, f = trial(lam)
        if f <= 0.0:
            hi, f_hi, x_hi, gap = lam, f, x, f
            if side == -1:
                f_lo /= 2.0
            side = -1
        else:
            lo, f_lo = lam, f
            if side == 1:
                f_hi /= 2.0
            side = 1
    return x_hi, hi


def learn_metric(data: FeatureMatrix, cs: ConstraintSet, cfg: LearnConfig | None = None):
    """Gradient ascent, each step projected exactly; returns ``(A, report)``.

    Requires a sanitized constraint set. When either constraint side is
    empty the optimum is unconstrained or degenerate, so the identity metric
    is returned with ``report.learned`` False and zero iterations. Raises
    ``IndexError`` for a pair outside the data, and ``ValueError`` when the
    similar pairs' scatter M_S overflows or the ascent collapses A to zero.
    The fixed step grows with the square of the feature scale while the
    feasible metrics shrink with it, so on large features one step can
    overshoot to A = 0, where the objective, positive at the start, ends
    at 0.0; ``normalize_minmax`` avoids that.
    """
    cs.check_items(data.n)
    cfg = cfg or LearnConfig()
    p = data.dim
    identity = np.eye(p)
    if not cs.similar or not cs.dissimilar:
        return identity, LearnReport(min_eigenvalue=1.0 if p else 0.0)

    diffs_d = _pair_diffs(data, cs.dissimilar)
    with np.errstate(over="ignore", invalid="ignore"):
        m_s = _similar_outer(data, cs)
        m_s_sq = float(np.sum(m_s * m_s))
    # an infinite ||M_S||^2 would start the projection's bracket at 0, and doubling 0 never ends
    if not np.isfinite(m_s_sq):
        raise ValueError("similar-pair scatter overflows; rescale the features")

    a, lam = _project_feasible(identity, m_s, m_s_sq, 0.0)
    g_prev, grad = _objective_and_gradient(a, diffs_d)
    trace = [g_prev]
    for _ in range(cfg.max_iters):
        a, lam = _project_feasible(a + cfg.alpha * grad, m_s, m_s_sq, lam)
        g_now, grad = _objective_and_gradient(a, diffs_d)
        if not np.isfinite(g_now):
            raise FloatingPointError("objective became non-finite; check input data")
        trace.append(g_now)
        if abs(g_now - g_prev) < cfg.epsilon:
            break
        g_prev = g_now
    if trace[0] > 0.0 and trace[-1] == 0.0:
        raise ValueError(
            f"metric learning collapsed: the objective fell from {trace[0]!r} to 0.0; "
            "rescale the features with normalize_minmax"
        )

    report = LearnReport(
        objective_trace=trace,
        c1_residual=max(0.0, float(np.tensordot(a, m_s)) - 1.0),
        min_eigenvalue=float(np.linalg.eigvalsh(a).min()),
        learned=True,
    )
    return a, report


def dissimilarity_under_metric(data: FeatureMatrix, a: np.ndarray) -> np.ndarray:
    """All-pairs distance matrix under the PSD quadratic form A, valid by construction.

    The distance under A is the Euclidean distance after the map
    x -> A^(1/2) x. The points are centred first, which leaves every
    difference unchanged and keeps the squared norms small, and mapped as
    z = (x - mean) V sqrt(max(lam, 0)) from ``np.linalg.eigh(a)``, which
    reads the lower triangle of the symmetric A; for A = I that is the
    identity. The squared distance is then (h_i + h_j) - 2 s_ij with
    s = z z^T and h its diagonal.

    s is formed one pair of ``_TILE``-row blocks at a time, upper tiles
    only, so no n x n product is built. The row blocks run bottom-up: the
    diagonal tile comes first in each and gives h for its rows, and every
    tile to its right needs h of rows already done. With OpenBLAS these
    tile products give the same bytes at any thread count, which the
    whole n x n product did not.

    The result passes ``vat.validate_dissimilarity`` unchanged, so the
    package hands it to its kernels without that pass. It is exactly
    symmetric: off the diagonal a tile is written with its transpose, and
    on it NumPy's symmetric product and t = h_i + h_j, formed before
    s = -2s + t, are both symmetric. Its diagonal is 0, since -2h_i + (h_i +
    h_i) is exactly 0, and max(0, .) before the square root keeps it
    non-negative. It is finite, because |s_ij| <= sqrt(h_i h_j), so each
    squared distance is at most 4 max h, checked as each block of h is
    formed. Raises ``ValueError`` when that bound overflows.

    The matrix is allocated right after glibc's ``malloc_trim`` (where the
    C library has one) returns the heap's free pages to the system, with
    the scratch tiles and h already in place. Once glibc has unmapped one
    large block it serves later blocks of that size from the heap, where
    freed pages stay resident: a caller that read each assessment's 9 MB
    PGM back at n = 3000 left such blocks there, and with no trim the peak
    RSS of its run stepped from 122 to 139 MiB. The peak is reached while
    this matrix is alive, so the one trim here holds it.
    """
    x = data.points
    n = x.shape[0]
    vals, vecs = np.linalg.eigh(a)
    side = min(n, _TILE)
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x - x.mean(axis=0)) @ (vecs * np.sqrt(np.maximum(vals, 0.0)))
        h, s_buf, t_buf = np.empty(n), np.empty((side, side)), np.empty((side, side))
        if _TRIM is not None:
            _TRIM(0)
        out = np.empty((n, n))
        for i in reversed(range(0, n, _TILE)):
            rows = slice(i, i + _TILE)
            for j in range(i, n, _TILE):
                cols = slice(j, j + _TILE)
                s, t = s_buf[:len(z[rows]), :len(z[cols])], t_buf[:len(z[rows]), :len(z[cols])]
                np.matmul(z[rows], z[cols].T, out=s)
                if j == i:
                    h[rows] = s.diagonal()
                    if not np.isfinite(4.0 * h[rows].max()):
                        raise ValueError("squared distances overflow; rescale the features")
                t[...] = h[cols]
                t += h[rows, None]
                s *= -2.0
                s += t
                np.maximum(s, 0.0, out=s)
                np.sqrt(s, out=s)
                out[rows, cols] = s
                out[cols, rows] = s.T
    return out


def euclidean_dissimilarity(data: FeatureMatrix) -> np.ndarray:
    """All-pairs Euclidean distance matrix: ``dissimilarity_under_metric`` at A = I."""
    return dissimilarity_under_metric(data, np.eye(data.dim))
