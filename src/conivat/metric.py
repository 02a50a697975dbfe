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
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintSet
from .data import FeatureMatrix

_TILE = 128  # side of the square tiles the distance matrix is finished in
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
    """Optimizer settings; defaults are the standard benchmark protocol."""

    alpha: float = 0.1
    epsilon: float = 0.001
    max_iters: int = 100

    def __post_init__(self):
        for name in ("alpha", "epsilon", "max_iters"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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


def _sq_dists(a: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, np.einsum("ki,ij,kj->k", diffs, a, diffs))


def _objective(a: np.ndarray, diffs: np.ndarray) -> float:
    return float(np.sum(np.sqrt(_sq_dists(a, diffs))))


def _gradient(a: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    d = np.sqrt(_sq_dists(a, diffs))
    keep = d >= _MIN_DIST
    if not np.any(keep):
        return np.zeros_like(a)
    w = 0.5 / d[keep]
    grad = (diffs[keep] * w[:, None]).T @ diffs[keep]
    return (grad + grad.T) / 2.0


def objective_g(a: np.ndarray, data: FeatureMatrix, cs: ConstraintSet) -> float:
    """Sum of metric distances (first power) over dissimilar pairs."""
    return _objective(a, _pair_diffs(data, cs.dissimilar))


def gradient_g(a: np.ndarray, data: FeatureMatrix, cs: ConstraintSet) -> np.ndarray:
    """Ascent direction sum_dissimilar v v^T / (2 d_A); near-zero pairs skipped."""
    return _gradient(a, _pair_diffs(data, cs.dissimilar))


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
    ``ValueError`` when the similar pairs' scatter M_S overflows.
    """
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
    g_prev = _objective(a, diffs_d)
    trace = [g_prev]
    for _ in range(cfg.max_iters):
        a, lam = _project_feasible(a + cfg.alpha * _gradient(a, diffs_d), m_s, m_s_sq, lam)
        g_now = _objective(a, diffs_d)
        if not np.isfinite(g_now):
            raise FloatingPointError("objective became non-finite; check input data")
        trace.append(g_now)
        if abs(g_now - g_prev) < cfg.epsilon:
            break
        g_prev = g_now

    report = LearnReport(
        objective_trace=trace,
        c1_residual=max(0.0, float(np.tensordot(a, m_s)) - 1.0),
        min_eigenvalue=float(np.linalg.eigvalsh(a).min()),
        learned=True,
    )
    return a, report


def dissimilarity_under_metric(data: FeatureMatrix, a: np.ndarray) -> np.ndarray:
    """All-pairs distance matrix under the PSD quadratic form A, valid by construction.

    Equivalent to mapping points through A^(1/2) and taking Euclidean
    distances; computed directly from the Gram matrix G instead, as
    sqrt(max(0, (s + s.T) / 2)) with s_ij = (G_ii + G_jj) - 2 G_ij. Each
    pair of tiles mirrored across the diagonal is finished at once and
    written back over the product, so one n x n matrix is built.

    Every step works on half of the value in the formula. The product is
    X(-A)X^T = -G exactly, whatever the summation order, because negation
    commutes with rounding; h_i = G_ii * 0.5. A tile pair is finished in
    two scratch blocks allocated once per call, in seven passes:
    t = h_j + h_i (a row fill and a column add), s = -G_ij + t, the mirror
    side t += -G_ji read transposed out of the product, s += t, max(0, .)
    and sqrt. Scaling by 2 commutes with rounding, so t, each side and
    their sum are the correctly rounded halves of G_ii + G_jj, of each
    (-2 G_ij) + (G_ii + G_jj) and of their sum: the values of the formula,
    bit for bit. That holds while G_ii/2, t, each side and the sum are
    zero or at least 2^-1022 in magnitude, where halving is exact. Only
    Gram entries within about 2^52 of that bound (below about 1e-292) can
    bring a value under it; such an entry may then differ from the formula
    in its last bits, and the contract below still holds.

    The result passes ``vat.validate_dissimilarity`` unchanged, so the
    package hands it to its kernels without that pass. It is exactly
    symmetric, because each pair of mirrored tiles is written from one value
    and its transpose; its diagonal is filled with 0; and max(0, .) before
    the square root keeps it non-negative. It is finite, because the Gram
    diagonal is checked before any tile: |G_ij| <= sqrt(G_ii G_jj) for a PSD
    A, so s_ij + s_ji is at most 8 max G_ii. Raises ``ValueError`` when that
    bound overflows.

    The matrix is allocated right after glibc's ``malloc_trim`` (where the
    C library has one) returns the heap's free pages to the system. Once
    glibc has unmapped one large block it serves later blocks of that size
    from the heap, where freed pages stay resident: a caller that read each
    assessment's 9 MB PGM back at n = 3000 left such blocks there, and with
    no trim the peak RSS of its run stepped from 122 to 139 MiB. The peak
    is reached while this matrix is alive, so the one trim here holds it.
    """
    x = data.points
    n = x.shape[0]
    if _TRIM is not None:
        _TRIM(0)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.matmul(x @ -a, x.T, out=np.empty((n, n)))
        gd = -np.diag(g)
        if not np.isfinite(8.0 * np.abs(gd).max()):
            raise ValueError("squared distances overflow; rescale the features")
    half = gd * 0.5
    side = min(n, _TILE)
    t_buf, s_buf = (np.empty((side, side)) for _ in range(2))
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, n, _TILE):
            cols = slice(j, j + _TILE)
            h, w = half[rows].size, half[cols].size
            t, s = t_buf[:h, :w], s_buf[:h, :w]
            t[...] = half[cols]
            t += half[rows, None]
            np.add(g[rows, cols], t, out=s)
            t += g[cols, rows].T
            s += t
            np.maximum(s, 0.0, out=s)
            np.sqrt(s, out=s)
            g[rows, cols] = s
            g[cols, rows] = s.T
    np.fill_diagonal(g, 0.0)
    return g


def euclidean_dissimilarity(data: FeatureMatrix) -> np.ndarray:
    return dissimilarity_under_metric(data, np.eye(data.dim))
