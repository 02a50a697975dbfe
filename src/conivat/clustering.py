"""Partition extraction from VAT MSTs plus baseline hierarchical algorithms.

Cutting the k-1 largest MST edges of a VAT result yields exactly the
single-linkage clusters of the underlying matrix, so ``cut_mst`` is the
cheap SL back end used by the pipelines. ``hac`` provides the classical
agglomerative reference (single or complete linkage); it caches each row's
first minimum, so a merge touches only the rows whose minimum it can move.
``ccl``/``ssl`` are the constraint-editing baselines of Klein et al. (ICML
2002): zero must-link entries and set cannot-link entries past the matrix
maximum. ``ccl`` then propagates the edits by additive shortest paths,
which for a metric input need only the constraint endpoints as
intermediates, and clusters with complete linkage. ``ssl`` clusters the
edited matrix with single linkage directly, since the propagation cannot
change single-linkage merge heights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .vat import VatResult, validate_dissimilarity


@dataclass(frozen=True)
class Partition:
    """Cluster labels in [0, k), one per object, every cluster nonempty."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.shape[0] == 0:
            raise ValueError("labels must be a nonempty 1-D array")
        present = np.unique(labels)
        if present[0] < 0 or present[-1] >= self.k or present.shape[0] != self.k:
            raise ValueError(f"labels must cover exactly the ids 0..{self.k - 1}")

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def cut_mst(vat: VatResult, k: int) -> Partition:
    """Partition into k clusters by cutting the k-1 largest MST edges.

    Ties between equal-weight edges cut the one admitted later in the VAT
    ordering. Cluster ids run 0..k-1 in order of first appearance along the
    ordering; labels are returned in original index order.
    """
    n = vat.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    w = vat.cut_magnitudes
    by_weight = np.lexsort((np.arange(n - 1), w))
    cut = set(by_weight[n - k:].tolist())
    ordered_labels = np.zeros(n, dtype=int)
    next_id = 0
    for t in range(1, n):
        if t - 1 in cut:
            next_id += 1
            ordered_labels[t] = next_id
        else:
            ordered_labels[t] = ordered_labels[vat.mst_parent[t]]
    labels = np.empty(n, dtype=int)
    labels[vat.order] = ordered_labels
    return Partition(labels=labels, k=k)


def hac(d: np.ndarray, k: int, linkage: str = "single") -> Partition:
    """Agglomerative clustering from singletons down to k clusters.

    ``linkage`` is "single" (merge distance = min pairwise) or "complete"
    (max pairwise). Merge ties pick the lexicographically smallest pair of
    cluster representatives, a cluster's representative being its lowest
    member index.
    """
    d = validate_dissimilarity(d)
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if linkage not in ("single", "complete"):
        raise ValueError(f"linkage must be 'single' or 'complete', got {linkage!r}")
    combine = np.minimum if linkage == "single" else np.maximum

    # Slot index == representative index; merging folds the larger slot
    # into the smaller so representatives stay minimal. Each row caches its
    # first minimum (nbr, low), so argmin(low) then nbr is the row-major
    # first minimum of the whole matrix: the lexicographic tie rule.
    m = d.copy()
    np.fill_diagonal(m, np.inf)
    nbr = np.argmin(m, axis=1)
    low = m[np.arange(n), nbr]
    labels = np.arange(n)
    for _ in range(n - k):
        i = int(np.argmin(low))
        j = int(nbr[i])
        if i > j:
            i, j = j, i
        m[i] = m[:, i] = combine(m[i], m[j])
        m[j] = m[:, j] = np.inf
        m[i, i] = np.inf
        labels[labels == j] = i
        low[j], nbr[j] = np.inf, -1  # retired rows never go stale again
        # A row's cache survives unless its minimum sat in column i or j,
        # or the new column i undercuts it (ties go to the lower column).
        col = m[:, i]
        stale = (nbr == i) | (nbr == j) | (col < low) | ((col == low) & (i < nbr))
        stale[i] = True
        rows = np.flatnonzero(stale)
        nbr[rows] = np.argmin(m[rows], axis=1)
        low[rows] = m[rows, nbr[rows]]
    _, labels = np.unique(labels, return_inverse=True)
    return Partition(labels=labels, k=k)


def _edit(d: np.ndarray, cs: ConstraintSet) -> tuple[np.ndarray, float]:
    """Must-link -> 0, cannot-link -> a ceiling above every entry of ``d``.

    Returns the edited copy and the ceiling. The ceiling is max + 1, or the
    next float above the max once adding 1 no longer changes it.
    """
    d = validate_dissimilarity(d)
    n = d.shape[0]
    for i, j in cs.similar | cs.dissimilar:
        if i >= n or j >= n:
            raise IndexError(f"constraint pair ({i}, {j}) out of range for {n} objects")
    out = d.copy()
    top = float(d.max())
    ceiling = max(top + 1.0, float(np.nextafter(top, np.inf)))
    for i, j in cs.similar:
        out[i, j] = out[j, i] = 0.0
    for i, j in cs.dissimilar:
        out[i, j] = out[j, i] = ceiling
    return out, ceiling


def _close_through_endpoints(e: np.ndarray, cs: ConstraintSet, ceiling: float) -> np.ndarray:
    """Additive shortest-path closure of an edited metric, in place.

    A shortest path needs an intermediate outside the constraint endpoints
    only as a single hop between the two ends of a cannot-link pair, so each
    such pair first takes its best two-hop detour; Floyd-Warshall over the
    endpoints alone then finishes the closure. The cannot-link barrier is
    restored afterwards, since shortest paths may tunnel around it.
    """
    for i, j in cs.dissimilar:
        e[i, j] = e[j, i] = np.min(e[i] + e[j])
    for mid in sorted({v for pair in cs.similar | cs.dissimilar for v in pair}):
        np.minimum(e, e[:, mid, None] + e[None, mid, :], out=e)
    for i, j in cs.dissimilar:
        e[i, j] = e[j, i] = ceiling
    return e


def ccl(d: np.ndarray, cs: ConstraintSet, k: int) -> Partition:
    """Constrained complete linkage over the edited, propagated matrix.

    Must-links become 0 and cannot-links a ceiling above the maximum; the
    edits propagate by additive shortest paths and the cannot-link entries
    are then put back at the ceiling. ``d`` must obey the triangle
    inequality (Euclidean distances do): the closure runs only through
    constraint endpoints, which equals the full all-pairs closure for a
    metric input and may miss shorter paths otherwise.
    """
    e, ceiling = _edit(d, cs)
    return hac(_close_through_endpoints(e, cs, ceiling), k, "complete")


def ssl(d: np.ndarray, cs: ConstraintSet, k: int) -> Partition:
    """Constrained single linkage over the edited matrix.

    Must-links become 0 and cannot-links a ceiling above the maximum. The
    shortest-path propagation of ``ccl`` is skipped: it leaves minimax
    distances, and so single-linkage merge heights, unchanged for any
    non-negative input, because a closed entry is a path length, at least
    that path's largest edge and at most the edited entry.
    """
    return hac(_edit(d, cs)[0], k, "single")


def suggest_k(vat: VatResult) -> list[tuple[int, float]]:
    """Rank candidate cluster counts by gaps between sorted cut magnitudes.

    score(k) = (k-1)-th largest magnitude minus the k-th largest; a large
    gap means cutting k-1 edges removes everything clearly longer than what
    remains. Advisory only; empty for N < 3.
    """
    if vat.n < 2:
        raise ValueError("suggest_k needs at least 2 objects")
    desc = np.sort(vat.cut_magnitudes)[::-1]
    scores = [(kk, float(desc[kk - 2] - desc[kk - 1])) for kk in range(2, vat.n)]
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores
