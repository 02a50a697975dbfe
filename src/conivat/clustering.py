"""Partition extraction from VAT MSTs plus baseline hierarchical algorithms.

Cutting the k-1 largest MST edges of a VAT traversal yields exactly the
single-linkage clusters of the underlying matrix (Gower & Ross, 1969), each
a contiguous run of the VAT order (Havens et al., 2009), so every
single-linkage result here is such a cut: ``cut_mst`` for the pipelines,
and ``hac(..., "single")`` over a traversal of its own input.
``hac`` with complete linkage is the classical agglomerative loop; it
caches each row's first minimum, so a merge touches only the rows whose
minimum it can move. ``ccl``/``ssl`` are the constraint-editing baselines
of Klein et al. (ICML 2002): zero must-link entries and set cannot-link
entries past the matrix maximum. ``ccl`` then propagates the edits by
additive shortest paths, which for a metric input need only the constraint
endpoints as intermediates, and clusters with complete linkage. ``ssl``
clusters the edited matrix with single linkage directly, since the
propagation cannot change single-linkage merge heights. Both validate their
input once, in the edit, and hand the edited copy straight to the
traversal or the merge loop. A matrix is copied at most once: the copy
validation makes of a skewed input is edited in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._matrix import copy_matrix
from .constraints import ConstraintSet
from .vat import VatResult, _vat_traversal, _zero_similar, validate_dissimilarity

_STRIP = 16384  # entries per row strip of the closure's n x n minimum


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


def _cut_tree(order: np.ndarray, cuts: np.ndarray, k: int) -> Partition:
    """Cut the k-1 largest edges of a VAT traversal's MST; see ``cut_mst``.

    Edge t-1 admitted position t, and cutting it starts a new cluster at t,
    so each cluster is a run of positions whose id counts the cuts up to
    it. That is the partition of the tree: an uncut position t stays with
    its MST parent p, an earlier position at distance cuts[t-1], and no cut
    lies between them. When a position c with p < c < t was admitted, t was
    unvisited and p visited, so cuts[c-1] <= d(p, t) = cuts[t-1]. The cut
    edges are the largest in the order (weight, position), so had edge c-1
    been cut, edge t-1 would have been too.
    """
    n = order.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    starts = np.zeros(n, dtype=int)
    starts[np.lexsort((np.arange(n - 1), cuts))[n - k:] + 1] = 1
    labels = np.empty(n, dtype=int)
    labels[order] = np.cumsum(starts)
    return Partition(labels=labels, k=k)


def cut_mst(vat: VatResult, k: int) -> Partition:
    """Partition into k clusters by cutting the k-1 largest MST edges.

    Ties between equal-weight edges cut the one admitted later in the VAT
    ordering. Each cluster is a contiguous run of the ordering, and cluster
    ids run 0..k-1 along it; labels are returned in original index order.
    """
    return _cut_tree(vat.order, vat.cut_magnitudes, k)


def _validated_copy(d: np.ndarray) -> np.ndarray:
    """``validate_dissimilarity(d)``, copied only if it may share memory with ``d``.

    The result is safe to overwrite. An ``is`` test would not do: for an
    ndarray subclass validation returns a base-class view of its memory.
    """
    m = validate_dissimilarity(d)
    return copy_matrix(m) if np.may_share_memory(m, d) else m


def hac(d: np.ndarray, k: int, linkage: str = "single") -> Partition:
    """Agglomerative clustering from singletons down to k clusters.

    ``linkage`` is "single" (merge distance = min pairwise) or "complete"
    (max pairwise). Single linkage is ``cut_mst`` of the VAT traversal of
    ``d``: among equal-weight MST edges the later-admitted one is cut, each
    cluster is a run of the VAT order, and ids increase along it. Complete
    linkage merges until k clusters remain; merge ties pick the
    lexicographically smallest pair of cluster representatives, a cluster's
    representative being its lowest member index, and ids follow the
    representatives.
    """
    if linkage == "single":
        return _cut_tree(*_vat_traversal(validate_dissimilarity(d)), k)
    if linkage == "complete":
        return _complete_linkage(_validated_copy(d), k)
    raise ValueError(f"linkage must be 'single' or 'complete', got {linkage!r}")


def _complete_linkage(m: np.ndarray, k: int) -> Partition:
    """The complete-linkage merge loop of ``hac`` over a validated ``m``, which it overwrites."""
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # Slot index == representative index; merging folds the larger slot
    # into the smaller so representatives stay minimal. Each row caches its
    # first minimum (nbr, low), so argmin(low) then nbr is the row-major
    # first minimum of the whole matrix: the lexicographic tie rule.
    np.fill_diagonal(m, np.inf)
    nbr = np.argmin(m, axis=1)
    low = m[np.arange(n), nbr]
    labels = np.arange(n)
    for _ in range(n - k):
        i = int(np.argmin(low))
        j = int(nbr[i])
        if i > j:
            i, j = j, i
        m[i] = m[:, i] = np.maximum(m[i], m[j])
        m[j] = m[:, j] = np.inf
        m[i, i] = np.inf
        labels[labels == j] = i
        low[j], nbr[j] = np.inf, -1  # retired rows never go stale again
        # A row's cache survives unless its minimum sat in column i or j:
        # m is symmetric, so the new m[r, i] is max(m[r, i], m[r, j]) >= low[r],
        # equal only if the old m[r, i] was, after the first minimum nbr[r].
        stale = (nbr == i) | (nbr == j)
        stale[i] = True
        rows = np.flatnonzero(stale)
        nbr[rows] = np.argmin(m[rows], axis=1)
        low[rows] = m[rows, nbr[rows]]
    _, labels = np.unique(labels, return_inverse=True)
    return Partition(labels=labels, k=k)


def _edit(d: np.ndarray, cs: ConstraintSet) -> tuple[np.ndarray, float]:
    """Must-link -> 0, cannot-link -> a ceiling above every entry of ``d``.

    Returns the edited copy and the ceiling. The ceiling is max + 1, or the
    next float above the max once adding 1 no longer changes it. Every edit
    writes both mirror entries, so the copy is as exactly symmetric as the
    validated ``d`` and valid by construction: callers hand it to the
    traversal or merge loop without validating it again.
    """
    out = _validated_copy(d)
    n = out.shape[0]
    for i, j in cs.dissimilar:
        if i >= n or j >= n:
            raise IndexError(f"constraint pair ({i}, {j}) out of range for {n} objects")
    top = float(out.max())
    ceiling = max(top + 1.0, float(np.nextafter(top, np.inf)))
    _zero_similar(out, cs)
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

    Floyd-Warshall pass t over endpoint p_t sets e = min(e, C_t[u] + R_t[v])
    with R_t = e[p_t] and C_t = e[:, p_t] as they stand before the pass, so
    the closed matrix is min(e, min_t C_t[u] + R_t[v]) over the starting e:
    ``min`` is exact and the sums are the same additions, so the result is
    bit-identical to running the passes one after another. The pivots come
    first, each from its endpoint's starting row and column and the earlier
    pivots (O(m^2 n) for m endpoints), their sums going to one scratch
    buffer that the strips reuse. Pass t leaves p_t's own row and
    column unchanged, since e[p_t, p_t] >= 0 makes every candidate there at
    least the entry it would replace, so a pivot is the same whether read
    before its own pass or after it. ``e`` is exactly symmetric, so every
    C_t is R_t, and the n x n minimum runs over the upper triangle in strips
    of rows that fit in cache, each strip then mirrored.
    """
    for i, j in cs.dissimilar:
        e[i, j] = e[j, i] = np.min(e[i] + e[j])
    ends = sorted({v for pair in cs.similar | cs.dissimilar for v in pair})
    n = e.shape[0]
    height = max(1, _STRIP // n)
    rows = np.empty((len(ends), n))
    buf = np.empty((max(len(ends), height), n))
    for t, p in enumerate(ends):
        rows[t] = e[p]
        sums = np.add(rows[:t, p, None], rows[:t], out=buf[:t])
        np.minimum(rows[t], sums.min(axis=0, initial=np.inf), out=rows[t])
    for a in range(0, n, height):
        b = min(a + height, n)
        strip, cand = e[a:b, a:], buf[:b - a, :n - a]
        for r in rows:
            np.add(r[a:b, None], r[a:], out=cand)
            np.minimum(strip, cand, out=strip)
        e[b:, a:b] = e[a:b, b:].T
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
    return _complete_linkage(_close_through_endpoints(e, cs, ceiling), k)


def ssl(d: np.ndarray, cs: ConstraintSet, k: int) -> Partition:
    """Constrained single linkage over the edited matrix.

    Must-links become 0 and cannot-links a ceiling above the maximum. The
    shortest-path propagation of ``ccl`` is skipped: it leaves minimax
    distances, and so single-linkage merge heights, unchanged for any
    non-negative input, because a closed entry is a path length, at least
    that path's largest edge and at most the edited entry.
    """
    e, _ = _edit(d, cs)
    return _cut_tree(*_vat_traversal(e), k)


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
