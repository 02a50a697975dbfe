"""Partition extraction from VAT MSTs plus baseline hierarchical algorithms.

Cutting the k-1 largest MST edges of a VAT traversal yields exactly the
single-linkage clusters of the underlying matrix (Gower & Ross, 1969), each
a contiguous run of the VAT order (Havens et al., 2009), so every
single-linkage result here is such a cut: ``cut_mst`` for the pipelines,
and ``hac(..., "single")`` over a traversal of its own input.
``hac`` with complete linkage is the classical agglomerative loop; it
caches each row's first minimum and lists, per column, the rows whose
minimum sits there, so a merge, done in place, recomputes only the rows
listed under its two columns, and the labels are resolved once at the end.
``ccl``/``ssl`` are the constraint-editing baselines of Klein et
al. (ICML 2002): zero must-link entries and set cannot-link entries past
the matrix maximum. ``ccl`` then propagates the edits by additive shortest
paths, which for a metric input need only the constraint endpoints as
intermediates, and clusters with complete linkage. The closure first closes
the rows of the must-link endpoints through every endpoint; one such row
per must-link component then closes the whole matrix. ``ssl``
clusters the edited matrix with single linkage directly, since the
propagation cannot change single-linkage merge heights. Both validate their
input once, in the edit, and hand the edited copy straight to the
traversal or the merge loop. A matrix is copied at most once: the copy
validation makes of a skewed input is edited in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .vat import _TILE, VatResult, _vat_traversal, _zero_similar, validate_dissimilarity


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
    return m.copy() if np.may_share_memory(m, d) else m


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
    # first minimum of the whole matrix: the lexicographic tie rule. Then
    # j = nbr[i] > i, since m[j, i] == low[i] makes low[j] that minimum too.
    np.fill_diagonal(m, np.inf)
    nbr = m.argmin(axis=1).tolist()
    low = m[np.arange(n), nbr]
    into = np.arange(n)  # the slot each retired slot was folded into
    # pointing[c] lists the rows whose cached minimum sits in column c, and
    # rows retired since; a live row moves to another list only when its
    # list is read and emptied by a merge
    pointing = [[] for _ in range(n)]
    for r, c in enumerate(nbr):
        pointing[c].append(r)
    for _ in range(n - k):
        i = int(low.argmin())
        j = nbr[i]
        # row j is never read again (nbr[j] = -1 keeps it out of every
        # list's live entries), and m[i, i] stays max(inf, .) = inf
        m[:, i] = np.maximum(m[i], m[j], out=m[i])
        m[:, j] = np.inf
        into[j] = i
        low[j], nbr[j] = np.inf, -1
        # A row's cache survives unless its minimum sat in column i or j:
        # m is symmetric, so the new m[r, i] is max(m[r, i], m[r, j]) >= low[r],
        # equal only if the old m[r, i] was, after the first minimum nbr[r].
        # Row i is among them, since nbr[i] was j.
        stale = [r for r in pointing[i] if nbr[r] == i] + [r for r in pointing[j] if nbr[r] == j]
        pointing[i], pointing[j] = [], []
        for r in stale:
            c = int(m[r].argmin())
            nbr[r], low[r] = c, m[r, c]
            pointing[c].append(r)
    while (into[into] != into).any():  # pointer jumping to each cluster's lowest member
        into = into[into]
    _, labels = np.unique(into, return_inverse=True)
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
    such pair first takes its best two-hop detour; paths through the
    endpoints alone then finish the closure. The cannot-link barrier is
    restored afterwards, since shortest paths may tunnel around it.

    The rows of the must-link endpoints are closed first, by Floyd-Warshall
    over every endpoint. Pass t over endpoint p_t sets e = min(e, C_t[u] +
    R_t[v]) with R_t = e[p_t] and C_t = e[:, p_t] as they stand before the
    pass, so the passes end with min(e, min_t C_t[u] + R_t[v]) over the
    starting e: ``min`` is exact and the sums are the same additions, so
    the result is bit-identical to running the passes one after another.
    The pivots come first, each from its endpoint's starting row and the
    earlier pivots (O(m^2 n) for m endpoints). Pass t leaves p_t's own row
    and column unchanged, since e[p_t, p_t] >= 0 makes every candidate
    there at least the entry it would replace, so a pivot is the same
    whether read before its own pass or after it. ``e`` is exactly
    symmetric, so every C_t is R_t. Pivot s is dropped when a later pivot t
    has R_s[p_t] == 0, as for two members of one must-link component or two
    duplicate points. Its pass adds nothing: the pivot phase gives R_t <=
    R_s[p_t] + R_s = R_s elementwise, and IEEE addition is monotone, so
    every candidate R_s[u] + R_s[v] is >= R_t[u] + R_t[v]. The test reads
    the pivot rows, not the constraint set, so it holds for any edited
    matrix. Must-link endpoint p then gets its closed row F_p = min(e[p],
    min_t R_t[p] + R_t), the row those passes end with.

    The rest of the matrix needs only those rows. The edited matrix is a
    metric except for its must-link zeros: a detour is a two-hop path, and
    a ceiling exceeds every entry of ``d``. So a path shorter than the
    edited entry between u and v crosses a must-link endpoint p, and is at
    least F_p[u] + F_p[v]; the closed matrix is min(e, min_p F_p[u] +
    F_p[v]). The rows must be fully closed: a pivot row holds only the
    paths through earlier endpoints, and closing through pivots over the
    must-link endpoints alone misses shorter paths that need a cannot-link
    endpoint as a stop. Closed rows at distance 0 from each other, as in
    one must-link component, are equal in exact arithmetic, so row s is
    dropped when a later row t has F_s[p_t] == 0; one row per component is
    left. (The tests pin the bits against an oracle that keeps every row.)
    The minimum over those rows runs one ``_TILE``-square tile at a time,
    on and above the diagonal, in one tile of scratch; each tile above the
    diagonal is then copied to its mirror, which no later tile reads.
    """
    for i, j in cs.dissimilar:
        e[i, j] = e[j, i] = np.min(e[i] + e[j])
    ends = sorted({v for pair in cs.similar | cs.dissimilar for v in pair})
    linked = sorted({v for pair in cs.similar for v in pair})
    n = e.shape[0]
    rows = np.empty((len(ends), n))
    buf = np.empty((len(ends), n))
    for t, p in enumerate(ends):
        rows[t] = e[p]
        sums = np.add(rows[:t, p, None], rows[:t], out=buf[:t])
        np.minimum(rows[t], sums.min(axis=0, initial=np.inf), out=rows[t])
    rows = rows[~np.triu(rows[:, ends] == 0, k=1).any(axis=1)]
    closed = np.empty((len(linked), n))
    for t, p in enumerate(linked):
        sums = np.add(rows[:, p, None], rows, out=buf[:len(rows)])
        np.minimum(e[p], sums.min(axis=0, initial=np.inf), out=closed[t])
    closed = closed[~np.triu(closed[:, linked] == 0, k=1).any(axis=1)]
    scratch = np.empty((min(n, _TILE), min(n, _TILE)))
    for a in range(0, n, _TILE):
        for b in range(a, n, _TILE):
            tile = e[a:a + _TILE, b:b + _TILE]
            sums = scratch[:tile.shape[0], :tile.shape[1]]
            for f in closed:
                np.minimum(tile, np.add(f[a:a + _TILE, None], f[b:b + _TILE], out=sums), out=tile)
            if b > a:
                e[b:b + _TILE, a:a + _TILE] = tile.T
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
    metric input and may miss shorter paths otherwise. It closes the row of
    each must-link endpoint through every endpoint, cannot-link ones
    included, since a shortest path may stop at them; one closed row per
    must-link component then closes every other entry, because a path
    shorter than an edited entry must cross a must-link zero.
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
    gaps = desc[:-1] - desc[1:]
    # largest gap first; a stable sort keeps equal gaps, -0.0 and +0.0
    # included, in increasing k
    order = np.argsort(-gaps, kind="stable")
    return list(zip((order + 2).tolist(), gaps[order].tolist()))
