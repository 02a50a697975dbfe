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
intermediates, and clusters with complete linkage. The closure runs
Floyd-Warshall over the endpoints on their rows alone, each row updated
only while it is read; the closed rows of the must-link endpoints then
close the whole matrix, a block of rows at a time. ``ssl`` clusters the
edited matrix with single linkage directly, since the propagation cannot
change single-linkage merge heights. Both validate their input once, in
the edit, which edits the one copy ``vat._validated_copy`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .data import _int_labels, _is_index
from .metric import _TILE
from .vat import VatResult, _validated_copy, _vat_traversal, _zero_similar, validate_dissimilarity


@dataclass(frozen=True)
class Partition:
    """Cluster labels in [0, k), one per object, every cluster nonempty."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = _int_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.shape[0] == 0:
            raise ValueError("labels must be a nonempty 1-D array")
        present = np.unique(labels)
        if present[0] < 0 or present[-1] >= self.k or present.shape[0] != self.k:
            raise ValueError(f"labels must cover exactly the ids 0..{self.k - 1}")

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def _check_k(k, n: int) -> None:
    """Raise ``ValueError`` unless ``k`` is an integer in [1, n]; a bool or an integral float is not."""
    if not (_is_index(k) and 1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")


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
    _check_k(k, n)
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
    _check_k(k, n)
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
    cs.check_items(out.shape[0])
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

    The detoured matrix is a metric except for its must-link zeros: a detour
    is a two-hop path, and a ceiling exceeds every entry of ``d``. So a path
    shorter than the entry between u and v crosses a must-link endpoint p,
    and is at least F_p[u] + F_p[v], with F_p the row of p closed by
    Floyd-Warshall over every endpoint; the closed matrix is min(e, min_p
    F_p[u] + F_p[v]). The rows must be fully closed, since a shortest path
    may stop at a cannot-link endpoint.

    Floyd-Warshall runs over the endpoints in increasing index, on their
    rows alone: the pass over endpoint q sets each row r to min(r, r[q] +
    row q), the additions a pass over the whole matrix makes there, and
    leaves row q as it is, since e[q, q] >= 0. A row is updated only while
    it is read: in its own pass, as the pivot, and to the end if it is some
    F_p. Even F_p is not read if a later endpoint q has e[p, q] == 0 in the
    detoured matrix. Entries only fall and stay >= 0, so that 0 stays. The
    pass over p sets row q to min(row q, 0 + row p) <= row p; the passes in
    between keep it so, since each adds the same pivot row to the smaller
    entry and IEEE addition is monotone; and the pass over q sets row p to
    min(row p, 0 + row q), which is row q, after which both rows take the
    same additions. So F_p is F_q: row p retires after its own pass and row
    q is kept in its place, or hands on again. Kept rows are stored after
    the others, so every pass updates a suffix. The edit leaves no -0.0,
    so this is bit for bit.

    The finish adds each kept row to itself one block of ``_TILE`` rows at
    a time, in the scratch the passes used; F[u] + F[v] is F[v] + F[u], so
    the result stays exactly symmetric.
    """
    for i, j in cs.dissimilar:
        e[i, j] = e[j, i] = np.min(e[i] + e[j])
    ends = sorted({v for pair in cs.similar | cs.dissimilar for v in pair})
    n, m = e.shape[0], len(ends)
    linked = {v for pair in cs.similar for v in pair}
    kept = [p in linked for p in ends]
    zero = e[np.ix_(ends, ends)] == 0
    for t in range(m):
        if kept[t] and zero[t, t + 1:].any():
            kept[t], kept[t + 1 + zero[t, t + 1:].argmax()] = False, True
    stored = sorted(range(m), key=kept.__getitem__)
    slot = np.argsort(stored)
    rows = e[[ends[t] for t in stored]]
    buf = np.empty((max(m, min(n, _TILE)), n))  # scratch for both phases
    first = 0  # rows[:first] have retired
    for t, q in enumerate(ends):
        live = rows[first:]
        np.minimum(live, np.add(live[:, q, None], rows[slot[t]], out=buf[first:m]), out=live)
        first += not kept[t]
    for a in range(0, n, _TILE):
        block = e[a:a + _TILE]
        sums = buf[:block.shape[0]]
        for f in rows[first:]:
            np.minimum(block, np.add(f[a:a + _TILE, None], f, out=sums), out=block)
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
    metric input and may miss shorter paths otherwise. It closes the rows
    of the endpoints through every endpoint, cannot-link ones included,
    since a shortest path may stop at them; the closed rows of the
    must-link endpoints then close every other entry, because a path
    shorter than an edited entry must cross a must-link zero. A must-link
    endpoint at distance 0 from a later endpoint hands its row on to it:
    their closed rows are equal.
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
