"""VAT reordering, the minimax path-distance transform, and the ConiVAT pipeline.

VAT reorders a dissimilarity matrix along a minimum spanning tree traversal
so that cluster structure shows up as dark diagonal blocks. The minimax
transform replaces each pairwise distance with the smallest possible
worst edge over all connecting paths, which sharpens those blocks (iVAT).
ConiVAT runs the same machinery on a matrix that has been reshaped by
constraint-learned Mahalanobis distances and zeroed similar pairs.

One Prim traversal of the distance matrix serves an assessment. The minimax
distance between the objects a VAT traversal admits at positions s < t is
the largest cut magnitude between them, max(cuts[s:t]) (the running-max
lemma, see ``minimax_transform``). So, as in Havens & Bezdek's efficient
iVAT, the pipeline shows the minimax matrix in the VAT order of the
distance matrix: its image is the running-max matrix of that traversal's
cuts, and the minimax matrix is never stored in the original order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, sanitize
from .data import FeatureMatrix
from .metric import LearnConfig, LearnReport, dissimilarity_under_metric, euclidean_dissimilarity, learn_metric

VARIANTS = ("ivat", "metric_ivat", "mtd_vat", "conivat")
_METRIC_VARIANTS = frozenset({"metric_ivat", "conivat"})
_IMPOSE_VARIANTS = frozenset({"mtd_vat", "conivat"})
_TILE = 128  # side of the square tiles the symmetry check compares


def validate_dissimilarity(d: np.ndarray) -> np.ndarray:
    """Check square/symmetric/zero-diagonal/non-negative/finite; return as float array.

    Symmetry allows |d[i, j] - d[j, i]| <= 1e-12. It is checked tile by
    tile, each tile on or above the diagonal against the transposed tile
    below it, so no n x n temporary is built.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"dissimilarity matrix must be square, got shape {d.shape}")
    # min and max are NaN if any entry is, and infinite if any entry is
    lo, hi = d.min(), d.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("dissimilarity matrix contains non-finite entries")
    if lo < 0:
        raise ValueError("dissimilarity matrix contains negative entries")
    if np.any(np.abs(np.diag(d)) > 1e-12):
        raise ValueError("dissimilarity matrix diagonal must be zero")
    n = d.shape[0]
    for a in range(0, n, _TILE):
        for b in range(a, n, _TILE):
            if np.max(np.abs(d[a:a + _TILE, b:b + _TILE] - d[b:b + _TILE, a:a + _TILE].T)) > 1e-12:
                raise ValueError("dissimilarity matrix must be symmetric")
    return d


@dataclass(frozen=True)
class VatResult:
    """Reordering of a dissimilarity matrix along the VAT MST traversal.

    ``order[t]`` is the original index of the object in ordered position t.
    ``mst_parent[t]`` (t >= 1) is the ordered position the t-th object
    attached to; entry 0 is -1 for the seed. ``cut_magnitudes[t-1]`` is the
    weight of the MST edge that admitted the t-th object, so cutting the
    k-1 largest splits the tree into k single-linkage clusters.
    """

    order: np.ndarray
    reordered: np.ndarray
    mst_parent: np.ndarray
    cut_magnitudes: np.ndarray

    @property
    def n(self) -> int:
        return self.order.shape[0]


def _prim(d: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modified-Prim VAT traversal of a validated ``d`` from ``seed``.

    Each step admits the unvisited object closest to the visited set; ties
    go to the lowest candidate index, then the lowest anchor index. Returns
    (order, parent, cuts) as documented on ``VatResult``.
    """
    n = d.shape[0]
    order = np.empty(n, dtype=int)
    parent = np.full(n, -1, dtype=int)
    cuts = np.empty(max(n - 1, 0), dtype=float)
    pos = np.empty(n, dtype=int)
    order[0] = seed
    pos[seed] = 0

    # best_dist[j]: min distance from unvisited j to the visited set;
    # best_anchor[j]: lowest-index visited object attaining it.
    unvisited = np.ones(n, dtype=bool)
    unvisited[seed] = False
    best_dist = d[seed].copy()
    best_anchor = np.full(n, seed, dtype=int)
    best_dist[seed] = np.inf
    for t in range(1, n):
        j = int(np.argmin(best_dist))
        order[t] = j
        parent[t] = pos[best_anchor[j]]
        cuts[t - 1] = best_dist[j]
        pos[j] = t
        unvisited[j] = False
        r = d[j]
        closer = unvisited & (r < best_dist)
        best_dist[closer] = r[closer]
        best_anchor[closer] = j
        tied = unvisited & (r == best_dist) & (best_anchor > j)
        best_anchor[tied] = j
        best_dist[j] = np.inf
    return order, parent, cuts


def _minimax_row(cuts: np.ndarray, t: int, out: np.ndarray) -> np.ndarray:
    """Row t of the minimax matrix in the VAT order that produced ``cuts``.

    Entry s is max(cuts[min(s, t):max(s, t)]): two running maxima that
    start next to the diagonal and run outward.
    """
    out[t] = 0.0
    np.maximum.accumulate(cuts[:t][::-1], out=out[:t][::-1])
    np.maximum.accumulate(cuts[t:], out=out[t + 1:])
    return out


def _minimax_reordered(cuts: np.ndarray) -> np.ndarray:
    """The whole minimax matrix in the VAT order that produced ``cuts``.

    Row t below the diagonal is row t-1 raised to cuts[t-1], and above it
    row t+1 raised to cuts[t], so each row is one vector maximum.
    """
    n = cuts.size + 1
    out = np.empty((n, n))
    for t in range(1, n):
        np.maximum(out[t - 1, :t - 1], cuts[t - 1], out=out[t, :t - 1])
        out[t, t - 1] = cuts[t - 1]
    for t in range(n - 2, -1, -1):
        np.maximum(out[t + 1, t + 2:], cuts[t], out=out[t, t + 2:])
        out[t, t + 1] = cuts[t]
    np.fill_diagonal(out, 0.0)
    return out


def _vat_traversal(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_prim`` over a validated ``d``, seeded at the row of its maximum."""
    return _prim(d, int(np.argmax(d)) // d.shape[0])


def vat_reorder(d: np.ndarray) -> VatResult:
    """Reorder ``d`` by the modified-Prim VAT traversal.

    The seed is the row holding the global maximum entry (row-major first on
    ties). Each step admits the unvisited object closest to the visited set;
    ties go to the lowest candidate index, then the lowest anchor index.
    """
    d = validate_dissimilarity(d)
    order, parent, cuts = _vat_traversal(d)
    reordered = d[np.ix_(order, order)]
    return VatResult(order=order, reordered=reordered, mst_parent=parent, cut_magnitudes=cuts)


def minimax_transform(d: np.ndarray) -> np.ndarray:
    """Minimum-over-paths maximum-edge distance for every pair, original order.

    Running-max lemma: if a VAT traversal of ``d`` admits objects with cut
    magnitudes ``cuts``, the minimax distance between the objects at ordered
    positions s < t is max(cuts[s:t]). Take any threshold M. Each component
    of the graph of edges <= M is admitted as one contiguous run, and a run
    starts exactly at a cut > M, so positions s..t share a component when
    no cut in between exceeds M. Conversely the prefix before the largest
    cut can only be left through an edge at least that large. So one
    traversal gives every row in O(N), with no per-pair path search. Output
    is ultrametric and entrywise dominated by the input.
    """
    d = validate_dissimilarity(d)
    order, _, cuts = _vat_traversal(d)
    n = order.size
    pos = np.argsort(order)
    out = np.empty((n, n))
    buf = np.empty(n)
    for t in range(n):
        np.take(_minimax_row(cuts, t, buf), pos, out=out[order[t]])
    return out


def _zero_similar(d: np.ndarray, cs: ConstraintSet) -> np.ndarray:
    """Set every similar pair's distance in ``d`` to zero, in place."""
    n = d.shape[0]
    for i, j in cs.similar:
        if i >= n or j >= n:
            raise IndexError(f"constraint pair ({i}, {j}) out of range for {n} objects")
        d[i, j] = d[j, i] = 0.0
    return d


def impose_similar(d: np.ndarray, cs: ConstraintSet) -> np.ndarray:
    """Copy of ``d`` with every similar pair's distance set to zero."""
    return _zero_similar(np.array(d, dtype=float), cs)


def conivat_pipeline(
    data: FeatureMatrix,
    cs: ConstraintSet | None = None,
    cfg: LearnConfig | None = None,
    variant: str = "conivat",
) -> tuple[VatResult, LearnReport | None]:
    """Run one assessment variant end to end; returns (VatResult, report?).

    Variants: ``ivat`` (Euclidean distances), ``metric_ivat``
    (learned metric first), ``mtd_vat`` (zero similar pairs, no learning),
    ``conivat`` (both). Raw constraints are sanitized here so the learner
    and the imposition step see the same closed, conflict-free sets.

    For the variant's distance matrix ``d``, ``order``, ``mst_parent`` and
    ``cut_magnitudes`` are those of ``vat_reorder(d)``, and ``reordered`` is
    ``minimax_transform(d)`` taken in that order. That order is a valid Prim
    order of the minimax matrix too: no minimax distance across a cut
    (visited, rest) is below the lightest edge of ``d`` crossing it, which
    Prim admits next. The distance matrix is edited in place and dropped
    after its one traversal, so at most one n x n float matrix is alive at a
    time.
    """
    variant = variant.lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    cs = sanitize(cs) if cs is not None else ConstraintSet.empty(data.n)
    report = None
    if variant in _METRIC_VARIANTS:
        a, report = learn_metric(data, cs, cfg)
        d = dissimilarity_under_metric(data, a)
    else:
        d = euclidean_dissimilarity(data)
    if variant in _IMPOSE_VARIANTS:
        _zero_similar(d, cs)
    order, parent, cuts = _vat_traversal(validate_dissimilarity(d))
    del d
    vat = VatResult(order=order, reordered=_minimax_reordered(cuts), mst_parent=parent, cut_magnitudes=cuts)
    return vat, report
