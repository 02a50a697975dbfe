"""VAT reordering, the minimax path-distance transform, and the ConiVAT pipeline.

VAT reorders a dissimilarity matrix along a minimum spanning tree traversal
so that cluster structure shows up as dark diagonal blocks. The minimax
transform replaces each pairwise distance with the smallest possible
worst edge over all connecting paths, which sharpens those blocks (iVAT).
ConiVAT runs the same machinery on a matrix that has been reshaped by
constraint-learned Mahalanobis distances and zeroed similar pairs.

One Prim traversal of the distance matrix serves an assessment, and its
result is the traversal alone: order and cut magnitudes. The traversal
keeps one vector of distances to the admitted set and spends three vector
calls per step (``_prim``). The minimax distance between the objects a VAT
traversal admits at positions s < t is the largest cut magnitude between
them, max(cuts[s:t]) (the running-max lemma, see ``minimax_transform``).
So, as in Havens & Bezdek's efficient iVAT, the minimax matrix in the VAT
order of the distance matrix is the running-max matrix of the cuts, and
``rdi.render`` draws it from them; no n x n matrix outlives the traversal.
For the same reason every single-linkage cluster is a contiguous run of
the VAT order, so the order and the cuts give every partition
(``clustering.cut_mst``). Each MST edge is the largest cut of every range
that crosses it inside one run of positions, the cluster it splits
(``_cut_runs``). So the image is one rectangle per edge on each side of
the diagonal, each entry the last largest cut of its range
(``_running_max_matrix``). The plain VAT image of ``d`` is
``d[np.ix_(order, order)]``.

Inputs from outside are checked once, where they enter: every public
function that takes a matrix reads it through ``validate_dissimilarity``,
and one that pairs a constraint set with n objects calls the set's
``check_items(n)``. A matrix the package builds is valid by construction
(``metric.dissimilarity_under_metric``), so ``conivat_pipeline`` hands it
to the traversal without validating it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, sanitize
from .data import FeatureMatrix
from .metric import _TILE, LearnConfig, LearnReport, dissimilarity_under_metric, euclidean_dissimilarity, learn_metric

VARIANTS = ("ivat", "metric_ivat", "mtd_vat", "conivat")
_METRIC_VARIANTS = frozenset({"metric_ivat", "conivat"})
_IMPOSE_VARIANTS = frozenset({"mtd_vat", "conivat"})


def validate_dissimilarity(d: np.ndarray) -> np.ndarray:
    """Check square/symmetric/zero-diagonal/non-negative/finite; return an exactly symmetric float array.

    Symmetry allows |d[i, j] - d[j, i]| <= 1e-12. It is checked tile by
    tile, each tile on or above the diagonal against the transposed tile
    below it, so no n x n temporary is built. When every tile equals its
    mirror, ``d`` itself is returned. Otherwise the result is a new matrix
    whose lower triangle mirrors the upper triangle of ``d``: entries are
    moved, not computed, so values and signs of zero are kept, and ``d`` is
    never written. Every public function that takes a matrix reads it
    through this function, so its result on such a ``d`` is its result on
    that mirror.
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
    symmetric = True
    for a in range(0, n, _TILE):
        for b in range(a, n, _TILE):
            upper, lower = d[a:a + _TILE, b:b + _TILE], d[b:b + _TILE, a:a + _TILE].T
            # -0.0 == 0.0, so an equal pair has gap 0: the gap is only needed where they differ
            if np.array_equal(upper, lower):
                continue
            if np.max(np.abs(upper - lower)) > 1e-12:
                raise ValueError("dissimilarity matrix must be symmetric")
            symmetric = False
    if symmetric:
        return d
    out = d.copy()
    np.copyto(out, d.T, where=np.tri(n, k=-1, dtype=bool))
    return out


def _validated_copy(d: np.ndarray) -> np.ndarray:
    """``validate_dissimilarity(d)`` + 0.0, copied only if it may share memory with ``d``.

    The result is safe to overwrite. Adding +0.0 maps every -0.0 to +0.0
    and leaves all other entries as they are. An ``is`` test would not do:
    for an ndarray subclass validation returns a base-class view of its
    memory.
    """
    m = validate_dissimilarity(d)
    return m + 0.0 if np.may_share_memory(m, d) else np.add(m, 0.0, out=m)


@dataclass(frozen=True)
class VatResult:
    """The VAT minimum spanning tree traversal of a dissimilarity matrix.

    ``order[t]`` is the original index of the object in ordered position t.
    ``cut_magnitudes[t-1]`` is the weight of the MST edge that admitted the
    t-th object, so cutting the k-1 largest splits the order into k
    contiguous runs, the single-linkage clusters. For s < t, entry (s, t) of
    the minimax matrix in this order is max(cut_magnitudes[s:t]).
    """

    order: np.ndarray
    cut_magnitudes: np.ndarray

    @property
    def n(self) -> int:
        return self.order.shape[0]


def _prim(d: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Modified-Prim VAT traversal of a validated ``d`` from ``seed``.

    Each step admits the unvisited object closest to the visited set; ties
    go to the lowest candidate index. Returns (order, cuts) as documented
    on ``VatResult``.

    ``best[j]`` is the smallest d[i, j] over the admitted objects i. A step
    is three vector calls: add a penalty that is +inf on admitted objects
    and 0 elsewhere, take the argmin of the sum (its first minimum is the
    lowest candidate), and fold the new object's row into ``best`` with no
    mask. The cut is ``best[j]`` at admission.
    """
    n = d.shape[0]
    order = np.empty(n, dtype=int)
    cuts = np.empty(max(n - 1, 0), dtype=float)
    order[0] = seed
    best = d[seed].copy()
    penalty = np.zeros(n)
    penalty[seed] = np.inf
    masked = np.empty(n)
    for t in range(1, n):
        np.add(best, penalty, out=masked)
        j = int(masked.argmin())
        order[t] = j
        cuts[t - 1] = best[j]
        penalty[j] = np.inf
        # on equal values NumPy's minimum returns its second operand, so an
        # entry keeps the value it had, down to the sign of a zero
        np.minimum(d[j], best, out=best)
    return order, cuts


def _cut_runs(cuts: np.ndarray) -> tuple[list[int], list[int]]:
    """For each edge e, the run lo[e]..hi[e] of positions in which cuts[e] is the largest cut.

    Edge e joins positions e and e+1, and it is the largest cut of
    cuts[s:t] exactly when lo[e] <= s <= e < t <= hi[e]. Among equal cuts
    the last wins, as ``cut_mst`` breaks ties. The runs are the nodes of
    the single-linkage hierarchy (the Cartesian tree of the cuts). One
    monotone-stack pass: the stack holds the edges whose run is still open
    to the right, and an edge at least as large as the top closes that run
    and opens its own just past the survivor.
    """
    vals = cuts.tolist()
    lo, hi = [0] * len(vals), [len(vals)] * len(vals)
    stack = []
    for e, c in enumerate(vals):
        while stack and vals[stack[-1]] <= c:
            hi[stack.pop()] = e
        lo[e] = stack[-1] + 1 if stack else 0
        stack.append(e)
    return lo, hi


def _running_max_matrix(cuts: np.ndarray) -> np.ndarray:
    """Matrix whose (s, t) entry is max(cuts[min(s, t):max(s, t)]), zero diagonal.

    It has the dtype of ``cuts`` and is exactly symmetric: every entry is
    the last largest cut of its range, sign of zero included. So edge e
    fills, with cuts[e], the rectangle of rows lo..e by columns e+1..hi of
    its run from ``_cut_runs`` and the mirror of that rectangle. Each
    off-diagonal entry is written once.
    """
    n = cuts.size + 1
    out = np.empty((n, n), cuts.dtype)
    lo, hi = _cut_runs(cuts)
    for e, c in enumerate(cuts.tolist()):
        out[lo[e]:e + 1, e + 1:hi[e] + 1] = c
        out[e + 1:hi[e] + 1, lo[e]:e + 1] = c
    np.fill_diagonal(out, 0)
    return out


def _vat_traversal(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_prim`` over a validated or package-built ``d``, seeded at the row of its maximum.

    The seed is ``np.argmax(d) // n``, the first row that holds the maximum
    M, read from the upper triangle alone: the first of the row maxima
    taken over the columns from each row's ``_TILE``-row block on, which
    reductions read in place, without a copy. ``d`` is exactly symmetric,
    so if r is the first row holding M, at (r, c), then c >= r, since
    otherwise row c < r would hold M too. So (r, c) is read, and no earlier
    row holds M anywhere.
    """
    tops = [d[r:r + _TILE, r:].max(axis=1) for r in range(0, d.shape[0], _TILE)]
    return _prim(d, int(np.concatenate(tops).argmax()))


def vat_reorder(d: np.ndarray) -> VatResult:
    """The modified-Prim VAT traversal of ``d``.

    The seed is the row holding the global maximum entry (row-major first on
    ties). Each step admits the unvisited object closest to the visited set;
    ties go to the lowest candidate index.
    """
    order, cuts = _vat_traversal(validate_dissimilarity(d))
    return VatResult(order=order, cut_magnitudes=cuts)


def minimax_transform(d: np.ndarray) -> np.ndarray:
    """Minimum-over-paths maximum-edge distance for every pair, original order.

    Running-max lemma: if a VAT traversal of ``d`` admits objects with cut
    magnitudes ``cuts``, the minimax distance between the objects at ordered
    positions s < t is max(cuts[s:t]). Take any threshold M. Each component
    of the graph of edges <= M is admitted as one contiguous run, and a run
    starts exactly at a cut > M, so positions s..t share a component when
    no cut in between exceeds M. Conversely the prefix before the largest
    cut can only be left through an edge at least that large. So one
    traversal gives the whole matrix, with no per-pair path search. Output
    is exactly symmetric, ultrametric and entrywise dominated by the input.
    """
    order, cuts = _vat_traversal(validate_dissimilarity(d))
    pos = np.argsort(order)
    return _running_max_matrix(cuts)[np.ix_(pos, pos)]


def _zero_similar(d: np.ndarray, cs: ConstraintSet) -> np.ndarray:
    """Set every similar pair's distance in ``d`` to zero, in place, both mirror entries."""
    for i, j in cs.similar:
        d[i, j] = d[j, i] = 0.0
    return d


def impose_similar(d: np.ndarray, cs: ConstraintSet) -> np.ndarray:
    """Validated copy of ``d``, -0.0 read as +0.0, with every similar pair's distance set to zero."""
    out = _validated_copy(d)
    cs.check_items(out.shape[0])
    return _zero_similar(out, cs)


def conivat_pipeline(
    data: FeatureMatrix,
    cs: ConstraintSet | None = None,
    cfg: LearnConfig | None = None,
    variant: str = "conivat",
) -> tuple[VatResult, LearnReport | None]:
    """Run one assessment variant end to end; returns (VatResult, report?).

    Variants: ``ivat`` (Euclidean distances), ``metric_ivat``
    (learned metric first), ``mtd_vat`` (zero similar pairs, no learning),
    ``conivat`` (both). Raw constraints are checked against ``data.n`` and
    sanitized here, so the learner and the imposition step see the same
    closed, conflict-free sets.

    For the variant's distance matrix ``d`` the result equals
    ``vat_reorder(d)``, and the running maxima of its cuts are
    ``minimax_transform(d)`` taken in its order, which ``rdi.render`` draws.
    That order is a valid Prim order of the minimax matrix too: no minimax
    distance across a cut (visited, rest) is below the lightest edge of
    ``d`` crossing it, which Prim admits next. The distance matrix is edited
    in place and dropped after its one traversal, so it is the only n x n
    float matrix an assessment builds. It is built valid and the edit keeps
    it so, hence it is not validated.
    """
    variant = variant.lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if cs is None:
        cs = ConstraintSet.empty(data.n)
    cs.check_items(data.n)
    cs = sanitize(cs)
    report = None
    if variant in _METRIC_VARIANTS:
        a, report = learn_metric(data, cs, cfg)
        d = dissimilarity_under_metric(data, a)
    else:
        d = euclidean_dissimilarity(data)
    if variant in _IMPOSE_VARIANTS:
        _zero_similar(d, cs)
    order, cuts = _vat_traversal(d)
    return VatResult(order=order, cut_magnitudes=cuts), report
