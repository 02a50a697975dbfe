"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive -- O(N^3) dynamic programming,
exhaustive permutation search, textbook formulas -- so that when a test
disagrees, the finger points at the efficient implementation.
"""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

import numpy as np


def random_dissimilarity(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric matrix with zero diagonal and positive entries."""
    m = rng.uniform(0.05, scale, (n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return m


def kruskal_mst_weights(d: np.ndarray) -> np.ndarray:
    """Sorted MST edge weights by Kruskal's algorithm with union-find.

    The weight multiset is the same for every minimum spanning tree, so the
    sorted weights are a well-defined oracle even under ties.
    """
    n = d.shape[0]
    edges = sorted((float(d[i, j]), i, j) for i in range(n) for j in range(i + 1, n))
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    weights = []
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            weights.append(w)
            if len(weights) == n - 1:
                break
    return np.array(weights)


def floyd_warshall_minimax(d: np.ndarray) -> np.ndarray:
    """O(N^3) minimax path distance: d'ik = min(d'ik, max(d'ij, d'jk))."""
    out = np.array(d, dtype=float)
    n = out.shape[0]
    for j in range(n):
        np.minimum(out, np.maximum(out[:, j, None], out[None, j, :]), out=out)
    return out


def _metric_factor(a: np.ndarray) -> np.ndarray:
    """R = V sqrt(max(lam, 0)) from ``np.linalg.eigh(a)``, so that R R^T = A for a PSD A."""
    vals, vecs = np.linalg.eigh(a)
    return vecs * np.sqrt(np.maximum(vals, 0.0))


def difference_distances(points: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Squared distances ||(x_i - x_j) R||^2 under A = R R^T, each pair from its own difference.

    No Gram matrix and no centring: a pair's difference is rounded once,
    mapped through R and squared. R is the factor the package maps
    through, so a comparison measures the arithmetic after it.
    """
    root = _metric_factor(a)
    return np.array([np.sum(((points - x) @ root) ** 2, axis=1) for x in points])


def difference_distance_bound(points: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Bound on |d_ij^2 - q_ij|, d from ``dissimilarity_under_metric``, q from ``difference_distances``.

    With u = 2^-53, g = p u (gamma_p to first order, the error of a p-term
    dot product relative to the sum of its absolute terms), c_i the norm of
    the centred point i and r^2 = ||R||_F^2, let S = (c_i + c_j)^2 r^2.
    Then to first order in u:

    * centring rounds each coordinate once, and the rounded mean shifts
      every point alike, so the mapped difference is off by at most
      (u + g)(c_i + c_j) r, which moves its square by 2(u + g) S;
    * each entry of the product z z^T is off by g ||z_i|| ||z_j||, so
      h_i + h_j - 2 s_ij is off by g (||z_i|| + ||z_j||)^2 <= g S;
    * t = h_i + h_j and -2s + t round once each, 2u S;
    * the square root, and squaring d here, 3u S;
    * the oracle's difference, mapping and sum of squares, (2u + 3g) S.

    The sum is (6g + 9u) S; one more u S covers the second-order terms.
    """
    p = points.shape[1]
    c = np.linalg.norm(points - points.mean(axis=0), axis=1)
    r2 = np.sum(_metric_factor(a) ** 2)
    return (6 * p + 10) * 2.0**-53 * (c[:, None] + c[None, :]) ** 2 * r2


def integer_dissimilarity(rng: np.random.Generator, n: int, levels: int = 3) -> np.ndarray:
    """Symmetric zero-diagonal matrix of small integers: dense in ties and zeros."""
    m = np.triu(rng.integers(0, levels, (n, n)).astype(float), 1)
    return m + m.T


def running_max_image(cuts) -> np.ndarray:
    """Matrix whose (s, t) entry is the largest of cuts[s:t] (or cuts[t:s])."""
    n = len(cuts) + 1
    out = np.zeros((n, n))
    for s in range(n):
        for t in range(s + 1, n):
            out[s, t] = out[t, s] = max(cuts[s:t])
    return out


def running_max_rows(cuts: np.ndarray) -> np.ndarray:
    """Running-max matrix of ``cuts`` in their dtype, one vector maximum per row.

    Row t below the diagonal is row t-1 raised to cuts[t-1], and row t
    above it is row t+1 raised to cuts[t]. NumPy's maximum returns its
    second operand on equal values, so an entry below the diagonal holds the
    last largest cut of its range and an entry above it the first, which
    fixes the sign of every zero.
    """
    n = cuts.size + 1
    out = np.empty((n, n), dtype=cuts.dtype)
    for t in range(1, n):
        np.maximum(out[t - 1, :t - 1], cuts[t - 1], out=out[t, :t - 1])
        out[t, t - 1] = cuts[t - 1]
    for t in range(n - 2, -1, -1):
        np.maximum(out[t + 1, t + 2:], cuts[t], out=out[t, t + 2:])
        out[t, t + 1] = cuts[t]
    np.fill_diagonal(out, 0)
    return out


def cut_runs_scan(cuts) -> tuple[list[int], list[int]]:
    """Run lo[e]..hi[e] of positions in which cuts[e] is the largest cut, by scanning out from each edge.

    Edge e joins positions e and e+1. Of equal cuts the last wins: going
    left, a cut equal to cuts[e] is passed; going right, it stops the run.
    """
    lo, hi = [], []
    for e, c in enumerate(cuts):
        s = e
        while s > 0 and cuts[s - 1] <= c:
            s -= 1
        t = e + 1
        while t < len(cuts) and cuts[t] < c:
            t += 1
        lo.append(s)
        hi.append(t)
    return lo, hi


def naive_vat_prim(d: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """VAT Prim traversal with a masked update and an anchor per candidate.

    Each step admits the unvisited object closest to the visited set, the
    lowest index on ties; every unvisited object tracks its distance to the
    visited set and the lowest-index visited object attaining it. Returns
    (order, parent positions, cuts) like ``conivat.vat._prim``.
    """
    n = d.shape[0]
    order = np.empty(n, dtype=int)
    parent = np.full(n, -1, dtype=int)
    cuts = np.empty(max(n - 1, 0), dtype=float)
    pos = np.empty(n, dtype=int)
    order[0] = seed
    pos[seed] = 0
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


def parent_walk_labels(order, parent, cuts, k: int) -> np.ndarray:
    """Labels from cutting the k-1 largest edges of a traversal's MST, by walking parents.

    ``order``, ``parent`` and ``cuts`` are as ``naive_vat_prim`` returns
    them. Ties between equal-weight edges cut the later-admitted one. Each
    cut position opens the next cluster id; every other position takes the
    id of its parent. Labels come back in original index order.
    """
    n = len(order)
    cut = set(np.lexsort((np.arange(n - 1), cuts))[n - k:].tolist())
    ordered = np.zeros(n, dtype=int)
    next_id = 0
    for t in range(1, n):
        if t - 1 in cut:
            next_id += 1
            ordered[t] = next_id
        else:
            ordered[t] = ordered[parent[t]]
    labels = np.empty(n, dtype=int)
    labels[order] = ordered
    return labels


def component_closure_fw(e: np.ndarray, similar, dissimilar, ceiling: float) -> np.ndarray:
    """Shortest-path closure of an edited matrix through its must-link endpoints' closed rows.

    Each cannot-link pair first takes its best two-hop detour, in sorted
    pair order. One full Floyd-Warshall pass per constraint endpoint, in
    increasing index order, then closes every endpoint's row. The detoured
    matrix takes one more full pass per must-link endpoint p, in increasing
    index order, whose candidates are F[u] + F[v] with F the closed row of
    p, and the cannot-link entries go back to the ceiling. Works on copies.
    """
    e = np.array(e, dtype=float)
    for i, j in sorted(dissimilar):
        e[i, j] = e[j, i] = np.min(e[i] + e[j])
    full = e.copy()
    for mid in sorted({v for pair in set(similar) | set(dissimilar) for v in pair}):
        np.minimum(full, full[:, mid, None] + full[None, mid, :], out=full)
    for p in sorted({v for pair in similar for v in pair}):
        np.minimum(e, full[p][:, None] + full[p][None, :], out=e)
    for i, j in dissimilar:
        e[i, j] = e[j, i] = ceiling
    return e


def naive_hac(d: np.ndarray, k: int, linkage: str) -> np.ndarray:
    """Agglomerative labels by a full-matrix argmin per merge, O(N^3).

    The row-major first minimum merges, the larger slot folding into the
    smaller: the tie rule of ``conivat.clustering.hac`` with complete
    linkage. Labels are the dense ranks of each cluster's lowest member.
    """
    combine = np.minimum if linkage == "single" else np.maximum
    m = np.array(d, dtype=float)
    n = m.shape[0]
    np.fill_diagonal(m, np.inf)
    labels = np.arange(n)
    for _ in range(n - k):
        flat = int(np.argmin(m))
        i, j = flat // n, flat % n
        if i > j:
            i, j = j, i
        m[i] = m[:, i] = combine(m[i], m[j])
        m[j] = m[:, j] = np.inf
        m[i, i] = np.inf
        labels[labels == j] = i
    return np.unique(labels, return_inverse=True)[1]


def is_single_linkage_partition(d: np.ndarray, labels, k: int) -> bool:
    """Whether ``labels`` is a single-linkage k-partition of ``d`` under some tie rule.

    Let t be the smallest of the k-1 largest Kruskal MST weights (infinite
    for k = 1). Every single-linkage dendrogram cut at k clusters splits all
    MST edges above t and some at t, so a partition is one iff it has k
    clusters, no edge below t joins two clusters, and each cluster is
    connected by its own edges of weight at most t.
    """
    d = np.asarray(d, dtype=float)
    labels = np.asarray(labels)
    n = d.shape[0]
    ids = np.unique(labels)
    if labels.shape != (n,) or ids.size != k:
        return False
    t = kruskal_mst_weights(d)[n - k] if k > 1 else np.inf
    if np.any((d < t) & (labels[:, None] != labels[None, :])):
        return False
    for lab in ids:
        members = np.flatnonzero(labels == lab)
        near = d[np.ix_(members, members)] <= t
        reached = np.zeros(members.size, dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = near[frontier].any(axis=0) & ~reached
            reached |= frontier
        if not reached.all():
            return False
    return True


def full_closure_edit(d: np.ndarray, similar, dissimilar) -> np.ndarray:
    """Constraint edit closed by Floyd-Warshall over every intermediate.

    Must-link entries become 0 and cannot-link entries the ceiling max + 1
    (or the next float above the max where adding 1 is lost); all-pairs
    additive shortest paths follow, then the cannot-link entries are reset
    to the ceiling.
    """
    out = np.array(d, dtype=float)
    top = float(out.max())
    ceiling = max(top + 1.0, float(np.nextafter(top, np.inf)))
    for i, j in similar:
        out[i, j] = out[j, i] = 0.0
    for i, j in dissimilar:
        out[i, j] = out[j, i] = ceiling
    for mid in range(out.shape[0]):
        np.minimum(out, out[:, mid, None] + out[None, mid, :], out=out)
    for i, j in dissimilar:
        out[i, j] = out[j, i] = ceiling
    return out


def naive_load_csv(path, label_column=None):
    """``conivat.load_csv`` parsed one row and one cell at a time.

    Same return value, errors and messages: blank rows are skipped, a row
    whose feature cell is empty, unparseable or non-finite is dropped, and
    the header rule, label lookup and arity check run in the same order.
    """
    import csv
    import math

    from conivat.data import FeatureMatrix, _parse_labels

    def to_float(s):
        if not s:
            return None
        try:
            v = float(s)
        except ValueError:
            return None
        return v if math.isfinite(v) else None

    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: no rows")
    header = None
    first = [c.strip() for c in rows[0]]
    if all(to_float(c) is None for c in first):
        header = first
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header only, no data rows")
    arity = len(rows[0])
    label_idx = None
    if label_column is not None:
        if isinstance(label_column, int) and not isinstance(label_column, bool):
            label_idx = label_column
        else:
            if header is None or label_column not in header:
                raise ValueError(f"{path}: label column {label_column!r} not found")
            label_idx = header.index(label_column)
        if not 0 <= label_idx < arity:
            raise ValueError(f"{path}: label column index {label_idx} out of range for arity {arity}")
    feat_idx = [j for j in range(arity) if j != label_idx]
    points, raw_labels, dropped = [], [], 0
    for r in rows:
        cells = [c.strip() for c in r]
        if len(cells) != arity:
            raise ValueError(f"{path}: inconsistent row arity (expected {arity}, got {len(cells)})")
        feats = [to_float(cells[j]) for j in feat_idx]
        if None in feats:
            dropped += 1
            continue
        points.append(feats)
        if label_idx is not None:
            raw_labels.append(cells[label_idx])
    if not points:
        raise ValueError(f"{path}: zero usable rows ({dropped} dropped)")
    labels = _parse_labels(raw_labels, path) if label_idx is not None else None
    names = [header[j] for j in feat_idx] if header is not None else None
    return FeatureMatrix(np.array(points), labels, names), dropped


def brute_force_pa(pred, truth) -> float:
    """Maximum match percentage over all one-to-one label-id assignments."""
    p = np.asarray(pred, dtype=int)
    t = np.asarray(truth, dtype=int)
    _, p = np.unique(p, return_inverse=True)
    _, t = np.unique(t, return_inverse=True)
    cont = np.zeros((int(p.max()) + 1, int(t.max()) + 1), dtype=int)
    np.add.at(cont, (p, t), 1)
    return 100.0 * brute_force_assignment(cont) / t.shape[0]


def brute_force_assignment(weights) -> int:
    """Largest total of a one-to-one row-column matching, over every permutation."""
    w = np.asarray(weights, dtype=int)
    if w.shape[0] > w.shape[1]:
        w = w.T
    r, c = w.shape
    return int(max(sum(w[i, perm[i]] for i in range(r)) for perm in permutations(range(c), r)))


def reachability_closure(similar, dissimilar, n):
    """Constraint closure by boolean Floyd-Warshall reachability.

    Returns ``(similar, dissimilar)`` frozensets of normalized pairs: the
    similar side is every pair connected through similar edges, the
    dissimilar side is every pair with one endpoint reaching each end of
    some dissimilar edge.
    """
    reach = np.eye(n, dtype=bool)
    for i, j in similar:
        reach[i, j] = reach[j, i] = True
    for m in range(n):
        reach |= reach[:, m, None] & reach[None, m, :]
    sim = frozenset((i, j) for i in range(n) for j in range(i + 1, n) if reach[i, j])
    dis = set()
    for i, j in dissimilar:
        for a in range(n):
            for b in range(n):
                if a != b and ((reach[a, i] and reach[b, j]) or (reach[a, j] and reach[b, i])):
                    dis.add((min(a, b), max(a, b)))
    return sim, frozenset(dis)


def similar_components(similar, n) -> np.ndarray:
    """Component id per index under the similar-edge graph (BFS labeling)."""
    adj = [[] for _ in range(n)]
    for i, j in similar:
        adj[i].append(j)
        adj[j].append(i)
    comp = np.full(n, -1, dtype=int)
    next_id = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = next_id
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if comp[u] < 0:
                    comp[u] = next_id
                    stack.append(u)
        next_id += 1
    return comp


def charpoly_coeffs(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial (monic, descending) by Faddeev-LeVerrier."""
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a, dtype=float)
    eye = np.eye(n)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def psd_clamp_charpoly(a: np.ndarray) -> np.ndarray:
    """PSD projection rebuilt from characteristic-polynomial roots.

    Each eigenvalue's spectral projector comes from the product formula
    prod_{j != i} (A - lam_j I) / (lam_i - lam_j), which needs distinct
    eigenvalues -- fine for generic random input.
    """
    lams = np.sort(np.real(np.roots(charpoly_coeffs(a))))
    n = a.shape[0]
    eye = np.eye(n)
    out = np.zeros_like(a, dtype=float)
    for i, lam in enumerate(lams):
        if lam <= 0.0:
            continue
        proj = eye.copy()
        for j, other in enumerate(lams):
            if j != i:
                proj = proj @ (a - other * eye) / (lam - other)
        out += lam * proj
    return out


def _pair_differences(points: np.ndarray, pairs) -> np.ndarray:
    pairs = sorted(pairs)
    if not pairs:
        return np.zeros((0, points.shape[1]))
    return np.array([points[i] - points[j] for i, j in pairs])


def _psd_clamp_eigh(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    out = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return (out + out.T) / 2.0


def project_psd_halfspace(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest point of {X PSD, <X, M> <= 1} by the KKT form.

    The projection is P_PSD(A - lam M) at the smallest lam >= 0 that makes
    it satisfy <X, M> <= 1; <P_PSD(A - lam M), M> is non-increasing in
    lam, so lam is bracketed by doubling and bisected until the bracket
    cannot shrink in floating point. The returned point is taken at the
    bracket's feasible end.
    """
    out = _psd_clamp_eigh(a)
    if float(np.sum(out * m)) <= 1.0:
        return out
    lo, hi = 0.0, 1.0
    while float(np.sum(_psd_clamp_eigh(a - hi * m) * m)) > 1.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if float(np.sum(_psd_clamp_eigh(a - mid * m) * m)) > 1.0:
            lo = mid
        else:
            hi = mid
    return _psd_clamp_eigh(a - hi * m)


def xing_metric_oracle(points, similar, dissimilar):
    """Reference solver of the Xing et al. (NIPS 2002) metric program.

    maximize sum_dissimilar sqrt(v^T A v)
    subject to <A, M_S> <= 1 with M_S = sum_similar v v^T, and A PSD.

    Projected gradient ascent from the projected identity, with the exact
    projection of ``project_psd_halfspace``. The step size doubles after an
    accepted step and halves until a step raises the objective; ascent stops
    when an accepted step gains less than 1e-10 or no step size (down to
    1e-14 of the first) gains at all. Returns ``(A, objective, M_S)``.
    """
    x = np.asarray(points, dtype=float)
    vs = _pair_differences(x, similar)
    vd = _pair_differences(x, dissimilar)
    m_s = vs.T @ vs

    def distances(a):
        return np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", vd, a, vd), 0.0))

    def objective(a):
        return float(np.sum(distances(a)))

    def gradient(a):
        d = distances(a)
        keep = d > 0.0
        g = (vd[keep] / (2.0 * d[keep])[:, None]).T @ vd[keep]
        return (g + g.T) / 2.0

    a = project_psd_halfspace(np.eye(x.shape[1]), m_s)
    g_a = objective(a)
    step = np.linalg.norm(a) / max(np.linalg.norm(gradient(a)), 1e-300)
    smallest = 1e-14 * step
    while True:
        grad = gradient(a)
        while True:
            b = project_psd_halfspace(a + step * grad, m_s)
            g_b = objective(b)
            if g_b > g_a or step < smallest:
                break
            step /= 2.0
        if g_b <= g_a:
            break
        gain = g_b - g_a
        a, g_a = b, g_b
        step *= 2.0
        if gain < 1e-10:
            break
    return a, g_a, m_s


def rank_render(d: np.ndarray) -> np.ndarray:
    """Rank-scale pixels: each entry's rank among all distinct off-diagonal values.

    A single distinct value renders 255 off the zero entries; otherwise the
    rank r of m maps to round(255 r / (m - 1)).
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    distinct = np.unique(d[~np.eye(n, dtype=bool)])
    if distinct.size <= 1:
        return np.where(d == 0.0, 0, 255).astype(np.uint8)
    ranks = np.searchsorted(distinct, d)
    return np.rint(255.0 * ranks / (distinct.size - 1)).astype(np.uint8)


def linear_render(d: np.ndarray) -> np.ndarray:
    """Linear-scale pixels: round(255 d / max(d)); an all-zero matrix is black."""
    d = np.asarray(d, dtype=float)
    mx = d.max()
    return (np.rint(255.0 * d / mx) if mx > 0 else np.zeros_like(d)).astype(np.uint8)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Minimal binary-P5 reader; returns ``(pixels, maxval)``."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise ValueError("not a binary PGM file")
    pos = 2
    vals = []
    while len(vals) < 3:
        while data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while data[pos : pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        start = pos
        while not data[pos : pos + 1].isspace():
            pos += 1
        vals.append(int(data[start:pos]))
    width, height, maxval = vals
    pos += 1
    pixels = np.frombuffer(data[pos : pos + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError("truncated pixel payload")
    return pixels.reshape(height, width).copy(), maxval


def canonical_labels(labels) -> np.ndarray:
    """Relabel cluster ids by first appearance so partitions compare directly."""
    seen: dict[int, int] = {}
    return np.array([seen.setdefault(int(v), len(seen)) for v in np.asarray(labels)])


def partitions_equal(a, b) -> bool:
    return np.array_equal(canonical_labels(a), canonical_labels(b))
