"""Pairwise constraint sets: generation, transitive closure, conflict removal.

A constraint set holds unordered index pairs split into a "similar"
(must-link) and a "dissimilar" (cannot-link) side. Closure expands the
similar side to full cliques over its connected components and propagates
each dissimilar edge across those components; conflict removal then deletes
any dissimilar edge that ended up inside a similar component. Downstream
code (metric learning, distance imposition) expects sanitized sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Integral

import numpy as np

from .data import FeatureMatrix

Pair = tuple[int, int]


def _norm_pair(i: int, j: int) -> Pair:
    if i == j:
        raise ValueError(f"self-pair ({i},{i}) is not a valid constraint")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class ConstraintSet:
    """Unordered index pairs split into similar and dissimilar sides."""

    similar: frozenset[Pair]
    dissimilar: frozenset[Pair]
    n_items: int

    def __post_init__(self):
        sim = frozenset(_norm_pair(*p) for p in self.similar)
        dis = frozenset(_norm_pair(*p) for p in self.dissimilar)
        for i, j in sim | dis:
            if not (0 <= i < self.n_items and 0 <= j < self.n_items):
                raise ValueError(f"constraint ({i},{j}) out of range for n_items={self.n_items}")
        object.__setattr__(self, "similar", sim)
        object.__setattr__(self, "dissimilar", dis)

    @classmethod
    def empty(cls, n_items: int) -> "ConstraintSet":
        return cls(frozenset(), frozenset(), n_items)

    def __len__(self) -> int:
        return len(self.similar) + len(self.dissimilar)

    def check_items(self, n: int) -> None:
        """Raise ``IndexError`` for a pair outside 0..n-1; returns at once when ``n_items <= n``."""
        if self.n_items > n:
            for i, j in self.similar | self.dissimilar:
                if j >= n:  # pairs are stored with i < j
                    raise IndexError(f"constraint pair ({i}, {j}) out of range for {n} objects")


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _similar_components(cs: ConstraintSet) -> dict[int, list[int]]:
    """Connected components of the similar graph, keyed by root index."""
    uf = _UnionFind(cs.n_items)
    for i, j in cs.similar:
        uf.union(i, j)
    comps: dict[int, list[int]] = {}
    touched = {v for p in cs.similar for v in p}
    for v in sorted(touched):
        comps.setdefault(uf.find(v), []).append(v)
    return comps


def generate_from_labels(
    data: FeatureMatrix,
    count: int,
    seed: int,
    pool=None,
) -> ConstraintSet:
    """Draw ``count`` distinct unordered pairs and classify them by label.

    Pairs are drawn uniformly from ``pool`` (default: all indices); a pair
    whose endpoints share a label goes to the similar side, otherwise to the
    dissimilar side. Redraws on duplicates so ``count`` means distinct pairs.
    ``count`` must be a non-negative integer; a bool or a float is not.
    """
    if data.labels is None:
        raise ValueError("constraint generation requires labels")
    if isinstance(count, bool) or not isinstance(count, Integral) or count < 0:
        raise ValueError(f"count must be an integer >= 0, got {count}")
    pool = np.arange(data.n) if pool is None else np.asarray(sorted(set(int(i) for i in pool)))
    if pool.size and (pool.min() < 0 or pool.max() >= data.n):
        raise ValueError("pool indices out of range")
    max_pairs = pool.size * (pool.size - 1) // 2
    if count > max_pairs:
        raise ValueError(f"count={count} exceeds {max_pairs} distinct pairs in pool")
    rng = np.random.default_rng(seed)
    chosen: set[Pair] = set()
    while len(chosen) < count:
        i, j = rng.choice(pool, size=2, replace=False)
        chosen.add(_norm_pair(int(i), int(j)))
    labels = data.labels
    sim = frozenset(p for p in chosen if labels[p[0]] == labels[p[1]])
    dis = frozenset(p for p in chosen if labels[p[0]] != labels[p[1]])
    return ConstraintSet(sim, dis, data.n)


def transitive_closure(cs: ConstraintSet) -> ConstraintSet:
    """Expand both sides to their propagation fixed point.

    Similar pairs become full cliques over similar components; a dissimilar
    edge between two components expands to their full component product.
    Idempotent and monotone. The output may still be inconsistent (a
    dissimilar edge inside one component); see ``remove_inconsistent``.
    """
    comps = _similar_components(cs)
    uf_root = {v: r for r, members in comps.items() for v in members}
    sim = set(cs.similar)
    for members in comps.values():
        sim.update(combinations(members, 2))
    dis = set(cs.dissimilar)
    for i, j in cs.dissimilar:
        side_i = comps.get(uf_root.get(i, i), [i])
        side_j = comps.get(uf_root.get(j, j), [j])
        for a in side_i:
            for b in side_j:
                if a != b:
                    dis.add(_norm_pair(a, b))
    return ConstraintSet(frozenset(sim), frozenset(dis), cs.n_items)


def remove_inconsistent(cs: ConstraintSet) -> tuple[ConstraintSet, list[Pair]]:
    """Delete dissimilar edges whose endpoints share a similar component.

    The similar side always wins a conflict: it defines the component
    structure that distance imposition consumes. Returns the sanitized set
    and the removed pairs for audit.
    """
    uf = _UnionFind(cs.n_items)
    for i, j in cs.similar:
        uf.union(i, j)
    removed = sorted(p for p in cs.dissimilar if uf.find(p[0]) == uf.find(p[1]))
    dis = frozenset(p for p in cs.dissimilar if uf.find(p[0]) != uf.find(p[1]))
    return ConstraintSet(cs.similar, dis, cs.n_items), removed


def sanitize(cs: ConstraintSet) -> ConstraintSet:
    """Closure followed by conflict removal."""
    closed, _ = remove_inconsistent(transitive_closure(cs))
    return closed


def read_constraints(path, n_items: int) -> ConstraintSet:
    """Read the ``S i j`` / ``D i j`` line format (0-based indices).

    A bad line raises ``ValueError`` naming the file and the line number.
    """
    sim, dis = set(), set()
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 3 or parts[0] not in ("S", "D"):
                raise ValueError(f"{path}:{ln}: expected 'S i j' or 'D i j', got {line!r}")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{ln}: indices must be integers, got {line!r}") from None
            if not (0 <= i < n_items and 0 <= j < n_items):
                raise ValueError(f"{path}:{ln}: constraint ({i},{j}) out of range for n_items={n_items}")
            if i == j:
                raise ValueError(f"{path}:{ln}: self-pair ({i},{i}) is not a valid constraint")
            (sim if parts[0] == "S" else dis).add(_norm_pair(i, j))
    return ConstraintSet(frozenset(sim), frozenset(dis), n_items)


def write_constraints(cs: ConstraintSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in sorted(cs.similar):
            fh.write(f"S {i} {j}\n")
        for i, j in sorted(cs.dissimilar):
            fh.write(f"D {i} {j}\n")
