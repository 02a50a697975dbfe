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

import numpy as np

from .data import FeatureMatrix, _is_index

Pair = tuple[int, int]


def _norm_pair(i: int, j: int) -> Pair:
    if not (_is_index(i) and _is_index(j)):
        raise ValueError(f"constraint pair ({i!r}, {j!r}) must hold integer indices")
    if i == j:
        raise ValueError(f"self-pair ({i},{i}) is not a valid constraint")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class ConstraintSet:
    """Unordered index pairs split into similar and dissimilar sides.

    ``n_items`` must be an integer >= 0 and every pair index an integer in
    0..n_items-1, else ``ValueError``.
    """

    similar: frozenset[Pair]
    dissimilar: frozenset[Pair]
    n_items: int

    def __post_init__(self):
        if not (_is_index(self.n_items) and self.n_items >= 0):
            raise ValueError(f"n_items must be an integer >= 0, got {self.n_items!r}")
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


def _similar_components(cs: ConstraintSet) -> dict[int, list[int]]:
    """Each index of a similar pair, mapped to the sorted members of its similar component.

    The members of one component share one list. A merge folds the smaller
    component into the larger, so each index moves O(log n) times.
    """
    comps: dict[int, list[int]] = {}
    for i, j in cs.similar:
        big = comps.setdefault(i, [i])
        small = comps.setdefault(j, [j])
        if big is small:
            continue
        if len(big) < len(small):
            big, small = small, big
        big.extend(small)
        for v in small:
            comps[v] = big
    for members in {id(m): m for m in comps.values()}.values():
        members.sort()
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
    ``count`` must be a non-negative integer and each ``pool`` entry an
    integer index; a bool or a float is neither.
    """
    if data.labels is None:
        raise ValueError("constraint generation requires labels")
    if not (_is_index(count) and count >= 0):
        raise ValueError(f"count must be an integer >= 0, got {count}")
    if pool is None:
        pool = np.arange(data.n)
    else:
        pool = list(pool)
        for i in pool:
            if not _is_index(i):
                raise ValueError(f"pool indices must be integers, got {i!r}")
        pool = np.asarray(sorted(set(pool)))
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
    sim = set()
    for v, members in comps.items():
        if v == members[0]:  # each component once, at its smallest member
            sim.update(combinations(members, 2))
    dis = set()
    for i, j in cs.dissimilar:
        for a in comps.get(i, [i]):
            for b in comps.get(j, [j]):
                if a != b:
                    dis.add(_norm_pair(a, b))
    return ConstraintSet(frozenset(sim), frozenset(dis), cs.n_items)


def remove_inconsistent(cs: ConstraintSet) -> tuple[ConstraintSet, list[Pair]]:
    """Delete dissimilar edges whose endpoints share a similar component.

    The similar side always wins a conflict: it defines the component
    structure that distance imposition consumes. Returns the sanitized set
    and the removed pairs for audit.
    """
    comps = _similar_components(cs)
    removed = sorted((i, j) for i, j in cs.dissimilar if i in comps and comps[i] is comps.get(j))
    return ConstraintSet(cs.similar, cs.dissimilar.difference(removed), cs.n_items), removed


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
