"""Constraint algebra: generation, transitive closure, conflict removal."""

import numpy as np
import pytest

from conivat import (
    ConstraintSet,
    FeatureMatrix,
    generate_from_labels,
    read_constraints,
    remove_inconsistent,
    sanitize,
    transitive_closure,
    write_constraints,
)
from oracles import reachability_closure, similar_components


def cs(similar, dissimilar, n) -> ConstraintSet:
    return ConstraintSet(frozenset(similar), frozenset(dissimilar), n)


def random_cs(rng: np.random.Generator, n: int) -> ConstraintSet:
    n_sim, n_dis = rng.integers(0, 7, size=2)
    pairs = [(int(i), int(j)) for i in range(n) for j in range(i + 1, n)]
    take = rng.permutation(len(pairs))[: n_sim + n_dis]
    return cs([pairs[t] for t in take[:n_sim]], [pairs[t] for t in take[n_sim:]], n)


class TestConstraintSet:
    def test_pairs_normalized_unordered(self):
        c = cs([(5, 1)], [(4, 2)], 6)
        assert c.similar == frozenset({(1, 5)}) and c.dissimilar == frozenset({(2, 4)})
        assert len(c) == 2

    def test_rejects_self_pairs_and_out_of_range(self):
        with pytest.raises(ValueError):
            cs([(2, 2)], [], 5)
        with pytest.raises(ValueError):
            cs([(0, 5)], [], 5)
        with pytest.raises(ValueError):
            cs([], [(-1, 2)], 5)

    def test_empty(self):
        assert len(ConstraintSet.empty(10)) == 0

    def test_check_items_names_a_pair_beyond_the_objects(self):
        c = cs([(0, 1)], [(200, 1)], 300)
        c.check_items(201)
        c.check_items(300)
        with pytest.raises(IndexError, match=r"constraint pair \(1, 200\) out of range for 150 objects"):
            c.check_items(150)


class TestGenerateFromLabels:
    def test_iris_count_30(self, iris_norm):
        c = generate_from_labels(iris_norm, 30, seed=0)
        assert len(c.similar) + len(c.dissimilar) == 30
        assert not c.similar & c.dissimilar

    def test_count_zero(self, two_blobs):
        c = generate_from_labels(two_blobs, 0, seed=0)
        assert len(c) == 0

    def test_exhaustive_pairs_match_label_comparison(self):
        labels = np.array([0, 1, 0, 1, 1, 0, 0, 1])
        data = FeatureMatrix(np.arange(16, dtype=float).reshape(8, 2), labels)
        c = generate_from_labels(data, 28, seed=3)
        want_sim = {(i, j) for i in range(8) for j in range(i + 1, 8) if labels[i] == labels[j]}
        want_dis = {(i, j) for i in range(8) for j in range(i + 1, 8) if labels[i] != labels[j]}
        assert c.similar == frozenset(want_sim) and c.dissimilar == frozenset(want_dis)

    def test_deterministic_per_seed(self, two_blobs):
        a = generate_from_labels(two_blobs, 12, seed=5)
        b = generate_from_labels(two_blobs, 12, seed=5)
        assert a.similar == b.similar and a.dissimilar == b.dissimilar

    def test_pool_restricts_draws(self, two_blobs):
        pool = [0, 1, 2, 13, 14, 15]
        c = generate_from_labels(two_blobs, 10, seed=1, pool=pool)
        assert all(i in pool and j in pool for i, j in c.similar | c.dissimilar)

    def test_errors(self, two_blobs):
        with pytest.raises(ValueError):
            generate_from_labels(two_blobs, 9999, seed=0)
        with pytest.raises(ValueError):
            generate_from_labels(two_blobs, -1, seed=0)
        with pytest.raises(ValueError):
            generate_from_labels(two_blobs, 2, seed=0, pool=[0, 99])
        unlabeled = FeatureMatrix(two_blobs.points)
        with pytest.raises(ValueError):
            generate_from_labels(unlabeled, 2, seed=0)

    @pytest.mark.parametrize("count", [2.5, 2.0, np.float64(3.0), True, "2"])
    def test_rejects_a_count_that_is_not_an_integer(self, two_blobs, count):
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            generate_from_labels(two_blobs, count, seed=0)

    def test_accepts_a_numpy_integer_count(self, two_blobs):
        assert len(generate_from_labels(two_blobs, np.int64(3), seed=0)) == 3


class TestTransitiveClosure:
    def test_similar_chain_propagates(self):
        out = transitive_closure(cs([(1, 2), (2, 3)], [], 6))
        assert (1, 3) in out.similar

    def test_similar_plus_dissimilar_propagates(self):
        out = transitive_closure(cs([(1, 4)], [(4, 5)], 6))
        assert (1, 5) in out.dissimilar

    def test_empty_fixed_point(self):
        out = transitive_closure(ConstraintSet.empty(4))
        assert len(out) == 0

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            c = random_cs(rng, int(rng.integers(3, 15)))
            once = transitive_closure(c)
            assert once.similar >= c.similar and once.dissimilar >= c.dissimilar
            twice = transitive_closure(once)
            assert twice.similar == once.similar and twice.dissimilar == once.dissimilar

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 21))
            c = random_cs(rng, n)
            got = transitive_closure(c)
            want_sim, want_dis = reachability_closure(c.similar, c.dissimilar, n)
            assert got.similar == want_sim
            assert got.dissimilar == want_dis


class TestRemoveInconsistent:
    def test_conflicting_dissimilar_removed(self):
        out, removed = remove_inconsistent(cs([(1, 2), (2, 6)], [(1, 6)], 8))
        assert out.dissimilar == frozenset() and removed == [(1, 6)]
        assert out.similar == frozenset({(1, 2), (2, 6)})

    def test_disjoint_unchanged(self):
        c = cs([(0, 1)], [(2, 3)], 5)
        out, removed = remove_inconsistent(c)
        assert removed == [] and out.similar == c.similar and out.dissimilar == c.dissimilar

    def test_chain_removes_exactly_inner_edge(self):
        chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        out, removed = remove_inconsistent(cs(chain, [(1, 4), (0, 7)], 8))
        assert removed == [(1, 4)]
        assert out.dissimilar == frozenset({(0, 7)})

    def test_sanitized_sets_are_conflict_free(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(3, 18))
            out = sanitize(random_cs(rng, n))
            comp = similar_components(out.similar, n)
            assert all(comp[i] != comp[j] for i, j in out.dissimilar)
            assert not out.similar & out.dissimilar


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        c = cs([(0, 3), (1, 2)], [(2, 5)], 6)
        path = tmp_path / "c.txt"
        write_constraints(c, path)
        back = read_constraints(path, 6)
        assert back.similar == c.similar and back.dissimilar == c.dissimilar

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\nS 0 1\nD 1 2\n", encoding="utf-8")
        c = read_constraints(path, 4)
        assert c.similar == frozenset({(0, 1)}) and c.dissimilar == frozenset({(1, 2)})

    def test_bad_lines_raise(self, tmp_path):
        for text in ("X 0 1\n", "S 0\n", "S 0 0\n", "S 0 9\n", "S 0 x\n", "S 0 1.5\n"):
            path = tmp_path / "bad.txt"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=r"bad\.txt:1:"):
                read_constraints(path, 5)
