"""Partition extraction: MST cuts, HAC linkages, constrained variants, k advice."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conivat import (
    ConstraintSet,
    FeatureMatrix,
    Partition,
    ccl,
    cut_mst,
    euclidean_dissimilarity,
    gen_gaussian_mixture,
    hac,
    load_iris,
    normalize_minmax,
    sanitize,
    ssl,
    suggest_k,
    synth2,
    vat_reorder,
)
from conivat.clustering import _close_through_endpoints, _edit
from conivat.evaluation import _draw_constraints, _run_seeds
from conivat.vat import _TILE, conivat_pipeline
from oracles import (
    canonical_labels,
    component_closure_fw,
    full_closure_edit,
    is_single_linkage_partition,
    integer_dissimilarity,
    naive_hac,
    naive_vat_prim,
    parent_walk_labels,
    partitions_equal,
    random_dissimilarity,
)


def line_dissimilarity(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    return np.abs(xs[:, None] - xs[None, :])


def grid_dissimilarity(rng: np.random.Generator, n: int) -> np.ndarray:
    """Manhattan distances between points of a 4x4 integer grid: dense ties."""
    pts = rng.integers(0, 4, (n, 2))
    return np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1).astype(float)


def random_constraints(rng: np.random.Generator, n: int, share: float = 0.5) -> ConstraintSet:
    """Sanitized pairs drawn uniformly, 1 to n-1 of them, each similar with probability ``share``."""
    count = int(rng.integers(1, n))
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(count)}
    similar = {p for p in pairs if rng.random() < share}
    return sanitize(ConstraintSet(frozenset(similar), frozenset(pairs - similar), n))


def swept_closure_input(seed: int, share: float, index: int) -> tuple[np.ndarray, ConstraintSet]:
    """Input ``index`` at similar share ``share`` of a closure sweep drawn from ``default_rng(seed)``.

    The sweep draws 150 inputs at each share 0.5, 0.2 and 0.05 in turn:
    n = integers(3, 40) points of integers(1, 5) standard normal features,
    then ``random_constraints`` at that share.
    """
    rng = np.random.default_rng(seed)
    for at_share in (0.5, 0.2, 0.05):
        for at in range(150):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=(n, int(rng.integers(1, 5))))
            cs = random_constraints(rng, n, at_share)
            if (at_share, at) == (share, index):
                return x, cs
    raise ValueError(f"no input {index} at share {share}")


def assert_closure_matches_per_endpoint_passes(d: np.ndarray, cs: ConstraintSet) -> None:
    edited, ceiling = _edit(d, cs)
    want = component_closure_fw(edited, cs.similar, cs.dissimilar, ceiling)
    assert _close_through_endpoints(edited, cs, ceiling).tobytes() == want.tobytes()


def assert_refines(fine: Partition, coarse: Partition) -> None:
    for lab in range(fine.k):
        assert np.unique(np.asarray(coarse.labels)[np.asarray(fine.labels) == lab]).size == 1


class TestPartition:
    def test_valid(self):
        p = Partition(np.array([0, 1, 0]), 2)
        assert p.n == 3 and p.k == 2

    def test_rejects_gapped_or_out_of_range_labels(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2]), 3)
        with pytest.raises(ValueError):
            Partition(np.array([0, 1]), 1)

    def test_rejects_non_integral_labels(self):
        # truncating would read [0.5, 1.5] as the valid labels [0, 1]
        with pytest.raises(ValueError, match="labels must be integers, got 0.5"):
            Partition(np.array([0.5, 1.5]), 2)

    def test_integral_float_labels_kept(self):
        p = Partition(np.array([0.0, 2.0, 1.0]), 3)
        assert p.labels.dtype.kind == "i" and p.labels.tolist() == [0, 2, 1]


class TestCutMst:
    def test_k1_single_cluster(self):
        rng = np.random.default_rng(3)
        d = random_dissimilarity(rng, 8)
        p = cut_mst(vat_reorder(d), 1)
        assert p.k == 1 and set(p.labels) == {0}

    def test_kn_singletons(self):
        rng = np.random.default_rng(5)
        d = random_dissimilarity(rng, 6)
        p = cut_mst(vat_reorder(d), 6)
        assert p.k == 6 and len(set(p.labels)) == 6

    def test_line_split_at_big_gap(self):
        p = cut_mst(vat_reorder(line_dissimilarity([0.0, 1.0, 10.0])), 2)
        assert partitions_equal(p.labels, [0, 0, 1])

    def test_tie_cuts_later_admitted_edge(self):
        # both MST edges weigh 1; the later-admitted one (between 1 and 2)
        # is removed, keeping {0,1} together
        p = cut_mst(vat_reorder(line_dissimilarity([0.0, 1.0, 2.0])), 2)
        assert partitions_equal(p.labels, [0, 0, 1])

    def test_labels_first_appearance_in_vat_order(self):
        # scanning labels along the VAT order must already be in canonical
        # first-appearance form: cluster 0 appears before 1 before 2 ...
        rng = np.random.default_rng(31)
        for _ in range(10):
            vat = vat_reorder(random_dissimilarity(rng, 14))
            for k in (2, 3, 5, 14):
                scanned = np.asarray(cut_mst(vat, k).labels)[vat.order]
                assert np.array_equal(scanned, canonical_labels(scanned))

    def test_k_out_of_range(self):
        vat = vat_reorder(np.zeros((3, 3)))
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                cut_mst(vat, k)

    def test_hierarchy_refinement(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            vat = vat_reorder(random_dissimilarity(rng, 12))
            for k in range(1, 12):
                assert_refines(cut_mst(vat, k + 1), cut_mst(vat, k))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        n=st.one_of(st.integers(1, 40), st.integers(_TILE - 2, _TILE + 12)),
        levels=st.integers(2, 4),
        zeroed=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_runs_match_parent_walk_on_tie_dense_matrices(self, n, levels, zeroed, seed):
        # each cluster is a run of the VAT order: labelling the runs gives
        # the bytes of the parent walk over the reference traversal's MST
        rng = np.random.default_rng(seed)
        d = integer_dissimilarity(rng, n, levels)
        for _ in range(zeroed if n > 1 else 0):
            i, j = rng.choice(n, 2, replace=False)
            d[i, j] = d[j, i] = 0.0  # a zeroed similar pair
        vat = vat_reorder(d)
        order, parent, cuts = naive_vat_prim(d, int(np.argmax(d)) // n)
        assert np.array_equal(vat.order, order) and np.array_equal(vat.cut_magnitudes, cuts)
        for k in range(1, n + 1):
            got = cut_mst(vat, k).labels
            want = parent_walk_labels(order, parent, cuts, k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k


class TestHac:
    def test_kn_no_merges(self):
        rng = np.random.default_rng(11)
        d = random_dissimilarity(rng, 5)
        for linkage in ("single", "complete"):
            assert len(set(hac(d, 5, linkage).labels)) == 5

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            hac(np.zeros((3, 3)), 0, "single")
        with pytest.raises(ValueError):
            hac(np.zeros((3, 3)), 4, "complete")

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), True], ids=["float", "float64", "bool"])
    @pytest.mark.parametrize("route", ["cut_mst", "single", "complete"])
    def test_k_must_be_an_integer(self, route, k):
        d = random_dissimilarity(np.random.default_rng(5), 4)
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\]"):
            cut_mst(vat_reorder(d), k) if route == "cut_mst" else hac(d, k, route)

    def test_unknown_linkage(self):
        with pytest.raises(ValueError):
            hac(np.zeros((3, 3)), 2, "average")

    def test_single_linkage_matches_naive_loop_on_distinct_values(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(2, 30))
            d = random_dissimilarity(rng, n)
            for k in range(1, n + 1):
                assert partitions_equal(hac(d, k, "single").labels, naive_hac(d, k, "single"))

    def test_complete_linkage_collinear_pairs(self):
        p = hac(line_dissimilarity([0.0, 1.0, 5.0, 6.0]), 2, "complete")
        assert partitions_equal(p.labels, [0, 0, 1, 1])

    def test_hierarchy_refinement_both_linkages(self):
        rng = np.random.default_rng(17)
        d = random_dissimilarity(rng, 10)
        for linkage in ("single", "complete"):
            for k in range(1, 10):
                assert_refines(hac(d, k + 1, linkage), hac(d, k, linkage))

    def test_matches_naive_loop_on_tied_grids(self):
        # the skewed copy is asymmetric within the 1e-12 that validation
        # accepts, which reads it as its upper triangle mirrored, so the
        # complete-linkage loop is checked against the naive loop on that
        # mirror. Single linkage breaks ties its own way, so the oracle
        # checks it, against the exact grid: the skew only breaks its ties.
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(2, 25))
            d = grid_dissimilarity(rng, n)
            skewed = d + 5e-13 * rng.integers(0, 2, (n, n))
            np.fill_diagonal(skewed, 0.0)
            mirror = np.triu(skewed) + np.triu(skewed, 1).T
            for m, ref in ((d, d), (skewed, mirror)):
                for k in range(1, n + 1):
                    assert np.array_equal(hac(m, k, "complete").labels, naive_hac(ref, k, "complete"))
                    assert is_single_linkage_partition(d, hac(m, k, "single").labels, k)
        # up to 40 objects with values 0..3: merge sequences long enough for
        # retired rows to pile up in the complete-linkage loop's column lists
        for n in (30, 35, 40):
            d = integer_dissimilarity(rng, n, levels=4)
            for k in range(1, n + 1):
                assert np.array_equal(hac(d, k, "complete").labels, naive_hac(d, k, "complete"))

    def test_matches_naive_loop_on_edited_synth2(self):
        # every 6th synth2 point, edited as ssl (single) and ccl (complete) see it
        data = normalize_minmax(synth2(0))
        data = FeatureMatrix(data.points[::6], data.labels[::6])
        d = euclidean_dissimilarity(data)
        for rs in _run_seeds(0, 2):
            cs = _draw_constraints(data, 30, rs)
            edited, ceiling = _edit(d, cs)
            closed = _close_through_endpoints(edited.copy(), cs, ceiling)
            for k in range(1, data.n + 1):
                assert is_single_linkage_partition(edited, hac(edited, k, "single").labels, k)
                assert np.array_equal(hac(closed, k, "complete").labels, naive_hac(closed, k, "complete"))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_naive_loop_on_drawn_integer_matrices(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        upper = data.draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = upper
        d += d.T
        k = data.draw(st.integers(1, n), label="k")
        linkage = data.draw(st.sampled_from(("single", "complete")), label="linkage")
        if linkage == "single":
            assert is_single_linkage_partition(d, hac(d, k, linkage).labels, k)
        else:
            assert np.array_equal(hac(d, k, linkage).labels, naive_hac(d, k, linkage))


class TestSingleLinkageOracle:
    def test_agrees_with_naive_loop_on_distinct_values(self):
        # distinct values leave one single-linkage partition per k, so the
        # oracle accepts the naive loop's and rejects any other
        rng = np.random.default_rng(53)
        for _ in range(15):
            n = int(rng.integers(3, 20))
            d = random_dissimilarity(rng, n)
            for k in range(1, n + 1):
                labels = naive_hac(d, k, "single")
                assert is_single_linkage_partition(d, labels, k)
                moved = labels.copy()
                moved[0] = (labels[0] + 1) % k
                if k > 1 and np.unique(moved).size == k:
                    assert not is_single_linkage_partition(d, moved, k)

    def test_accepts_either_side_of_a_tied_cut(self):
        d = line_dissimilarity([0.0, 1.0, 2.0])
        assert is_single_linkage_partition(d, [0, 0, 1], 2)
        assert is_single_linkage_partition(d, [0, 1, 1], 2)
        assert not is_single_linkage_partition(d, [0, 1, 0], 2)  # {0, 2} joined only by 2 > t

    def test_rejects_split_across_a_cut_edge(self):
        # MST edges 1, 2, 1: t = 2 for k = 2, and the edge (0, 1) below it
        # may not separate two clusters
        d = line_dissimilarity([0.0, 1.0, 3.0, 4.0])
        assert is_single_linkage_partition(d, [0, 0, 1, 1], 2)
        assert not is_single_linkage_partition(d, [0, 1, 1, 1], 2)
        assert not is_single_linkage_partition(d, [0, 0, 1, 1], 3)


class TestCcl:
    def test_no_constraints_equals_plain_cl(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            d = random_dissimilarity(rng, n)
            k = int(rng.integers(1, n + 1))
            assert list(ccl(d, ConstraintSet.empty(n), k).labels) == list(hac(d, k, "complete").labels)

    def test_must_link_chain_collapses_gap(self):
        d = line_dissimilarity([0.0, 1.0, 10.0, 11.0])
        cs = sanitize(ConstraintSet(frozenset([(1, 2)]), frozenset(), 4))
        p = ccl(d, cs, 2)
        assert p.labels[1] == p.labels[2]

    def test_cannot_link_survives_propagation(self):
        # the zero-cost detour 0-1-2 would erase the inflated (0,2) entry if
        # the ceiling were not re-applied after shortest paths
        d = line_dissimilarity([0.0, 0.1, 0.2])
        cs = sanitize(ConstraintSet(frozenset([(0, 1)]), frozenset([(0, 2)]), 3))
        p = ccl(d, cs, 2)
        assert partitions_equal(p.labels, [0, 0, 1])

    def test_iris_mean_accuracy_band(self, iris):
        from conivat import run_benchmark

        rep = run_benchmark({"iris": iris}, ("ccl",), 30, 10, 0)
        assert rep.row("iris", "ccl").mean_pa == pytest.approx(86.7, abs=10.0)

    def test_endpoint_closure_matches_full_closure_on_euclidean(self):
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(40):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=(n, int(rng.integers(1, 5))))
            cases.append((x, random_constraints(rng, n)))
        # Two 1-D inputs whose shortest paths stop at cannot-link endpoints
        # that no must-link pair touches. Floyd-Warshall over the must-link
        # endpoints alone leaves entries too long there: 2.2774 for 2.0953
        # at (20, 26) of the second.
        frozen = [swept_closure_input(1003, 0.5, 48), swept_closure_input(1005, 0.05, 60)]
        assert [x.shape for x, _ in frozen] == [(34, 1), (28, 1)]
        # The shortest path 5, 0 ~ 1, 3, 4, 2 (length 2.1) needs endpoints
        # after the must-link pair's own: closing through that pair's rows
        # as they stand at their own passes, instead of fully closed, gives
        # 11.9 at (5, 2).
        line = np.array([[0.0], [10.0], [12.0], [10.5], [11.5], [0.1]])
        frozen.append((line, sanitize(ConstraintSet(frozenset({(0, 1)}), frozenset({(1, 2), (1, 4), (2, 3)}), 6))))
        for x, cs in cases + frozen:
            d = euclidean_dissimilarity(FeatureMatrix(x))
            edited, ceiling = _edit(d, cs)
            got = _close_through_endpoints(edited, cs, ceiling)
            want = full_closure_edit(d, cs.similar, cs.dissimilar)
            assert np.max(np.abs(got - want)) <= 1e-12 * ceiling
            assert all(got[i, j] == got[j, i] == ceiling for i, j in cs.dissimilar)

    def test_endpoint_closure_matches_per_endpoint_passes_bit_for_bit(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            n = int(rng.integers(3, 40))
            d = euclidean_dissimilarity(FeatureMatrix(rng.normal(size=(n, int(rng.integers(1, 5))))))
            cs = random_constraints(rng, n)
            assert_closure_matches_per_endpoint_passes(d, cs)

    def test_endpoint_closure_through_must_link_chains_bit_for_bit(self):
        # Unsanitized chains keep only their consecutive links, so a member
        # has zeros in the detoured matrix only at its chain neighbours: rows
        # are handed on along runs of increasing index, and a member whose
        # neighbours both come before it keeps a row the closure makes equal
        # to theirs.
        rng = np.random.default_rng(89)
        for _ in range(40):
            n = int(rng.integers(21, 40))
            d = euclidean_dissimilarity(FeatureMatrix(rng.normal(size=(n, 2))))
            perm = rng.permutation(n).tolist()
            chains, at = [], 0
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(3, 7))
                chains.append(perm[at:at + size])
                at += size
            similar = {tuple(sorted(p)) for chain in chains for p in zip(chain, chain[1:])}
            loose = perm[at:]
            dissimilar = {tuple(sorted((chains[0][0], loose[0]))), tuple(sorted((loose[1], loose[2])))}
            assert_closure_matches_per_endpoint_passes(d, ConstraintSet(frozenset(similar), frozenset(dissimilar), n))

    def test_endpoint_closure_with_duplicate_points_bit_for_bit(self):
        # zero entries between duplicates come from no constraint, so they
        # too hand a must-link row on, also to an endpoint that is only
        # cannot-linked: here row 0 goes to 1 and row 1 to its duplicate 2,
        # whose row alone then closes (0, 2) to 0
        d = euclidean_dissimilarity(FeatureMatrix(np.array([[0.0], [10.0], [10.0], [5.0]])))
        cs = ConstraintSet(frozenset({(0, 1)}), frozenset({(2, 3)}), 4)
        edited, ceiling = _edit(d, cs)
        assert _close_through_endpoints(edited, cs, ceiling)[0, 2] == 0
        assert_closure_matches_per_endpoint_passes(d, cs)
        # an API input may hold -0.0: here the closure wrote -0.0 at (3, 3)
        # where the oracle has +0.0, until the edit mapped it to +0.0
        z = -0.0
        d = np.array([[z, z, 2, 2, 1], [z, z, 2, 1, 1], [2, 2, z, z, z], [2, 1, z, z, 2], [1, 1, z, 2, z]])
        cs = ConstraintSet(frozenset({(0, 2)}), frozenset({(0, 1), (0, 4), (1, 2), (2, 4), (3, 4)}), 5)
        assert_closure_matches_per_endpoint_passes(d, cs)
        rng = np.random.default_rng(97)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            x = rng.integers(0, 3, size=(n, 2)).astype(float)
            d = euclidean_dissimilarity(FeatureMatrix(x))
            assert (d[~np.eye(n, dtype=bool)] == 0).any()
            assert_closure_matches_per_endpoint_passes(d, random_constraints(rng, n))

    def test_endpoint_closure_with_unsanitized_contradiction_bit_for_bit(self):
        # a pair both similar and dissimilar is edited to the ceiling, not 0
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            d = euclidean_dissimilarity(FeatureMatrix(rng.normal(size=(n, 3))))
            a, b, c = rng.choice(n, 3, replace=False).tolist()
            both = tuple(sorted((a, b)))
            cs = ConstraintSet(frozenset({both, tuple(sorted((b, c)))}), frozenset({both}), n)
            edited, ceiling = _edit(d, cs)
            assert edited[both] == ceiling
            assert_closure_matches_per_endpoint_passes(d, cs)

    def test_endpoint_closure_without_constraints_is_the_edit(self):
        rng = np.random.default_rng(103)
        for n in (1, 2, 7):
            d = euclidean_dissimilarity(FeatureMatrix(rng.normal(size=(n, 2))))
            cs = ConstraintSet.empty(n)
            assert_closure_matches_per_endpoint_passes(d, cs)
            edited, ceiling = _edit(d, cs)
            assert _close_through_endpoints(edited.copy(), cs, ceiling).tobytes() == edited.tobytes()

    @pytest.mark.parametrize("name, step, count", [
        ("synth2", 1, 30), ("synth2", 6, 30), ("synth2", 1, 100), ("synth2", 1, 300), ("iris", 1, 300),
    ])
    def test_endpoint_closure_matches_per_endpoint_passes_on_edited_synth2(self, name, step, count):
        # every step-th point of the dataset, as ssl and ccl see it. At 100
        # and 300 constraints synth2 has must-link groups of many members,
        # whose rows are handed on in long chains, and its 750 points fill
        # six row blocks of the finish, the last one short; iris has
        # duplicate points
        data = normalize_minmax(synth2(0) if name == "synth2" else load_iris())
        sub = FeatureMatrix(data.points[::step], data.labels[::step])
        d = euclidean_dissimilarity(sub)
        for rs in _run_seeds(0, 2):
            assert_closure_matches_per_endpoint_passes(d, _draw_constraints(sub, count, rs))

    def test_cannot_link_barrier_survives_huge_magnitudes(self):
        # at 1e17 the spacing of floats exceeds 1, so max + 1 == max
        data = normalize_minmax(synth2(0))
        d = euclidean_dissimilarity(data)
        big = d * 1e17
        for rs in _run_seeds(0, 3):
            cs = _draw_constraints(data, 30, rs)
            barrier = np.zeros(d.shape, dtype=bool)
            for i, j in cs.dissimilar:
                barrier[i, j] = barrier[j, i] = True
            edited, ceiling = _edit(big, cs)
            closed = _close_through_endpoints(edited.copy(), cs, ceiling)
            for m in (edited, closed):
                assert m[barrier].min() > m[~barrier].max()
            assert np.array_equal(ccl(big, cs, 3).labels, ccl(d, cs, 3).labels)


class TestSsl:
    def test_no_constraints_equals_plain_sl(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            d = random_dissimilarity(rng, n)
            k = int(rng.integers(1, n + 1))
            assert list(ssl(d, ConstraintSet.empty(n), k).labels) == list(hac(d, k, "single").labels)

    def test_must_link_merges_natural_clusters(self):
        # three 1-D blobs; linking the outer two forces them into one cluster
        d = line_dissimilarity([0.0, 0.1, 4.0, 4.1, 9.0, 9.1])
        cs = sanitize(ConstraintSet(frozenset([(0, 4)]), frozenset(), 6))
        p = ssl(d, cs, 2)
        assert partitions_equal(p.labels, [0, 0, 1, 1, 0, 0])

    def test_iris_mean_accuracy_band(self, iris):
        from conivat import run_benchmark

        rep = run_benchmark({"iris": iris}, ("ssl",), 30, 10, 0)
        assert rep.row("iris", "ssl").mean_pa == pytest.approx(67.8, abs=10.0)

    def test_matches_single_linkage_on_full_closure(self):
        # must-links put zero-weight ties at the cut, which the unclosed and
        # closed matrices may break differently, so the oracle accepts any
        # single-linkage partition of the closed matrix
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(3, 25))
            d = random_dissimilarity(rng, n)
            cs = random_constraints(rng, n)
            closed = full_closure_edit(d, cs.similar, cs.dissimilar)
            for k in range(1, n + 1):
                assert is_single_linkage_partition(closed, ssl(d, cs, k).labels, k)


class _Tagged(np.ndarray):
    """An ndarray subclass: validation hands back a base-class view of its memory."""


class TestEditedCopies:
    """``ssl``, ``ccl`` and complete-linkage ``hac`` overwrite one copy of their input."""

    @staticmethod
    def runs(d, cs):
        return {
            "ssl": lambda: ssl(d, cs, 3),
            "ccl": lambda: ccl(d, cs, 3),
            "hac-complete": lambda: hac(d, 3, "complete"),
        }

    @staticmethod
    def constraints(n):
        return sanitize(ConstraintSet(frozenset([(0, 5), (2, 9)]), frozenset([(1, 3), (4, 8)]), n))

    @pytest.mark.parametrize("skew", [0.0, 5e-13], ids=["exact", "skewed"])
    def test_one_matrix_copy_per_call(self, skew):
        # every other block a call allocates is far below one n x n float
        # matrix at this size, so the traced peak counts the copies alive at
        # once; a first call may import NumPy modules, so the second is traced
        n = 300
        d = random_dissimilarity(np.random.default_rng(89), n)
        d[6, 11] += skew
        before = d.copy()
        for name, run in self.runs(d, self.constraints(n)).items():
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak // d.nbytes == 1, (name, peak)
        assert d.tobytes() == before.tobytes()

    def test_subclass_input_left_unchanged(self):
        plain = random_dissimilarity(np.random.default_rng(97), 20)
        tagged = plain.copy().view(_Tagged)
        cs = self.constraints(20)
        want = {name: run().labels for name, run in self.runs(plain, cs).items()}
        for name, run in self.runs(tagged, cs).items():
            assert np.array_equal(run().labels, want[name]), name
            assert np.asarray(tagged).tobytes() == plain.tobytes(), name


class TestSuggestK:
    def test_two_blobs_top_suggestion(self, two_blobs):
        vat = vat_reorder(euclidean_dissimilarity(two_blobs))
        ranked = suggest_k(vat)
        assert ranked[0][0] == 2 and ranked[0][1] > 0

    def test_equidistant_scores_all_zero(self):
        vat = vat_reorder(np.ones((5, 5)) - np.eye(5))
        assert all(score == 0.0 for _, score in suggest_k(vat))

    def test_scores_sorted_candidates_complete(self):
        rng = np.random.default_rng(29)
        vat = vat_reorder(random_dissimilarity(rng, 15))
        ranked = suggest_k(vat)
        assert sorted(k for k, _ in ranked) == list(range(2, 15))
        assert all(ranked[i][1] >= ranked[i + 1][1] for i in range(len(ranked) - 1))

    def test_planted_four_gaussians_in_top_two(self):
        data = normalize_minmax(
            gen_gaussian_mixture(
                7, k=4, sizes=[60] * 4,
                centers=[[0.0, 0.0], [14.0, 0.0], [28.0, 0.0], [42.0, 0.0]],
                sigmas=[(0.4, 3.0)] * 4, bridge_points=0,
            )
        )
        for rs in _run_seeds(0, 10):
            cs = _draw_constraints(data, 30, np.random.default_rng(rs))
            vat, _ = conivat_pipeline(data, cs, variant="conivat")
            assert 4 in [k for k, _ in suggest_k(vat)[:2]]

    def test_tiny_inputs(self):
        with pytest.raises(ValueError):
            suggest_k(vat_reorder(np.zeros((1, 1))))
        assert suggest_k(vat_reorder(np.array([[0.0, 1.0], [1.0, 0.0]]))) == []
