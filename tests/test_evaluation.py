"""Scoring and benchmark protocols: PA alignment, reports, ablation, sweeps."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conivat import (
    Partition,
    euclidean_dissimilarity,
    gen_gaussian_mixture,
    hac,
    metric,
    normalize_minmax,
    partition_accuracy,
    run_ablation,
    run_benchmark,
    run_constraint_sweep,
)
from conivat import vat as vat_module
from conivat.data import synth1
from conivat.vat import VARIANTS
from oracles import brute_force_assignment, brute_force_pa


def labels_of(cont):
    """Predicted and true ids of points laid out by a contingency matrix."""
    rows, cols = np.indices(cont.shape)
    return np.repeat(rows.ravel(), cont.ravel()), np.repeat(cols.ravel(), cont.ravel())


@st.composite
def contingencies(draw):
    """Rectangular, tie-heavy contingency matrices small enough for brute force."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, 3), min_size=r * c, max_size=r * c).filter(any))
    return np.array(cells).reshape(r, c)


@pytest.fixture(scope="module")
def iris_ablation(iris):
    return run_ablation(iris, 30, 10, 0, name="iris")


@pytest.fixture(scope="module")
def iris_sweep(iris):
    return run_constraint_sweep(iris, (0, 5, 30), 10, 0, name="iris")


class TestPartitionAccuracy:
    def test_identical_is_100(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            labels = rng.integers(0, 4, size=12)
            assert partition_accuracy(labels, labels) == 100.0

    def test_permuted_ids_is_100(self):
        pred = np.array([2, 2, 0, 0, 1, 1])
        truth = np.array([0, 0, 1, 1, 2, 2])
        assert partition_accuracy(pred, truth) == 100.0

    def test_partial_overlap_value(self):
        assert partition_accuracy(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1])) == 75.0

    @pytest.mark.parametrize("pred, truth", [([0.5, 1.5], [0, 1]), ([0, 1], [0.0, np.nan])])
    def test_rejects_labels_that_are_not_integers(self, pred, truth):
        with pytest.raises(ValueError, match="labels must be integers"):
            partition_accuracy(pred, truth)

    def test_integral_float_labels_are_read_as_integers(self):
        assert partition_accuracy([2.0, 1.0, 2.0], [0, 1, 1]) == partition_accuracy([2, 1, 2], [0, 1, 1])

    def test_accepts_partition_objects(self):
        p = Partition(np.array([0, 1, 0]), 2)
        assert partition_accuracy(p, np.array([5, 9, 5])) == 100.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(4, 12))
            pred = rng.integers(0, 3, size=n)
            truth = rng.integers(0, int(rng.integers(2, 5)), size=n)
            assert partition_accuracy(pred, truth) == pytest.approx(brute_force_pa(pred, truth), abs=1e-12)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(contingencies())
    @example(np.array([[2, 0, 1, 3]]))
    @example(np.array([[2], [0], [1], [3]]))
    @example(np.array([[3, 2], [2, 0]]))
    def test_matches_brute_force_on_drawn_shapes(self, cont):
        pred, truth = labels_of(cont)
        assert partition_accuracy(pred, truth) == brute_force_pa(pred, truth)

    def test_planted_optimum_of_a_fine_partition_against_three_classes(self):
        rng = np.random.default_rng(5)
        truth = np.repeat(np.arange(3), 250)
        planted = rng.permutation(300)[:3]
        pred = np.where(rng.random(750) < 0.3, planted[truth], rng.integers(0, 300, 750))
        cont = np.zeros((300, 3), dtype=int)
        np.add.at(cont, (pred, truth), 1)
        # no matching beats the sum of the column maxima, and the planted
        # clusters attain it because they hold the maxima in distinct rows
        assert np.array_equal(cont.argmax(axis=0), planted)
        assert partition_accuracy(pred, truth) == 100.0 * cont.max(axis=0).sum() / 750

    def test_planted_optimum_of_shuffled_blocks_40_by_40(self):
        # off-block weights are zero, so the optimum is the sum of the
        # block optima, each small enough for brute force
        rng = np.random.default_rng(8)
        blocks = [rng.integers(0, 4, (5, 5)) for _ in range(8)]
        cont = np.zeros((40, 40), dtype=int)
        for b, block in enumerate(blocks):
            cont[5 * b:5 * b + 5, 5 * b:5 * b + 5] = block
        cont = cont[rng.permutation(40)][:, rng.permutation(40)]
        pred, truth = labels_of(cont)
        best = sum(brute_force_assignment(block) for block in blocks)
        assert partition_accuracy(pred, truth) == 100.0 * best / truth.size

    def test_relabeling_invariance_both_sides(self):
        rng = np.random.default_rng(11)
        pred = rng.integers(0, 3, size=20)
        truth = rng.integers(0, 3, size=20)
        base = partition_accuracy(pred, truth)
        for _ in range(10):
            pp = rng.permutation(3)[pred]
            tp = rng.permutation(3)[truth]
            assert partition_accuracy(pp, tp) == base

    def test_mismatched_cluster_counts(self):
        # extra predicted ids contribute zero matches but stay well-defined
        assert partition_accuracy(np.array([0, 1, 2, 3]), np.array([0, 0, 1, 1])) == 50.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partition_accuracy(np.array([0, 1]), np.array([0, 1, 1]))

    @pytest.mark.parametrize("pred, truth, shapes", [
        ([[0, 1]], [[0, 1]], "(1, 2) and (1, 2)"),
        ([], [], "(0,) and (0,)"),
    ], ids=["2-d", "empty"])
    def test_labels_must_be_non_empty_1d(self, pred, truth, shapes):
        with pytest.raises(ValueError, match=re.escape(shapes)):
            partition_accuracy(pred, truth)


class TestRunBenchmark:
    def test_single_run_matches_single_shot(self, iris):
        rep = run_benchmark({"iris": iris}, ("hac-sl",), 30, runs=1, seed=0)
        row = rep.row("iris", "hac-sl")
        norm = normalize_minmax(iris)
        single = partition_accuracy(hac(euclidean_dissimilarity(norm), 3, "single"), iris.labels)
        assert list(row.pa_runs) == [pytest.approx(single)]
        assert row.k == 3 and row.n_constraints == 30

    def test_iris_hac_sl_band_and_constancy(self, iris):
        rep = run_benchmark({"iris": iris}, ("hac-sl",), 30, 10, 0)
        row = rep.row("iris", "hac-sl")
        # constraint-free algorithm: constraint redraws cannot move the score
        assert len(set(row.pa_runs)) == 1
        assert row.mean_pa == pytest.approx(66.0, abs=2.0)

    def test_same_seed_bit_identical(self, iris):
        a = run_benchmark({"iris": iris}, ("hac-sl", "ssl"), 10, 3, 7)
        b = run_benchmark({"iris": iris}, ("hac-sl", "ssl"), 10, 3, 7)
        assert a.to_csv() == b.to_csv()
        assert a.row("iris", "ssl").run_seeds == b.row("iris", "ssl").run_seeds

    def test_unlabeled_dataset_rejected(self, iris):
        from conivat import FeatureMatrix

        with pytest.raises(ValueError):
            run_benchmark({"x": FeatureMatrix(iris.points)}, ("hac-sl",), 5, 2, 0)

    def test_unknown_algorithm_rejected(self, iris):
        with pytest.raises(ValueError):
            run_benchmark({"iris": iris}, ("dbscan",), 5, 2, 0)

    @pytest.mark.parametrize("entry", ["benchmark", "ablation", "sweep"])
    def test_zero_runs_rejected(self, iris, entry):
        # no run means no mean: refused before any run rather than averaged into NaN
        call = {
            "benchmark": lambda: run_benchmark({"iris": iris}, ("hac-sl",), 30, 0, 0),
            "ablation": lambda: run_ablation(iris, 30, 0, 0),
            "sweep": lambda: run_constraint_sweep(iris, (0, 30), 0, 0),
        }[entry]
        with pytest.raises(ValueError, match="runs must be >= 1"):
            call()

    @pytest.mark.parametrize("runs", [True, 2.5, 2.0])
    def test_runs_that_are_not_integers_rejected(self, iris, runs):
        with pytest.raises(ValueError, match=re.escape(f"runs must be >= 1, got {runs}")):
            run_benchmark({"iris": iris}, ("hac-sl",), 30, runs, 0)

    def test_report_lookup_and_formats(self, iris):
        rep = run_benchmark({"iris": iris}, ("hac-sl",), 5, 2, 0)
        with pytest.raises(KeyError):
            rep.row("iris", "ccl")
        csv = rep.to_csv()
        header = csv.splitlines()[0]
        assert header.startswith("dataset,algorithm,")
        assert "seconds" not in header  # timing excluded for byte-stable output
        assert "iris" in rep.to_table() and "hac-sl" in rep.to_table()


class TestRunAblation:
    def test_one_row_per_variant(self, iris_ablation):
        assert sorted(r.algorithm for r in iris_ablation.rows) == sorted(VARIANTS)

    def test_ivat_constant_across_runs(self, iris_ablation):
        assert len(set(iris_ablation.row("iris", "ivat").pa_runs)) == 1

    def test_shared_run_seeds_across_variants(self, iris_ablation):
        seeds = {tuple(r.run_seeds) for r in iris_ablation.rows}
        assert len(seeds) == 1

    def test_builds_only_the_variants_distance_matrices(self, iris, monkeypatch):
        builds = []
        original = metric.dissimilarity_under_metric

        def counted(data, a):
            builds.append(data.n)
            return original(data, a)

        for module in (metric, vat_module):
            monkeypatch.setattr(module, "dissimilarity_under_metric", counted)
        run_ablation(iris, 30, runs=1)
        assert builds == [iris.n] * len(VARIANTS)

    def test_synth1_bridge_removal_helps(self):
        rep = run_ablation(synth1(0), 30, 10, 0, name="synth1")
        assert rep.row("synth1", "mtd_vat").mean_pa >= rep.row("synth1", "ivat").mean_pa


class TestRunConstraintSweep:
    def test_one_row_per_count(self, iris_sweep):
        counts = [r.n_constraints for r in iris_sweep.rows]
        assert counts == [0, 5, 30]
        assert all(r.algorithm == "conivat" for r in iris_sweep.rows)

    def test_zero_count_degenerates_to_ivat(self, iris_sweep, iris_ablation):
        assert iris_sweep.row("iris", "conivat", 0).pa_runs == iris_ablation.row("iris", "ivat").pa_runs

    def test_same_run_seeds_every_count(self, iris_sweep):
        seeds = {tuple(r.run_seeds) for r in iris_sweep.rows}
        assert len(seeds) == 1

    def test_count_beyond_available_pairs(self):
        data = gen_gaussian_mixture(0, k=2, sizes=[5, 5], centers=[[0.0, 0.0], [5.0, 0.0]], sigmas=[0.3, 0.3])
        with pytest.raises(ValueError):
            run_constraint_sweep(data, (100,), runs=2, seed=0, name="tiny")

    def test_more_constraints_do_not_hurt_on_iris(self, iris_sweep):
        # Counts share their run seeds (test_same_run_seeds_every_count), so
        # the budgets are compared run by run: 30 constraints must beat 5 on
        # at least as many runs as 5 beat 30. The 10-run means sit on the
        # iris plateau and their difference changes sign with the master
        # seed (two lucky 5-constraint draws decide it at seed 0), so a
        # strict ordering of means is not something the method promises.
        pa5 = np.array(iris_sweep.row("iris", "conivat", 5).pa_runs)
        pa30 = np.array(iris_sweep.row("iris", "conivat", 30).pa_runs)
        wins = int(np.sum(pa30 > pa5))
        losses = int(np.sum(pa30 < pa5))
        assert wins >= losses, (
            f"30 constraints beat 5 on {wins} runs but lost on {losses}: "
            f"5-constraint runs {np.round(pa5, 2).tolist()}, "
            f"30-constraint runs {np.round(pa30, 2).tolist()}"
        )
