"""Metric learning: objective/gradient numerics, projections, learned distances."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conivat import (
    ConstraintSet,
    FeatureMatrix,
    LearnConfig,
    dissimilarity_under_metric,
    euclidean_dissimilarity,
    generate_from_labels,
    gradient_g,
    learn_metric,
    objective_g,
    project_psd,
    sanitize,
)
from conivat import metric
from conivat.metric import _TILE, _project_feasible
from oracles import (
    difference_distance_bound,
    difference_distances,
    project_psd_halfspace,
    psd_clamp_charpoly,
    xing_metric_oracle,
)


def cs(similar, dissimilar, n) -> ConstraintSet:
    return ConstraintSet(frozenset(similar), frozenset(dissimilar), n)


def random_psd(rng: np.random.Generator, p: int, floor: float = 0.1) -> np.ndarray:
    b = rng.normal(size=(p, p))
    return b @ b.T / p + floor * np.eye(p)


def assert_distance_contract(data: FeatureMatrix, a: np.ndarray) -> np.ndarray:
    """The distances under A: exactly symmetric with a +0.0 diagonal, byte for byte, and
    every squared distance within the derived bound of the difference oracle."""
    d = dissimilarity_under_metric(data, a)
    assert d.tobytes() == d.T.tobytes()
    assert np.diag(d).tobytes() == bytes(d.itemsize * len(d))
    assert np.all(np.abs(d * d - difference_distances(data.points, a)) <= difference_distance_bound(data.points, a))
    return d


def similar_quadratic_sum(a: np.ndarray, data: FeatureMatrix, c: ConstraintSet) -> float:
    return sum(float((data.points[i] - data.points[j]) @ a @ (data.points[i] - data.points[j])) for i, j in c.similar)


@pytest.fixture()
def blob_instance():
    """Two labeled 2-D blobs with 5 similar + 5 dissimilar constraints."""
    rng = np.random.default_rng(2)
    pts = np.vstack([rng.normal([0, 0], [0.3, 1.5], (8, 2)), rng.normal([4, 0], [0.3, 1.5], (8, 2))])
    data = FeatureMatrix(pts, np.array([0] * 8 + [1] * 8))
    sim = [(0, 1), (2, 3), (8, 9), (10, 11), (12, 13)]
    dis = [(0, 8), (1, 9), (2, 10), (3, 11), (4, 12)]
    return data, sanitize(cs(sim, dis, 16))


class TestObjective:
    def test_empty_dissimilar_is_zero(self, two_blobs):
        assert objective_g(np.eye(2), two_blobs, ConstraintSet.empty(20)) == 0.0

    def test_identity_single_pair(self):
        data = FeatureMatrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert objective_g(np.eye(2), data, cs([], [(0, 1)], 2)) == pytest.approx(5.0)

    def test_three_pairs_direct_summation(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [-1.0, 4.0]])
        data = FeatureMatrix(pts)
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        pairs = [(0, 1), (1, 2), (0, 3)]
        want = sum(np.sqrt((pts[i] - pts[j]) @ a @ (pts[i] - pts[j])) for i, j in pairs)
        assert objective_g(a, data, cs([], pairs, 4)) == pytest.approx(want, abs=1e-12)


class TestGradient:
    def test_empty_dissimilar_is_zero_matrix(self, two_blobs):
        assert np.array_equal(gradient_g(np.eye(2), two_blobs, ConstraintSet.empty(20)), np.zeros((2, 2)))

    def test_single_pair_outer_product(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        data = FeatureMatrix(pts)
        v = pts[0] - pts[1]
        got = gradient_g(np.eye(2), data, cs([], [(0, 1)], 2))
        assert np.allclose(got, np.outer(v, v) / (2.0 * 5.0), atol=1e-14)

    def test_zero_distance_pairs_skipped(self):
        data = FeatureMatrix(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        got = gradient_g(np.eye(2), data, cs([], [(0, 1)], 3))
        assert np.array_equal(got, np.zeros((2, 2)))

    def test_directional_derivative_matches_central_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(15):
            n, p = int(rng.integers(4, 10)), int(rng.integers(2, 5))
            data = FeatureMatrix(rng.normal(size=(n, p)))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            take = rng.permutation(len(pairs))[: rng.integers(1, 8)]
            c = cs([], [pairs[t] for t in take], n)
            a = random_psd(rng, p)
            e = rng.normal(size=(p, p))
            e = (e + e.T) / 2.0
            e /= np.linalg.norm(e)
            fd = (objective_g(a + h * e, data, c) - objective_g(a - h * e, data, c)) / (2.0 * h)
            assert abs(float(np.tensordot(gradient_g(a, data, c), e)) - fd) < 1e-5


class TestProjectPsd:
    def test_psd_input_fixed_point(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = random_psd(rng, int(rng.integers(2, 6)))
            assert np.allclose(project_psd(a), a, atol=1e-10)

    def test_diagonal_clamp(self):
        assert np.allclose(project_psd(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]), atol=1e-12)

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            a = rng.normal(scale=2.0, size=(5, 5))
            a = (a + a.T) / 2.0
            got = project_psd(a)
            assert np.allclose(got, psd_clamp_charpoly(a), atol=1e-6)
            assert np.linalg.eigvalsh(got).min() >= -1e-8


class TestProjectFeasible:
    @pytest.mark.parametrize("n_similar", [12, 2], ids=["full-rank", "rank-deficient"])
    def test_matches_kkt_oracle(self, n_similar):
        # fewer similar pairs than dimensions leave M_S singular, where the
        # PSD cone and the C1 half-space can meet tangentially
        rng = np.random.default_rng(67 + n_similar)
        active = 0
        for _ in range(20):
            p = int(rng.integers(3, 7))
            vs = rng.normal(size=(n_similar, p))
            m_s = vs.T @ vs
            a = rng.normal(scale=3.0, size=(p, p))
            a = (a + a.T) / 2.0
            x, lam = _project_feasible(a, m_s, float(np.sum(m_s * m_s)), 0.0)
            want = project_psd_halfspace(a, m_s)
            active += lam > 0.0
            assert float(np.tensordot(x, m_s)) <= 1.0 + 1e-6
            assert np.linalg.eigvalsh(x).min() >= -1e-8
            assert np.linalg.norm(x - a) <= np.linalg.norm(want - a) + 1e-7 * np.linalg.norm(a)
        assert active >= 10

    def test_one_refinement_still_feasible(self, blob_instance, monkeypatch):
        monkeypatch.setattr(metric, "_MAX_PROJECTIONS", 1)
        data, c = blob_instance
        a, report = learn_metric(data, c)
        assert report.learned
        assert report.c1_residual <= 1e-6
        assert similar_quadratic_sum(a, data, c) <= 1.0 + 1e-6
        assert np.linalg.eigvalsh(a).min() >= -1e-8


class TestLearnMetric:
    def test_empty_side_returns_identity(self, two_blobs):
        for c in (ConstraintSet.empty(20), cs([(0, 1)], [], 20), cs([], [(0, 10)], 20)):
            a, report = learn_metric(two_blobs, c)
            assert np.array_equal(a, np.eye(2))
            assert not report.learned and report.iterations_used == 0
            assert len(report.objective_trace) == report.iterations_used

    def test_blob_instance_feasible(self, blob_instance):
        data, c = blob_instance
        a, report = learn_metric(data, c)
        assert report.learned
        assert len(report.objective_trace) == report.iterations_used
        assert report.c1_residual <= 1e-6
        assert similar_quadratic_sum(a, data, c) <= 1.0 + 1e-6
        assert report.min_eigenvalue >= -1e-8
        assert np.linalg.eigvalsh(a).min() >= -1e-8
        assert np.allclose(a, a.T, atol=1e-10)

    def test_deterministic(self, blob_instance):
        data, c = blob_instance
        a1, _ = learn_metric(data, c)
        a2, _ = learn_metric(data, c)
        assert np.array_equal(a1, a2)

    def test_iris_constraint_ratio_beats_euclidean(self, iris_norm):
        c = sanitize(generate_from_labels(iris_norm, 30, seed=0))
        a, report = learn_metric(iris_norm, c)
        assert report.learned

        def ratio(mat):
            d = np.sqrt(difference_distances(iris_norm.points, mat))
            return np.mean([d[p] for p in c.similar]) / np.mean([d[p] for p in c.dissimilar])

        assert ratio(a) < ratio(np.eye(4))

    @pytest.mark.parametrize("call", [
        lambda data, c: learn_metric(data, c),
        lambda data, c: objective_g(np.eye(4), data, c),
        lambda data, c: gradient_g(np.eye(4), data, c),
    ], ids=["learn_metric", "objective_g", "gradient_g"])
    def test_pair_out_of_range_of_the_data_rejected(self, iris_norm, call):
        # the set's n_items (300) admits the pair; the 150 objects do not
        with pytest.raises(IndexError, match=r"constraint pair \(1, 200\) out of range for 150 objects"):
            call(iris_norm, cs([(0, 1)], [(1, 200)], 300))

    def test_collapse_to_zero_raises(self, iris_norm):
        # the fixed step grows with the square of the scale: at 1e4 one step overshoots to A = 0
        big = FeatureMatrix(iris_norm.points * 1e4, iris_norm.labels)
        c = sanitize(generate_from_labels(big, 30, seed=0))
        with pytest.raises(ValueError, match="collapsed.*normalize_minmax"):
            learn_metric(big, c)

    def test_moderate_scale_still_reaches_the_oracle(self, iris_norm):
        mid = FeatureMatrix(iris_norm.points * 1e2, iris_norm.labels)
        c = sanitize(generate_from_labels(mid, 30, seed=0))
        _, report = learn_metric(mid, c)
        _, optimum, _ = xing_metric_oracle(mid.points, sorted(c.similar), sorted(c.dissimilar))
        assert report.learned and report.objective_trace[-1] >= 0.999 * optimum

    def test_projection_passes_never_move_away_from_witnesses(self):
        # projection onto the convex PSD cone moves no farther from any PSD witness
        rng = np.random.default_rng(43)
        for _ in range(15):
            a = rng.normal(scale=2.0, size=(2, 2))
            a = (a + a.T) / 2.0
            w = random_psd(rng, 2, floor=0.0)
            assert np.linalg.norm(project_psd(a) - w) <= np.linalg.norm(a - w) + 1e-10

    def test_config_validation(self):
        nan, inf = float("nan"), float("inf")
        for kw in ({"alpha": 0.0}, {"epsilon": -1.0}, {"max_iters": 0},
                   {"alpha": nan}, {"alpha": inf}, {"epsilon": nan}, {"epsilon": inf},
                   {"max_iters": 2.5}, {"max_iters": 2.0}):
            with pytest.raises(ValueError, match=next(iter(kw))):
                LearnConfig(**kw)
        assert LearnConfig(max_iters=np.int64(3)).max_iters == 3


class TestXingOracle:
    def test_single_dissimilar_pair_matches_closed_form(self):
        # one dissimilar v and positive definite M_S: the optimum is the
        # rank-one u u^T with u ~ M_S^-1 v, so g* = sqrt(v^T M_S^-1 v)
        rng = np.random.default_rng(53)
        points = rng.normal(size=(8, 3))
        a, g, m_s = xing_metric_oracle(points, [(0, 1), (2, 3), (4, 5), (6, 7)], [(0, 2)])
        v = points[0] - points[2]
        assert g == pytest.approx(np.sqrt(v @ np.linalg.solve(m_s, v)), rel=1e-6)
        assert float(np.sum(a * m_s)) <= 1.0 + 1e-9


class TestDissimilarityUnderMetric:
    def test_identity_is_euclidean(self):
        rng = np.random.default_rng(47)
        data = FeatureMatrix(rng.normal(size=(7, 3)))
        want = np.array([[np.linalg.norm(x - y) for y in data.points] for x in data.points])
        assert np.allclose(dissimilarity_under_metric(data, np.eye(3)), want, atol=1e-12)
        assert np.allclose(euclidean_dissimilarity(data), want, atol=1e-12)

    def test_single_point(self):
        data = FeatureMatrix(np.array([[2.0, 5.0]]))
        assert np.array_equal(dissimilarity_under_metric(data, np.eye(2)), [[0.0]])

    def test_matches_square_root_transform(self):
        rng = np.random.default_rng(53)
        data = FeatureMatrix(rng.normal(size=(6, 4)))
        a = random_psd(rng, 4)
        vals, vecs = np.linalg.eigh(a)
        root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
        y = data.points @ root
        want = np.array([[np.linalg.norm(u - v) for v in y] for u in y])
        assert np.allclose(dissimilarity_under_metric(data, a), want, atol=1e-9, rtol=0)

    def test_tiles_keep_the_contract_within_the_difference_bound(self):
        # 267 rows: two full tiles and a partial one, on and off the diagonal
        rng = np.random.default_rng(67)
        data = FeatureMatrix(rng.normal(size=(2 * _TILE + 11, 3)))
        assert_distance_contract(data, random_psd(rng, 3))

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1])
    @pytest.mark.parametrize("p", [1, 2, 8, 64])
    @pytest.mark.parametrize("kind", ["identity", "zero", "rank-1"])
    def test_contract_within_the_difference_bound_at_tile_edges(self, n, p, kind):
        rng = np.random.default_rng([n, p])
        v = rng.normal(size=(p, 1))
        a = {"identity": np.eye(p), "zero": np.zeros((p, p)), "rank-1": v @ v.T}[kind]
        assert_distance_contract(FeatureMatrix(rng.normal(size=(n, p))), a)

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1])
    def test_learned_metric_contract_within_the_difference_bound_at_tile_edges(self, iris_norm, n):
        a, report = learn_metric(iris_norm, sanitize(generate_from_labels(iris_norm, 30, seed=0)))
        assert report.learned and not np.allclose(a, np.diag(np.diag(a)))
        assert_distance_contract(FeatureMatrix(np.random.default_rng(n).random((n, iris_norm.dim))), a)

    @pytest.mark.parametrize("p", [1, 2, 8, 64])
    @pytest.mark.parametrize("kind", ["identity", "rank-1", "psd"])
    def test_duplicates_across_a_tile_boundary_are_at_zero(self, p, kind):
        # rows i and i + _TILE + 5 are equal and always lie in different tiles
        rng = np.random.default_rng([7, p])
        v = rng.normal(size=(p, 1))
        a = {"identity": np.eye(p), "rank-1": v @ v.T, "psd": random_psd(rng, p)}[kind]
        x = rng.normal(size=(_TILE + 5, p))
        d = assert_distance_contract(FeatureMatrix(np.vstack([x, x])), a)
        m = np.arange(len(x))
        assert not d[m, m + len(x)].any()

    def test_iris_duplicates_are_at_zero_under_a_learned_metric(self, iris_norm):
        # iris repeats some rows, and here every row twice more
        a, _ = learn_metric(iris_norm, sanitize(generate_from_labels(iris_norm, 30, seed=0)))
        x = np.vstack([iris_norm.points] * 3)
        d = assert_distance_contract(FeatureMatrix(x), a)
        assert not d[(x[:, None, :] == x[None, :, :]).all(axis=2)].any()

    def test_no_cancellation_far_from_the_origin(self):
        # squared norms near 1e6 would swamp squared distances below 1e-12;
        # centring keeps every distance away from 0
        x = 1e3 + np.random.default_rng(3).uniform(0.0, 1e-6, size=(40, 2))
        d = assert_distance_contract(FeatureMatrix(x), np.eye(2))
        assert np.all(d[~np.eye(40, dtype=bool)] > 0.0)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import hashlib, numpy as np\n"
            "from conivat import dissimilarity_under_metric, euclidean_dissimilarity, normalize_minmax, synth2\n"
            "data = normalize_minmax(synth2(0))\n"
            "for d in (euclidean_dissimilarity(data), dissimilarity_under_metric(data, np.array([[2.0, 0.3], [0.3, 1.0]]))):\n"
            "    print(hashlib.sha256(d.tobytes()).hexdigest())\n"
        )

        def digests(threads):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
            return subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60, check=True).stdout

        assert digests(1) == digests(2)

    def test_subnormal_gram_entries_keep_the_contract(self):
        # points near 1e-160 put the Gram entries near 1e-320, below the
        # normal range, where products and sums lose bits
        rng = np.random.default_rng(71)
        data = FeatureMatrix(1e-160 * rng.normal(size=(2 * _TILE + 3, 3)))
        d = dissimilarity_under_metric(data, random_psd(rng, 3))
        assert np.array_equal(d, d.T) and np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0) and np.all(np.isfinite(d)) and d.max() > 0.0

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(59)
        data = FeatureMatrix(rng.normal(size=(9, 3)))
        d = dissimilarity_under_metric(data, random_psd(rng, 3))
        assert np.array_equal(d, d.T) and np.all(np.diag(d) == 0.0) and np.all(d >= 0.0)

    def test_triangle_inequality_for_psd_metric(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            data = FeatureMatrix(rng.normal(size=(12, 3)))
            d = dissimilarity_under_metric(data, random_psd(rng, 3, floor=0.0))
            for j in range(12):
                assert np.all(d <= d[:, j, None] + d[None, j, :] + 1e-9)
