"""Seriation and minimax transform: orderings, MST structure, pipeline routes."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conivat import (
    ConstraintSet,
    FeatureMatrix,
    ccl,
    conivat_pipeline,
    cut_mst,
    dissimilarity_under_metric,
    euclidean_dissimilarity,
    generate_from_labels,
    hac,
    impose_similar,
    learn_metric,
    minimax_transform,
    normalize_minmax,
    partition_accuracy,
    render,
    sanitize,
    ssl,
    synth2,
    validate_dissimilarity,
    vat_reorder,
)
from conivat import vat as vat_module
from conivat.clustering import _edit
from conivat.vat import (
    _TILE,
    VARIANTS,
    VatResult,
    _cut_runs,
    _prim,
    _running_max_matrix,
    _vat_traversal,
    _zero_similar,
)
from oracles import (
    cut_runs_scan,
    floyd_warshall_minimax,
    integer_dissimilarity,
    kruskal_mst_weights,
    linear_render,
    naive_vat_prim,
    random_dissimilarity,
    rank_render,
    running_max_image,
    running_max_rows,
)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def variant_matrix(data, cs, variant):
    """The distance matrix the pipeline builds for ``variant``."""
    cs = sanitize(cs)
    if variant in ("metric_ivat", "conivat"):
        d = dissimilarity_under_metric(data, learn_metric(data, cs)[0])
    else:
        d = euclidean_dissimilarity(data)
    if variant in ("mtd_vat", "conivat"):
        d = impose_similar(d, cs)
    return d


def assert_same_traversal(v1, v2):
    for field in ("order", "cut_magnitudes"):
        assert np.array_equal(getattr(v1, field), getattr(v2, field)), field


def assert_pipeline_contract(vat, d):
    """``vat`` is the VAT traversal of ``d`` and renders d's minimax matrix in its order."""
    assert_same_traversal(vat, vat_reorder(d))
    mm = floyd_warshall_minimax(d)[np.ix_(vat.order, vat.order)]
    assert np.array_equal(render(vat, scale="rank").pixels, rank_render(mm))
    assert np.array_equal(render(vat, scale="linear").pixels, linear_render(mm))


# generator seed, n, and the one skewed entry (None: 0 or 5e-13 on every entry)
SKEWED_CASES = [
    pytest.param(101, 2, None, id="dense-n2"),
    pytest.param(103, 9, None, id="dense-n9"),
    pytest.param(107, 24, None, id="dense-n24"),
    pytest.param(109, _TILE + 12, None, id="dense-two-tiles"),
    pytest.param(113, 2 * _TILE + 5, (_TILE - 1, _TILE), id="tile-edge-upper"),
    pytest.param(127, 2 * _TILE + 5, (_TILE, _TILE - 1), id="tile-edge-lower"),
    pytest.param(131, 2 * _TILE + 5, (2 * _TILE + 4, 2 * _TILE), id="last-tile"),
    pytest.param(137, 2 * _TILE + 5, (0, 2 * _TILE + 4), id="last-column-tile"),
]


def skewed_matrix(seed, n, entry):
    """A tie-dense integer matrix whose entries differ from their mirrors by up to 5e-13."""
    rng = np.random.default_rng(seed)
    d = integer_dissimilarity(rng, n)
    if entry is None:
        d += 5e-13 * rng.integers(0, 2, (n, n))
        np.fill_diagonal(d, 0.0)
    else:
        d[entry] += 5e-13
    return d


@pytest.fixture()
def bridged_pair():
    """Two tight 2-D blobs joined by one midpoint, with planted labels."""
    rng = np.random.default_rng(3)
    pts = np.vstack([
        rng.normal([0.0, 0.0], 0.4, (12, 2)),
        rng.normal([6.0, 0.0], 0.4, (12, 2)),
        [[2.52, 0.05]],
    ])
    labels = np.array([0] * 12 + [1] * 12 + [0])
    return FeatureMatrix(pts, labels)


class TestValidateDissimilarity:
    def test_accepts_valid(self):
        validate_dissimilarity(np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_rejects_nonsquare_asymmetric_negative_diag(self):
        with pytest.raises(ValueError):
            validate_dissimilarity(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            validate_dissimilarity(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            validate_dissimilarity(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            validate_dissimilarity(np.array([[1.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            validate_dissimilarity(np.array([[0.0, np.nan], [np.nan, 0.0]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="dissimilarity matrix is empty"):
            validate_dissimilarity(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="must be square"):
            validate_dissimilarity(np.zeros((0, 3)))

    def test_non_finite_reported_before_negative(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = -1.0
        d[2, 1] = d[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            validate_dissimilarity(d)

    @pytest.mark.parametrize(
        "i, j",
        [(_TILE - 1, _TILE), (_TILE, _TILE - 1), (2 * _TILE + 4, 2 * _TILE), (0, 2 * _TILE + 4)],
        ids=["tile-edge-upper", "tile-edge-lower", "last-tile", "last-column-tile"],
    )
    def test_symmetry_tolerance_holds_at_tile_edges(self, i, j):
        d = random_dissimilarity(np.random.default_rng(71), 2 * _TILE + 5)
        bad = d.copy()
        bad[i, j] += 2e-12
        with pytest.raises(ValueError, match="symmetric"):
            validate_dissimilarity(bad)
        ok = d.copy()
        ok[i, j] += 5e-13
        validate_dissimilarity(ok)
        # a mirror that differs only in the sign of a zero is equal to it
        zero = d.copy()
        zero[i, j], zero[j, i] = 0.0, -0.0
        assert validate_dissimilarity(zero) is zero

    def test_package_matrices_validate_without_a_copy(self, iris_norm):
        # every matrix the package builds is exactly symmetric, so no
        # workload pays for the mirrored copy; on synth2 the Gram matrix the
        # builder starts from is skewed even at A = I
        cs = sanitize(generate_from_labels(iris_norm, 30, seed=0))
        d = euclidean_dissimilarity(iris_norm)
        learned = dissimilarity_under_metric(iris_norm, learn_metric(iris_norm, cs)[0])
        edited, _ = _edit(d, cs)
        data2 = normalize_minmax(synth2(0))
        cs2 = sanitize(generate_from_labels(data2, 30, seed=0))
        learned2 = dissimilarity_under_metric(data2, learn_metric(data2, cs2)[0])
        zeroed2 = _zero_similar(learned2.copy(), cs2)
        for m in (d, learned, edited, euclidean_dissimilarity(data2), learned2, zeroed2):
            assert validate_dissimilarity(m) is m

    @pytest.mark.parametrize("seed, n, entry", SKEWED_CASES)
    def test_skewed_input_reads_as_its_upper_triangle_mirror(self, seed, n, entry):
        skewed = skewed_matrix(seed, n, entry)
        before = skewed.copy()
        mirror = skewed.copy()
        upper = np.triu_indices(n, 1)
        mirror[upper[::-1]] = skewed[upper]
        assert not np.array_equal(mirror, skewed)
        rng = np.random.default_rng(n)
        pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(max(1, n // 4))}
        similar = {p for p in pairs if rng.random() < 0.5}
        cs = sanitize(ConstraintSet(frozenset(similar), frozenset(pairs - similar), n))
        ks = sorted({min(2, n), max(1, n // 3), max(1, 2 * n // 3)})

        def results(m):
            vat = vat_reorder(m)
            out = [validate_dissimilarity(m), vat.order, vat.cut_magnitudes, minimax_transform(m)]
            for k in ks:
                out += [hac(m, k, "single").labels, hac(m, k, "complete").labels]
                out += [ssl(m, cs, k).labels, ccl(m, cs, k).labels]
            return out

        for got, want in zip(results(skewed), results(mirror)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert skewed.tobytes() == before.tobytes()


class TestVatReorder:
    def test_single_item(self):
        res = vat_reorder(np.zeros((1, 1)))
        assert list(res.order) == [0]
        assert res.cut_magnitudes.size == 0

    def test_three_point_line(self):
        d = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 9.0], [10.0, 9.0, 0.0]])
        res = vat_reorder(d)
        # global max is d[0][2]; row-major argmax row 0 seeds the scan
        assert list(res.order) == [0, 1, 2]
        assert sorted(res.cut_magnitudes, reverse=True) == [9.0, 1.0]

    def test_tie_breaks_lowest_candidate_then_anchor(self):
        # candidates 1 and 2 tie at distance 2 from the seed; 1 wins, and 2
        # is then admitted at 2 whichever of the tied anchors 0 and 1 it joins
        d = np.zeros((4, 4))
        d[0, 1] = d[1, 0] = 1.0
        d[0, 2] = d[2, 0] = 2.0
        d[0, 3] = d[3, 0] = 10.0
        d[1, 2] = d[2, 1] = 2.0
        d[1, 3] = d[3, 1] = 9.0
        d[2, 3] = d[3, 2] = 8.0
        res = vat_reorder(d)
        assert list(res.order) == [0, 1, 2, 3]
        assert list(res.cut_magnitudes) == [1.0, 2.0, 8.0]

    def test_reordered_is_permutation_of_input(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_dissimilarity(rng, int(rng.integers(2, 25)))
            res = vat_reorder(d)
            assert sorted(res.order) == list(range(d.shape[0]))

    def test_cut_magnitudes_form_mst(self):
        rng = np.random.default_rng(9)
        d = random_dissimilarity(rng, 40)
        res = vat_reorder(d)
        assert np.allclose(np.sort(res.cut_magnitudes), kruskal_mst_weights(d), atol=0)


class TestSeed:
    """The traversal's seed, read from the upper triangle, is the row of the row-major first maximum."""

    @staticmethod
    def assert_seed(d):
        assert _vat_traversal(d)[0][0] == int(np.argmax(d)) // d.shape[0]

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_on_drawn_tie_heavy_integer_matrices(self, data):
        n = data.draw(st.one_of(st.integers(1, 3 * _TILE + 5), st.sampled_from([_TILE, _TILE + 1, 3 * _TILE + 5])))
        # one level gives the all-zero matrix
        levels = data.draw(st.integers(1, 4), label="levels")
        d = integer_dissimilarity(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n, levels)
        # a larger value planted in the later half only
        i, j = (data.draw(st.integers(n // 2, n - 1)) for _ in range(2))
        if i != j and data.draw(st.booleans(), label="plant"):
            d[i, j] = d[j, i] = levels
        self.assert_seed(d)

    @pytest.mark.parametrize("n, levels, entries", [
        (1, 1, []),
        (3 * _TILE + 5, 1, []),
        (3 * _TILE + 5, 3, []),
        (3 * _TILE + 5, 3, [(3 * _TILE + 4, 3 * _TILE + 2)]),
        (3 * _TILE + 5, 3, [(2 * _TILE, 2 * _TILE - 1)]),
        (3 * _TILE + 5, 3, [(3 * _TILE + 1, 3 * _TILE), (2 * _TILE + 7, 3 * _TILE + 4), (_TILE + 3, _TILE + 2)]),
    ])
    def test_planted_maxima(self, n, levels, entries):
        # one level gives the all-zero matrix
        d = integer_dissimilarity(np.random.default_rng(n), n, levels)
        for i, j in entries:
            d[i, j] = d[j, i] = 5.0
        self.assert_seed(d)

    @pytest.mark.parametrize("seed, n, entry", SKEWED_CASES)
    def test_skewed_input_seeds_at_the_maximum_of_its_mirror(self, seed, n, entry):
        skewed = skewed_matrix(seed, n, entry)
        assert vat_reorder(skewed).order[0] == int(np.argmax(validate_dissimilarity(skewed))) // n


def assert_prim_matches_reference(d):
    """``_prim`` from every seed gives the bytes of ``naive_vat_prim``."""
    d = validate_dissimilarity(d)
    for seed in range(d.shape[0]):
        order, _, cuts = naive_vat_prim(d, seed)
        for name, a, b in zip(("order", "cut_magnitudes"), _prim(d, seed), (order, cuts)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, seed)


class TestPrimKernel:
    """The three-call Prim loop against the masked per-step loop with anchors."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_on_drawn_integer_matrices(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        upper = data.draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = upper
        assert_prim_matches_reference(d + d.T)

    def test_matches_reference_on_euclidean_with_zeroed_pairs(self):
        # zeroed similar pairs tie at the cut, and n > _TILE spans two validation tiles
        rng = np.random.default_rng(79)
        for n in (2, 9, 40, _TILE + 12):
            d = euclidean_dissimilarity(FeatureMatrix(rng.normal(size=(n, 3))))
            for _ in range(n // 3):
                i, j = rng.choice(n, 2, replace=False)
                d[i, j] = d[j, i] = 0.0
            assert_prim_matches_reference(d)


class TestMinimaxTransform:
    def test_chain_shortcut(self):
        d = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 2.0], [10.0, 2.0, 0.0]])
        out = minimax_transform(d)
        assert out[0, 2] == 2.0
        assert out[0, 1] == 1.0 and out[1, 2] == 2.0

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(17)
        d = random_dissimilarity(rng, 50)
        assert np.array_equal(minimax_transform(d), floyd_warshall_minimax(d))

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        d = random_dissimilarity(rng, 30)
        once = minimax_transform(d)
        assert np.array_equal(minimax_transform(once), once)

    def test_dominated_by_input(self):
        rng = np.random.default_rng(27)
        d = random_dissimilarity(rng, 25)
        assert np.all(minimax_transform(d) <= d + 1e-12)

    def test_ultrametric_inequality(self):
        rng = np.random.default_rng(31)
        d = random_dissimilarity(rng, 25)
        out = minimax_transform(d)
        for j in range(25):
            assert np.all(out <= np.maximum(out[:, j, None], out[None, j, :]) + 1e-12)

    def test_values_drawn_from_mst_weights(self):
        rng = np.random.default_rng(33)
        d = random_dissimilarity(rng, 20)
        out = minimax_transform(d)
        weights = set(kruskal_mst_weights(d).tolist()) | {0.0}
        assert set(np.unique(out).tolist()) <= weights

    def test_running_max_of_cuts_is_minimax_in_vat_order(self):
        rng = np.random.default_rng(47)
        for i in range(40):
            n = int(rng.integers(1, 30))
            d = random_dissimilarity(rng, n) if i % 2 else integer_dissimilarity(rng, n)
            vat = vat_reorder(d)
            fw = floyd_warshall_minimax(d)
            assert np.array_equal(running_max_image(vat.cut_magnitudes), fw[np.ix_(vat.order, vat.order)])
            assert np.array_equal(minimax_transform(d), fw)

    def test_exactly_symmetric_with_zeros_of_both_signs(self):
        # zero distances of both signs make zero cuts of both signs; each pair reads one of them twice
        rng = np.random.default_rng(41)
        signed = 0
        for _ in range(20):
            n = int(rng.integers(2, 30))
            d = integer_dissimilarity(rng, n, levels=2)
            flip = np.triu(rng.random((n, n)) < 0.5, 1)
            d[(flip | flip.T) & (d == 0)] = -0.0
            out = minimax_transform(d)
            assert out.tobytes() == out.T.tobytes()
            signed += bool(np.signbit(out).any())
        assert signed >= 10

    def test_cut_magnitudes_survive_transform(self):
        rng = np.random.default_rng(39)
        d = random_dissimilarity(rng, 20)
        out = minimax_transform(d)
        assert np.allclose(np.sort(vat_reorder(out).cut_magnitudes), kruskal_mst_weights(d), atol=0)


SHAPES = ("drawn", "constant", "increasing", "decreasing")


def shaped(cuts: np.ndarray, shape: str, fill) -> np.ndarray:
    """``cuts`` as drawn, all equal to ``fill``, or sorted up or down: a single root or a chain of runs."""
    if shape == "constant":
        return np.full_like(cuts, fill)
    if shape == "drawn":
        return cuts
    return np.sort(cuts) if shape == "increasing" else np.sort(cuts)[::-1]


class TestCutRuns:
    """The runs of the cut hierarchy against a scan out from each edge; the last of equal cuts wins."""

    @staticmethod
    def drawn_cuts(data) -> np.ndarray:
        # few values, so many ties: zeros of both signs, n = 1 and 2, and
        # constant, increasing and decreasing vectors among the drawn ones
        n = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)), label="n")
        pool = data.draw(st.sampled_from([np.array([0.0, -0.0]), np.array([0.0, -0.0, 1.0]),
                                          np.array([0.0, -0.0, 0.5, 1.0, 2.5]), np.array([0, 1, 2], np.uint8),
                                          np.arange(40.0)]), label="pool")
        cuts = pool[data.draw(st.lists(st.integers(0, pool.size - 1), min_size=n - 1, max_size=n - 1), label="picks")]
        return shaped(cuts, data.draw(st.sampled_from(SHAPES), label="shape"), pool[-1])

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_the_scan(self, data):
        cuts = self.drawn_cuts(data)
        assert _cut_runs(cuts) == cut_runs_scan(cuts.tolist())

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_every_pair_has_one_owner(self, data):
        # pair s < t is owned by the last largest cut of cuts[s:t], and by no other edge
        cuts = self.drawn_cuts(data)
        n = cuts.size + 1
        lo, hi = _cut_runs(cuts)
        owners = np.zeros((n, n), int)
        owner = np.full((n, n), -1)
        for e in range(n - 1):
            owners[lo[e]:e + 1, e + 1:hi[e] + 1] += 1
            owner[lo[e]:e + 1, e + 1:hi[e] + 1] = e
        assert np.array_equal(owners, np.triu(np.ones((n, n), int), 1))
        for s in range(n):
            for t in range(s + 1, n):
                assert owner[s, t] == t - 1 - int(np.argmax(cuts[s:t][::-1]))


def lower_mirrored(m: np.ndarray) -> np.ndarray:
    """``m`` with its upper triangle replaced by the mirror of its lower one, entries moved, not computed."""
    return np.where(np.tri(len(m), dtype=bool), m, m.T)


class TestRunningMaxMatrix:
    """The rectangle fill against the row recursion's lower triangle, mirrored, byte for byte."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_row_recursion_on_drawn_cuts(self, data):
        # one object to three tiles and a row: deep hierarchies and long runs
        n = data.draw(
            st.one_of(st.integers(1, 3 * _TILE + 1), st.sampled_from([_TILE, _TILE + 1, 2 * _TILE + 1, 3 * _TILE + 1])),
            label="n",
        )
        # few values, so many ties and, among floats, long ranges of zeros of both signs
        pool = data.draw(
            st.sampled_from([np.array([0, 1], np.uint8), np.array([0, 1, 2, 255], np.uint8), np.array([0.0, -0.0]),
                             np.array([0.0, -0.0, 1.0]), np.array([0.0, -0.0, 0.5, 1.0, 2.5])]),
            label="pool",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        cuts = pool[rng.integers(0, pool.size, n - 1)]
        cuts = shaped(cuts, data.draw(st.sampled_from(SHAPES), label="shape"), pool[-1])
        got, want = _running_max_matrix(cuts), lower_mirrored(running_max_rows(cuts))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if n <= 16:
            assert np.array_equal(got, running_max_image(cuts))

    def test_keeps_the_sign_of_each_zero(self):
        # on both sides of the diagonal the last largest cut of a range
        cuts = np.array([0.0] * _TILE + [-0.0] * (_TILE + 1))
        got = _running_max_matrix(cuts)
        assert got.tobytes() == lower_mirrored(running_max_rows(cuts)).tobytes()
        assert got.tobytes() == got.T.tobytes()
        assert np.signbit(got[-1, 0]) and np.signbit(got[0, -1])


class TestImposeSimilar:
    def test_zeroes_constrained_pairs(self):
        d = np.array([[0.0, 4.0, 5.0], [4.0, 0.0, 3.0], [5.0, 3.0, 0.0]])
        out = impose_similar(d, ConstraintSet(frozenset([(0, 2)]), frozenset(), 3))
        assert out[0, 2] == 0.0 and out[2, 0] == 0.0
        assert out[0, 1] == 4.0 and out[1, 2] == 3.0
        assert d[0, 2] == 5.0  # input untouched

    def test_empty_set_is_copy(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = impose_similar(d, ConstraintSet.empty(2))
        assert np.array_equal(out, d) and out is not d

    def test_out_of_range_pair(self):
        with pytest.raises(IndexError):
            impose_similar(np.zeros((2, 2)), ConstraintSet(frozenset([(0, 5)]), frozenset(), 6))

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            impose_similar(np.zeros((2, 3)), ConstraintSet(frozenset([(0, 1)]), frozenset(), 2))

    @pytest.mark.parametrize("seed, n, entry", SKEWED_CASES)
    def test_skewed_input_reads_as_its_upper_triangle_mirror(self, seed, n, entry):
        # no similar pair and no -0.0 is a single skewed entry, so neither hides the skew
        skewed = skewed_matrix(seed, n, entry)
        if n > 2:
            skewed[n - 2, n - 1] = skewed[n - 1, n - 2] = -0.0
        before = skewed.copy()
        want = skewed.copy()
        upper = np.triu_indices(n, 1)
        want[upper[::-1]] = skewed[upper]
        assert not np.array_equal(want, skewed)
        similar = {(0, 1), (1, n - 1)} if n > 2 else {(0, 1)}
        for i, j in similar:
            want[i, j] = want[j, i] = 0.0
        got = impose_similar(skewed, ConstraintSet(frozenset(similar), frozenset(), n))
        assert got.tobytes() == (want + 0.0).tobytes()  # -0.0 reads as +0.0
        assert skewed.tobytes() == before.tobytes()

    def test_component_collapses_under_minimax(self):
        # a similar-closure component becomes an all-zero block after the
        # minimax transform even when only a spanning chain was zeroed
        rng = np.random.default_rng(43)
        d = random_dissimilarity(rng, 10, scale=5.0) + 1.0
        np.fill_diagonal(d, 0.0)
        cs = sanitize(ConstraintSet(frozenset([(0, 3), (3, 7), (7, 9)]), frozenset(), 10))
        out = minimax_transform(impose_similar(d, cs))
        for i in (0, 3, 7, 9):
            for j in (0, 3, 7, 9):
                assert out[i, j] == 0.0


class TestPipeline:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pair_out_of_range_of_the_data_rejected_at_entry(self, iris_norm, monkeypatch, variant):
        # the set's n_items (300) admits the pair; the 150 objects do not
        monkeypatch.setattr(vat_module, "learn_metric", None)  # a call would raise TypeError: the check comes first
        cs = ConstraintSet(frozenset([(0, 200)]), frozenset([(1, 2)]), 300)
        with pytest.raises(IndexError, match=r"constraint pair \(0, 200\) out of range for 150 objects"):
            conivat_pipeline(iris_norm, cs, variant=variant)

    def test_larger_n_items_with_pairs_in_range_accepted(self, iris_norm):
        cs = ConstraintSet(frozenset([(0, 1)]), frozenset([(0, 100)]), 300)
        vat, _ = conivat_pipeline(iris_norm, cs, variant="conivat")
        assert vat.n == 150

    def test_ivat_equals_manual_route(self, two_blobs):
        vat, report = conivat_pipeline(two_blobs, variant="ivat")
        assert report is None
        assert_pipeline_contract(vat, euclidean_dissimilarity(two_blobs))

    def test_conivat_separates_bridged_blobs(self, bridged_pair):
        data = bridged_pair
        cs = ConstraintSet(frozenset([(0, 5), (12, 17)]), frozenset(), data.n)
        vat, report = conivat_pipeline(data, cs, variant="conivat")
        pred = cut_mst(vat, 2)
        assert partition_accuracy(pred, data.labels) == 100.0
        assert report is not None and not report.learned  # no dissimilar side

    def test_mtd_vat_zero_block_is_contiguous(self, two_blobs):
        cs = ConstraintSet(frozenset([(0, 1), (1, 2), (2, 3)]), frozenset(), 20)
        vat, report = conivat_pipeline(two_blobs, cs, variant="mtd_vat")
        assert report is None
        idx = [int(np.flatnonzero(vat.order == i)[0]) for i in (0, 1, 2, 3)]
        assert max(idx) - min(idx) == 3  # welded items end up adjacent
        assert np.all(vat.cut_magnitudes[min(idx):max(idx)] == 0.0)

    def test_metric_ivat_learns_and_matches_manual(self, iris_norm):
        cs = sanitize(generate_from_labels(iris_norm, 30, seed=0))
        vat, report = conivat_pipeline(iris_norm, cs, variant="metric_ivat")
        assert report is not None and report.learned
        a, _ = learn_metric(iris_norm, cs)
        assert_pipeline_contract(vat, dissimilarity_under_metric(iris_norm, a))

    def test_raw_constraints_sanitized_internally(self, bridged_pair):
        data = bridged_pair
        raw = ConstraintSet(frozenset([(0, 5), (5, 0), (12, 17)]), frozenset(), data.n)
        v1, _ = conivat_pipeline(data, raw, variant="conivat")
        v2, _ = conivat_pipeline(data, sanitize(raw), variant="conivat")
        assert_same_traversal(v1, v2)

    def test_unknown_variant(self, two_blobs):
        with pytest.raises(ValueError):
            conivat_pipeline(two_blobs, variant="fancy_vat")

    def test_no_constraints_conivat_reduces_to_ivat(self, two_blobs):
        v1, report = conivat_pipeline(two_blobs, ConstraintSet.empty(20), variant="conivat")
        v2, _ = conivat_pipeline(two_blobs, variant="ivat")
        assert_same_traversal(v1, v2)
        assert report is not None and not report.learned

    def test_builds_its_matrix_valid_and_does_not_validate_it(self, iris_norm, monkeypatch):
        calls = []

        def counted(d):
            calls.append(d.shape)
            return validate_dissimilarity(d)

        monkeypatch.setattr(vat_module, "validate_dissimilarity", counted)
        cs = generate_from_labels(iris_norm, 30, seed=0)
        for variant in VARIANTS:
            conivat_pipeline(iris_norm, cs, variant=variant)
            assert calls == [], variant
        vat_reorder(euclidean_dissimilarity(iris_norm))  # the public entry point still validates
        assert calls == [(iris_norm.n, iris_norm.n)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("magnitude", [1e80, 1e155])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_overflowing_features_fail_fast_without_warnings(self, iris_norm, variant, magnitude):
        # at 1e80 Euclidean distances still fit a float, the learner's
        # ||M_S||^2 does not; at 1e155 neither do the squared distances
        data = FeatureMatrix(iris_norm.points * magnitude, iris_norm.labels)
        cs = generate_from_labels(iris_norm, 30, seed=0)
        with deadline(10):
            if variant not in ("metric_ivat", "conivat") and magnitude == 1e80:
                vat, _ = conivat_pipeline(data, cs, variant=variant)
                assert np.all(np.isfinite(vat.cut_magnitudes))
            else:
                with pytest.raises(ValueError, match="overflow"):
                    conivat_pipeline(data, cs, variant=variant)


class TestPipelineEqualsComposition:
    """The pipeline against vat_reorder(d) composed with the Floyd-Warshall
    minimax matrix of d taken in that order."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_fields_on_two_blobs(self, two_blobs, variant):
        cs = generate_from_labels(two_blobs, 12, seed=1)
        vat, _ = conivat_pipeline(two_blobs, cs, variant=variant)
        assert_pipeline_contract(vat, variant_matrix(two_blobs, cs, variant))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_fields_on_tie_dense_integer_grids(self, variant):
        # points on a 3 x 3 grid: many duplicate points and equal distances
        rng = np.random.default_rng(61)
        for _ in range(8):
            n = int(rng.integers(6, 30))
            data = FeatureMatrix(rng.integers(0, 3, (n, 2)).astype(float), rng.integers(0, 3, n))
            cs = generate_from_labels(data, 10, seed=int(rng.integers(1000)))
            vat, _ = conivat_pipeline(data, cs, variant=variant)
            assert_pipeline_contract(vat, variant_matrix(data, cs, variant))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_composition_on_drawn_integer_matrices(self, data):
        # the pipeline's last step, VatResult from one traversal, on tie-dense input
        n = data.draw(st.integers(1, 12), label="n")
        upper = data.draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = upper
        d = d + d.T
        order, cuts = _vat_traversal(d)
        assert_pipeline_contract(VatResult(order=order, cut_magnitudes=cuts), d)
