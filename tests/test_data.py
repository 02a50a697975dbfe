"""Ingestion, normalization, and synthetic-generator contracts."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conivat import (
    FeatureMatrix,
    gen_banana,
    gen_gaussian_mixture,
    load_csv,
    normalize_minmax,
    synth1,
    synth2,
)
from oracles import naive_load_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestFeatureMatrix:
    def test_rejects_non_2d_points(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros(3))
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((3, 2)), labels=[0, 1])
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((3, 2)), labels=[0, -1, 1])

    @pytest.mark.parametrize("labels", [[0, 0.5, 1], [0, np.nan, 1], [0, 2.0 ** 63, 1]])
    def test_rejects_labels_that_are_not_integers(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            FeatureMatrix(np.zeros((3, 2)), labels=labels)

    def test_integral_float_labels_are_read_as_integers(self):
        lab = FeatureMatrix(np.zeros((3, 2)), labels=[2.0, 0.0, 1.0]).labels
        assert lab.dtype.kind == "i" and lab.tolist() == [2, 0, 1]

    def test_n_classes_requires_labels(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((2, 2))).n_classes


class TestLoadCsv:
    def test_iris_shape_and_classes(self, iris):
        assert iris.n == 150 and iris.dim == 4
        assert iris.n_classes == 3
        assert np.bincount(iris.labels).tolist() == [50, 50, 50]
        # canonical per-column ranges of the public file
        assert np.allclose(iris.points.min(axis=0), [4.3, 2.0, 1.0, 0.1])
        assert np.allclose(iris.points.max(axis=0), [7.9, 4.4, 6.9, 2.5])

    def test_single_row_no_labels(self, tmp_path):
        data, dropped = load_csv(write(tmp_path, "1.0,2.0\n"))
        assert data.n == 1 and data.dim == 2
        assert data.labels is None and dropped == 0

    def test_nan_row_dropped(self, tmp_path):
        data, dropped = load_csv(write(tmp_path, "1,2\nNaN,3\n4,5\n"))
        assert data.n == 2 and dropped == 1
        assert np.array_equal(data.points, [[1.0, 2.0], [4.0, 5.0]])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_infinite_cells_dropped_with_labels_aligned(self, tmp_path, cell):
        text = f"a,b,cls\n1,2,3\n{cell},3,5\n4,{cell},5\n6,7,9\n"
        data, dropped = load_csv(write(tmp_path, text), label_column="cls")
        assert data.n == 2 and dropped == 2
        assert np.array_equal(data.points, [[1.0, 2.0], [6.0, 7.0]])
        assert np.array_equal(data.labels, [3, 9])

    def test_unparseable_and_empty_cells_dropped(self, tmp_path):
        data, dropped = load_csv(write(tmp_path, "1,2\n,3\nx,4\n5,6\n"))
        assert data.n == 2 and dropped == 2

    def test_header_detected_and_names_kept(self, tmp_path):
        data, _ = load_csv(write(tmp_path, "a,b,cls\n1,2,0\n3,4,1\n"), label_column="cls")
        assert data.names == ["a", "b"]
        assert np.array_equal(data.labels, [0, 1])

    def test_label_column_by_index(self, tmp_path):
        data, _ = load_csv(write(tmp_path, "0,1.5,2\n1,2.5,3\n"), label_column=0)
        assert data.dim == 2
        assert np.array_equal(data.labels, [0, 1])

    def test_string_labels_factorized_in_sorted_order(self, tmp_path):
        data, _ = load_csv(write(tmp_path, "1,zebra\n2,apple\n3,zebra\n"), label_column=1)
        assert np.array_equal(data.labels, [1, 0, 1])

    def test_integral_label_beyond_int64_raises_naming_the_file(self, tmp_path):
        path = write(tmp_path, "1,1e300\n2,0\n3,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: label '1e300' does not fit a 64-bit integer$"):
            load_csv(path, label_column=1)
        data, _ = load_csv(write(tmp_path, f"1,{2 ** 62}\n2,0\n"), label_column=1)
        assert data.labels.tolist() == [2 ** 62, 0]

    def test_missing_label_column_raises(self, tmp_path):
        with pytest.raises(ValueError):
            load_csv(write(tmp_path, "a,b\n1,2\n"), label_column="missing")

    def test_empty_and_header_only_raise(self, tmp_path):
        with pytest.raises(ValueError):
            load_csv(write(tmp_path, "\n\n"))
        with pytest.raises(ValueError):
            load_csv(write(tmp_path, "a,b\n"))

    def test_inconsistent_arity_raises(self, tmp_path):
        with pytest.raises(ValueError):
            load_csv(write(tmp_path, "1,2\n3,4,5\n"))

    def test_all_rows_dropped_raises(self, tmp_path):
        with pytest.raises(ValueError):
            load_csv(write(tmp_path, "x,y\nq,w\n"))

    def test_unreadable_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "missing.csv")


# cells for the differential test: numbers, padded numbers, and every kind
# of cell the parser must drop or keep as a label
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-5, 5).map(str))
_PLAIN_CELLS = st.one_of(
    _NUMBERS,
    _NUMBERS,  # twice, so that most cells parse and many rows are kept
    st.sampled_from(["", "abc", "nan", "NaN", "inf", "-inf", "+Infinity", "1e999", "-1e999", "1_0", "1e-320", "label", "a b"]),
)
_CELLS = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t "]), _PLAIN_CELLS, st.sampled_from(["", "  "])).map("".join),
    st.sampled_from(['"1,5"', '" 2.5 "', '"x,y"', '"3"']),
)
_BLANK_LINES = st.sampled_from(["", "   ", " , ", ",,", "\t"])


@st.composite
def csv_texts(draw):
    arity = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.permutations(["a", " b ", "label", "nan"]))[:arity]))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(_BLANK_LINES))
            continue
        # now and then a row of the wrong arity
        width = arity + draw(st.sampled_from([0] * 12 + [-1, 1]))
        lines.append(",".join(draw(st.lists(_CELLS, min_size=max(width, 1), max_size=max(width, 1)))))
    label_column = draw(st.one_of(st.none(), st.integers(-1, arity), st.sampled_from(["label", "a", "missing"])))
    return "\n".join(lines) + "\n", label_column


def _load_outcome(load, path, label_column):
    try:
        data, dropped = load(path, label_column=label_column)
    except Exception as e:  # noqa: BLE001 - the error is part of the outcome compared
        return type(e), str(e)
    labels = None if data.labels is None else (data.labels.dtype, data.labels.tolist())
    return data.points.shape, data.points.tobytes(), labels, data.names, dropped


class TestLoadCsvAgainstCellParser:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(csv_texts())
    def test_same_result_or_error_as_the_cell_by_cell_parser(self, tmp_path_factory, drawn):
        text, label_column = drawn
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text(text, encoding="utf-8")
        assert _load_outcome(load_csv, path, label_column) == _load_outcome(naive_load_csv, path, label_column)

    @pytest.mark.parametrize("text, label_column", [
        ("a,b,label\n 1 ,2,x\n\n  ,  \n3,nan,y\n4, 5 ,x\n", "label"),
        ('"1,5",2\n3,4\n', None),
        ("1_0,2\n1e999,3\n-0.0,1e-320\n", None),
        ("7\n8\n", 0),
        ("1,2\n3\n", 1),
        ("1,1e300\n2,0\n", 1),
    ])
    def test_hand_picked_files(self, tmp_path, text, label_column):
        path = write(tmp_path, text)
        assert _load_outcome(load_csv, path, label_column) == _load_outcome(naive_load_csv, path, label_column)


class TestNormalizeMinmax:
    def test_affine_map(self):
        out = normalize_minmax(FeatureMatrix(np.array([[2.0], [4.0], [6.0]])))
        assert np.array_equal(out.points, [[0.0], [0.5], [1.0]])

    def test_constant_column_maps_to_zero(self):
        out = normalize_minmax(FeatureMatrix(np.array([[5.0, 1.0], [5.0, 3.0]])))
        assert np.array_equal(out.points[:, 0], [0.0, 0.0])
        assert np.array_equal(out.points[:, 1], [0.0, 1.0])

    def test_iris_first_feature_range(self, iris, iris_norm):
        assert iris.points[:, 0].min() == pytest.approx(4.3)
        assert iris.points[:, 0].max() == pytest.approx(7.9)
        assert iris_norm.points[:, 0].min() == 0.0
        assert iris_norm.points[:, 0].max() == 1.0

    def test_idempotent_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data = FeatureMatrix(rng.normal(3.0, 7.0, (rng.integers(2, 40), rng.integers(1, 6))))
            once = normalize_minmax(data)
            assert np.all(once.points >= 0.0) and np.all(once.points <= 1.0)
            assert np.array_equal(normalize_minmax(once).points, once.points)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_range_overflowing_a_float_is_named_without_warnings(self):
        pts = np.array([[0.0, 1e308], [1.0, -1e308], [2.0, 0.0]])
        with pytest.raises(ValueError, match=r"feature column 1 'b' spans -1e\+308 to 1e\+308"):
            normalize_minmax(FeatureMatrix(pts, names=["a", "b"]))
        with pytest.raises(ValueError, match=r"feature column 1 spans"):
            normalize_minmax(FeatureMatrix(pts))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_widest_finite_range_still_rescales(self):
        pts = np.array([[0.0, 1.7e308], [1.0, 0.0], [2.0, 8.5e307]])
        out = normalize_minmax(FeatureMatrix(pts)).points
        assert np.array_equal(out[:, 1], [1.0, 0.0, 0.5])

    def test_labels_and_names_preserved(self):
        data = FeatureMatrix(np.array([[0.0], [2.0]]), labels=[1, 0], names=["f"])
        out = normalize_minmax(data)
        assert np.array_equal(out.labels, [1, 0]) and out.names == ["f"]


class TestGaussianMixture:
    def test_four_clusters_of_100(self):
        data = gen_gaussian_mixture(0, k=4, sizes=[100] * 4, centers=[[0, 0], [5, 0], [0, 5], [5, 5]], sigmas=[0.5] * 4)
        assert data.n == 400 and data.dim == 2
        assert np.bincount(data.labels).tolist() == [100] * 4

    def test_single_cluster(self):
        data = gen_gaussian_mixture(1, k=1, sizes=[10], centers=[[0, 0]], sigmas=[1.0])
        assert data.n == 10 and np.all(data.labels == 0)

    def test_deterministic_per_seed(self):
        kw = dict(k=2, sizes=[5, 7], centers=[[0, 0], [4, 4]], sigmas=[0.3, 0.6], bridge_points=3)
        a, b = gen_gaussian_mixture(9, **kw), gen_gaussian_mixture(9, **kw)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)
        assert not np.array_equal(gen_gaussian_mixture(10, **kw).points, a.points)

    def test_bridge_points_sit_between_centers(self):
        centers = np.array([[0.0, 0.0], [10.0, 0.0]])
        data = gen_gaussian_mixture(2, k=2, sizes=[6, 6], centers=centers, sigmas=[0.1, 0.1], bridge_points=4)
        assert data.n == 16
        for pt, lab in zip(data.points[12:], data.labels[12:]):
            t = pt[0] / 10.0  # segment parameter between the two centers
            assert pt[1] == 0.0 and 0.3 <= t <= 0.7
            assert lab == int(np.argmin(np.linalg.norm(centers - pt, axis=1)))

    def test_anisotropic_sigma_pairs(self):
        data = gen_gaussian_mixture(3, k=1, sizes=[4000], centers=[[0, 0]], sigmas=[(0.1, 10.0)])
        assert data.points[:, 1].std() > 20 * data.points[:, 0].std()

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            gen_gaussian_mixture(0, k=2, sizes=[5], centers=[[0, 0], [1, 1]], sigmas=[1, 1])
        with pytest.raises(ValueError):
            gen_gaussian_mixture(0, k=2, sizes=[5, 5], centers=[[0, 0]], sigmas=[1, 1])
        with pytest.raises(ValueError):
            gen_gaussian_mixture(0, k=0, sizes=[], centers=np.zeros((0, 2)), sigmas=[])


class TestBanana:
    def test_three_arcs_of_250(self):
        data = gen_banana(0, arcs=3, per_arc=250)
        assert data.n == 750
        assert np.bincount(data.labels).tolist() == [250] * 3

    def test_single_arc(self):
        data = gen_banana(4, arcs=1, per_arc=5)
        assert data.n == 5 and np.all(data.labels == 0)

    def test_deterministic_per_seed(self):
        assert np.array_equal(gen_banana(7, 2, 20).points, gen_banana(7, 2, 20).points)
        assert not np.array_equal(gen_banana(8, 2, 20).points, gen_banana(7, 2, 20).points)

    def test_rejects_zero_arcs(self):
        with pytest.raises(ValueError):
            gen_banana(0, arcs=0, per_arc=5)


class TestCanonicalSynthetics:
    def test_synth1_shape(self):
        data = synth1(0)
        assert data.n == 400 and data.dim == 2 and data.n_classes == 4
        assert np.array_equal(synth1(0).points, data.points)

    def test_synth2_shape(self):
        data = synth2(0)
        assert data.n == 750 and data.dim == 2 and data.n_classes == 3
        assert np.array_equal(synth2(0).points, data.points)
