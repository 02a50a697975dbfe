"""n x n matrix allocation: NumPy arrays, with one heap trim before each distance matrix."""

import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conivat import (
    ConstraintSet,
    FeatureMatrix,
    VatResult,
    ccl,
    euclidean_dissimilarity,
    hac,
    metric,
    render,
    ssl,
    validate_dissimilarity,
    vat_reorder,
)
from conivat.clustering import _edit
from conivat.metric import _TILE, dissimilarity_under_metric
from conivat.vat import _validated_copy
from oracles import difference_distance_bound, difference_distances, random_dissimilarity


def points(seed: int, n: int) -> FeatureMatrix:
    return FeatureMatrix(np.random.default_rng(seed).normal(size=(n, 3)))


def mirrored_input(d: np.ndarray) -> np.ndarray:
    """A copy of ``d`` skewed in one entry within the symmetry tolerance, which validation mirrors into a new matrix."""
    s = d.copy()
    s[0, 1] += 5e-13
    return s


class TestHeapTrim:
    def test_one_trim_per_distance_matrix_and_none_elsewhere(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metric, "_TRIM", calls.append)
        dissimilarity_under_metric(points(3, 40), np.diag([2.0, 1.0, 0.5]))
        assert calls == [0]
        d = euclidean_dissimilarity(points(4, 400))
        assert calls == [0, 0]
        vat = vat_reorder(d)
        for scale in ("linear", "rank"):
            render(vat, scale)
        skewed = mirrored_input(d)
        assert not np.shares_memory(validate_dissimilarity(skewed), skewed)
        cs = ConstraintSet(frozenset({(0, 1)}), frozenset({(2, 3)}), 400)
        ssl(d, cs, 2)
        ccl(d, cs, 2)
        hac(d, 2, "complete")
        assert calls == [0, 0]

    def test_no_trim_where_the_c_library_has_none(self, monkeypatch):
        data = points(3, 400)
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        trimmed = dissimilarity_under_metric(data, a)
        monkeypatch.setattr(metric, "_TRIM", None)
        d = dissimilarity_under_metric(data, a)
        assert d.tobytes() == trimmed.tobytes()
        skewed = mirrored_input(d)
        v = validate_dissimilarity(skewed)
        assert v[1, 0] == v[0, 1] == skewed[0, 1] and np.array_equal(v[2:], d[2:])
        e, _ = _edit(d, ConstraintSet(frozenset({(0, 1)}), frozenset(), 400))
        assert e[0, 1] == e[1, 0] == 0.0 and np.array_equal(e[2:], d[2:])

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="malloc_trim is glibc's")
    def test_trim_found_on_linux(self):
        assert callable(metric._heap_trim())

    def test_lookup_finds_nothing_without_malloc_trim(self, monkeypatch):
        monkeypatch.setattr(metric.ctypes, "CDLL", lambda name: SimpleNamespace())
        assert metric._heap_trim() is None


class TestValidatedCopy:
    @pytest.mark.parametrize("n", [5, 400])
    def test_equal_bytes_no_shared_memory(self, n):
        d = random_dissimilarity(np.random.default_rng(n), n)
        c = _validated_copy(d)
        assert c.tobytes() == d.tobytes()
        assert not np.shares_memory(c, d)


class TestCallers:
    def test_distances_are_symmetric_and_within_the_difference_bound(self):
        data = points(3, 368)
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        got = dissimilarity_under_metric(data, a)
        assert got.tobytes() == got.T.tobytes()
        assert np.all(np.abs(got * got - difference_distances(data.points, a)) <= difference_distance_bound(data.points, a))

    def test_rank_image_is_an_n_by_n_uint8_matrix(self):
        img = render(vat_reorder(euclidean_dissimilarity(points(9, 300))), scale="rank")
        assert img.pixels.shape == (300, 300) and img.pixels.dtype == np.uint8

    def test_edit_copies_its_input(self):
        d = euclidean_dissimilarity(points(5, 400))
        e, _ = _edit(d, ConstraintSet(frozenset({(0, 1)}), frozenset({(2, 3)}), 400))
        assert not np.shares_memory(e, d)


def heap_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestHeapPeak:
    """The result is the only n x n block a dense pass allocates."""

    def test_distances_finish_tiles_in_fixed_scratch(self):
        # two tile-sized scratch blocks, the mapped points and NumPy's
        # iteration buffers stay under a quarter matrix at this size, an
        # n x n temporary comes to four
        n = 5 * _TILE + 1
        data = points(11, n)
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        d, peak = heap_peak(dissimilarity_under_metric, data, a)
        assert peak - d.nbytes < d.nbytes / 4, peak

    @pytest.mark.parametrize("scale", ["linear", "rank"])
    def test_render_fills_the_image_in_place(self, scale):
        n = 8 * _TILE + 1
        vat = VatResult(order=np.arange(n), cut_magnitudes=np.random.default_rng(13).random(n - 1))
        img, peak = heap_peak(render, vat, scale)
        assert peak - img.pixels.nbytes < img.pixels.nbytes / 4, peak
