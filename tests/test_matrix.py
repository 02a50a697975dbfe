"""n x n matrix allocation: NumPy arrays, each taken after one heap trim."""

import sys
import tracemalloc

import numpy as np
import pytest

from conivat import ConstraintSet, FeatureMatrix, VatResult, euclidean_dissimilarity, render, vat_reorder
from conivat import _matrix
from conivat._matrix import copy_matrix, empty_matrix
from conivat.clustering import _edit
from conivat.metric import _TILE, dissimilarity_under_metric
from oracles import gram_distances


def points(seed: int, n: int) -> FeatureMatrix:
    return FeatureMatrix(np.random.default_rng(seed).normal(size=(n, 3)))


class TestEmptyMatrix:
    def test_heap_trimmed_once_per_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_matrix, "_TRIM", calls.append)
        a = empty_matrix(3)
        assert calls == [0]
        b = empty_matrix(400, np.uint8)
        assert calls == [0, 0]
        a[...] = 1.5
        copy_matrix(a)
        assert calls == [0, 0, 0]
        assert a.shape == (3, 3) and a.dtype == np.float64
        assert b.shape == (400, 400) and b.dtype == np.uint8
        assert b.flags.writeable and b.flags.c_contiguous and b.flags.aligned

    def test_no_trim_where_the_c_library_has_none(self, monkeypatch):
        monkeypatch.setattr(_matrix, "_TRIM", None)
        a = empty_matrix(400)
        a[...] = 1.5
        assert a.shape == (400, 400) and a.sum() == 1.5 * 400 * 400
        assert copy_matrix(a).tobytes() == a.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="malloc_trim is glibc's")
    def test_trim_found_on_linux(self):
        assert callable(_matrix._heap_trim())


class TestCopyMatrix:
    @pytest.mark.parametrize("n", [5, 400])
    def test_equal_bytes_no_shared_memory(self, n):
        d = np.random.default_rng(n).random((n, n))
        c = copy_matrix(d)
        assert c.tobytes() == d.tobytes()
        assert not np.shares_memory(c, d)


class TestCallers:
    def test_distances_match_the_whole_gram_formula(self):
        data = points(3, 368)
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        got = dissimilarity_under_metric(data, a)
        assert got.tobytes() == gram_distances(data.points, a).tobytes()

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
        # three tile-sized scratch blocks and NumPy's iteration buffers come
        # to about half a quarter matrix at this size, an n x n temporary to four
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
