"""n x n matrix allocation: mapped from 1 MiB up after a heap trim, heap below, same values either way."""

import mmap
import sys
import weakref

import numpy as np
import pytest

from conivat import ConstraintSet, FeatureMatrix, ccl, euclidean_dissimilarity, hac, render, ssl, vat_reorder
from conivat import _matrix
from conivat._matrix import copy_matrix, empty_matrix
from conivat.clustering import _edit
from conivat.metric import dissimilarity_under_metric
from oracles import gram_distances

N_MAPPED = int(np.ceil(np.sqrt(_matrix._MAP_BYTES / 8)))  # smallest mapped side, 363


def mapping(a):
    """The ``mmap`` under ``a``'s chain of bases, or None for heap memory."""
    while a is not None and not isinstance(a, mmap.mmap):
        a = a.obj if isinstance(a, memoryview) else getattr(a, "base", None)
    return a


def points(seed: int, n: int) -> FeatureMatrix:
    return FeatureMatrix(np.random.default_rng(seed).normal(size=(n, 3)))


class TestEmptyMatrix:
    def test_below_the_threshold_from_the_heap(self):
        a = empty_matrix(N_MAPPED - 1)
        assert mapping(a) is None and a.flags.owndata
        assert a.shape == (N_MAPPED - 1, N_MAPPED - 1) and a.dtype == np.float64

    @pytest.mark.parametrize("n", [N_MAPPED, 750])
    def test_from_the_threshold_mapped(self, n):
        a = empty_matrix(n)
        assert isinstance(mapping(a), mmap.mmap)
        assert a.shape == (n, n) and a.dtype == np.float64
        assert a.flags.writeable and a.flags.c_contiguous and a.flags.aligned
        a[...] = 1.5
        assert a.sum() == 1.5 * n * n

    def test_mapping_released_with_the_array(self):
        a = empty_matrix(N_MAPPED)
        ref = weakref.ref(mapping(a))
        view = a[1:, 1:]
        del a
        assert ref() is not None  # a view keeps the mapping alive
        del view
        assert ref() is None


    def test_other_dtypes_map_from_the_same_byte_threshold(self):
        side = int(np.ceil(np.sqrt(_matrix._MAP_BYTES)))  # uint8: one byte per entry
        small, large = empty_matrix(side - 1, np.uint8), empty_matrix(side, np.uint8)
        assert mapping(small) is None and isinstance(mapping(large), mmap.mmap)
        assert small.dtype == large.dtype == np.uint8 and large.shape == (side, side)

    def test_heap_trimmed_before_each_mapping_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_matrix, "_TRIM", lambda pad: calls.append(pad))
        empty_matrix(N_MAPPED - 1)
        assert calls == []
        empty_matrix(N_MAPPED)
        assert calls == [0]

    def test_no_trim_where_the_c_library_has_none(self, monkeypatch):
        monkeypatch.setattr(_matrix, "_TRIM", None)
        assert isinstance(mapping(empty_matrix(N_MAPPED)), mmap.mmap)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="malloc_trim is glibc's")
    def test_trim_found_on_linux(self):
        assert callable(_matrix._heap_trim())


class TestCopyMatrix:
    @pytest.mark.parametrize("n", [5, N_MAPPED])
    def test_equal_bytes_no_shared_memory(self, n):
        d = np.random.default_rng(n).random((n, n))
        c = copy_matrix(d)
        assert c.tobytes() == d.tobytes()
        assert not np.shares_memory(c, d)


class TestMappedCallers:
    def test_distances_match_the_whole_gram_formula(self):
        data = points(3, N_MAPPED + 5)
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        got = dissimilarity_under_metric(data, a)
        assert mapping(got) is not None
        assert got.tobytes() == gram_distances(data.points, a).tobytes()

    def test_rank_image_is_mapped(self):
        side = int(np.ceil(np.sqrt(_matrix._MAP_BYTES)))
        img = render(vat_reorder(euclidean_dissimilarity(points(9, side))), scale="rank")
        assert isinstance(mapping(img.pixels), mmap.mmap) and img.pixels.dtype == np.uint8

    def test_edit_copy_is_mapped(self):
        d = euclidean_dissimilarity(points(5, N_MAPPED))
        e, _ = _edit(d, ConstraintSet(frozenset({(0, 1)}), frozenset({(2, 3)}), N_MAPPED))
        assert mapping(e) is not None and not np.shares_memory(e, d)

    def test_same_partitions_from_heap_and_mapped_copies(self, monkeypatch):
        d = euclidean_dissimilarity(points(7, N_MAPPED))
        before = d.copy()
        cs = ConstraintSet(frozenset({(0, 1), (4, 9)}), frozenset({(2, 3), (1, 8)}), N_MAPPED)

        def run():
            return [hac(d, 4, "complete").labels, ssl(d, cs, 4).labels, ccl(d, cs, 4).labels]

        mapped = run()
        monkeypatch.setattr(_matrix, "_MAP_BYTES", 1 << 62)
        heap = run()
        for m, h in zip(mapped, heap):
            assert np.array_equal(m, h)
        assert d.tobytes() == before.tobytes()  # the callers copy, never write their input
