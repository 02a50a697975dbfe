"""Minimax image rendering from VAT cut magnitudes and the binary PGM writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conivat import (
    ConstraintSet,
    RdiImage,
    VatResult,
    conivat_pipeline,
    generate_from_labels,
    render,
    vat_reorder,
    write_pgm,
)
from conivat.rdi import SCALES
from oracles import (
    integer_dissimilarity,
    linear_render,
    random_dissimilarity,
    rank_render,
    read_pgm,
    running_max_image,
)


def as_vat(d):
    return vat_reorder(np.asarray(d, dtype=float))


def from_cuts(cuts):
    """A chain traversal of len(cuts) + 1 objects admitted in index order."""
    n = len(cuts) + 1
    return VatResult(order=np.arange(n), cut_magnitudes=np.asarray(cuts, dtype=float))


def assert_matches_oracles(vat):
    image = running_max_image(vat.cut_magnitudes)
    assert np.array_equal(render(vat, scale="rank").pixels, rank_render(image))
    assert np.array_equal(render(vat, scale="linear").pixels, linear_render(image))


class TestRender:
    def test_all_zero_matrix_is_black(self):
        img = render(as_vat(np.zeros((4, 4))), scale="linear")
        assert np.array_equal(img.pixels, np.zeros((4, 4), dtype=np.uint8))

    def test_two_value_matrix_hits_endpoints(self):
        d = np.array([[0.0, 3.7], [3.7, 0.0]])
        img = render(as_vat(d), scale="linear")
        assert set(np.unique(img.pixels).tolist()) == {0, 255}

    def test_linear_three_value_example(self):
        img = render(from_cuts([1.0, 2.0, 4.0]), scale="linear")
        assert set(np.unique(img.pixels).tolist()) == {0, 64, 128, 255}

    def test_rank_scale_spreads_heavy_tail(self):
        vat = from_cuts([1.0, 2.0, 1000.0])
        img = render(vat, scale="rank")
        assert set(np.unique(img.pixels).tolist()) == {0, 128, 255}
        # linear scaling crushes the two small values into near-black instead
        lin = render(vat, scale="linear")
        assert np.max(lin.pixels[lin.pixels < 255]) <= 1

    def test_rank_single_distinct_value_saturates(self):
        d = np.ones((4, 4)) - np.eye(4)
        img = render(as_vat(d), scale="rank")
        assert set(np.unique(img.pixels).tolist()) == {0, 255}
        assert np.all(np.diag(img.pixels) == 0)

    def test_single_point(self):
        for scale in ("linear", "rank"):
            img = render(as_vat(np.zeros((1, 1))), scale=scale)
            assert img.pixels.shape == (1, 1) and img.pixels[0, 0] == 0

    def test_monotone_in_distance_both_scales(self):
        rng = np.random.default_rng(3)
        for scale in ("linear", "rank"):
            vat = as_vat(random_dissimilarity(rng, 12))
            img = render(vat, scale=scale)
            order = np.argsort(running_max_image(vat.cut_magnitudes), axis=None)
            px = img.pixels.ravel()[order]
            assert np.all(np.diff(px.astype(int)) >= 0)

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            render(as_vat(np.zeros((2, 2))), scale="log")

    def test_image_validation(self):
        with pytest.raises(ValueError):
            RdiImage(np.zeros((2, 3), dtype=np.uint8))

    def test_covered_cluster_renders_zero_block(self, two_blobs):
        # similar constraints spanning one whole blob weld it to distance 0,
        # which survives the minimax transform as a contiguous black block
        chain = frozenset((i, i + 1) for i in range(9))
        vat, _ = conivat_pipeline(two_blobs, ConstraintSet(chain, frozenset(), 20), variant="conivat")
        img = render(vat, scale="linear")
        positions = sorted(int(np.flatnonzero(vat.order == i)[0]) for i in range(10))
        assert positions == list(range(positions[0], positions[0] + 10))
        block = img.pixels[np.ix_(positions, positions)]
        assert np.all(block == 0)


class TestRankRenderMatchesOracle:
    """Pixels from the cut levels against rendering the whole running-max image."""

    def test_random_tied_zero_and_single_valued(self):
        rng = np.random.default_rng(83)
        mats = [random_dissimilarity(rng, n) for n in (2, 3, 17, 40)]
        # 2 and 4 levels: heavy ties; 300 levels: more distinct values than pixel levels
        mats += [integer_dissimilarity(rng, n, levels) for n in (5, 30) for levels in (2, 4, 300)]
        mats += [np.zeros((5, 5)), np.ones((6, 6)) - np.eye(6), 7.0 * (np.ones((3, 3)) - np.eye(3))]
        for d in mats:
            assert_matches_oracles(vat_reorder(d))

    def test_both_scales_on_a_large_tie_dense_matrix(self):
        assert_matches_oracles(vat_reorder(integer_dissimilarity(np.random.default_rng(97), 300, levels=1000)))

    def test_levels_collapse_past_255_distinct_cuts(self):
        # 300 distinct cuts share the 256 pixel levels
        vat = from_cuts(np.random.default_rng(101).permutation(300))
        assert_matches_oracles(vat)
        for scale in SCALES:
            assert np.unique(render(vat, scale=scale).pixels).size == 256

    def test_pipeline_images(self, two_blobs):
        cs = generate_from_labels(two_blobs, 12, seed=2)
        for variant in ("ivat", "conivat"):
            vat, _ = conivat_pipeline(two_blobs, cs, variant=variant)
            assert_matches_oracles(vat)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_oracle_on_drawn_cut_vectors(self, data):
        # few levels give ties and zeros, 600 levels mostly distinct cuts
        n = data.draw(st.integers(1, 30), label="n")
        top = data.draw(st.sampled_from([0, 1, 3, 600]), label="top")
        cuts = data.draw(st.lists(st.integers(0, top), min_size=n - 1, max_size=n - 1), label="cuts")
        assert_matches_oracles(from_cuts(cuts))


class TestWritePgm:
    def test_single_black_pixel_exact_bytes(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm(RdiImage(np.zeros((1, 1), dtype=np.uint8)), path)
        assert path.read_bytes() == b"P5\n1 1\n255\n" + b"\x00"

    def test_three_by_three_file_size(self, tmp_path):
        path = tmp_path / "three.pgm"
        write_pgm(RdiImage(np.arange(9, dtype=np.uint8).reshape(3, 3)), path)
        assert path.stat().st_size == len(b"P5\n3 3\n255\n") + 9

    def test_non_contiguous_view_writes_row_major_bytes(self, tmp_path):
        px = np.arange(16, dtype=np.uint8).reshape(4, 4)
        img = RdiImage(px.T)
        assert not img.pixels.flags.c_contiguous
        path = tmp_path / "view.pgm"
        write_pgm(img, path)
        assert path.read_bytes() == b"P5\n4 4\n255\n" + px.T.tobytes()

    def test_round_trip_against_reader_oracle(self, tmp_path):
        rng = np.random.default_rng(9)
        for idx in range(5):
            n = int(rng.integers(1, 40))
            img = render(as_vat(random_dissimilarity(rng, n)), scale="rank")
            path = tmp_path / f"rt{idx}.pgm"
            write_pgm(img, path)
            pixels, maxval = read_pgm(path)
            assert maxval == 255
            assert np.array_equal(pixels, img.pixels)
