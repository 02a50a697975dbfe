"""Reordered-dissimilarity image rendering and the binary PGM writer."""

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
from conivat.rdi import _BLOCK_ROWS
from oracles import integer_dissimilarity, random_dissimilarity, rank_render, read_pgm


def as_vat(d):
    return vat_reorder(np.asarray(d, dtype=float))


class TestRender:
    def test_all_zero_matrix_is_black(self):
        img = render(as_vat(np.zeros((4, 4))), scale="linear")
        assert np.array_equal(img.pixels, np.zeros((4, 4), dtype=np.uint8))

    def test_two_value_matrix_hits_endpoints(self):
        d = np.array([[0.0, 3.7], [3.7, 0.0]])
        img = render(as_vat(d), scale="linear")
        assert set(np.unique(img.pixels).tolist()) == {0, 255}

    def test_linear_three_value_example(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 1.0
        d[1, 2] = d[2, 1] = 2.0
        d[0, 2] = d[2, 0] = 4.0
        img = render(as_vat(d), scale="linear")
        assert set(np.unique(img.pixels).tolist()) == {0, 64, 128, 255}

    def test_rank_scale_spreads_heavy_tail(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 1.0
        d[1, 2] = d[2, 1] = 2.0
        d[0, 2] = d[2, 0] = 1000.0
        img = render(as_vat(d), scale="rank")
        assert set(np.unique(img.pixels).tolist()) == {0, 128, 255}
        # linear scaling crushes the two small values into near-black instead
        lin = render(as_vat(d), scale="linear")
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
            order = np.argsort(vat.reordered, axis=None)
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
    """Rank pixels through the level-step thresholds against ranking every entry."""

    def test_random_tied_zero_and_single_valued(self):
        rng = np.random.default_rng(83)
        mats = [random_dissimilarity(rng, n) for n in (2, 3, 17, 40)]
        # 2 and 4 levels: heavy ties; 300 levels: more distinct values than pixel levels
        mats += [integer_dissimilarity(rng, n, levels) for n in (5, 30) for levels in (2, 4, 300)]
        mats += [np.zeros((5, 5)), np.ones((6, 6)) - np.eye(6), 7.0 * (np.ones((3, 3)) - np.eye(3))]
        for d in mats:
            vat = vat_reorder(d)
            assert np.array_equal(render(vat, scale="rank").pixels, rank_render(vat.reordered))

    def test_both_scales_across_row_blocks(self):
        d = integer_dissimilarity(np.random.default_rng(97), _BLOCK_ROWS + 44, levels=1000)
        vat = vat_reorder(d)
        assert np.array_equal(render(vat, scale="rank").pixels, rank_render(vat.reordered))
        want = np.rint(255.0 * vat.reordered / vat.reordered.max()).astype(np.uint8)
        assert np.array_equal(render(vat, scale="linear").pixels, want)

    def test_pipeline_images(self, two_blobs):
        cs = generate_from_labels(two_blobs, 12, seed=2)
        for variant in ("ivat", "conivat"):
            vat, _ = conivat_pipeline(two_blobs, cs, variant=variant)
            assert np.array_equal(render(vat, scale="rank").pixels, rank_render(vat.reordered))

    def test_diagonal_within_tolerance_keeps_its_rank(self):
        # a diagonal entry of 5e-13 ranks above the off-diagonal zeros
        d = integer_dissimilarity(np.random.default_rng(89), 8)
        np.fill_diagonal(d, 5e-13)
        vat = vat_reorder(d)
        px = render(vat, scale="rank").pixels
        assert np.array_equal(px, rank_render(vat.reordered))
        assert np.all(np.diag(px) == 128)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_oracle_on_drawn_integer_matrices(self, data):
        # up to 435 pairs, so some draws hold more distinct values than pixel levels
        n = data.draw(st.integers(1, 30), label="n")
        upper = data.draw(st.lists(st.integers(0, 600), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = upper
        vat = VatResult(np.arange(n), d + d.T, np.arange(n) - 1, np.zeros(max(n - 1, 0)))
        assert np.array_equal(render(vat, scale="rank").pixels, rank_render(vat.reordered))


class TestWritePgm:
    def test_single_black_pixel_exact_bytes(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm(RdiImage(np.zeros((1, 1), dtype=np.uint8)), path)
        assert path.read_bytes() == b"P5\n1 1\n255\n" + b"\x00"

    def test_three_by_three_file_size(self, tmp_path):
        path = tmp_path / "three.pgm"
        write_pgm(RdiImage(np.arange(9, dtype=np.uint8).reshape(3, 3)), path)
        assert path.stat().st_size == len(b"P5\n3 3\n255\n") + 9

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
