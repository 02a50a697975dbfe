"""Grayscale reordered-dissimilarity images and a binary PGM writer.

Black pixels mark low dissimilarity, white high, so clusters in a VAT or
ConiVAT ordering appear as dark blocks along the diagonal. Linear scaling
maps distances affinely onto 0..255; rank scaling spreads the distinct
off-diagonal values evenly, which keeps structure visible when a single
far-out pair would otherwise compress everything toward black.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vat import VatResult

SCALES = ("linear", "rank")
_BLOCK_ROWS = 256


def _to_uint8(px: np.ndarray) -> np.ndarray:
    if np.any(px < 0) or np.any(px > 255):
        raise ValueError("pixel values must lie in [0, 255]")
    return px.astype(np.uint8)


@dataclass(frozen=True)
class RdiImage:
    """Square grayscale pixel array, one pixel per matrix entry."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape[0] != px.shape[1]:
            raise ValueError(f"pixel array must be square, got shape {px.shape}")
        if px.dtype != np.uint8:
            px = _to_uint8(px)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def render(vat: VatResult, scale: str = "linear") -> RdiImage:
    """Map the reordered matrix to intensities; both scales are monotone.

    linear: round(255 * d / max(d)); an all-zero matrix renders black.
    rank: round(255 * rank / (m - 1)) over the m distinct off-diagonal
    values (a single distinct positive value renders 255; the diagonal's
    zeros always render black). Rank pixels are mapped through the values
    where the 8-bit level steps up, so the n x n pass searches at most 255
    of them. Both scales work a block of rows at a time.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    d = vat.reordered
    n = d.shape[0]
    if scale == "linear":
        mx = float(d.max()) if n else 0.0
        px = np.zeros((n, n), dtype=np.uint8)
        if mx != 0.0:
            for a in range(0, n, _BLOCK_ROWS):
                px[a:a + _BLOCK_ROWS] = _to_uint8(np.rint(255.0 * d[a:a + _BLOCK_ROWS] / mx))
        return RdiImage(px)
    # every off-diagonal entry: the flat array minus its diagonal, which
    # falls at the end of each (n + 1)-long stretch after the first element;
    # taken a block at a time, so only one block is copied for sorting
    off = d.ravel()[1:].reshape(n - 1, n + 1)[:, :-1]
    blocks = [np.unique(off[a:a + _BLOCK_ROWS]) for a in range(0, n - 1, _BLOCK_ROWS)]
    distinct = np.unique(np.concatenate(blocks)) if blocks else np.empty(0)
    m = distinct.size
    if m <= 1:
        return RdiImage(np.where(d == 0.0, np.uint8(0), np.uint8(255)))
    levels = np.rint(255.0 * np.arange(m) / (m - 1)).astype(np.uint8)
    # a pixel's level is that of the last rank where the level steps up at
    # or below its value, so at most 255 thresholds decide every pixel
    steps = np.flatnonzero(levels[1:] > levels[:-1]) + 1
    thresholds = distinct[steps]
    table = np.concatenate((levels[:1], levels[steps]))
    px = np.empty((n, n), dtype=np.uint8)
    for a in range(0, n, _BLOCK_ROWS):
        np.take(table, np.searchsorted(thresholds, d[a:a + _BLOCK_ROWS], side="right"), out=px[a:a + _BLOCK_ROWS])
    # the diagonal takes the level of the off-diagonal values below it: a
    # zero diagonal renders black
    ranks = np.searchsorted(distinct, d.diagonal())
    np.fill_diagonal(px, levels[np.minimum(ranks, m - 1)])
    return RdiImage(px)


def write_pgm(img: RdiImage, path) -> None:
    """Binary PGM (P5, maxval 255): header then row-major pixel bytes."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    payload = np.ascontiguousarray(img.pixels, dtype=np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)
