"""Grayscale minimax (iVAT) images and a binary PGM writer.

Black pixels mark low dissimilarity, white high, so clusters in a VAT or
ConiVAT ordering appear as dark blocks along the diagonal. An image is drawn
from a traversal's cut magnitudes alone: entry (s, t) of the minimax matrix
in VAT order is the largest cut between positions s and t. Linear scaling
maps distances affinely onto 0..255; rank scaling spreads the distinct
values evenly, which keeps structure visible when a single far-out pair
would otherwise compress everything toward black.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vat import VatResult, _running_max_matrix

SCALES = ("linear", "rank")


def _to_uint8(px: np.ndarray) -> np.ndarray:
    # written so that a NaN fails too: it compares false both ways
    if not (np.all(px >= 0) and np.all(px <= 255)):
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
    """Draw the minimax matrix of a traversal in its order, from its cuts.

    linear: round(255 * d / max(d)); an all-zero matrix renders black.
    rank: round(255 * rank / (m - 1)) over the m distinct off-diagonal
    values, which are the distinct cuts (a single distinct positive value
    renders 255). The diagonal is black. Both maps are monotone, so the
    level of a running maximum is the running maximum of the levels: the
    n - 1 cuts are mapped to 8-bit levels, and those fill the image.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    cuts = vat.cut_magnitudes
    if scale == "linear":
        mx = float(cuts.max()) if cuts.size else 0.0
        levels = np.rint(255.0 * cuts / mx) if mx != 0.0 else np.zeros_like(cuts)
    else:
        distinct, ranks = np.unique(cuts, return_inverse=True)
        m = distinct.size
        levels = np.rint(255.0 * ranks / (m - 1)) if m > 1 else np.where(cuts == 0.0, 0, 255)
    return RdiImage(_running_max_matrix(_to_uint8(levels)))


def write_pgm(img: RdiImage, path) -> None:
    """Binary PGM (P5, maxval 255): header then row-major pixel bytes."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    pixels = np.ascontiguousarray(img.pixels, dtype=np.uint8)  # copies only a non-contiguous view
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels)
