"""Dataset ingestion, min-max normalization, and synthetic 2-D generators.

CSV convention: comma separated, optional header row, UTF-8. Feature cells
must parse as finite floats; rows that fail are dropped (listwise deletion)
and the drop count is returned alongside the data. Label columns may hold
integers or arbitrary strings (strings are mapped to ids by sorted order).

All randomness comes from ``numpy.random.default_rng`` (PCG64) so that
generator output is bit-for-bit reproducible from ``(seed, parameters)``
across platforms. Benchmark code derives per-trial seeds by spawning
``numpy.random.SeedSequence`` children from one master seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from itertools import compress
from numbers import Integral

import numpy as np


@dataclass(frozen=True)
class FeatureMatrix:
    """N x p numeric data with optional ground-truth labels."""

    points: np.ndarray
    labels: np.ndarray | None = None
    names: list[str] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a non-empty 2-D array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite entries")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = _int_labels(self.labels)
            if lab.shape != (pts.shape[0],):
                raise ValueError(f"labels length {lab.shape} != number of rows {pts.shape[0]}")
            if lab.min() < 0:
                raise ValueError("labels must be >= 0")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return int(np.unique(self.labels).size)


def _is_index(v) -> bool:
    """True for an integer, NumPy's included; a bool or an integral float is not one."""
    # a plain int first: the ABC check costs ten times as much
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


def _int_labels(values) -> np.ndarray:
    """``values`` as an int array; ``ValueError`` if a float value is not an int64 integer (NaN included)."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and values beyond int64 cast to garbage, caught below
        lab = raw.astype(int)
    if raw.dtype.kind == "f" and not np.array_equal(lab, raw):
        raise ValueError(f"labels must be integers, got {float(raw[lab != raw].flat[0])}")
    return lab


def _parse_labels(raw: list[str], path) -> np.ndarray:
    """Map raw label cells of the file ``path`` to integer ids >= 0.

    Integral numeric labels are used as-is; anything else is factorized by
    sorted unique value so the mapping is deterministic. Raises
    ``ValueError`` naming ``path`` when an integral label does not fit a
    64-bit integer.
    """
    try:
        vals = [float(s) for s in raw]
    except ValueError:
        vals = None
    if vals is not None and all(v.is_integer() and v >= 0 for v in vals):
        big = next((s for s, v in zip(raw, vals) if v >= 2.0**63), None)
        if big is not None:
            raise ValueError(f"{path}: label {big!r} does not fit a 64-bit integer")
        return np.array([int(v) for v in vals], dtype=int)
    uniq = sorted(set(raw))
    lut = {s: i for i, s in enumerate(uniq)}
    return np.array([lut[s] for s in raw], dtype=int)


def load_csv(path, label_column: str | int | None = None) -> tuple[FeatureMatrix, int]:
    """Load a numeric CSV, returning ``(data, n_dropped)``.

    ``label_column`` selects the class column by header name or 0-based
    integer index; a bool is neither. Blank rows, and rows whose cells are
    all whitespace, are skipped. A row with a missing, unparseable or
    non-finite (``nan``, ``inf``, overflowing) feature cell is dropped;
    ``n_dropped`` counts them. Raises ``ValueError`` when no usable rows
    remain, the label column cannot be found or an integral label does not
    fit a 64-bit integer, ``OSError`` on unreadable files.

    Every feature cell is read as ``float(cell.strip())``, one column at a
    time. A column in which some cell does not parse is read again cell by
    cell, that cell becoming NaN, so its row is dropped with the rest.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if any(map(str.strip, r))]
    if not rows:
        raise ValueError(f"{path}: no rows")

    header: list[str] | None = None
    first = [c.strip() for c in rows[0]]
    if all(_to_float(c) is None for c in first):
        header = first
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header only, no data rows")

    arity = len(rows[0])
    label_idx: int | None = None
    if label_column is not None:
        if _is_index(label_column):
            label_idx = label_column
        else:
            if header is None or label_column not in header:
                raise ValueError(f"{path}: label column {label_column!r} not found")
            label_idx = header.index(label_column)
        if not 0 <= label_idx < arity:
            raise ValueError(f"{path}: label column index {label_idx} out of range for arity {arity}")

    for r in rows:
        if len(r) != arity:
            raise ValueError(f"{path}: inconsistent row arity (expected {arity}, got {len(r)})")
    columns = list(zip(*rows))
    feat_idx = [j for j in range(arity) if j != label_idx]
    points = np.empty((len(rows), len(feat_idx)))
    for k, j in enumerate(feat_idx):
        points[:, k] = _parse_column(columns[j])
    keep = np.isfinite(points).all(axis=1)
    dropped = len(rows) - int(np.count_nonzero(keep))
    if dropped == len(rows):
        raise ValueError(f"{path}: zero usable rows ({dropped} dropped)")

    labels = None
    if label_idx is not None:
        labels = _parse_labels([c.strip() for c in compress(columns[label_idx], keep)], path)
    names = [header[j] for j in feat_idx] if header is not None else None
    return FeatureMatrix(points[keep], labels, names), dropped


def _parse_column(cells) -> np.ndarray:
    """``float(c.strip())`` for every cell, NaN where that raises."""
    try:
        return np.fromiter(map(float, map(str.strip, cells)), float, len(cells))
    except ValueError:
        return np.array([_to_float(c.strip()) for c in cells], dtype=float)


def _to_float(s: str):
    if not s:
        return None
    try:
        v = float(s)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def load_iris() -> FeatureMatrix:
    """Bundled 150 x 4 iris dataset with 3 classes."""
    path = resources.files("conivat.datasets") / "iris.csv"
    with resources.as_file(path) as p:
        data, _ = load_csv(p, label_column="species")
    return data


def normalize_minmax(data: FeatureMatrix) -> FeatureMatrix:
    """Rescale each column to [0, 1]; constant columns map to all zeros.

    Idempotent: normalizing an already-normalized matrix is exact. Raises
    ``ValueError`` naming the first column whose range overflows a float
    (say -1e308 to 1e308), which could not be rescaled.
    """
    pts = data.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    too_wide = np.flatnonzero(~np.isfinite(span))
    if too_wide.size:
        j = int(too_wide[0])
        name = f" {data.names[j]!r}" if data.names is not None else ""
        raise ValueError(
            f"feature column {j}{name} spans {float(lo[j])!r} to {float(hi[j])!r}, "
            "a range too wide to rescale in double precision"
        )
    out = np.zeros_like(pts)
    nonconst = span > 0
    out[:, nonconst] = (pts[:, nonconst] - lo[nonconst]) / span[nonconst]
    return FeatureMatrix(out, data.labels, data.names)


def gen_gaussian_mixture(
    seed: int,
    k: int,
    sizes,
    centers,
    sigmas,
    bridge_points: int = 0,
) -> FeatureMatrix:
    """Sample labeled points from k isotropic 2-D Gaussians plus bridge points.

    Bridge points are placed on the segment between two randomly chosen
    distinct cluster centers at uniform t in [0.3, 0.7] and labeled by the
    nearest center; they model inliers that chain clusters together.

    `sigmas` gives one spread per cluster: either a scalar (isotropic) or an
    (sx, sy) pair for axis-aligned anisotropic clusters whose stragglers sit
    far from the dense core along one axis.
    """
    sizes = list(sizes)
    centers = np.asarray(centers, dtype=float)
    sigmas = np.asarray([np.broadcast_to(np.asarray(s, dtype=float), (2,)) for s in sigmas])
    if not (k >= 1 and len(sizes) == k and centers.shape == (k, 2) and sigmas.shape == (k, 2)):
        raise ValueError("sizes, centers, sigmas must all describe k clusters")
    rng = np.random.default_rng(seed)
    chunks, labels = [], []
    for c in range(k):
        chunks.append(centers[c] + sigmas[c] * rng.standard_normal((sizes[c], 2)))
        labels.extend([c] * sizes[c])
    for _ in range(bridge_points):
        a, b = rng.choice(k, size=2, replace=False)
        t = rng.uniform(0.3, 0.7)
        pt = (1.0 - t) * centers[a] + t * centers[b]
        chunks.append(pt[None, :])
        labels.append(int(np.argmin(np.linalg.norm(centers - pt, axis=1))))
    return FeatureMatrix(np.vstack(chunks), np.array(labels, dtype=int))


def gen_banana(seed: int, arcs: int, per_arc: int) -> FeatureMatrix:
    """Interleaved semi-elliptical arcs with Gaussian jitter, one label per arc."""
    if arcs < 1:
        raise ValueError("arcs must be >= 1")
    rng = np.random.default_rng(seed)
    a, b, jitter = 3.0, 2.0, 0.18
    chunks, labels = [], []
    for i in range(arcs):
        theta = rng.uniform(0.0, np.pi, size=per_arc)
        flip = 1.0 if i % 2 == 0 else -1.0
        cx = 2.2 * i
        cy = 0.0 if i % 2 == 0 else 0.9
        x = cx + a * np.cos(theta)
        y = cy + flip * b * np.sin(theta)
        pts = np.column_stack([x, y]) + jitter * rng.standard_normal((per_arc, 2))
        chunks.append(pts)
        labels.extend([i] * per_arc)
    return FeatureMatrix(np.vstack(chunks), np.array(labels, dtype=int))


def synth1(seed: int = 0) -> FeatureMatrix:
    """Canonical 400-point benchmark mixture: 4 Gaussians and 12 bridges.

    Clusters sit on a line, tight along it but with long perpendicular tails,
    so stragglers and the bridge inliers break plain single-linkage structure
    while the shared separation axis remains recoverable from constraints.
    """
    return gen_gaussian_mixture(
        seed,
        k=4,
        sizes=[97, 97, 97, 97],
        centers=[[0.0, 0.0], [14.0, 0.0], [28.0, 0.0], [42.0, 0.0]],
        sigmas=[(0.4, 3.0)] * 4,
        bridge_points=12,
    )


def synth2(seed: int = 0) -> FeatureMatrix:
    """Canonical 750-point benchmark of 3 interleaved arcs."""
    return gen_banana(seed, arcs=3, per_arc=250)
