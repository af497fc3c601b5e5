"""Polar-sector motion descriptors and their standardize+PCA reduction.

Each frame pair is pooled over an R x TH annular-sector grid centered on
the image center. Every sector contributes 6 features in fixed order:
[mean v_r, mean v_theta, std v_r, std v_theta, mean gray, std gray],
where v_r / v_theta are the radial and tangential flow projections.
The partition is built once per grid and frame size (`_sector_geometry`),
so each frame pair only gathers its disc pixels and pools them.
Descriptors are standardized column-wise and reduced by PCA to the
per-frame low-dimensional state vector z_t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    INT64_MAX,
    DimensionError,
    InsufficientDataError,
    ModelError,
    NumericError,
    ParameterError,
    check_shapes,
)
from .flow import FlowField
from .seqio import FrameSequence

FEATURES_PER_SECTOR = 6


@dataclass(frozen=True)
class SectorGrid:
    """R x TH polar partition of the image disc."""

    r_bins: int = 4
    theta_bins: int = 12
    center: tuple[float, float] | None = None  # (cx, cy); None = image center
    r_max: float | None = None  # None = min(H, W) / 2

    def __post_init__(self):
        if not (1 <= self.r_bins <= INT64_MAX and 1 <= self.theta_bins <= INT64_MAX):
            raise ParameterError(f"r_bins and theta_bins must be >= 1 and fit int64, "
                                 f"got {self.r_bins}, {self.theta_bins}")
        if self.r_max is not None and not (self.r_max > 0 and math.isfinite(self.r_max)):
            raise ParameterError(f"r_max must be > 0 and finite, got {self.r_max}")

    @property
    def sector_count(self) -> int:
        return self.r_bins * self.theta_bins

    @property
    def descriptor_length(self) -> int:
        return self.sector_count * FEATURES_PER_SECTOR

    def resolve(self, h: int, w: int) -> tuple[float, float, float]:
        """Concrete (cx, cy, r_max) for an H x W image."""
        cx, cy = self.center if self.center is not None else ((w - 1) / 2.0, (h - 1) / 2.0)
        if not (0 <= cx <= w - 1 and 0 <= cy <= h - 1):
            raise ParameterError(f"grid center {(cx, cy)} outside {h}x{w} image")
        r_max = self.r_max if self.r_max is not None else min(h, w) / 2.0
        return cx, cy, r_max


@functools.lru_cache(maxsize=4)
def _sector_geometry(cx: float, cy: float, r_max: float, r_bins: int, theta_bins: int,
                     h: int, w: int) -> tuple[np.ndarray, ...]:
    """The sector partition of an H x W image, built once per resolved grid and
    image size, every array read-only: the sector id map and the inside-disc
    mask; then, over the disc pixels in row-major order, their sector ids and
    radial unit vectors ex, ey; last, each sector's pixel count as float64,
    with 1 for an empty sector, whose sums are 0 and so pool to 0.

    Angle 0 points along +x and increases toward +y (downward in images);
    the pole pixel has ex = ey = 0.
    """
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    dx, dy = xs - cx, ys - cy
    rho = np.hypot(dx, dy)
    inside = rho < r_max
    ring = np.minimum((rho * r_bins / r_max).astype(np.int64), r_bins - 1)
    angle = np.arctan2(dy, dx)
    angle[angle < 0] += 2.0 * np.pi
    tbin = np.minimum((angle * theta_bins / (2.0 * np.pi)).astype(np.int64), theta_bins - 1)
    sector_ids = ring * theta_bins + tbin
    ids, rho = sector_ids[inside], rho[inside]
    ex, ey = (np.divide(d[inside], rho, out=np.zeros_like(rho), where=rho > 0) for d in (dx, dy))
    counts = np.maximum(np.bincount(ids, minlength=r_bins * theta_bins), 1).astype(np.float64)
    geometry = (sector_ids, inside, ids, ex, ey, counts)
    for array in geometry:
        array.flags.writeable = False
    return geometry


def sector_index_map(grid: SectorGrid, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sector lookup: read-only (sector id map, inside-disc mask)."""
    return _sector_geometry(*grid.resolve(h, w), grid.r_bins, grid.theta_bins, h, w)[:2]


def extract_descriptor(frame: np.ndarray, flow: FlowField, grid: SectorGrid) -> np.ndarray:
    """Pool flow/gray statistics per sector into one length R*TH*6 vector.

    Concatenation is ring-major, then angle bin, then feature. Only the disc
    pixels are read and projected; each field then takes two bincounts over
    the cached partition (`_sector_geometry`), its sums and its centred sums
    of squares, so empty sectors contribute all-zero features.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != flow.u.shape:
        raise DimensionError(
            f"frame shape {frame.shape} does not match flow shape {flow.u.shape}"
        )
    h, w = frame.shape
    _, inside, ids, ex, ey, counts = _sector_geometry(*grid.resolve(h, w), grid.r_bins,
                                                      grid.theta_bins, h, w)
    u, v = flow.u[inside], flow.v[inside]
    feats = np.empty((counts.size, FEATURES_PER_SECTOR))
    for mean_col, std_col, vals in ((0, 2, u * ex + v * ey), (1, 3, -u * ey + v * ex),
                                    (4, 5, frame[inside])):
        mean = np.bincount(ids, weights=vals, minlength=counts.size) / counts
        # two-pass variance: exact zeros on constant sectors
        centered = vals - mean[ids]
        feats[:, mean_col] = mean
        feats[:, std_col] = np.sqrt(
            np.bincount(ids, weights=centered * centered, minlength=counts.size) / counts)
    return feats.reshape(-1)


@dataclass(frozen=True)
class ScalerModel:
    mean: np.ndarray
    scale: np.ndarray  # per-dimension stddev, floored at 1e-8

    def __post_init__(self):
        d = np.size(self.mean)
        check_shapes(self, "scaler", f"D={d} from 'mean'", dict(mean=(d,), scale=(d,)))


def fit_scaler(x: np.ndarray) -> ScalerModel:
    """Column-wise mean/population-stddev; stddev floored at 1e-8."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientDataError(f"need an N x D matrix with N >= 2, got {x.shape}")
    return ScalerModel(mean=x.mean(axis=0), scale=np.maximum(x.std(axis=0), 1e-8))


def apply_scaler(model: ScalerModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.mean.shape[0]:
        raise ModelError(
            f"scaler expects dimension {model.mean.shape[0]}, got {x.shape[-1]}"
        )
    return (x - model.mean) / model.scale


@dataclass(frozen=True)
class PcaModel:
    components: np.ndarray  # k x D orthonormal rows
    explained_variance: np.ndarray  # length k, nonincreasing
    input_mean: np.ndarray  # length D
    k: int

    def __post_init__(self):
        k, d = (np.shape(self.components) or (0,))[0], np.size(self.input_mean)
        check_shapes(self, "PCA", f"k={k} from 'components', D={d} from 'input_mean'",
                     dict(components=(k, d), explained_variance=(k,), input_mean=(d,)))
        if self.k != k:
            raise ModelError(f"PCA 'k' is {self.k}, but 'components' has {k} rows")


def fit_pca(x: np.ndarray, k: int) -> PcaModel:
    """Top-k principal axes of X via SVD of the centered matrix.

    explained_variance holds eigenvalues of the population covariance
    (divisor N). Sign convention: the largest-magnitude entry of each
    component is positive, which makes fitted models reproducible.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ParameterError(f"X must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("PCA input contains non-finite values")
    n, d = x.shape
    if not (1 <= k <= min(n - 1, d)):
        raise ParameterError(f"k={k} out of range 1..min(N-1={n - 1}, D={d})")
    mean = x.mean(axis=0)
    _, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    comps = vt[:k].copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    variance = (s[:k] ** 2) / n
    return PcaModel(components=comps, explained_variance=variance, input_mean=mean, k=k)


def project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.input_mean.shape[0]:
        raise ModelError(
            f"PCA expects dimension {model.input_mean.shape[0]}, got {x.shape[-1]}"
        )
    return (x - model.input_mean) @ model.components.T


def back_project(model: PcaModel, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != model.k:
        raise ModelError(f"PCA back-projection expects length {model.k}, got {z.shape[-1]}")
    return z @ model.components + model.input_mean


def descriptor_sequence(seq: FrameSequence, flows: list[FlowField], grid: SectorGrid,
                        k: int) -> tuple[np.ndarray, ScalerModel, PcaModel]:
    """Per-frame-pair z_t rows: pool -> standardize -> PCA to `k` dimensions,
    with the scaler and PCA fitted on this sequence and returned beside z.
    Row t pairs frame t with flow t -> t+1.
    """
    if len(flows) != seq.t_count - 1:
        raise DimensionError(
            f"expected {seq.t_count - 1} flow fields, got {len(flows)}"
        )
    raw = np.stack([extract_descriptor(seq.frames[t], flows[t], grid)
                    for t in range(seq.t_count - 1)])
    scaler = fit_scaler(raw)
    scaled = apply_scaler(scaler, raw)
    pca = fit_pca(scaled, k)
    return project(pca, scaled), scaler, pca


@dataclass(frozen=True)
class FeatureModels:
    """The fitted scaler and PCA of one run, as stored in descriptor_model.json."""

    scaler: ScalerModel
    pca: PcaModel
