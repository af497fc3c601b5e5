"""Dense optical flow between consecutive frames (Horn-Schunck).

The solver minimizes the classical brightness-constancy + smoothness
energy with a fixed number of Jacobi iterations from zero flow, so the
result is deterministic and bit-reproducible. Intensity gradients are
taken in 8-bit units (frames in [0,1] are scaled by 255) so that the
default regularization weight follows the classical byte-image
parameterization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import convolve, gaussian_filter

from .errors import DimensionError, ParameterError
from .seqio import FrameSequence, read_binary

# weighted 8-neighbor average used by the Jacobi step
_AVG_KERNEL = np.array(
    [[1 / 12, 1 / 6, 1 / 12],
     [1 / 6, 0.0, 1 / 6],
     [1 / 12, 1 / 6, 1 / 12]]
)


@dataclass(frozen=True)
class FlowParams:
    alpha: float = 15.0
    iterations: int = 100
    presmooth_sigma: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ParameterError("alpha must be > 0")
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if self.presmooth_sigma < 0:
            raise ParameterError("presmooth_sigma must be >= 0")


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement (pixels/frame); u horizontal, v vertical."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.ndim != 2:
            raise DimensionError("u and v must be matching 2-D arrays")
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise DimensionError("flow components must be finite")

    @property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u, self.v)


def _presmooth(frame: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return frame.astype(np.float64)
    return gaussian_filter(frame.astype(np.float64), sigma, mode="nearest")


def compute_flow(prev: np.ndarray, next: np.ndarray,
                 params: FlowParams = FlowParams()) -> FlowField:
    """Horn-Schunck flow from `prev` to `next` (both H x W in [0,1])."""
    prev = np.asarray(prev, dtype=np.float64)
    next = np.asarray(next, dtype=np.float64)
    if prev.shape != next.shape:
        raise DimensionError(f"frame shapes differ: {prev.shape} vs {next.shape}")
    if prev.ndim != 2 or prev.shape[0] < 3 or prev.shape[1] < 3:
        raise DimensionError(f"frames must be at least 3x3, got {prev.shape}")

    # 8-bit intensity units; gradients from the smoothed frame average
    a = _presmooth(prev, params.presmooth_sigma) * 255.0
    b = _presmooth(next, params.presmooth_sigma) * 255.0
    avg = 0.5 * (a + b)
    ix = np.gradient(avg, axis=1)  # central differences, replicated edges
    iy = np.gradient(avg, axis=0)
    it = b - a

    alpha2 = params.alpha ** 2
    denom = alpha2 + ix ** 2 + iy ** 2
    u = np.zeros_like(avg)
    v = np.zeros_like(avg)
    for _ in range(params.iterations):
        u_bar = convolve(u, _AVG_KERNEL, mode="nearest")
        v_bar = convolve(v, _AVG_KERNEL, mode="nearest")
        common = (ix * u_bar + iy * v_bar + it) / denom
        u = u_bar - ix * common
        v = v_bar - iy * common
    return FlowField(u=u, v=v)


def flow_sequence(seq: FrameSequence, params: FlowParams = FlowParams()) -> list[FlowField]:
    """Flow fields for each consecutive frame pair; element t maps frame t -> t+1."""
    return [compute_flow(seq.frames[t], seq.frames[t + 1], params)
            for t in range(seq.t_count - 1)]


def save_flow(flow: FlowField, path: Path | str) -> None:
    """Binary dump: magic FLW1, u32 H,W, then f32 u values then v values."""
    h, w = flow.u.shape
    with open(path, "wb") as fh:
        fh.write(b"FLW1")
        fh.write(struct.pack("<2I", h, w))
        fh.write(flow.u.astype("<f4").tobytes())
        fh.write(flow.v.astype("<f4").tobytes())


def load_flow(path: Path | str) -> FlowField:
    (h, w), payload = read_binary(path, b"FLW1", 2, 2, 8)  # two f32 planes
    uv = np.frombuffer(payload, dtype="<f4").reshape(2, h, w).astype(np.float64)
    return FlowField(u=uv[0], v=uv[1])
