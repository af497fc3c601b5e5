"""Dense optical flow between consecutive frames (Horn-Schunck).

The flow w = (u, v) minimizes the classical brightness-constancy +
smoothness energy. Its Euler-Lagrange equations, discretized with the
weighted 8-neighbour average `avg` (replicated edges), are the linear
system

    alpha^2 (w - avg(w)) + g (g . w) = -g I_t,    g = (I_x, I_y),

whose fixed point the classical Jacobi iteration approaches. The matrix
is symmetric positive definite: the averaging kernel is symmetric and
replicating the edge folds it back symmetrically, so alpha^2 (1 - avg)
is positive semi-definite with only constant flow in its null space, and
the rank-one data term g g^T is positive wherever the image has a
gradient. The system is solved by conjugate gradients, preconditioned
with each pixel's own 2x2 block alpha^2 + g g^T, for a fixed number of
iterations from zero flow. Every array has a fixed shape and every
reduction is an `np.sum` over it, so the result is deterministic and
bit-reproducible. Intensity gradients are taken in 8-bit units (frames
in [0,1] are scaled by 255) so that the default regularization weight
follows the classical byte-image parameterization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import DimensionError, ParameterError
from .seqio import FrameSequence, atomic_write, read_binary


@dataclass(frozen=True)
class FlowParams:
    alpha: float = 15.0
    iterations: int = 40  # conjugate-gradient iterations
    presmooth_sigma: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError("alpha must be > 0")
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if not self.presmooth_sigma >= 0:
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
    return gaussian_filter(frame, sigma, mode="nearest") if sigma > 0 else frame


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

    return FlowField(*_solve(ix, iy, it, params.alpha ** 2, params.iterations))


def _sum_121(src: np.ndarray, shift: int, pairs: np.ndarray, out: np.ndarray) -> None:
    """out = [1,2,1] sum along the axis of flat stride `shift`, as two
    neighbour-pair sums over the flattened buffers (cheaper than 3-D
    slices); the sums that straddle a row or plane end are left wrong."""
    flat = src.reshape(-1)
    pairs = pairs[:flat.size - shift]
    np.add(flat[:-shift], flat[shift:], out=pairs)
    np.add(pairs[:-shift], pairs[shift:], out=out.reshape(-1)[shift:-shift])


def _stencil_sum(w: np.ndarray, pairs: np.ndarray, rows: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """[1,2,1] x [1,2,1] sum over each plane of `w` (2, H, W), replicated edges.

    At an edge the replicated neighbour makes the [1,2,1] sum 3 w_edge + w_next.
    """
    _sum_121(w, 1, pairs, rows)
    for edge, inner in ((0, 1), (-1, -2)):
        np.multiply(w[:, :, edge], 3.0, out=rows[:, :, edge])
        rows[:, :, edge] += w[:, :, inner]
    _sum_121(rows, w.shape[2], pairs, out)
    for edge, inner in ((0, 1), (-1, -2)):
        np.multiply(rows[:, edge], 3.0, out=out[:, edge])
        out[:, edge] += rows[:, inner]
    return out


def _block_apply(diag: np.ndarray, cross: np.ndarray, x: np.ndarray,
                 out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per-pixel symmetric 2x2 blocks [[d0, c], [c, d1]] times x = (x0, x1)."""
    np.multiply(diag, x, out=out)
    np.multiply(cross, x, out=scratch)
    out[0] += scratch[1]
    out[1] += scratch[0]
    return out


def _solve(ix: np.ndarray, iy: np.ndarray, it: np.ndarray, alpha2: float,
           iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Preconditioned conjugate gradients on the Horn-Schunck system, from zero.

    With S the [1,2,1] x [1,2,1] sum, avg(w) = S(w)/12 - w/3, so k = 12/alpha^2
    times the system reads (16 - S) w + k g (g . w) = -k g I_t: same
    solution, no scaling of S. The preconditioner inverts each pixel's
    block alpha^2 + g g^T: [[a+Iy^2, -IxIy], [-IxIy, a+Ix^2]] / (a (a+Ix^2+Iy^2))
    with a = alpha^2 (a constant factor on it leaves the iterates unchanged).
    """
    k = 12.0 / alpha2
    diag = np.stack([16.0 + k * ix * ix, 16.0 + k * iy * iy])
    cross = k * ix * iy
    det = alpha2 * (alpha2 + ix * ix + iy * iy)
    pre_diag = np.stack([alpha2 + iy * iy, alpha2 + ix * ix]) / det
    pre_cross = -ix * iy / det

    uv = np.zeros((2,) + ix.shape)
    r = np.stack([ix, iy]) * (-k * it)  # residual of the zero start
    z, p, q, tmp, rows = (np.empty_like(uv) for _ in range(5))
    pairs = np.empty(uv.size - 1)
    _block_apply(pre_diag, pre_cross, r, z, tmp)
    rz = np.sum(np.multiply(r, z, out=tmp))
    p[...] = z
    for _ in range(iterations):
        if rz == 0.0:  # zero right-hand side (identical frames): stay exactly zero
            break
        _block_apply(diag, cross, p, q, tmp)  # q = A p = blocks(p) - S(p)
        q -= _stencil_sum(p, pairs, rows, tmp)
        step = rz / np.sum(np.multiply(p, q, out=tmp))
        uv += np.multiply(p, step, out=tmp)
        r -= np.multiply(q, step, out=tmp)
        _block_apply(pre_diag, pre_cross, r, z, tmp)
        rz_next = np.sum(np.multiply(r, z, out=tmp))
        p *= rz_next / rz
        p += z
        rz = rz_next
    return uv[0], uv[1]


def flow_sequence(seq: FrameSequence, params: FlowParams = FlowParams()) -> list[FlowField]:
    """Flow fields for each consecutive frame pair; element t maps frame t -> t+1.

    Each frame is presmoothed once, when it is reached; `compute_flow` gets
    the two smoothed frames of a pair with presmoothing switched off.
    """
    smoothed_params = replace(params, presmooth_sigma=0.0)
    nxt = _presmooth(seq.frames[0], params.presmooth_sigma)
    fields = []
    for t in range(1, seq.t_count):
        prev, nxt = nxt, _presmooth(seq.frames[t], params.presmooth_sigma)
        fields.append(compute_flow(prev, nxt, smoothed_params))
    return fields


def save_flow(flow: FlowField, path: Path | str) -> None:
    """Binary dump: magic FLW1, u32 H,W, then f32 u values then v values."""
    h, w = flow.u.shape
    with atomic_write(path, "wb") as fh:
        fh.write(b"FLW1")
        fh.write(struct.pack("<2I", h, w))
        fh.write(flow.u.astype("<f4").tobytes())
        fh.write(flow.v.astype("<f4").tobytes())


def load_flow(path: Path | str) -> FlowField:
    (h, w), payload = read_binary(path, b"FLW1", 2, 2, 8)  # two f32 planes
    uv = np.frombuffer(payload, dtype="<f4").reshape(2, h, w).astype(np.float64)
    return FlowField(u=uv[0], v=uv[1])
