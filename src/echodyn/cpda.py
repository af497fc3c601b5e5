"""Cardiac phase-dynamics attention: a forward-only reference implementation.

Pooled per-frame spatial features are fused with a (sin, cos) phase
embedding and the per-frame dynamic feature, run through multi-head
self-attention over time, squashed into a channel modulation factor
S in (0,1), and applied as X * (1 + alpha (2S - 1)); the result is
blended 50/50 with a 3x3x3 zero-padded convolution over (T, H, W).

Both halves of the blend are linear in X' = X * factor, so the blend is one
convolution of X': kernel (K + I) / 2, I the centre-tap identity, and bias
b / 2. The forward pass allocates one clip-sized array, that convolution's
float64 result; a clip read from FTC1 stays the file's float32 view (pooling
sums in float64, and each product with the float64 factor widens it
exactly). `conv3d_same` modulates each input frame into a float64
zero-padded frame and sums each output frame in its own slot of the result,
C x C channels, and `save_feature_clip` rounds one frame at a time.

`conv3d_same` takes each frame's (H*W x 9C) @ (9C x 3C) product in blocks
of (10^6 - 1) // (27 C^2) rows (144 at C = 16), each under BLAS_SERIAL_MNK
multiply-adds: OpenBLAS keeps such a product on the calling thread, while a
whole 64 x 64 frame's product woke its worker thread, which was busy through
the pass and then spun ~120 ms of the second core. A block has two rows or
more, as a one-row product is a matrix-vector call, which OpenBLAS threads
(at C >= 137 its bits followed the CPU count), and fewer than 3C columns
where two rows of 3C pass the bound (C >= 137). Every C takes these blocks,
and its output frames go in two halves, one per thread (`halves.in_halves`),
when a frame holds more than THREADED_CONV_VALUES values H*W*C; the output
is the same bits on any CPU count. Measured in-process, median of 7 calls,
serial against two threads (2-vCPU x86 VM):

    C = 16, T = 64   16^2   4.6 vs  5.0 ms    20^2   7.5 vs  6.0 ms
                     24^2  10.8 vs  7.6 ms    32^2  22.7 vs 13.2 ms
                     48^2  53.2 vs 30.3 ms    64^2 106.4 vs 57.6 ms
    C = 8,  T = 64   24^2   4.8 vs  5.3 ms    32^2   8.6 vs  6.0 ms
    C = 4,  T = 64   24^2   3.6 vs  4.1 ms    32^2   5.7 vs  4.9 ms

At 6144 values or fewer the two threads lose, or gain little, to contention
for the GIL. Small blocks cost more at large C. On 16 x 32^2 x C, two CPUs,
against one whole-frame product per frame, which OpenBLAS threaded itself:
C = 48 38-44 vs 49-54 ms, 64 70-98 vs 70-74, 96 253-335 vs 123-133,
160 1476-1737 vs 261-324, 200 2128-2650 vs 337-479.

Weight matrices apply on the right (row vectors: y = x @ W + b).
MLPs are two layers with ReLU after the first, linear output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ModelError,
    NumericError,
    ParameterError,
    check_float64_count,
    check_range,
    check_shapes,
)
from .halves import in_halves
from .seqio import encode_f32, read_binary, write_binary

# OpenBLAS (0.3.31, 2-core x86) hands a dgemm with m*n*k of 1,000,512 or more
# to its worker thread, which then spins for ~128 ms of the second core after
# the call; 998,784 stays on the calling thread
BLAS_SERIAL_MNK = 10 ** 6
# `conv3d_same` runs two threads on frames of more than this many values H*W*C
THREADED_CONV_VALUES = 6 * 1024


@dataclass(frozen=True)
class FeatureClip:
    """T x H x W x C finite features for one skip level, float32 or float64."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data)
        d = d if d.dtype in (np.float32, np.float64) else d.astype(np.float64)
        if d.ndim != 4 or 0 in d.shape:
            raise ModelError(f"feature clip must be T x H x W x C, each >= 1, got {d.shape}")
        if not np.isfinite(d).all():
            raise NumericError("feature clip contains non-finite values")
        object.__setattr__(self, "data", d)

    @property
    def t_count(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class PhaseTrack:
    """Per-frame cardiac phase in [0,1): 0 at end-diastole, 0.5 at end-systole."""

    phi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phi, dtype=np.float64)
        if not ((p >= 0) & (p <= 1)).all():  # NaN fails both comparisons
            raise ParameterError(f"phase values must lie in [0,1], got {p.min()} to {p.max()}")
        object.__setattr__(self, "phi", p)


def phase_track(t_count: int, ed_index: int, es_index: int) -> PhaseTrack:
    """Linear phase estimate from the ED/ES frames, one cycle = 2|es-ed| frames.

    phi(ed) = 0 and phi(es) = 0.5 exactly; other frames interpolate or
    extrapolate linearly, wrapped into [0,1).
    """
    if not (0 <= ed_index < t_count and 0 <= es_index < t_count):
        raise ParameterError("ed/es indices out of range")
    if ed_index == es_index:
        raise ParameterError("ed_index == es_index gives a degenerate phase")
    cycle = 2.0 * abs(es_index - ed_index)
    t = np.arange(t_count, dtype=np.float64)
    return PhaseTrack(phi=np.mod((t - ed_index) / cycle, 1.0))


def _weight_shapes(c: int, d_p: int, d_e: int, k2: int) -> dict[str, tuple[int, ...]]:
    """Every `CpdaWeights` array's shape, in field order, for C channels, MLP
    widths d_p and d_e, and P_EDG width k2; d = C + d_p + d_e is the token width."""
    d = c + d_p + d_e
    return dict(phase_w1=(2, d_p), phase_b1=(d_p,), phase_w2=(d_p, d_p), phase_b2=(d_p,),
                edg_w1=(k2, d_e), edg_b1=(d_e,), edg_w2=(d_e, d_e), edg_b2=(d_e,),
                wq=(d, d), wk=(d, d), wv=(d, d), wo=(d, d), gate_w=(d, c), gate_b=(c,),
                conv_kernel=(c, c, 3, 3, 3), conv_bias=(c,))


@dataclass(frozen=True)
class CpdaWeights:
    """Deterministic parameter set for the attention module.

    The sizes come from the arrays: C, d_p and d_e are the lengths of
    `conv_bias`, `phase_b1` and `edg_b1`, and k2 the rows of `edg_w1`;
    each must be >= 1, and every array must have the shape
    `_weight_shapes` gives it. `heads` must divide the token width d.
    Attention projections are bias-free d x d matrices.
    """

    phase_w1: np.ndarray
    phase_b1: np.ndarray
    phase_w2: np.ndarray
    phase_b2: np.ndarray
    edg_w1: np.ndarray
    edg_b1: np.ndarray
    edg_w2: np.ndarray
    edg_b2: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int
    gate_w: np.ndarray
    gate_b: np.ndarray
    conv_kernel: np.ndarray
    conv_bias: np.ndarray
    alpha: float

    def __post_init__(self):
        c, d_p, d_e = np.size(self.conv_bias), np.size(self.phase_b1), np.size(self.edg_b1)
        k2 = (np.shape(self.edg_w1) or (0,))[0]
        if min(c, d_p, d_e, k2) < 1:
            raise ModelError(f"C, d_p, d_e and k2 must be >= 1, got {c}, {d_p}, {d_e}, {k2}")
        shapes = _weight_shapes(c, d_p, d_e, k2)
        check_shapes(self, "weight", f"C={c}, d_p={d_p}, d_e={d_e}, k2={k2}", shapes)
        for name in shapes:
            if not np.isfinite(getattr(self, name)).all():
                raise NumericError(f"non-finite values in weight '{name}'")
        d = c + d_p + d_e
        if self.heads < 1 or d % self.heads != 0:
            raise ModelError(f"heads={self.heads} must divide token width d={d}")
        check_range("alpha", self.alpha, 0, 1)

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def channels(self) -> int:
        return self.gate_w.shape[1]

    @property
    def k2(self) -> int:
        return self.edg_w1.shape[0]


def pool_spatial(clip: FeatureClip) -> np.ndarray:
    """Adaptive average pooling to one float64 value per frame per channel."""
    return clip.data.mean(axis=(1, 2), dtype=np.float64)


def _mlp(x: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mha_forward(tokens: np.ndarray, weights: CpdaWeights) -> np.ndarray:
    """Standard multi-head self-attention over the T tokens (no positions, no mask)."""
    x = np.asarray(tokens, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NumericError("attention input contains non-finite values")
    d = weights.d_model
    if x.ndim != 2 or x.shape[1] != d:
        raise ModelError(f"tokens must be T x {d}, got {x.shape}")
    h = weights.heads
    dh = d // h
    t = x.shape[0]
    q = (x @ weights.wq).reshape(t, h, dh).transpose(1, 0, 2)
    k = (x @ weights.wk).reshape(t, h, dh).transpose(1, 0, 2)
    v = (x @ weights.wv).reshape(t, h, dh).transpose(1, 0, 2)
    attn = _softmax_rows(q @ k.transpose(0, 2, 1) / np.sqrt(dh))
    out = (attn @ v).transpose(1, 0, 2).reshape(t, d)
    return out @ weights.wo


def conv3d_same(x: np.ndarray, factor: np.ndarray, kernel: np.ndarray,
                bias: np.ndarray) -> np.ndarray:
    """3x3x3 zero-padded convolution over (T, H, W) of the channels-last clip
    x * factor (factor T x C, one row per frame), with a C x C x 3 x 3 x 3
    (C_out x C_in) kernel, into a new array; `x` is only read.

    One product per input frame s: x[s] * factor[s] is written into a
    zero-padded frame, and its nine (dh, dw) windows side by side, an
    (H*W) x 9C matrix, times the kernel as 9C x 3C, taken in the blocks
    `_block_shape(C)` sizes, none of one row. Column block dt of the product
    goes to output frame s + 1 - dt, where that exists, in that frame's slot
    of the result: each output frame u is summed as bias + prod(u-1)[dt=0] +
    prod(u)[dt=1] + prod(u+1)[dt=2], in that order.

    The output frames go in two halves (`halves.in_halves`) when a frame has
    more than THREADED_CONV_VALUES values; each half keeps its own buffers
    and reads the input frames next to its own.
    """
    t, h, w, c = x.shape
    if 0 in x.shape or factor.shape != (t, c):
        raise ModelError(f"conv3d_same needs a T x H x W x C clip with T, H, W, C >= 1 and "
                         f"a T x C factor, got {x.shape} and {factor.shape}")
    if kernel.shape != (c, c, 3, 3, 3):
        raise ModelError(f"conv kernel must be {c} x {c} x 3 x 3 x 3, got {kernel.shape}")
    # rows ordered (dh, dw, c_in) like the windows, columns (dt, c_out)
    k = kernel.transpose(3, 4, 1, 2, 0).reshape(9 * c, 3 * c)
    rows, cols = _block_shape(c)
    k_blocks = [(j, k[:, j:j + cols]) for j in range(0, 3 * c, cols)]
    out = np.empty((t, h, w, c))

    def convolve(first: int, stop: int) -> None:
        """Output frames first..stop-1, from input frames first-1..stop."""
        pad = np.zeros((h + 2, w + 2, c))
        # a 1 x 1 frame's product takes a zero second row
        lhs, flat = np.zeros((max(h * w, 2), 9 * c)), np.empty((max(h * w, 2), 3 * c))
        windows, prod = lhs[:h * w].reshape(h, w, 3, 3, c), flat[:h * w].reshape(h, w, 3, c)
        if first == 0:
            out[0] = bias  # output frame 0 has no dt = 0 term
        for s in range(max(first - 1, 0), min(stop + 1, t)):
            np.multiply(x[s], factor[s], out=pad[1:-1, 1:-1])
            for dh in range(3):
                for dw in range(3):
                    windows[:, :, dh, dw] = pad[dh:dh + h, dw:dw + w]
            for r in range(0, len(lhs), rows):
                r = min(r, len(lhs) - 2)  # a last block of one row overlaps the one before
                for j, k_j in k_blocks:
                    np.matmul(lhs[r:r + rows], k_j, out=flat[r:r + rows, j:j + cols])
            if first < s <= stop:
                out[s - 1] += prod[:, :, 2]
            if first <= s < stop:
                out[s] += prod[:, :, 1]
            if first <= s + 1 < stop:
                np.add(bias, prod[:, :, 0], out=out[s + 1])

    in_halves(convolve, t, h * w * c > THREADED_CONV_VALUES)
    return out


def _block_shape(c: int) -> tuple[int, int]:
    """Rows and kernel columns per block of `conv3d_same`'s product at C
    channels: the most rows whose (rows x 9C) @ (9C x 3C) product stays under
    BLAS_SERIAL_MNK multiply-adds, but at least two, and all 3C columns unless
    two rows of them pass that bound (C >= 137); then the most columns that
    two rows keep under it."""
    rows = max(2, (BLAS_SERIAL_MNK - 1) // (27 * c * c))
    return rows, min(3 * c, (BLAS_SERIAL_MNK - 1) // (9 * c * rows))


def cpda_forward(clip: FeatureClip, phase: PhaseTrack, pedg: np.ndarray,
                 weights: CpdaWeights) -> FeatureClip:
    """Time-aware feature modulation of a clip.

    `pedg` must hold one row per frame; when the dynamics stage yields
    fewer rows, replicate the last one (see `dynamics.align_pedg`).
    """
    t = clip.t_count
    pedg = np.asarray(pedg, dtype=np.float64)
    if phase.phi.shape[0] != t:
        raise ModelError(f"phase length {phase.phi.shape[0]} != clip frames {t}")
    if pedg.shape != (t, weights.k2):
        raise ModelError(f"pedg must be {t} x {weights.k2} (frames x k2), got {pedg.shape}")
    if clip.channels != weights.channels:
        raise ModelError(
            f"clip channels {clip.channels} != gate output {weights.channels}"
        )

    try:
        with np.errstate(over="raise", invalid="raise"):
            return FeatureClip(data=_forward(clip, phase, pedg, weights))
    except FloatingPointError as exc:
        raise NumericError(f"the CPDA forward pass leaves the float64 range ({exc}): "
                           "the clip, P_EDG or weight values are too large") from None


def _forward(clip: FeatureClip, phase: PhaseTrack, pedg: np.ndarray,
             weights: CpdaWeights) -> np.ndarray:
    f_pool = pool_spatial(clip)
    angles = 2.0 * np.pi * phase.phi
    f_phase = _mlp(np.stack([np.sin(angles), np.cos(angles)], axis=1),
                   weights.phase_w1, weights.phase_b1,
                   weights.phase_w2, weights.phase_b2)
    f_edg = _mlp(pedg, weights.edg_w1, weights.edg_b1, weights.edg_w2, weights.edg_b2)
    f_fused = np.concatenate([f_pool, f_phase, f_edg], axis=1)
    f_attn = mha_forward(f_fused, weights)
    with np.errstate(over="ignore"):  # exp overflows to inf only where s is 0
        s = 1.0 / (1.0 + np.exp(-(f_attn @ weights.gate_w + weights.gate_b)))  # T x C
    factor = 1.0 + weights.alpha * (2.0 * s - 1.0)
    # 0.5 X' + 0.5 conv(X') is one convolution: kernel 0.5 (K + identity), bias 0.5 b
    kernel = 0.5 * (weights.conv_kernel + identity_conv_kernel(clip.channels))
    return conv3d_same(clip.data, factor, kernel, 0.5 * weights.conv_bias)


def identity_conv_kernel(channels: int) -> np.ndarray:
    """Center-tap identity: Conv3D(X) == X."""
    k = np.zeros((channels, channels, 3, 3, 3))
    k[:, :, 1, 1, 1] = np.eye(channels)
    return k


def seed_cpda_weights(channels: int, d_p: int = 8, d_e: int = 8, k2: int = 8,
                      heads: int = 2, alpha: float = 0.5, seed: int = 0) -> CpdaWeights:
    """Reproducible random weight set for a given shape, drawn from one generator
    in `_weight_shapes` order: vectors zero, every other array N(0, 1/sqrt(fan_in)),
    fan_in being a matrix's row count or the kernel's C * 27. A size below 1, or
    one that takes an array past INT64_MAX bytes, is a ParameterError, raised
    before any draw."""
    for name, n in dict(channels=channels, d_p=d_p, d_e=d_e, k2=k2).items():
        check_range(name, n, 1)
    shapes = _weight_shapes(channels, d_p, d_e, k2)
    for name, shape in shapes.items():
        check_float64_count(f"'{name}' {shape} for channels={channels}, d_p={d_p}, "
                            f"d_e={d_e}, k2={k2}", math.prod(shape))
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            arrays[name] = np.zeros(shape)
        else:
            fan_in = shape[0] if len(shape) == 2 else math.prod(shape[1:])
            arrays[name] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
    return CpdaWeights(**arrays, heads=heads, alpha=alpha)


def save_feature_clip(clip: FeatureClip, path: Path | str) -> None:
    """Binary clip: magic FTC1, u32 T,H,W,C, then row-major little-endian f32,
    converted and written one frame at a time. A value past the float32 range
    is a NumericError, and leaves no file."""
    write_binary(path, b"FTC1", clip.data.shape,
                 (encode_f32(frame, "feature clip") for frame in clip.data))


def load_feature_clip(path: Path | str) -> FeatureClip:
    """An FTC1 clip as a read-only float32 view of the file's bytes."""
    (t, h, w, c), payload = read_binary(path, b"FTC1", 4, 4, 4)
    return FeatureClip(data=np.frombuffer(payload, "<f4").reshape(t, h, w, c))
