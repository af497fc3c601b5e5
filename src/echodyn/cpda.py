"""Cardiac phase-dynamics attention: a forward-only reference implementation.

Pooled per-frame spatial features are fused with a (sin, cos) phase
embedding and the per-frame dynamic feature, run through multi-head
self-attention over time, squashed into a channel modulation factor
S in (0,1), and applied as X * (1 + alpha (2S - 1)); the result is
blended 50/50 with a 3x3x3 zero-padded convolution over (T, H, W).

The forward pass allocates one clip-sized array, its result. The
modulated clip is written there and convolved in place, C x C channels:
`conv3d_same` keeps a rolling accumulator of three output frames and
writes frame s-1 once input frame s has been read, the last time that
input frame is needed. The blend then runs frame by frame, recomputing
each frame of the modulated clip, and `save_feature_clip` converts one
frame at a time.

Weight matrices apply on the right (row vectors: y = x @ W + b).
MLPs are two layers with ReLU after the first, linear output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import INT64_MAX, ModelError, NumericError, ParameterError, check_shapes
from .seqio import decode_f32, read_binary, write_binary

_F32_MAX = float(np.finfo(np.float32).max)  # an FTC1 file holds float32


@dataclass(frozen=True)
class FeatureClip:
    """T x H x W x C spatial feature tensor for one skip level."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 4:
            raise ModelError(f"feature clip must be T x H x W x C, got shape {d.shape}")
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
        if ((p < 0) | (p > 1)).any():
            raise ParameterError("phase values must lie in [0,1]")
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
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in [0,1], got {self.alpha}")

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
    """Adaptive average pooling to a single value per frame per channel."""
    return clip.data.mean(axis=(1, 2))


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


def conv3d_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> None:
    """3x3x3 zero-padded convolution over (T, H, W) of the channels-last clip
    `x`, in place, with a C x C x 3 x 3 x 3 (C_out x C_in) kernel.

    One matmul per input frame s: its nine (dh, dw) windows side by side,
    an (H*W) x 9C matrix, times the kernel as 9C x 3C. Column block dt of
    the product goes to output frame s + 1 - dt, where that exists. A
    rolling accumulator holds output frames s-1, s and s+1, and frame s-1
    is complete once input frame s has been read; it is written over frame
    s-1 of `x`, which is never read again. Each output frame u is summed as
    bias + prod(u-1)[dt=0] + prod(u)[dt=1] + prod(u+1)[dt=2], in that order.
    """
    t, h, w, c = x.shape
    if kernel.shape != (c, c, 3, 3, 3):
        raise ModelError(f"conv kernel must be {c} x {c} x 3 x 3 x 3, got {kernel.shape}")
    # rows ordered (dh, dw, c_in) like the windows, columns (dt, c_out)
    k = kernel.transpose(3, 4, 1, 2, 0).reshape(9 * c, 3 * c)
    acc = np.empty((3, h, w, c))  # output frame u accumulates in acc[u % 3]
    acc[0] = bias
    pad = np.zeros((h + 2, w + 2, c))
    windows = np.empty((h, w, 3, 3, c))
    for s in range(t):
        pad[1:-1, 1:-1] = x[s]
        for dh in range(3):
            for dw in range(3):
                windows[:, :, dh, dw] = pad[dh:dh + h, dw:dw + w]
        prod = (windows.reshape(h * w, 9 * c) @ k).reshape(h, w, 3, c)
        if s > 0:
            acc[(s - 1) % 3] += prod[:, :, 2]
            x[s - 1] = acc[(s - 1) % 3]
        acc[s % 3] += prod[:, :, 1]
        if s + 1 < t:
            np.add(bias, prod[:, :, 0], out=acc[(s + 1) % 3])
        else:
            x[s] = acc[s % 3]


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
    # x_mod = X * factor is the one new clip-sized array: it is convolved in
    # place, then blended frame by frame with x_mod recomputed per frame
    out = clip.data * factor[:, None, None, :]
    conv3d_same(out, weights.conv_kernel, weights.conv_bias)
    for u in range(clip.t_count):
        out[u] = 0.5 * (clip.data[u] * factor[u]) + 0.5 * out[u]
    return out


def identity_conv_kernel(channels: int) -> np.ndarray:
    """Center-tap identity: Conv3D(X) == X."""
    k = np.zeros((channels, channels, 3, 3, 3))
    for c in range(channels):
        k[c, c, 1, 1, 1] = 1.0
    return k


def seed_cpda_weights(channels: int, d_p: int = 8, d_e: int = 8, k2: int = 8,
                      heads: int = 2, alpha: float = 0.5, seed: int = 0) -> CpdaWeights:
    """Reproducible random weight set for a given shape, drawn from one generator
    in `_weight_shapes` order: vectors zero, every other array N(0, 1/sqrt(fan_in)),
    fan_in being a matrix's row count or the kernel's C * 27. A size below 1 is
    a ParameterError, raised before any draw."""
    if not all(1 <= n <= INT64_MAX for n in (channels, d_p, d_e, k2)):
        raise ParameterError(f"channels, d_p, d_e and k2 must be >= 1 and fit int64, "
                             f"got {channels}, {d_p}, {d_e}, {k2}")
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _weight_shapes(channels, d_p, d_e, k2).items():
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
    write_binary(path, b"FTC1", clip.data.shape, map(_to_f32, clip.data))


def _to_f32(frame: np.ndarray) -> np.ndarray:
    if not (-_F32_MAX <= frame.min() and frame.max() <= _F32_MAX):
        raise NumericError("feature clip values exceed the float32 range of an FTC1 file")
    return frame.astype("<f4")


def load_feature_clip(path: Path | str) -> FeatureClip:
    (t, h, w, c), payload = read_binary(path, b"FTC1", 4, 4, 4)
    return FeatureClip(data=decode_f32(payload).reshape(t, h, w, c))
