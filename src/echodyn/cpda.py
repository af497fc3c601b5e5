"""Cardiac phase-dynamics attention: a forward-only reference implementation.

Pooled per-frame spatial features are fused with a (sin, cos) phase
embedding and the per-frame dynamic feature, run through multi-head
self-attention over time, squashed into a channel modulation factor
S in (0,1), and applied as X * (1 + alpha (2S - 1)); the result is
blended 50/50 with a 3x3x3 zero-padded convolution over (T, H, W).

The forward pass allocates one clip-sized array, its result. The
modulated clip is written there and convolved in place: `conv3d_same`
keeps a rolling accumulator of three output frames and writes frame s-1
once input frame s has been read, the last time that input frame is
needed. The blend then runs frame by frame, recomputing each frame of
the modulated clip, and `save_feature_clip` converts one frame at a time.

Weight matrices apply on the right (row vectors: y = x @ W + b).
MLPs are two layers with ReLU after the first, linear output.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ModelError, NumericError, ParameterError
from .seqio import read_binary, read_json, write_binary, write_json


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


@dataclass(frozen=True)
class CpdaWeights:
    """Deterministic parameter set for the attention module.

    `d = channels + d_p + d_e` is the fused token width; `heads` must
    divide it. Attention projections are bias-free d x d matrices.
    """

    phase_w1: np.ndarray  # 2 x d_p
    phase_b1: np.ndarray
    phase_w2: np.ndarray  # d_p x d_p
    phase_b2: np.ndarray
    edg_w1: np.ndarray  # k2 x d_e
    edg_b1: np.ndarray
    edg_w2: np.ndarray  # d_e x d_e
    edg_b2: np.ndarray
    wq: np.ndarray  # d x d
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int
    gate_w: np.ndarray  # d x C
    gate_b: np.ndarray  # C
    conv_kernel: np.ndarray  # C_out x C_in x 3 x 3 x 3
    conv_bias: np.ndarray  # C_out
    alpha: float

    def __post_init__(self):
        d = self.wq.shape[0]
        if self.heads < 1 or d % self.heads != 0:
            raise ModelError(f"heads={self.heads} must divide token width d={d}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in [0,1], got {self.alpha}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray) and not np.isfinite(value).all():
                raise NumericError(f"non-finite values in weight '{f.name}'")

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def channels(self) -> int:
        return self.gate_w.shape[1]


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


def conv3d_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """3x3x3 zero-padded convolution over (T, H, W) for channels-last tensors.

    One matmul per input frame s: its nine (dh, dw) windows side by side,
    an (H*W) x 9C_in matrix, times the kernel as 9C_in x 3C_out. Column
    block dt of the product goes to output frame s + 1 - dt, where that
    exists. A rolling accumulator holds output frames s-1, s and s+1, and
    frame s-1 is complete, and written to `out`, once input frame s has
    been read. Each output frame u is summed as bias + prod(u-1)[dt=0] +
    prod(u)[dt=1] + prod(u+1)[dt=2], in that order.

    Frame s-1 of `x` is never read again at that point, so `out` may be
    `x` itself (C_in == C_out), which convolves in place; any other
    overlap of `out` with `x` raises ModelError. With `out` None a new
    array is returned.
    """
    t, h, w, c_in = x.shape
    c_out = kernel.shape[0]
    if kernel.shape != (c_out, c_in, 3, 3, 3):
        raise ModelError(
            f"conv kernel must be C_out x {c_in} x 3 x 3 x 3, got {kernel.shape}"
        )
    if out is None:
        out = np.empty((t, h, w, c_out))
    elif out.shape != (t, h, w, c_out):
        raise ModelError(f"conv output must be {(t, h, w, c_out)}, got {out.shape}")
    elif out is not x and np.shares_memory(out, x):
        raise ModelError("conv output overlaps its input without being the input")
    # rows ordered (dh, dw, c_in) like the windows, columns (dt, c_out)
    k = kernel.transpose(3, 4, 1, 2, 0).reshape(9 * c_in, 3 * c_out)
    acc = np.empty((3, h, w, c_out))  # output frame u accumulates in acc[u % 3]
    acc[0] = bias
    pad = np.zeros((h + 2, w + 2, c_in))
    windows = np.empty((h, w, 3, 3, c_in))
    for s in range(t):
        pad[1:-1, 1:-1] = x[s]
        for dh in range(3):
            for dw in range(3):
                windows[:, :, dh, dw] = pad[dh:dh + h, dw:dw + w]
        prod = (windows.reshape(h * w, 9 * c_in) @ k).reshape(h, w, 3, c_out)
        if s > 0:
            acc[(s - 1) % 3] += prod[:, :, 2]
            out[s - 1] = acc[(s - 1) % 3]
        acc[s % 3] += prod[:, :, 1]
        if s + 1 < t:
            np.add(bias, prod[:, :, 0], out=acc[(s + 1) % 3])
        else:
            out[s] = acc[s % 3]
    return out


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
    if pedg.ndim != 2 or pedg.shape[0] != t:
        raise ModelError(f"pedg must be {t} x k2, got {pedg.shape}")
    if pedg.shape[1] != weights.edg_w1.shape[0]:
        raise ModelError(
            f"pedg feature length {pedg.shape[1]} != edg_mlp input {weights.edg_w1.shape[0]}"
        )
    if clip.channels != weights.channels:
        raise ModelError(
            f"clip channels {clip.channels} != gate output {weights.channels}"
        )

    f_pool = pool_spatial(clip)
    angles = 2.0 * np.pi * phase.phi
    f_phase = _mlp(np.stack([np.sin(angles), np.cos(angles)], axis=1),
                   weights.phase_w1, weights.phase_b1,
                   weights.phase_w2, weights.phase_b2)
    f_edg = _mlp(pedg, weights.edg_w1, weights.edg_b1, weights.edg_w2, weights.edg_b2)
    f_fused = np.concatenate([f_pool, f_phase, f_edg], axis=1)
    if f_fused.shape[1] != weights.d_model:
        raise ModelError(
            f"fused width {f_fused.shape[1]} != attention width {weights.d_model}"
        )
    f_attn = mha_forward(f_fused, weights)
    s = 1.0 / (1.0 + np.exp(-(f_attn @ weights.gate_w + weights.gate_b)))  # T x C
    factor = 1.0 + weights.alpha * (2.0 * s - 1.0)
    # x_mod = X * factor is the one new clip-sized array: it is convolved in
    # place, then blended frame by frame with x_mod recomputed per frame
    out = clip.data * factor[:, None, None, :]
    conv3d_same(out, weights.conv_kernel, weights.conv_bias, out=out)
    for u in range(t):
        out[u] = 0.5 * (clip.data[u] * factor[u]) + 0.5 * out[u]
    return FeatureClip(data=out)


def identity_conv_kernel(channels: int) -> np.ndarray:
    """Center-tap identity: Conv3D(X) == X."""
    k = np.zeros((channels, channels, 3, 3, 3))
    for c in range(channels):
        k[c, c, 1, 1, 1] = 1.0
    return k


def seed_cpda_weights(channels: int, d_p: int = 8, d_e: int = 8, k2: int = 8,
                      heads: int = 2, alpha: float = 0.5, seed: int = 0) -> CpdaWeights:
    """Reproducible random weight set for a given shape; scaled ~1/sqrt(fan_in)."""
    d = channels + d_p + d_e
    if heads < 1 or d % heads != 0:
        raise ModelError(f"heads={heads} must divide d={d}")
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return rng.normal(0.0, 1.0 / np.sqrt(max(rows, 1)), size=(rows, cols))

    return CpdaWeights(
        phase_w1=mat(2, d_p), phase_b1=np.zeros(d_p),
        phase_w2=mat(d_p, d_p), phase_b2=np.zeros(d_p),
        edg_w1=mat(k2, d_e), edg_b1=np.zeros(d_e),
        edg_w2=mat(d_e, d_e), edg_b2=np.zeros(d_e),
        wq=mat(d, d), wk=mat(d, d), wv=mat(d, d), wo=mat(d, d),
        heads=heads,
        gate_w=mat(d, channels), gate_b=np.zeros(channels),
        conv_kernel=rng.normal(0.0, 1.0 / np.sqrt(27 * channels),
                               size=(channels, channels, 3, 3, 3)),
        conv_bias=np.zeros(channels),
        alpha=alpha,
    )


def save_cpda_weights(weights: CpdaWeights, path: Path | str) -> None:
    write_json(path, weights)


def load_cpda_weights(path: Path | str) -> CpdaWeights:
    return read_json(path, CpdaWeights)


def save_feature_clip(clip: FeatureClip, path: Path | str) -> None:
    """Binary clip: magic FTC1, u32 T,H,W,C, then row-major little-endian f32,
    converted and written one frame at a time."""
    write_binary(path, b"FTC1", clip.data.shape,
                 (frame.astype("<f4") for frame in clip.data))


def load_feature_clip(path: Path | str) -> FeatureClip:
    (t, h, w, c), payload = read_binary(path, b"FTC1", 4, 4, 4)
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(t, h, w, c)
    return FeatureClip(data=data)
