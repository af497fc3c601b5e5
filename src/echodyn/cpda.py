"""Cardiac phase-dynamics attention: a forward-only reference implementation.

Pooled per-frame spatial features are fused with a (sin, cos) phase
embedding and the per-frame dynamic feature, run through multi-head
self-attention over time, squashed into a channel modulation factor
S in (0,1), and applied as X * (1 + alpha (2S - 1)); the result is
blended 50/50 with a 3x3x3 zero-padded convolution over (T, H, W).

Weight matrices apply on the right (row vectors: y = x @ W + b).
MLPs are two layers with ReLU after the first, linear output.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModelError, NumericError, ParameterError
from .seqio import read_binary


@dataclass(frozen=True)
class FeatureClip:
    """T x H x W x C spatial feature tensor for one skip level."""

    data: np.ndarray
    level: int = 1

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
    alpha: float = 0.5

    def __post_init__(self):
        d = self.wq.shape[0]
        if self.heads < 1 or d % self.heads != 0:
            raise ModelError(f"heads={self.heads} must divide token width d={d}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in [0,1], got {self.alpha}")
        for name in ("phase_w1", "phase_b1", "phase_w2", "phase_b2", "edg_w1",
                     "edg_b1", "edg_w2", "edg_b2", "wq", "wk", "wv", "wo",
                     "gate_w", "gate_b", "conv_kernel", "conv_bias"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericError(f"non-finite values in weight '{name}'")

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


def conv3d_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """3x3x3 zero-padded convolution over (T, H, W) for channels-last tensors."""
    t, h, w, c_in = x.shape
    c_out = kernel.shape[0]
    if kernel.shape != (c_out, c_in, 3, 3, 3):
        raise ModelError(
            f"conv kernel must be C_out x {c_in} x 3 x 3 x 3, got {kernel.shape}"
        )
    pad = np.pad(x, ((1, 1), (1, 1), (1, 1), (0, 0)))
    out = np.broadcast_to(bias, (t, h, w, c_out)).copy()
    for dt in range(3):
        for dh in range(3):
            for dw in range(3):
                window = pad[dt:dt + t, dh:dh + h, dw:dw + w, :]
                out += window @ kernel[:, :, dt, dh, dw].T
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
    x_mod = clip.data * factor[:, None, None, :]
    out = 0.5 * x_mod + 0.5 * conv3d_same(x_mod, weights.conv_kernel, weights.conv_bias)
    return FeatureClip(data=out, level=clip.level)


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


_ARRAY_FIELDS = ("phase_w1", "phase_b1", "phase_w2", "phase_b2",
                 "edg_w1", "edg_b1", "edg_w2", "edg_b2",
                 "wq", "wk", "wv", "wo", "gate_w", "gate_b",
                 "conv_kernel", "conv_bias")


def save_cpda_weights(weights: CpdaWeights, path: Path | str) -> None:
    payload: dict = {"heads": weights.heads, "alpha": weights.alpha}
    for name in _ARRAY_FIELDS:
        arr = getattr(weights, name)
        payload[name] = {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cpda_weights(path: Path | str) -> CpdaWeights:
    with open(path) as fh:
        payload = json.load(fh)
    kwargs = {"heads": int(payload["heads"]), "alpha": float(payload["alpha"])}
    for name in _ARRAY_FIELDS:
        entry = payload[name]
        kwargs[name] = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
    return CpdaWeights(**kwargs)


def save_feature_clip(clip: FeatureClip, path: Path | str) -> None:
    """Binary clip: magic FTC1, u32 T,H,W,C, then row-major little-endian f32."""
    t, h, w, c = clip.data.shape
    with open(path, "wb") as fh:
        fh.write(b"FTC1")
        fh.write(struct.pack("<4I", t, h, w, c))
        fh.write(clip.data.astype("<f4").tobytes())


def load_feature_clip(path: Path | str) -> FeatureClip:
    (t, h, w, c), payload = read_binary(path, b"FTC1", 4, 4, 4)
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(t, h, w, c)
    return FeatureClip(data=data)
