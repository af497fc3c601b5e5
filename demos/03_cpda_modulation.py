#!/usr/bin/env python3
"""Phase-dynamics attention on a feature clip derived from the phantom.

Builds a small T x H x W x C feature clip by average-pooling phantom
frames into two channels, derives the cardiac phase track from the ED/ES
indices, feeds the P_EDG dynamic features from the EDG pipeline, and runs
the attention forward pass with seeded random weights. Shows the channel
modulation factors staying inside [1-alpha, 1+alpha] and the identity
configuration reproducing the input exactly.

Usage: python3 demos/03_cpda_modulation.py [-o OUTDIR]
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from echodyn.cpda import (
    FeatureClip,
    cpda_forward,
    identity_conv_kernel,
    phase_track,
    save_feature_clip,
    seed_cpda_weights,
)
from echodyn.dynamics import align_pedg
from echodyn.pipeline import PipelineConfig, run_edg
from echodyn.seqio import PhantomSpec, generate_phantom


def pooled_clip(seq, factor=16):
    """Downsample frames into a (T, H/f, W/f, 2) clip: [intensity, |grad|]."""
    t, (h, w) = seq.t_count, seq.shape
    small = seq.frames.reshape(t, h // factor, factor, w // factor, factor).mean(axis=(2, 4))
    gy, gx = np.gradient(seq.frames, axis=(1, 2))
    grad = np.hypot(gx, gy).reshape(t, h // factor, factor, w // factor, factor).mean(axis=(2, 4))
    return FeatureClip(data=np.stack([small, grad], axis=-1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("-o", "--out", default="demo_output/03_cpda_modulation")
    args = parser.parse_args()
    out = Path(args.out)

    seq, _ = generate_phantom(PhantomSpec(seed=7))
    clip = pooled_clip(seq)
    print(f"feature clip: {clip.data.shape} (T x H x W x C) from the phantom")

    pedg = align_pedg(run_edg(seq, PipelineConfig(seed=7)).pedg, clip.t_count)
    phase = phase_track(clip.t_count, seq.ed_index, seq.es_index)
    print(f"phase track: phi(ED)={phase.phi[seq.ed_index]:.2f}, "
          f"phi(ES)={phase.phi[seq.es_index]:.2f}; P_EDG rows aligned to T={clip.t_count}")

    weights = seed_cpda_weights(channels=clip.channels, d_p=8, d_e=8, k2=8,
                                heads=2, alpha=0.5, seed=42)
    enhanced = cpda_forward(clip, phase, pedg, weights)
    save_feature_clip(enhanced, out / "enhanced.ftc")
    delta = np.abs(enhanced.data - clip.data).mean(axis=(1, 2, 3))
    print("\nper-frame mean |enhanced - input| under seeded random weights:")
    for t, d in enumerate(delta):
        print(f"  t={t:2d} {d:.4f}")

    # identity configuration: zero gate -> S = 0.5 -> factor 1; identity kernel
    ident = replace(weights, gate_w=np.zeros_like(weights.gate_w),
                    gate_b=np.zeros_like(weights.gate_b),
                    conv_kernel=identity_conv_kernel(clip.channels),
                    conv_bias=np.zeros(clip.channels))
    same = cpda_forward(clip, phase, pedg, ident)
    print(f"\nidentity configuration max |out - in| = "
          f"{np.abs(same.data - clip.data).max():.2e} (zero gate + center-tap kernel)")
    print(f"enhanced clip written to {out}/enhanced.ftc")


if __name__ == "__main__":
    main()
