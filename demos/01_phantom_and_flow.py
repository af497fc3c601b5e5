#!/usr/bin/env python3
"""Phantom generation and dense optical flow, step by step.

Generates the seeded beating-heart phantom, writes it to disk in the PGM
directory format, computes Horn-Schunck flow between consecutive frames,
and shows that the recovered motion follows the cosine contraction law:
near-zero at end-diastole/end-systole, maximal a quarter cycle in.

Usage: python3 demos/01_phantom_and_flow.py [-o OUTDIR]
"""

import argparse
from pathlib import Path

import numpy as np

from echodyn.flow import FlowParams, flow_sequence, save_flow
from echodyn.seqio import PhantomSpec, generate_phantom, save_masks, save_sequence


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("-o", "--out", default="demo_output/01_phantom_and_flow")
    args = parser.parse_args()
    out = Path(args.out)

    spec = PhantomSpec(t_count=32, height=128, width=128,
                       contraction_fraction=0.3, speckle_sigma=0.02, seed=7)
    seq, masks = generate_phantom(spec)
    print(f"phantom: {seq.t_count} frames of {seq.shape[0]}x{seq.shape[1]}, "
          f"ED at t={seq.ed_index}, ES at t={seq.es_index}")
    save_sequence(seq, out / "frames")
    save_masks(masks, out / "masks")

    lv_area = (masks.masks == 1).sum(axis=(1, 2))
    print(f"LV area shrinks {lv_area[seq.ed_index]} -> {lv_area[seq.es_index]} px "
          f"({100 * (1 - lv_area[seq.es_index] / lv_area[seq.ed_index]):.0f}% by area)")

    print("\ncomputing Horn-Schunck flow for each frame pair ...")
    flows = flow_sequence(seq, FlowParams())
    for t, f in enumerate(flows):
        save_flow(f, out / f"flow_{t:04d}.bin")

    print("mean |flow| per frame pair (px/frame):")
    mags = [f.magnitude.mean() for f in flows]
    peak = max(mags)
    for t, m in enumerate(mags):
        bar = "#" * int(40 * m / peak)
        marker = " <- ED" if t == seq.ed_index else (" <- ES" if t == seq.es_index else "")
        print(f"  t={t:2d} {m:.4f} {bar}{marker}")
    q = seq.t_count // 4
    print(f"\nflow peaks near t={int(np.argmax(mags))} (wall speed is maximal a "
          f"quarter cycle from ED, around t={q} and t={3 * q}), and dips at the "
          "ED/ES extremes.")
    print(f"outputs in {out}/")


if __name__ == "__main__":
    main()
