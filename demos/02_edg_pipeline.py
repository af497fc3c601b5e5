#!/usr/bin/env python3
"""The full dynamic-learning pipeline: descriptors, RBF model, EDG, P_EDG.

Walks the phantom sequence through polar-sector pooling, standardize+PCA,
k-means-seeded RBF training on the one-step state differences, and the
residual-energy remap that yields the Echo-Dynamics Graph, all in one
`echodyn.pipeline.run_edg` call. Prints the training curve and the
per-frame EDG totals so the diastole/systole energy pattern is visible
in the terminal.

Usage: python3 demos/02_edg_pipeline.py [-o OUTDIR]
"""

import argparse
from pathlib import Path

from echodyn.pipeline import PipelineConfig, run_edg, save_edg_result
from echodyn.seqio import PhantomSpec, generate_phantom


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("-o", "--out", default="demo_output/02_edg_pipeline")
    args = parser.parse_args()
    out = Path(args.out)

    seq, _ = generate_phantom(PhantomSpec(seed=7))
    config = PipelineConfig(seed=7)  # 4 rings x 12 angular bins, PCA k=10, 16 RBF centers
    result = run_edg(seq, config)
    grid = config.grid
    print(f"pooled {len(result.flows)} flow fields over a "
          f"{grid.r_bins}x{grid.theta_bins} sector grid "
          f"({grid.descriptor_length} raw features per frame pair)")

    z, pca = result.z, result.pca
    evr = pca.explained_variance / pca.explained_variance.sum()
    print(f"state trajectory z: {z.shape[0]} x {z.shape[1]}; "
          f"top-3 PCA components carry {100 * evr[:3].sum():.0f}% of the kept variance")

    model = result.model
    hist = model.residual_history
    print(f"\nRBF training ({config.rbf.m_centers} centers, sigma={model.sigma:.2f}, "
          f"{config.rbf.epochs} epochs of cyclic LMS):")
    for e in (0, 9, 49, 99, 199):
        print(f"  epoch {e + 1:3d}: mse = {hist[e]:.3f}")

    totals = result.maps.sum(axis=(1, 2))
    print("\ntotal EDG energy per frame (DIASTOLE fills, SYSTOLE empties):")
    peak = totals.max()
    for t, v in enumerate(totals):
        bar = "#" * int(40 * v / peak)
        marker = ""
        if t in (0, len(totals) - 1):
            marker = " <- near ED (quiet)"
        elif t in (14, 15, 16):
            marker = " <- near ES (quiet)"
        elif t in (7, 8, 22, 23):
            marker = " <- peak wall speed"
        print(f"  t={t:2d} {v:7.3f} {bar}{marker}")
    quiet = totals[[0, 14, 15, 16, len(totals) - 1]].mean()
    busy = totals[[7, 8, 22, 23]].mean()
    print(f"\npeak-speed frames carry {busy / quiet:.1f}x the energy of the "
          "ED/ES-adjacent frames - the dynamic signature diminishes at the extremes.")

    save_edg_result(result, out)
    print(f"EDG heatmaps, edg.csv, pedg.csv and model.json written to {out}/")


if __name__ == "__main__":
    main()
