#!/usr/bin/env python3
"""Dice, HD95 and temporal consistency on perturbed phantom masks.

Takes the phantom ground truth, fabricates three synthetic "predictions"
(perfect, uniformly eroded, alternately dilated) and scores each. The
point: a consistently biased segmentation keeps a low TCD even though its
Dice drops, while frame-to-frame jitter drives TCD up - exactly what the
temporal-consistency metric is for.

Usage: python3 demos/04_segmentation_metrics.py [-o OUTDIR]
"""

import argparse
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion

from echodyn.metrics import evaluate, save_report_csv
from echodyn.seqio import MaskSequence, PhantomSpec, generate_phantom, write_json


def erode_lv(masks):
    out = masks.copy()
    for t in range(masks.shape[0]):
        lv = masks[t] == 1
        out[t][lv & ~binary_erosion(lv, np.ones((3, 3)))] = 0
    return out


def jitter_lv(masks):
    out = masks.copy()
    for t in range(0, masks.shape[0], 2):
        lv = masks[t] == 1
        out[t][binary_dilation(lv, np.ones((3, 3)))] = 1
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("-o", "--out", default="demo_output/04_segmentation_metrics")
    args = parser.parse_args()
    out = Path(args.out)

    _, gt_masks = generate_phantom(PhantomSpec(seed=7))
    gt = MaskSequence(masks=gt_masks.masks)
    candidates = {
        "perfect": gt.masks,
        "eroded-every-frame": erode_lv(gt.masks),
        "dilated-every-other": jitter_lv(gt.masks),
    }

    print(f"{'prediction':22s} {'Dice(LV)':>9s} {'HD95(LV)':>9s} {'TCD(LV)':>9s} {'avg TCD':>9s}")
    for name, masks in candidates.items():
        report = evaluate(MaskSequence(masks=masks), gt)
        lv = report.per_label["LV"]
        print(f"{name:22s} {lv.mean_dice:9.4f} {lv.mean_hd95:9.2f} "
              f"{lv.tcd:9.4f} {report.average_tcd:9.4f}")
        write_json(out / f"report_{name}.json", report)
        save_report_csv(report, out / f"report_{name}.csv")

    print("\nthe eroded prediction loses Dice but stays temporally stable (low TCD);")
    print("the alternating dilation keeps a similar Dice yet its TCD is an order")
    print(f"of magnitude worse. Reports written to {out}/")


if __name__ == "__main__":
    main()
