"""Segmentation-sequence evaluation: Dice, HD95, and temporal consistency.

HD95 is the 95th percentile (linear interpolation) of the symmetric
boundary-to-boundary Euclidean distances, with boundaries taken as
8-connected border pixels. TCD summarizes frame-to-frame stability as
the mean absolute change of the per-frame Dice series; lower is better.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_erosion, distance_transform_edt, find_objects

from .errors import DimensionError, InsufficientDataError, UndefinedDistanceError
from .seqio import MaskSequence, write_csv

LABEL_NAMES = {1: "LV", 2: "LVM", 3: "LA"}

_FULL_3X3 = np.ones((3, 3), dtype=bool)


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|A n B| / (|A| + |B|); two empty masks count as a perfect 1.0."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """8-connectivity border: mask pixels with any non-mask neighbor (image edge counts)."""
    mask = np.asarray(mask, dtype=bool)
    interior = binary_erosion(mask, structure=_FULL_3X3, border_value=0)
    return mask & ~interior


def hd95(a: np.ndarray, b: np.ndarray) -> float:
    """95th-percentile symmetric boundary distance in pixels."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    if not a.any() or not b.any():
        raise UndefinedDistanceError("hd95 undefined for an empty mask")
    # Both boundaries, and so every nearest pair, lie in the bounding box of
    # a | b. A mask pixel on the box edge borders a non-mask pixel outside it,
    # as the erosion's border_value=0 assumes there, so the crop changes no
    # boundary pixel and no distance.
    box = find_objects((a | b).view(np.uint8))[0]
    ba = boundary_pixels(a[box])
    bb = boundary_pixels(b[box])
    dist_to_bb = distance_transform_edt(~bb)
    dist_to_ba = distance_transform_edt(~ba)
    distances = np.concatenate([dist_to_bb[ba], dist_to_ba[bb]])
    return float(np.percentile(distances, 95))


def tcd(dice_per_frame: np.ndarray) -> float:
    """Mean absolute frame-to-frame change of the Dice series."""
    d = np.asarray(dice_per_frame, dtype=np.float64)
    if d.ndim != 1 or d.shape[0] < 2:
        raise InsufficientDataError("need at least 2 per-frame Dice values")
    return float(np.mean(np.abs(np.diff(d))))


@dataclass(frozen=True)
class LabelMetrics:
    dice_per_frame: list[float]
    mean_dice: float
    hd95_per_frame: list[float | None]  # None where undefined (empty mask)
    mean_hd95: float | None
    tcd: float
    hd95_missing_frames: list[int]


@dataclass(frozen=True)
class MetricsReport:
    per_label: dict[str, LabelMetrics]
    average_tcd: float


def evaluate(pred: MaskSequence, gt: MaskSequence) -> MetricsReport:
    """Per-label Dice/HD95/TCD over a mask sequence pair.

    HD95 is skipped (recorded as missing) on frames where either side's
    label mask is empty; mean_hd95 averages the defined frames only.
    Each frame is labelled once per side (`find_objects`), and each label
    is scored on the union of its two bounding boxes, which holds every
    pixel of both masks; a label absent on both sides gets an empty box.
    """
    if pred.masks.shape != gt.masks.shape:
        raise DimensionError(
            f"mask sequence shapes differ: {pred.masks.shape} vs {gt.masks.shape}"
        )
    labels = len(LABEL_NAMES)
    boxes = [[_union_box(*pair) for pair in zip(find_objects(p, labels),
                                                 find_objects(g, labels))]
             for p, g in zip(pred.masks, gt.masks)]
    per_label: dict[str, LabelMetrics] = {}
    for value, name in LABEL_NAMES.items():
        dices: list[float] = []
        hd95s: list[float | None] = []
        missing: list[int] = []
        for t in range(gt.t_count):
            box = boxes[t][value - 1]
            p = pred.masks[t][box] == value
            g = gt.masks[t][box] == value
            dices.append(dice(p, g))
            if g.any() and p.any():
                hd95s.append(hd95(p, g))
            else:
                hd95s.append(None)
                missing.append(t)
        defined = [h for h in hd95s if h is not None]
        per_label[name] = LabelMetrics(
            dice_per_frame=dices,
            mean_dice=float(np.mean(dices)),
            hd95_per_frame=hd95s,
            mean_hd95=float(np.mean(defined)) if defined else None,
            tcd=tcd(np.array(dices)),
            hd95_missing_frames=missing,
        )
    average_tcd = float(np.mean([m.tcd for m in per_label.values()]))
    return MetricsReport(per_label=per_label, average_tcd=average_tcd)


def _union_box(a: tuple | None, b: tuple | None) -> tuple[slice, ...]:
    """The smallest box holding boxes `a` and `b` (None for no box); an empty
    box when both are None."""
    boxes = [box for box in (a, b) if box is not None]
    if not boxes:
        return (slice(0, 0), slice(0, 0))
    return tuple(slice(min(s.start for s in axis), max(s.stop for s in axis))
                 for axis in zip(*boxes))


def save_report_csv(report: MetricsReport, path: Path | str) -> None:
    """Flat rows `label,frame,dice,hd95` plus per-label and overall summary rows."""
    labels = report.per_label.items()
    rows = [[name, t, d, h] for name, m in labels
            for t, (d, h) in enumerate(zip(m.dice_per_frame, m.hd95_per_frame))]
    for name, m in labels:
        rows += [[name, "mean", m.mean_dice, m.mean_hd95], [name, "tcd", m.tcd, None]]
    rows.append(["all", "average_tcd", report.average_tcd, None])
    write_csv(path, ["label", "frame", "dice", "hd95"], rows)
