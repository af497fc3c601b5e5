"""Segmentation-sequence evaluation: Dice, HD95, and temporal consistency.

HD95 is the 95th percentile (linear interpolation) of the symmetric
boundary-to-boundary Euclidean distances, with boundaries taken as
8-connected border pixels. TCD summarizes frame-to-frame stability as
the mean absolute change of the per-frame Dice series; lower is better.

`evaluate` labels each frame pair with one `find_objects` call over the two
frames stacked, and scores each label on both frames cropped to its box.
It scores a sequence whose frames have more than THREADED_PIXELS pixels in
two halves, one per thread (`halves.in_halves`); the report is the same
either way. Measured in-process, ms per frame, serial against two
threads, on 64-frame phantom masks whose heart scales with the frame
(2-vCPU x86 VM): 64^2 0.35 vs 0.50, 96^2 0.50 vs 0.55, 112^2 0.58 vs 0.59,
128^2 0.68 vs 0.64, 160^2 0.88 vs 0.70, 192^2 1.17 vs 0.81, 256^2 1.82 vs
1.11. Up to 128^2 the two threads lose, or gain little, to contention for
the GIL.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_erosion, distance_transform_edt, find_objects

from .errors import DimensionError, InsufficientDataError, UndefinedDistanceError
from .halves import in_halves
from .seqio import MaskSequence, write_csv

LABEL_NAMES = {1: "LV", 2: "LVM", 3: "LA"}

_FULL_3X3 = np.ones((3, 3), dtype=bool)
# `evaluate` scores frames of more than this many pixels on two threads
THREADED_PIXELS = 128 * 128


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
    return _hd95_on_crop(a[box], b[box])


def _hd95_on_crop(a: np.ndarray, b: np.ndarray) -> float:
    """`hd95` of two non-empty boolean masks of one shape whose union's
    bounding box is the whole array."""
    ba = boundary_pixels(a)
    bb = boundary_pixels(b)
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
    Each frame pair is stacked and labelled by one `find_objects` call: a
    label's (y, x) box in the stack is the union of its boxes on the two
    sides, which holds every pixel of both masks, and one comparison crops
    both; a label absent on both sides gets an empty crop.
    Frames of more than THREADED_PIXELS pixels are scored in two halves
    (`halves.in_halves`), each writing its frames' scores into their slots.
    """
    if pred.masks.shape != gt.masks.shape:
        raise DimensionError(
            f"mask sequence shapes differ: {pred.masks.shape} vs {gt.masks.shape}"
        )
    labels = len(LABEL_NAMES)
    t_count = gt.t_count
    if t_count < 2:  # TCD needs two frames
        raise InsufficientDataError(f"need at least 2 frames to evaluate, got {t_count}")
    dices: list[list[float]] = [[0.0] * t_count for _ in range(labels)]
    hd95s: list[list[float | None]] = [[None] * t_count for _ in range(labels)]

    def score(first: int, stop: int) -> None:
        for t in range(first, stop):
            pair = np.stack([pred.masks[t], gt.masks[t]])
            for i, box in enumerate(find_objects(pair, labels)):  # label value i + 1
                window = box[1:] if box else (slice(0), slice(0))
                p, g = pair[(slice(None), *window)] == i + 1
                dices[i][t] = dice(p, g)
                if g.any() and p.any():
                    hd95s[i][t] = _hd95_on_crop(p, g)

    in_halves(score, t_count, gt.masks.shape[1] * gt.masks.shape[2] > THREADED_PIXELS)
    per_label: dict[str, LabelMetrics] = {}
    for name, dice_t, hd95_t in zip(LABEL_NAMES.values(), dices, hd95s):
        defined = [h for h in hd95_t if h is not None]
        per_label[name] = LabelMetrics(
            dice_per_frame=dice_t,
            mean_dice=float(np.mean(dice_t)),
            hd95_per_frame=hd95_t,
            mean_hd95=float(np.mean(defined)) if defined else None,
            tcd=tcd(np.array(dice_t)),
            hd95_missing_frames=[t for t, h in enumerate(hd95_t) if h is None],
        )
    average_tcd = float(np.mean([m.tcd for m in per_label.values()]))
    return MetricsReport(per_label=per_label, average_tcd=average_tcd)


def save_report_csv(report: MetricsReport, path: Path | str) -> None:
    """Flat rows `label,frame,dice,hd95` plus per-label and overall summary rows."""
    labels = report.per_label.items()
    rows = [[name, t, d, h] for name, m in labels
            for t, (d, h) in enumerate(zip(m.dice_per_frame, m.hd95_per_frame))]
    for name, m in labels:
        rows += [[name, "mean", m.mean_dice, m.mean_hd95], [name, "tcd", m.tcd, None]]
    rows.append(["all", "average_tcd", report.average_tcd, None])
    write_csv(path, ["label", "frame", "dice", "hd95"], rows)
