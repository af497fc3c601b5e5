from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.ndimage import binary_dilation, binary_erosion

from echodyn.errors import DimensionError, InsufficientDataError, UndefinedDistanceError
from echodyn.metrics import (
    boundary_pixels,
    dice,
    evaluate,
    hd95,
    save_report_csv,
    tcd,
)
from echodyn.seqio import MaskSequence, write_json


def brute_force_hd95(a, b):
    """Oracle: all-pairs Euclidean distances between 8-connected boundaries."""
    pa = np.argwhere(boundary_pixels(a))
    pb = np.argwhere(boundary_pixels(b))
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2).astype(float))
    dists = np.concatenate([d.min(axis=1), d.min(axis=0)])
    return float(np.percentile(dists, 95))


def random_blob_mask(rng, size=32):
    m = np.zeros((size, size), dtype=bool)
    cy, cx = rng.integers(8, size - 8, 2)
    r = rng.integers(3, 7)
    ys, xs = np.mgrid[0:size, 0:size]
    m[(ys - cy) ** 2 + (xs - cx) ** 2 <= r ** 2] = True
    if rng.random() < 0.5:
        m |= binary_dilation(m, iterations=int(rng.integers(1, 3)))
    return m


# ------------------------------------------------------------------- dice

def test_dice_identical_and_disjoint():
    a = np.zeros((8, 8), dtype=bool)
    a[2:5, 2:5] = True
    assert dice(a, a) == 1.0
    b = np.zeros((8, 8), dtype=bool)
    b[6:8, 6:8] = True
    assert dice(a, b) == 0.0


def test_dice_half_overlap():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0:4] = True          # |A| = 4
    b[0, 2:4] = b[1, 0:2] = True  # |B| = 4, overlap 2
    assert dice(a, b) == 0.5


def test_dice_empty_convention_and_symmetry():
    e = np.zeros((4, 4), dtype=bool)
    assert dice(e, e) == 1.0
    rng = np.random.default_rng(0)
    a = rng.random((10, 10)) > 0.6
    b = rng.random((10, 10)) > 0.6
    assert dice(a, b) == dice(b, a)
    with pytest.raises(DimensionError):
        dice(np.zeros((3, 3)), np.zeros((4, 3)))


# ------------------------------------------------------------------- hd95

def test_hd95_identical_zero():
    a = np.zeros((10, 10), dtype=bool)
    a[3:7, 3:7] = True
    assert hd95(a, a) == 0.0


def test_hd95_single_pixels_five_apart():
    a = np.zeros((12, 12), dtype=bool)
    b = np.zeros((12, 12), dtype=bool)
    a[4, 2] = True
    b[4, 7] = True
    assert hd95(a, b) == pytest.approx(5.0)


def test_hd95_shifted_square():
    a = np.zeros((20, 20), dtype=bool)
    b = np.zeros((20, 20), dtype=bool)
    a[5:15, 3:13] = True
    b[5:15, 6:16] = True  # shifted 3 px right
    assert abs(hd95(a, b) - 3.0) < 1e-9
    assert abs(hd95(a, b) - brute_force_hd95(a, b)) < 1e-9


def test_hd95_empty_mask_error():
    a = np.zeros((5, 5), dtype=bool)
    b = np.zeros((5, 5), dtype=bool)
    b[2, 2] = True
    with pytest.raises(UndefinedDistanceError):
        hd95(a, b)


def test_hd95_random_masks_match_bruteforce_and_bound():
    rng = np.random.default_rng(42)
    for _ in range(15):
        a = random_blob_mask(rng)
        b = random_blob_mask(rng)
        got = hd95(a, b)
        assert abs(got - brute_force_hd95(a, b)) < 1e-9
        # the percentile never exceeds the exact Hausdorff distance
        pa = np.argwhere(boundary_pixels(a))
        pb = np.argwhere(boundary_pixels(b))
        d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2).astype(float))
        exact_hd = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert got <= exact_hd + 1e-12


# rectangles flush against each edge and corner of a 12 x 10 frame
_EDGE_BOXES = {
    "top": (slice(0, 4), slice(3, 7)),
    "bottom": (slice(8, 12), slice(3, 7)),
    "left": (slice(4, 8), slice(0, 3)),
    "right": (slice(4, 8), slice(7, 10)),
    "top-left": (slice(0, 3), slice(0, 3)),
    "top-right": (slice(0, 3), slice(7, 10)),
    "bottom-left": (slice(9, 12), slice(0, 3)),
    "bottom-right": (slice(9, 12), slice(7, 10)),
}


@pytest.mark.parametrize("box", _EDGE_BOXES.values(), ids=_EDGE_BOXES.keys())
def test_hd95_masks_touching_the_image_edge_match_bruteforce(box):
    a = np.zeros((12, 10), dtype=bool)
    a[box] = True
    inner = np.zeros_like(a)
    inner[5:7, 4:6] = True
    grown = binary_dilation(a)  # touches the same edge, one pixel further in
    for other in (inner, grown, inner | a):
        for p, q in ((a, other), (other, a)):
            assert abs(hd95(p, q) - brute_force_hd95(p, q)) < 1e-9


def test_hd95_full_frame_against_smaller_masks_matches_bruteforce():
    full = np.ones((9, 13), dtype=bool)
    for box in [(slice(3, 6), slice(4, 8)), (slice(0, 2), slice(0, 13)),
                (slice(0, 9), slice(12, 13)), (slice(8, 9), slice(0, 1))]:
        small = np.zeros_like(full)
        small[box] = True
        for p, q in ((full, small), (small, full)):
            assert abs(hd95(p, q) - brute_force_hd95(p, q)) < 1e-9
    assert hd95(full, full) == 0.0


# -------------------------------------------------------------------- tcd

def test_tcd_constant_zero():
    assert tcd(np.array([0.8, 0.8, 0.8])) == 0.0


def test_tcd_hand_cases():
    assert tcd(np.array([1.0, 0.5, 1.0])) == pytest.approx(0.5)
    got = tcd(np.array([0.9, 0.92, 0.91, 0.95]))
    assert got == pytest.approx((0.02 + 0.01 + 0.04) / 3)


def test_tcd_errors_and_translation_invariance():
    with pytest.raises(InsufficientDataError):
        tcd(np.array([1.0]))
    rng = np.random.default_rng(1)
    d = rng.random(12)
    assert tcd(d) == pytest.approx(tcd(d + 0.05))


def test_tcd_jitter_ordering():
    rng = np.random.default_rng(2)
    base = np.full(16, 0.85)
    jittered = base + rng.normal(0, 0.03, 16)
    uniform = base - 0.03  # identical perturbation on every frame
    assert tcd(np.clip(jittered, 0, 1)) >= tcd(uniform)
    assert tcd(uniform) == 0.0


# --------------------------------------------------------------- evaluate

def test_evaluate_perfect_prediction(phantom):
    _, masks = phantom
    sub = MaskSequence(masks=masks.masks[:8])
    report = evaluate(sub, sub)
    for m in report.per_label.values():
        assert m.mean_dice == 1.0
        assert m.tcd == 0.0
        assert m.mean_hd95 == 0.0
    assert report.average_tcd == 0.0


def test_evaluate_eroded_everywhere_is_temporally_stable(phantom):
    _, masks = phantom
    gt = MaskSequence(masks=masks.masks[:10])
    eroded = gt.masks.copy()
    for t in range(gt.t_count):
        lv = gt.masks[t] == 1
        shrunk = binary_erosion(lv, np.ones((3, 3)))
        eroded[t][lv & ~shrunk] = 0
    pred = MaskSequence(masks=eroded)
    report = evaluate(pred, gt)
    lv = report.per_label["LV"]
    assert lv.mean_dice < 1.0
    assert lv.tcd < 0.02  # consistent undersegmentation stays stable in time


def test_evaluate_alternating_dilation_raises_tcd(phantom):
    _, masks = phantom
    gt = MaskSequence(masks=masks.masks[:10])
    # uniformly eroded prediction (baseline ordering case)
    eroded = gt.masks.copy()
    for t in range(gt.t_count):
        lv = gt.masks[t] == 1
        shrunk = binary_erosion(lv, np.ones((3, 3)))
        eroded[t][lv & ~shrunk] = 0
    jittery = gt.masks.copy()
    for t in range(0, gt.t_count, 2):
        lv = gt.masks[t] == 1
        jittery[t][binary_dilation(lv, np.ones((3, 3)))] = 1  # grows into the wall
    tcd_eroded = evaluate(MaskSequence(masks=eroded), gt).per_label["LV"].tcd
    tcd_jitter = evaluate(MaskSequence(masks=jittery), gt).per_label["LV"].tcd
    assert tcd_jitter > tcd_eroded


def test_evaluate_empty_prediction_label(phantom):
    _, masks = phantom
    gt = MaskSequence(masks=masks.masks[:4])
    pred_masks = gt.masks.copy()
    pred_masks[pred_masks == 3] = 0  # drop the LA entirely
    report = evaluate(MaskSequence(masks=pred_masks), gt)
    la = report.per_label["LA"]
    assert la.mean_dice == 0.0
    assert la.mean_hd95 is None
    assert la.hd95_missing_frames == list(range(4))


def test_evaluate_dimension_error(phantom):
    _, masks = phantom
    a = MaskSequence(masks=masks.masks[:4])
    b = MaskSequence(masks=masks.masks[:5])
    with pytest.raises(DimensionError):
        evaluate(a, b)


def test_report_outputs(tmp_path, phantom):
    _, masks = phantom
    sub = MaskSequence(masks=masks.masks[:5])
    report = evaluate(sub, sub)
    write_json(tmp_path / "r.json", report)
    save_report_csv(report, tmp_path / "r.csv")
    payload = json.loads((tmp_path / "r.json").read_text())
    assert set(payload["per_label"]) == {"LV", "LVM", "LA"}
    assert payload["average_tcd"] == 0.0
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "label,frame,dice,hd95"
    assert any(line.startswith("all,average_tcd") for line in lines)
