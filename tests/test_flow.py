from __future__ import annotations

import numpy as np
import pytest

from echodyn.errors import DimensionError, FormatError, ParameterError
from echodyn.flow import FlowField, FlowParams, compute_flow, flow_sequence, load_flow, save_flow
from echodyn.seqio import FrameSequence

from conftest import make_frames


def gaussian_blob(h, w, cx, cy, sig=8.0, amp=0.5):
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return 0.2 + amp * np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sig ** 2)))


def block_match_shift(prev, next, patch_slice, max_shift=3):
    """Brute-force integer block matching: the (dx, dy) minimizing SSD."""
    best = None
    patch = prev[patch_slice]
    ys, xs = patch_slice
    for dy in range(-max_shift, max_shift + 1):
        for dx in range(-max_shift, max_shift + 1):
            shifted = next[ys.start + dy:ys.stop + dy, xs.start + dx:xs.stop + dx]
            ssd = float(((patch - shifted) ** 2).sum())
            if best is None or ssd < best[0]:
                best = (ssd, dx, dy)
    return best[1], best[2]


def test_identical_frames_exactly_zero():
    a = gaussian_blob(64, 64, 32, 32)
    f = compute_flow(a, a, FlowParams())
    assert np.abs(f.u).max() == 0.0
    assert np.abs(f.v).max() == 0.0


def test_constant_frames_zero():
    a = np.full((32, 32), 0.5)
    f = compute_flow(a, a.copy(), FlowParams())
    assert np.abs(f.u).max() == 0.0 and np.abs(f.v).max() == 0.0


def test_blob_translation_recovery():
    h = w = 128
    a = gaussian_blob(h, w, 60, 64)
    b = gaussian_blob(h, w, 61, 64)
    # oracle first: integer block matching on the blob patch says (+1, 0)
    dx, dy = block_match_shift(a, b, (slice(48, 80), slice(44, 76)))
    assert (dx, dy) == (1, 0)
    f = compute_flow(a, b, FlowParams())
    support = a > 0.25
    assert 0.6 <= f.u[support].mean() <= 1.4
    assert np.abs(f.v[support]).mean() < 0.3


def test_brightness_reversal_antisymmetry():
    a = gaussian_blob(96, 96, 44, 48)
    b = gaussian_blob(96, 96, 46, 49)
    fab = compute_flow(a, b, FlowParams())
    fba = compute_flow(b, a, FlowParams())
    assert np.abs(fab.u + fba.u).max() < 0.3
    assert np.abs(fab.v + fba.v).max() < 0.3


def test_determinism_bit_identical():
    a = gaussian_blob(64, 64, 30, 32)
    b = gaussian_blob(64, 64, 31, 33)
    f1 = compute_flow(a, b, FlowParams())
    f2 = compute_flow(a, b, FlowParams())
    assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)


@pytest.mark.parametrize("shift", [0.5, 1.0])
def test_subpixel_translation_recovery(shift):
    ys, xs = np.mgrid[0:128, 0:128].astype(float)
    pat0 = 0.5 + 0.25 * np.sin(2 * np.pi * xs / 32) * np.cos(2 * np.pi * ys / 40)
    pat1 = 0.5 + 0.25 * np.sin(2 * np.pi * (xs - shift) / 32) * np.cos(2 * np.pi * ys / 40)
    f = compute_flow(pat0, pat1, FlowParams())
    assert 0.6 * shift <= f.u.mean() <= 1.4 * shift


def test_dimension_errors():
    with pytest.raises(DimensionError):
        compute_flow(np.zeros((4, 4)), np.zeros((4, 5)), FlowParams())
    with pytest.raises(DimensionError):
        compute_flow(np.zeros((2, 2)), np.zeros((2, 2)), FlowParams())


def test_flow_params_validation():
    with pytest.raises(ParameterError):
        FlowParams(alpha=0.0)
    with pytest.raises(ParameterError):
        FlowParams(iterations=0)


def test_flow_sequence_lengths_and_static():
    frames = make_frames(2, 16, 16, lambda xs, ys, t: 0.3 + 0.1 * np.sin(xs / 3))
    seq = FrameSequence(frames=frames, ed_index=0, es_index=1)
    flows = flow_sequence(seq)
    assert len(flows) == 1
    static = make_frames(4, 16, 16, lambda xs, ys, t: 0.3 + 0.1 * np.sin(xs / 3))
    seq4 = FrameSequence(frames=static, ed_index=0, es_index=2)
    for f in flow_sequence(seq4):
        assert np.abs(f.u).max() == 0.0 and np.abs(f.v).max() == 0.0


def test_phantom_flow_peaks_mid_systole(phantom, phantom_flows):
    seq, _ = phantom
    mid = seq.t_count // 4  # wall speed is maximal a quarter cycle after ED
    mag_mid = np.hypot(phantom_flows[mid].u, phantom_flows[mid].v).mean()
    mag_ed = np.hypot(phantom_flows[seq.ed_index].u, phantom_flows[seq.ed_index].v).mean()
    assert mag_mid > mag_ed


def test_flow_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    f = FlowField(u=rng.normal(size=(6, 5)).astype(np.float32).astype(float),
                  v=rng.normal(size=(6, 5)).astype(np.float32).astype(float))
    save_flow(f, tmp_path / "f.bin")
    back = load_flow(tmp_path / "f.bin")
    assert np.array_equal(back.u, f.u) and np.array_equal(back.v, f.v)
    raw = (tmp_path / "f.bin").read_bytes()
    assert raw[:4] == b"FLW1"


def test_load_flow_truncated_header(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"FLW1\x06\x00")
    with pytest.raises(FormatError, match="truncated header"):
        load_flow(tmp_path / "f.bin")
