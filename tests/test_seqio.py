from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from echodyn.errors import (
    DimensionError,
    FormatError,
    GeometryError,
    InsufficientDataError,
)
from echodyn.seqio import (
    FrameSequence,
    MaskSequence,
    PhantomSpec,
    generate_phantom,
    load_masks,
    load_sequence,
    phantom_radius,
    quantize_frame,
    read_pgm,
    save_masks,
    save_sequence,
    write_pgm,
)


def test_quantize_endpoints_and_half():
    assert quantize_frame(np.array([[0.0]]))[0, 0] == 0
    assert quantize_frame(np.array([[1.0]]))[0, 0] == 255
    # round half up: 0.5*255 = 127.5 -> 128
    assert quantize_frame(np.array([[0.5]]))[0, 0] == 128


def test_pgm_roundtrip(tmp_path):
    data = np.arange(48, dtype=np.uint8).reshape(6, 8)
    write_pgm(tmp_path / "x.pgm", data)
    assert np.array_equal(read_pgm(tmp_path / "x.pgm"), data)


def test_pgm_byte_normalization(tmp_path):
    write_pgm(tmp_path / "g.pgm", np.full((2, 2), 128, dtype=np.uint8))
    seq_dir = tmp_path / "seq"
    seq_dir.mkdir()
    for i in range(2):
        write_pgm(seq_dir / f"frame_{i:04d}.pgm", np.full((2, 2), 128, dtype=np.uint8))
    (seq_dir / "meta.json").write_text('{"t":2,"h":2,"w":2,"ed":0,"es":1}')
    seq = load_sequence(seq_dir)
    assert np.allclose(seq.frames, 128 / 255)
    assert abs(seq.frames[0, 0, 0] - 0.50196) < 1e-4


def test_identity_two_frame_directory(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    img = np.full((8, 8), 77, dtype=np.uint8)
    for i in range(2):
        write_pgm(d / f"frame_{i:04d}.pgm", img)
    (d / "meta.json").write_text('{"t":2,"h":8,"w":8,"ed":0,"es":1}')
    seq = load_sequence(d)
    assert seq.t_count == 2
    assert np.array_equal(seq.frames[0], seq.frames[1])


def test_save_load_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.random((5, 12, 10))
    seq = FrameSequence(frames=frames, ed_index=0, es_index=2, meta={"k": "v"})
    save_sequence(seq, tmp_path / "out")
    back = load_sequence(tmp_path / "out")
    # 8-bit quantization bound, and exact equality after re-quantization
    assert np.abs(back.frames - seq.frames).max() <= 1 / 510 + 1e-12
    assert np.array_equal(quantize_frame(back.frames), quantize_frame(seq.frames))
    assert (back.ed_index, back.es_index) == (0, 2)
    assert back.meta == {"k": "v"}


def test_eds_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    seq = FrameSequence(frames=rng.random((3, 6, 7)), ed_index=0, es_index=1)
    save_sequence(seq, tmp_path / "clip.eds")
    back = load_sequence(tmp_path / "clip.eds")
    assert back.frames.shape == (3, 6, 7)
    assert np.array_equal(quantize_frame(back.frames), quantize_frame(seq.frames))
    assert (back.ed_index, back.es_index) == (0, 1)


def test_zero_and_one_payload_bytes(tmp_path):
    seq = FrameSequence(frames=np.zeros((2, 4, 4)), ed_index=0, es_index=1)
    save_sequence(seq, tmp_path / "z")
    raw = (tmp_path / "z" / "frame_0000.pgm").read_bytes()
    assert raw.endswith(b"\x00" * 16)
    seq1 = FrameSequence(frames=np.ones((2, 4, 4)), ed_index=0, es_index=1)
    save_sequence(seq1, tmp_path / "o")
    assert (tmp_path / "o" / "frame_0001.pgm").read_bytes().endswith(b"\xff" * 16)


def test_load_errors(tmp_path):
    with pytest.raises(FormatError):
        load_sequence(tmp_path)  # no meta.json
    d = tmp_path / "bad"
    d.mkdir()
    (d / "meta.json").write_text('{"t":2,"h":4,"w":4,"ed":0,"es":1}')
    write_pgm(d / "frame_0000.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(d / "frame_0001.pgm", np.zeros((5, 4), dtype=np.uint8))
    with pytest.raises(DimensionError):
        load_sequence(d)
    short = tmp_path / "short"
    short.mkdir()
    (short / "meta.json").write_text('{"t":1,"h":4,"w":4,"ed":0,"es":0}')
    with pytest.raises(InsufficientDataError):
        load_sequence(short)
    with pytest.raises(FormatError):
        (tmp_path / "meta_missing_field").mkdir()
        (tmp_path / "meta_missing_field" / "meta.json").write_text('{"t":2}')
        load_sequence(tmp_path / "meta_missing_field")


def test_eds_zero_dimension_rejected(tmp_path):
    for h, w in ((0, 4), (4, 0)):
        path = tmp_path / f"z{h}{w}.eds"
        path.write_bytes(b"EDS1" + struct.pack("<5I", 2, h, w, 0, 1))
        with pytest.raises(FormatError, match="zero dimension"):
            load_sequence(path)


def test_frame_sequence_rejects_nan():
    frames = np.full((2, 4, 4), 0.5)
    frames[1, 2, 3] = np.nan
    with pytest.raises(FormatError):
        FrameSequence(frames=frames, ed_index=0, es_index=1)


def test_frame_sequence_invariants():
    with pytest.raises(InsufficientDataError):
        FrameSequence(frames=np.zeros((1, 4, 4)), ed_index=0, es_index=0)
    with pytest.raises(FormatError):
        FrameSequence(frames=np.zeros((2, 4, 4)), ed_index=0, es_index=0)
    with pytest.raises(FormatError):
        FrameSequence(frames=np.full((2, 4, 4), 1.5), ed_index=0, es_index=1)
    with pytest.raises(DimensionError):
        FrameSequence(frames=np.zeros((2, 0, 4)), ed_index=0, es_index=1)


def test_mask_labels_validated():
    with pytest.raises(FormatError):
        MaskSequence(masks=np.full((2, 4, 4), 9))


def test_masks_roundtrip(tmp_path):
    masks = MaskSequence(masks=np.tile(np.arange(4, dtype=np.uint8), (3, 4, 1)))
    save_masks(masks, tmp_path / "m")
    back = load_masks(tmp_path / "m")
    assert np.array_equal(back.masks, masks.masks)


def test_load_masks_rejects_numbering_gap(tmp_path):
    save_masks(MaskSequence(masks=np.zeros((3, 4, 4), dtype=np.uint8)), tmp_path / "m")
    (tmp_path / "m" / "mask_0001.pgm").unlink()
    with pytest.raises(FormatError, match="mask_0001.pgm"):
        load_masks(tmp_path / "m")


def test_phantom_radius_formula():
    spec = PhantomSpec(t_count=32, base_radius=24.0, contraction_fraction=0.3)
    assert phantom_radius(0, spec) == pytest.approx(24.0)
    assert phantom_radius(16, spec) == pytest.approx(24.0 * 0.7)


def test_phantom_ed_es_by_bruteforce():
    spec = PhantomSpec(t_count=32)
    seq, _ = generate_phantom(spec)
    radii = [phantom_radius(t, spec) for t in range(spec.t_count)]
    assert seq.ed_index == int(np.argmax(radii)) == 0
    assert seq.es_index == int(np.argmin(radii)) == 16


def test_phantom_t3_es_by_bruteforce():
    # exact math ties r(1) == r(2); in float64 cos(4pi/3) lands a hair below
    # -0.5, so the brute-force argmin decides which index wins
    spec = PhantomSpec(t_count=3, height=64, width=64, base_radius=12.0)
    radii = [phantom_radius(t, spec) for t in range(3)]
    assert radii[1] == pytest.approx(radii[2])
    seq, _ = generate_phantom(spec)
    assert seq.ed_index == 0
    assert seq.es_index == int(np.argmin(radii))


def test_phantom_determinism():
    a_seq, a_masks = generate_phantom(PhantomSpec(seed=5))
    b_seq, b_masks = generate_phantom(PhantomSpec(seed=5))
    assert np.array_equal(a_seq.frames, b_seq.frames)
    assert np.array_equal(a_masks.masks, b_masks.masks)


def test_phantom_static_heart():
    spec = PhantomSpec(contraction_fraction=0.0)
    seq, masks = generate_phantom(spec)
    assert all(np.array_equal(masks.masks[0], masks.masks[t]) for t in range(spec.t_count))
    # no contraction -> no decorrelation noise -> frames are bit-static too
    assert all(np.array_equal(seq.frames[0], seq.frames[t]) for t in range(spec.t_count))


def test_phantom_mask_partition_and_area_ordering(phantom):
    seq, masks = phantom
    lv_areas = (masks.masks == 1).sum(axis=(1, 2))
    for t in range(masks.t_count):
        m = masks.masks[t]
        assert set(np.unique(m)) <= {0, 1, 2, 3}
        assert not ((m == 1) & (m == 2)).any()
    assert lv_areas[seq.ed_index] == lv_areas.max()
    assert lv_areas[seq.es_index] == lv_areas.min()
    assert (lv_areas[seq.ed_index] >= lv_areas).all()


def test_phantom_geometry_error():
    with pytest.raises(GeometryError):
        generate_phantom(PhantomSpec(height=64, width=64, base_radius=40.0))


def test_phantom_spec_validation():
    with pytest.raises(FormatError):
        PhantomSpec(contraction_fraction=0.95)
    with pytest.raises(FormatError):
        PhantomSpec(speckle_sigma=-0.1)
    with pytest.raises(FormatError):
        PhantomSpec(t_count=1)


def test_meta_json_fields(tmp_path):
    seq, _ = generate_phantom(PhantomSpec(t_count=4, height=64, width=64,
                                          base_radius=12.0))
    save_sequence(seq, tmp_path / "p")
    meta = json.loads((tmp_path / "p" / "meta.json").read_text())
    assert {"t", "h", "w", "ed", "es"} <= set(meta)
    assert meta["t"] == 4 and meta["h"] == 64
