from __future__ import annotations

import ast
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import echodyn
from echodyn.cli import main
from echodyn.errors import (
    DimensionError,
    FormatError,
    GeometryError,
    InsufficientDataError,
    ParameterError,
)
from echodyn.seqio import (
    FrameSequence,
    MaskSequence,
    PhantomSpec,
    generate_phantom,
    load_masks,
    load_sequence,
    output_set,
    phantom_radius,
    quantize_frame,
    read_csv,
    read_pgm,
    save_masks,
    save_sequence,
    write_csv,
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


def test_pgm_trailing_bytes_rejected(tmp_path):
    write_pgm(tmp_path / "x.pgm", np.zeros((3, 4), dtype=np.uint8))
    with open(tmp_path / "x.pgm", "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(FormatError, match="expected 12 pixel bytes, found 13"):
        read_pgm(tmp_path / "x.pgm")
    for header in (b"P5\nfour 3\n255\n", b"P5\n+4 3\n255\n", b"P5\n4 3\n2_55\n"):
        (tmp_path / "y.pgm").write_bytes(header + bytes(12))
        with pytest.raises(FormatError, match="non-numeric PGM header"):
            read_pgm(tmp_path / "y.pgm")


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


@pytest.mark.parametrize("text,needle", [
    ("{", "malformed JSON"),
    ('{"t": "2", "h": 4, "w": 4, "ed": 0, "es": 1}', "'t' must be int, got '2'"),
    ('{"t": 2, "h": 4, "w": 4, "ed": 0, "es": 1, "meta": [1]}', "'meta' must be dict"),
], ids=["malformed", "t-string", "meta-list"])
def test_bad_meta_json_is_a_format_error(tmp_path, capsys, text, needle):
    save_sequence(FrameSequence(frames=np.zeros((2, 4, 4)), ed_index=0, es_index=1),
                  tmp_path / "d")
    (tmp_path / "d" / "meta.json").write_text(text)
    with pytest.raises(FormatError, match=needle):
        load_sequence(tmp_path / "d")
    assert main(["flow", str(tmp_path / "d"), "-o", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert "error [FormatError]" in err and needle in err


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
    for dtype, bad in ((np.int64, -1), (np.float64, 1.5), (np.float64, np.nan),
                       (np.uint8, 4), (np.uint16, 256), (np.float64, -1.0)):
        masks = np.zeros((2, 4, 4), dtype=dtype)
        masks[1, 2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(FormatError, match="mask labels"):
                MaskSequence(masks=masks)
    labels = np.tile(np.arange(4, dtype=np.uint16), (2, 4, 1))
    accepted = MaskSequence(masks=labels).masks
    assert accepted.dtype == np.uint8 and np.array_equal(accepted, labels)


def test_mask_sequence_keeps_a_uint8_array_without_a_copy():
    labels = np.tile(np.arange(4, dtype=np.uint8), (2, 4, 1))
    assert np.shares_memory(MaskSequence(masks=labels).masks, labels)


@pytest.mark.parametrize("shape", [(2, 0, 4), (2, 4, 0)])
def test_mask_sequence_rejects_zero_height_or_width(shape):
    with pytest.raises(DimensionError, match="H, W >= 1"):
        MaskSequence(masks=np.zeros(shape, dtype=np.uint8))


def test_masks_roundtrip(tmp_path):
    masks = MaskSequence(masks=np.tile(np.arange(4, dtype=np.uint8), (3, 4, 1)))
    save_masks(masks, tmp_path / "m")
    back = load_masks(tmp_path / "m")
    assert np.array_equal(back.masks, masks.masks)


def test_load_masks_names_a_misfit_mask(tmp_path):
    save_masks(MaskSequence(masks=np.zeros((3, 4, 4), dtype=np.uint8)), tmp_path / "m")
    write_pgm(tmp_path / "m" / "mask_0002.pgm", np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(DimensionError, match=r"mask_0002.pgm has shape \(4, 5\), expected \(4, 4\)"):
        load_masks(tmp_path / "m")


def test_load_masks_rejects_numbering_gap(tmp_path):
    save_masks(MaskSequence(masks=np.zeros((3, 4, 4), dtype=np.uint8)), tmp_path / "m")
    (tmp_path / "m" / "mask_0001.pgm").unlink()
    with pytest.raises(FormatError, match="mask_0001.pgm"):
        load_masks(tmp_path / "m")


def test_load_masks_ignores_unnumbered_mask_files(tmp_path):
    masks = MaskSequence(masks=np.arange(3, dtype=np.uint8)[:, None, None].repeat(4, 1).repeat(4, 2))
    save_masks(masks, tmp_path / "m")
    for stray in ("mask_0001_old.pgm", "mask_1.pgm", "mask_00001.pgm", "mask_.pgm"):
        write_pgm(tmp_path / "m" / stray, np.zeros((4, 4), dtype=np.uint8))
    assert np.array_equal(load_masks(tmp_path / "m").masks, masks.masks)


def test_save_masks_over_a_longer_series_replaces_it(tmp_path):
    # the older series' mask_0004.pgm and mask_0005.pgm once stayed, and
    # load_masks counted them
    save_masks(MaskSequence(masks=np.full((6, 4, 4), 3, dtype=np.uint8)), tmp_path / "m")
    write_pgm(tmp_path / "m" / "mask_10000.pgm", np.zeros((4, 4), dtype=np.uint8))
    kept = ["frame_0005.pgm", "mask_0005_old.pgm", "mask_00005.pgm", "mask_5.pgm", "notes.txt"]
    for name in kept:
        (tmp_path / "m" / name).write_bytes(b"not a series file")
    masks = MaskSequence(masks=np.tile(np.arange(4, dtype=np.uint8), (4, 4, 1)))
    save_masks(masks, tmp_path / "m")
    assert np.array_equal(load_masks(tmp_path / "m").masks, masks.masks)
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == sorted(
        kept + [f"mask_{i:04d}.pgm" for i in range(4)])


def test_load_masks_names_a_gap_among_stray_files(tmp_path):
    save_masks(MaskSequence(masks=np.zeros((3, 4, 4), dtype=np.uint8)), tmp_path / "m")
    write_pgm(tmp_path / "m" / "mask_0001_old.pgm", np.zeros((4, 4), dtype=np.uint8))
    (tmp_path / "m" / "mask_0001.pgm").unlink()
    with pytest.raises(FormatError, match="mask_0001.pgm is missing"):
        load_masks(tmp_path / "m")


def test_load_sequence_names_a_missing_frame(tmp_path, capsys):
    frames = np.zeros((8, 4, 4))
    save_sequence(FrameSequence(frames=frames, ed_index=0, es_index=4), tmp_path / "d")
    (tmp_path / "d" / "frame_0005.pgm").unlink()
    with pytest.raises(FormatError, match="frame_0005.pgm is missing"):
        load_sequence(tmp_path / "d")
    assert main(["flow", str(tmp_path / "d"), "-o", str(tmp_path / "f")]) == 1
    assert "error [FormatError]" in capsys.readouterr().err


def test_save_sequence_failing_midway_keeps_the_earlier_save(tmp_path, monkeypatch):
    # the failed save once removed the earlier save's meta.json and replaced
    # frames 0000-0002, leaving a directory that did not load
    from echodyn import seqio

    earlier = FrameSequence(frames=np.zeros((6, 4, 4)), ed_index=0, es_index=3)
    save_sequence(earlier, tmp_path / "d")
    saved = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}
    real_write_pgm = seqio.write_pgm

    def failing_write_pgm(path, data):
        if path.name == "frame_0003.pgm":
            raise OSError("disk full")
        real_write_pgm(path, data)

    monkeypatch.setattr(seqio, "write_pgm", failing_write_pgm)
    with pytest.raises(OSError, match="disk full"):
        save_sequence(FrameSequence(frames=np.ones((8, 4, 4)), ed_index=1, es_index=5),
                      tmp_path / "d")
    assert {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()} == saved
    loaded = load_sequence(tmp_path / "d")
    assert np.array_equal(loaded.frames, earlier.frames)
    assert (loaded.ed_index, loaded.es_index) == (0, 3)


def test_a_commit_whose_second_rename_fails_leaves_frames_without_meta_json(
        tmp_path, monkeypatch):
    # the old meta.json goes first, so frames renamed before the failure are
    # never read with it; the temps not yet renamed are removed
    seq = FrameSequence(frames=np.zeros((4, 4, 4)), ed_index=0, es_index=2)
    save_sequence(seq, tmp_path / "d")
    real_replace, calls = os.replace, []

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_sequence(seq, tmp_path / "d")
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
        f"frame_{i:04d}.pgm" for i in range(4)]
    with pytest.raises(FormatError, match="missing meta.json"):
        load_sequence(tmp_path / "d")


def test_an_output_set_commits_in_order_and_an_inner_set_joins_it(tmp_path):
    (tmp_path / "old").write_text("old")
    with output_set() as pending:
        write_pgm(tmp_path / "a.pgm", np.zeros((2, 2), dtype=np.uint8))
        with output_set() as inner:
            assert inner is pending
            pending.append((None, tmp_path / "old"))
            write_csv(tmp_path / "b.csv", ["x"], [[1.0]])
        assert [target.name for _, target in pending] == ["a.pgm", "old", "b.csv"]
        assert not (tmp_path / "a.pgm").exists() and (tmp_path / "old").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.csv"]
    with pytest.raises(RuntimeError), output_set():
        write_csv(tmp_path / "b.csv", ["y"], [[2.0]])
        raise RuntimeError("later stage failed")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.csv"]
    assert (tmp_path / "b.csv").read_bytes() == b"x\r\n1.0\r\n"


def test_a_missing_eds_file_is_named(tmp_path, capsys):
    # load_sequence once took a missing x.eds for a frame directory and said
    # "x.eds: missing meta.json"
    with pytest.raises(FileNotFoundError, match="x.eds"):
        load_sequence(tmp_path / "x.eds")
    assert main(["flow", str(tmp_path / "x.eds"), "-o", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [FileNotFoundError]") and "x.eds'" in err


def test_a_directory_named_eds_is_not_read_as_frames(tmp_path):
    seq = FrameSequence(frames=np.zeros((2, 4, 4)), ed_index=0, es_index=1)
    save_sequence(seq, tmp_path / "d")
    (tmp_path / "d").rename(tmp_path / "d.eds")
    with pytest.raises(IsADirectoryError):
        load_sequence(tmp_path / "d.eds")


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


def test_phantom_without_speckle_is_noise_free():
    seq, masks = generate_phantom(PhantomSpec(speckle_sigma=0.0, seed=1))
    other_seed, _ = generate_phantom(PhantomSpec(speckle_sigma=0.0, seed=2))
    speckled, speckled_masks = generate_phantom(PhantomSpec(seed=1))
    assert np.array_equal(seq.frames, other_seed.frames)  # no random draw reaches a frame
    assert np.all(seq.frames[:, 0, 0] == 0.45)  # bare background gray
    assert not np.all(speckled.frames[:, 0, 0] == 0.45)
    assert np.array_equal(masks.masks, speckled_masks.masks)


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
    with pytest.raises(ParameterError):
        PhantomSpec(contraction_fraction=0.95)
    with pytest.raises(ParameterError):
        PhantomSpec(t_count=1)


@pytest.mark.parametrize("name,value", [
    ("base_radius", float("nan")), ("base_radius", float("inf")), ("base_radius", -5.0),
    ("base_radius", 0.0), ("speckle_sigma", float("nan")), ("speckle_sigma", float("inf")),
    ("speckle_sigma", -0.1)])
def test_phantom_spec_rejects_non_finite_and_out_of_range(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be .* and finite, got {value}"):
        PhantomSpec(**{name: value})


@pytest.mark.parametrize("flag,value,field", [
    ("--speckle", "nan", "speckle_sigma"), ("--speckle", "inf", "speckle_sigma"),
    ("--base-radius", "-5", "base_radius"), ("--base-radius", "nan", "base_radius")])
def test_phantom_bad_parameter_exits_1_and_writes_nothing(tmp_path, capsys, flag, value, field):
    out = tmp_path / "p"
    assert main(["phantom", "--t", "4", "--size", "64", flag, value, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error [ParameterError]: {field} must be" in err
    assert not out.exists()


def test_meta_json_fields(tmp_path):
    seq, _ = generate_phantom(PhantomSpec(t_count=4, height=64, width=64,
                                          base_radius=12.0))
    save_sequence(seq, tmp_path / "p")
    meta = json.loads((tmp_path / "p" / "meta.json").read_text())
    assert {"t", "h", "w", "ed", "es"} <= set(meta)
    assert meta["t"] == 4 and meta["h"] == 64


def test_only_seqio_lays_out_written_files():
    # seqio owns every on-disk layout, both ways: no other module opens an
    # atomic write or packs a binary header or CSV row of its own, imports a
    # file-format module, or opens a file
    calls = []
    for path in sorted(Path(echodyn.__file__).parent.glob("*.py")):
        if path.name == "seqio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if (name.endswith("atomic_write") or name in ("struct.pack", "csv.writer")
                        or name == "open" or name.endswith(".open")):
                    calls.append(f"{path.name}:{node.lineno}: {name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                           else [node.module])
                calls += [f"{path.name}:{node.lineno}: import {module}" for module in modules
                          if module in ("csv", "json", "struct")]
    assert calls == []


def test_importing_seqio_loads_no_other_stage():
    # the package root re-exports nothing, so one submodule imports alone
    code = ("import sys, echodyn.seqio; print(sorted(m for m in sys.modules "
            "if m in ('echodyn.flow', 'echodyn.cpda', 'echodyn.dynamics')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          check=True, capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def test_read_csv_reads_what_write_csv_wrote(tmp_path):
    rows = [[0, 0.1, -2.5e-300], [1, 1e300, 3.0]]
    write_csv(tmp_path / "x.csv", ["t", "a", "b"], rows)
    header, values = read_csv(tmp_path / "x.csv")
    assert header == ["t", "a", "b"]
    assert values.dtype == np.float64 and values.tolist() == rows


@pytest.mark.parametrize("text,needle", [
    ("t,a\n0,nan\n", "line 2: non-finite value"),
    ("t,a\n0,1\n1,-inf\n", "line 3: non-finite value"),
    ("t,a\n0,x\n", "line 2: non-numeric value"),
    ("t,a\n0,1\n1,2,3\n", "line 3 has 3 values, the header has 2"),
    ("t,p0,p1\n0\n1\n", "line 2 has 1 values, the header has 3"),
    ("t,a\n", "no data rows"),
    ("", "no data rows"),
], ids=["nan", "inf", "text", "ragged", "header-width", "header-only", "empty"])
def test_read_csv_rejects_naming_the_line(tmp_path, text, needle):
    (tmp_path / "x.csv").write_text(text)
    with pytest.raises(FormatError, match=needle):
        read_csv(tmp_path / "x.csv")


@pytest.mark.parametrize("name", ["t_count", "height", "width", "cycles"])
def test_phantom_sizes_past_int64_are_rejected(name):
    # 10**30 escaped from numpy as "Maximum allowed dimension exceeded"
    for value in (2 ** 63, 10 ** 30):
        with pytest.raises(ParameterError, match=f"{name} must be >= .* and fit int64"):
            PhantomSpec(**{name: value})


@pytest.mark.parametrize("radius", [0.999, 1e-300])
def test_phantom_radius_below_one_pixel_is_rejected(radius):
    # 1e-300 overflowed the ellipse test with a RuntimeWarning
    with pytest.raises(ParameterError, match="base_radius must be >= 1 and finite"):
        PhantomSpec(base_radius=radius)
    PhantomSpec(base_radius=1.0)
