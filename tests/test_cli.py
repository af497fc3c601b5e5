from __future__ import annotations

import json

import numpy as np
import pytest

from echodyn.cli import PipelineConfig, main, stage_seed
from echodyn.descriptor import SectorGrid
from echodyn.errors import ParameterError
from echodyn.cpda import load_feature_clip, save_feature_clip, FeatureClip, identity_conv_kernel, seed_cpda_weights, save_cpda_weights
from echodyn.seqio import FrameSequence, MaskSequence, load_masks, save_masks, save_sequence

from conftest import make_frames


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_stage_seed_named_streams():
    assert stage_seed(7, "phantom") != stage_seed(7, "kmeans")
    assert stage_seed(7, "phantom") == stage_seed(7, "phantom")
    assert stage_seed(7, "phantom") != stage_seed(8, "phantom")


def test_phantom_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["phantom", "--t", "16", "--size", "64", "--base-radius", "12",
                     "--seed", "7", "-o", str(out)]) == 0
    assert dir_bytes(a / "frames") == dir_bytes(b / "frames")
    assert dir_bytes(a / "masks") == dir_bytes(b / "masks")
    assert "ed=0" in capsys.readouterr().out


def test_phantom_zero_contraction(tmp_path):
    out = tmp_path / "p"
    assert main(["phantom", "--t", "8", "--size", "64", "--base-radius", "12",
                 "--contraction", "0", "-o", str(out)]) == 0
    masks = load_masks(out / "masks")
    assert all(np.array_equal(masks.masks[0], m) for m in masks.masks)


def test_phantom_t3_reports_indices(tmp_path, capsys):
    from echodyn.seqio import PhantomSpec, phantom_radius
    assert main(["phantom", "--t", "3", "--size", "64", "--base-radius", "12",
                 "-o", str(tmp_path / "p3")]) == 0
    out = capsys.readouterr().out
    radii = [phantom_radius(t, PhantomSpec(t_count=3, height=64, width=64,
                                           base_radius=12.0)) for t in range(3)]
    assert "ed=0" in out and f"es={int(np.argmin(radii))}" in out


def test_edg_pipeline_outputs_and_determinism(tmp_path, capsys):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "20", "--size", "64", "--base-radius", "12",
                 "--seed", "3", "-o", str(src)]) == 0
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    args = ["edg", str(src / "frames"), "--m-centers", "8", "--pca-k", "6",
            "--k2", "4", "--epochs", "50", "--seed", "3"]
    assert main(args + ["-o", str(run1)]) == 0
    assert main(args + ["-o", str(run2)]) == 0
    for name in ("edg.csv", "pedg.csv", "model.json"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes()
    # pedg.csv carries one row per flow frame (T-1)
    lines = (run1 / "pedg.csv").read_text().splitlines()
    assert len(lines) == 1 + 19
    assert lines[0] == "t,p0,p1,p2,p3"
    model = json.loads((run1 / "model.json").read_text())
    assert len(model["centers"]) == 8
    assert "final training mse=" in capsys.readouterr().out
    assert sorted(p.name for p in run1.glob("edg_*.pgm"))  # heatmaps exist


def test_edg_static_sequence_warns(tmp_path, capsys):
    frames = make_frames(20, 48, 48, lambda xs, ys, t: 0.3 + 0.3 * np.sin(xs / 4))
    seq = FrameSequence(frames=frames, ed_index=0, es_index=10)
    save_sequence(seq, tmp_path / "static")
    out = tmp_path / "out"
    assert main(["edg", str(tmp_path / "static"), "--m-centers", "4",
                 "--pca-k", "3", "--k2", "2", "--epochs", "10",
                 "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "no motion detected" in captured.err
    sectors = np.array([
        [float(line.split(",")[3]) for line in (out / "edg.csv").read_text().splitlines()[1:]]
    ])
    assert np.allclose(sectors, 0.0)
    for pgm in out.glob("edg_*.pgm"):
        payload = pgm.read_bytes()
        assert set(payload[payload.index(b"255\n") + 4:]) == {0}


def test_cpda_demo_identity_path(tmp_path, capsys):
    rng = np.random.default_rng(5)
    clip = FeatureClip(data=rng.normal(size=(4, 6, 6, 3)))
    save_feature_clip(clip, tmp_path / "in.ftc")
    wts = seed_cpda_weights(channels=3, d_p=2, d_e=2, k2=2, heads=1, seed=1)
    object.__setattr__(wts, "gate_w", np.zeros_like(wts.gate_w))
    object.__setattr__(wts, "gate_b", np.zeros_like(wts.gate_b))
    object.__setattr__(wts, "conv_kernel", identity_conv_kernel(3))
    object.__setattr__(wts, "conv_bias", np.zeros(3))
    save_cpda_weights(wts, tmp_path / "w.json")
    assert main(["cpda-demo", str(tmp_path / "in.ftc"), "--weights", str(tmp_path / "w.json"),
                 "--ed", "0", "--es", "2", "-o", str(tmp_path / "out.ftc")]) == 0
    out = load_feature_clip(tmp_path / "out.ftc")
    assert np.abs(out.data - clip.data).max() <= 1e-6
    printed = capsys.readouterr().out
    assert "mean_abs_delta=0.000000" in printed


def test_cpda_demo_seeded_weights_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    clip = FeatureClip(data=rng.normal(size=(3, 4, 4, 2)))
    save_feature_clip(clip, tmp_path / "in.ftc")
    outs = []
    for name in ("o1.ftc", "o2.ftc"):
        assert main(["cpda-demo", str(tmp_path / "in.ftc"), "--seed-weights",
                     "--seed", "11", "--ed", "0", "--es", "1",
                     "-o", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_eval_perfect(tmp_path, capsys, phantom):
    _, masks = phantom
    sub = MaskSequence(masks=masks.masks[:6])
    save_masks(sub, tmp_path / "gt")
    save_masks(sub, tmp_path / "pred")
    assert main(["eval", str(tmp_path / "pred"), str(tmp_path / "gt"),
                 "--report", str(tmp_path / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "dice=1.0000 hd95=0.00 tcd=0.0000" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()


def test_eval_empty_label_and_jitter(tmp_path, capsys, phantom):
    from scipy.ndimage import binary_dilation
    _, masks = phantom
    gt = MaskSequence(masks=masks.masks[:6])
    save_masks(gt, tmp_path / "gt")
    dropped = gt.masks.copy()
    dropped[dropped == 3] = 0
    save_masks(MaskSequence(masks=dropped), tmp_path / "pred")
    assert main(["eval", str(tmp_path / "pred"), str(tmp_path / "gt"),
                 "--report", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["per_label"]["LA"]["mean_dice"] == 0.0
    assert report["per_label"]["LA"]["mean_hd95"] is None

    jittery = gt.masks.copy()
    for t in range(0, 6, 2):
        lv = gt.masks[t] == 1
        jittery[t][binary_dilation(lv, np.ones((3, 3)))] = 1  # grows into the wall
    save_masks(MaskSequence(masks=jittery), tmp_path / "pred2")
    assert main(["eval", str(tmp_path / "pred2"), str(tmp_path / "gt"),
                 "--report", str(tmp_path / "r2.json")]) == 0
    report2 = json.loads((tmp_path / "r2.json").read_text())
    assert report2["per_label"]["LV"]["tcd"] > 0.0


def test_seed_weights_subcommand(tmp_path):
    out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
    for out in (out1, out2):
        assert main(["seed-weights", "--channels", "4", "--heads", "2",
                     "--seed", "9", "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["heads"] == 2


def test_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["phantom", "--nonsense-flag"])
    assert exc.value.code == 2
    assert main(["edg", str(tmp_path / "missing"), "-o", str(tmp_path / "o")]) == 1
    # geometry failure surfaces as a runtime error, exit 1
    assert main(["phantom", "--size", "32", "--base-radius", "40",
                 "-o", str(tmp_path / "g")]) == 1


def test_bad_flow_flag_is_a_parameter_error(tmp_path, capsys):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    capsys.readouterr()
    assert main(["edg", str(src / "frames"), "--iterations", "0",
                 "-o", str(tmp_path / "e")]) == 1
    assert main(["flow", str(src / "frames"), "--alpha", "-1",
                 "-o", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err.count("error [ParameterError]") == 2


def test_help_lists_defaults(capsys):
    for sub in ("phantom", "flow", "edg", "cpda-demo", "eval", "seed-weights"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text
    with pytest.raises(SystemExit):
        main(["edg", "--help"])
    text = capsys.readouterr().out
    for needle in ("default 4", "default 12", "default 10", "default 16", "default 200"):
        assert needle in text


def test_flow_subcommand(tmp_path):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    out = tmp_path / "flows"
    assert main(["flow", str(src / "frames"), "-o", str(out)]) == 0
    files = sorted(out.glob("flow_*.bin"))
    assert len(files) == 3
    assert files[0].read_bytes()[:4] == b"FLW1"


def test_pipeline_config_roundtrip(tmp_path):
    for cfg in (PipelineConfig(), PipelineConfig(grid=SectorGrid(center=(30.0, 41.5)))):
        cfg.to_json(tmp_path / "cfg.json")
        back = PipelineConfig.from_json(tmp_path / "cfg.json")
        assert back == cfg
    partial = {"seed": 99, "rbf": {"m_centers": 4}}
    (tmp_path / "partial.json").write_text(json.dumps(partial))
    got = PipelineConfig.from_json(tmp_path / "partial.json")
    assert got.seed == 99 and got.rbf.m_centers == 4
    assert got.pca_k == 10  # untouched default


def test_pipeline_config_rejects_unknown_keys(tmp_path, capsys):
    with pytest.raises(ParameterError, match="rbf.m_center"):
        PipelineConfig.from_dict({"rbf": {"m_center": 4}})
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    (tmp_path / "typo.json").write_text(json.dumps({"flow": {"iteratons": 5}}))
    assert main(["flow", str(src / "frames"), "--config", str(tmp_path / "typo.json"),
                 "-o", str(tmp_path / "f")]) == 1
    assert "flow.iteratons" in capsys.readouterr().err


def test_malformed_config_json_exits_1(tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"flow": {')
    with pytest.raises(ParameterError, match="malformed JSON"):
        PipelineConfig.from_json(tmp_path / "bad.json")
    assert main(["seed-weights", "--channels", "2", "--config", str(tmp_path / "bad.json"),
                 "-o", str(tmp_path / "w.json")]) == 1
    assert "error [ParameterError]" in capsys.readouterr().err


@pytest.mark.parametrize("raw,key", [
    ({"grid": {"r_bins": "4"}}, "grid.r_bins"),
    ({"grid": {"center": "x"}}, "grid.center"),
    ({"rbf": {"epochs": True}}, "rbf.epochs"),
])
def test_pipeline_config_rejects_wrong_value_types(raw, key):
    with pytest.raises(ParameterError, match=f"config '{key}' must be"):
        PipelineConfig.from_dict(raw)


def test_wrong_config_type_exits_before_flow(tmp_path, capsys):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"pca_k": "6"}))
    assert main(["edg", str(src / "frames"), "--config", str(tmp_path / "cfg.json"),
                 "-o", str(tmp_path / "e")]) == 1
    assert "config 'pca_k' must be int" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_rbf_seed_is_not_a_config_key(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"rbf": {"seed": 5}}))
    assert main(["seed-weights", "--channels", "2", "--config", str(tmp_path / "cfg.json"),
                 "-o", str(tmp_path / "w.json")]) == 1
    assert "unknown config key 'rbf.seed'" in capsys.readouterr().err


def test_cpda_demo_truncated_clip_exits_1(tmp_path, capsys):
    (tmp_path / "c.ftc").write_bytes(b"FTC1\x01\x00")
    assert main(["cpda-demo", str(tmp_path / "c.ftc"), "--seed-weights", "--ed", "0",
                 "--es", "1", "-o", str(tmp_path / "out.ftc")]) == 1
    assert "error [FormatError]" in capsys.readouterr().err
