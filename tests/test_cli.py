from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from echodyn import cli, dynamics, flow, metrics
from echodyn.cli import PipelineConfig, main, stage_seed
from echodyn.descriptor import SectorGrid
from echodyn.dynamics import RbfConfig
from echodyn.flow import FlowParams
from echodyn.errors import ParameterError
from echodyn.cpda import load_feature_clip, save_feature_clip, FeatureClip, identity_conv_kernel, seed_cpda_weights
from echodyn.seqio import (FrameSequence, MaskSequence, atomic_write, from_json_dict, load_masks,
                           read_json, save_masks, save_sequence, write_json)

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
    write_json(tmp_path / "w.json", wts)
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


def _two_usable_cpus():
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return cpus[:2]


# the CLI with the process pinned to the CPUs in argv[1], before numpy (and
# OpenBLAS, which sizes its thread pool from the affinity it starts with) loads;
# a preexec_fn would run Python between fork and exec in a threaded process
_PINNED_CLI = """
import os, sys
os.sched_setaffinity(0, [int(c) for c in sys.argv[1].split(",")])
from echodyn.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(len(_two_usable_cpus()) < 2, reason="needs two usable CPUs")
def test_cpda_demo_and_edg_write_the_same_bytes_on_one_cpu_and_two(tmp_path):
    # in-process tests can only fake the affinity `halves` reads; OpenBLAS's
    # own thread count changes only in a process started on other CPUs
    cpus = _two_usable_cpus()
    save_feature_clip(FeatureClip(data=np.random.default_rng(8).normal(size=(16, 32, 32, 16))),
                      tmp_path / "clip.ftc")
    assert main(["phantom", "--t", "18", "--size", "160", "--seed", "5",
                 "-o", str(tmp_path / "seq")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(allowed):
        out = tmp_path / f"cpus{len(allowed)}"
        out.mkdir()
        printed = []
        for argv in (["cpda-demo", str(tmp_path / "clip.ftc"), "--seed-weights", "--ed", "0",
                      "--es", "8", "-o", str(out / "enhanced.ftc")],
                     ["edg", str(tmp_path / "seq" / "frames"), "-o", str(out / "edg")]):
            proc = subprocess.run([sys.executable, "-c", _PINNED_CLI,
                                   ",".join(map(str, allowed)), *argv], env=env,
                                  check=True, capture_output=True, timeout=300)
            printed.append(proc.stdout)
        return printed, dir_bytes(out), dir_bytes(out / "edg")

    one, two = run(cpus[:1]), run(cpus)
    assert one[1] and len(one[2]) > 3
    assert one == two


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


def test_eval_zero_width_masks_exit_1_without_a_report(tmp_path, capsys):
    for name in ("pred", "gt"):
        (tmp_path / name).mkdir()
        for i in range(2):
            (tmp_path / name / f"mask_{i:04d}.pgm").write_bytes(b"P5 0 3 255\n")
    assert main(["eval", str(tmp_path / "pred"), str(tmp_path / "gt"),
                 "--report", str(tmp_path / "r.json")]) == 1
    assert "error [DimensionError]" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()


_NO_SOLVER_IMPORTS = """
import sys
from echodyn.cli import main
from echodyn.seqio import MaskSequence, save_masks
import numpy as np
out = sys.argv[1]
masks = MaskSequence(masks=np.tile(np.arange(4, dtype=np.uint8), (2, 4, 1)))
save_masks(masks, out + "/m")
assert main(["eval", out + "/m", out + "/m", "--report", out + "/r.json"]) == 0
assert main(["seed-weights", "--channels", "2", "-o", out + "/w.json"]) == 0
print(sorted(m for m in ("scipy.sparse", "scipy.linalg") if m in sys.modules))
"""


def test_eval_and_seed_weights_import_no_flow_solver_modules(tmp_path):
    # scipy.sparse (the coarse band) and scipy.linalg (the banded solves)
    # are imported by flow on first use, not by the subcommands without flow
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _NO_SOLVER_IMPORTS, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_eval_report_json_reads_back(tmp_path, phantom):
    gt = phantom[1].masks[:6]
    pred = gt.copy()
    pred[1:3][pred[1:3] == 3] = 0  # LA missing on two frames: HD95 undefined there
    save_masks(MaskSequence(masks=gt), tmp_path / "gt")
    save_masks(MaskSequence(masks=pred), tmp_path / "pred")
    assert main(["eval", str(tmp_path / "pred"), str(tmp_path / "gt"),
                 "--report", str(tmp_path / "r.json")]) == 0
    report = metrics.evaluate(MaskSequence(masks=pred), MaskSequence(masks=gt))
    assert report.per_label["LA"].hd95_missing_frames == [1, 2]
    assert read_json(tmp_path / "r.json", metrics.MetricsReport) == report


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


@pytest.mark.parametrize("argv", [
    ["eval", "p", "g", "--report", "r.json", "--seed", "1"],
    ["eval", "p", "g", "--report", "r.json", "--config", "c.json"],
    ["flow", "frames", "--seed", "3", "-o", "f"],
])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    for sub in ("phantom", "edg", "cpda-demo", "seed-weights"):
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
        write_json(tmp_path / "cfg.json", cfg)
        back = PipelineConfig.from_json(tmp_path / "cfg.json")
        assert back == cfg
    partial = {"seed": 99, "rbf": {"m_centers": 4}, "flow": {"alpha": 15}}
    (tmp_path / "partial.json").write_text(json.dumps(partial))
    got = PipelineConfig.from_json(tmp_path / "partial.json")
    assert got.seed == 99 and got.rbf.m_centers == 4
    assert type(got.flow.alpha) is float and got.flow.alpha == 15.0  # a JSON int fits float
    assert got.pca_k == 10  # untouched default


def test_pipeline_config_rejects_unknown_keys(tmp_path, capsys):
    with pytest.raises(ParameterError, match="rbf.m_center"):
        from_json_dict(PipelineConfig, {"rbf": {"m_center": 4}}, ParameterError)
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
    with pytest.raises(ParameterError, match=f"'{key}' must be"):
        from_json_dict(PipelineConfig, raw, ParameterError)


# JSON text as Python's json reads it: the NaN and Infinity literals, and an
# exponent too large for a float, which parses as inf
@pytest.mark.parametrize("command,text,key", [
    ("flow", '{"flow": {"presmooth_sigma": NaN}}', "flow.presmooth_sigma"),
    ("flow", '{"flow": {"alpha": 1e999}}', "flow.alpha"),
    ("edg", '{"rbf": {"ridge": Infinity}}', "rbf.ridge"),
    ("edg", '{"grid": {"r_max": NaN}}', "grid.r_max"),
    ("edg", '{"grid": {"center": [-Infinity, 3.0]}}', "grid.center"),
], ids=["presmooth-nan", "alpha-1e999", "ridge-inf", "r_max-nan", "center-inf"])
def test_non_finite_config_value_exits_before_flow(tmp_path, capsys, monkeypatch,
                                                   command, text, key):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    monkeypatch.setattr(flow, "flow_sequence", lambda *a, **k: pytest.fail("flow ran"))
    (tmp_path / "cfg.json").write_text(text)
    with pytest.raises(ParameterError, match=f"'{key}' must be finite"):
        PipelineConfig.from_json(tmp_path / "cfg.json")
    assert main([command, str(src / "frames"), "--config", str(tmp_path / "cfg.json"),
                 "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error [ParameterError]" in err and f"'{key}' must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [
    lambda nan: FlowParams(alpha=nan),
    lambda nan: FlowParams(presmooth_sigma=nan),
    lambda nan: RbfConfig(learn_rate=nan),
    lambda nan: RbfConfig(sigma=nan),
    lambda nan: RbfConfig(ridge=nan),
    lambda nan: RbfConfig(ridge=-1.0),
    lambda nan: SectorGrid(r_max=nan),
], ids=["alpha", "presmooth_sigma", "learn_rate", "sigma", "ridge-nan", "ridge-negative",
        "r_max"])
def test_parameter_checks_reject_nan(make):
    with pytest.raises(ParameterError):
        make(float("nan"))


def test_non_finite_flag_value_exits_1(tmp_path, capsys):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    assert main(["flow", str(src / "frames"), "--presmooth", "nan",
                 "-o", str(tmp_path / "f")]) == 1
    assert "presmooth_sigma must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("make,field", [
    (lambda inf: FlowParams(alpha=inf), "alpha"),
    (lambda inf: FlowParams(presmooth_sigma=inf), "presmooth_sigma"),
    (lambda inf: RbfConfig(learn_rate=inf), "learn_rate"),
    (lambda inf: RbfConfig(sigma=inf), "sigma"),
    (lambda inf: RbfConfig(ridge=inf), "ridge"),
    (lambda inf: SectorGrid(r_max=inf), "r_max"),
], ids=["alpha", "presmooth_sigma", "learn_rate", "sigma", "ridge", "r_max"])
def test_parameter_checks_reject_infinity(make, field):
    with pytest.raises(ParameterError, match=f"^{field} must be .* finite"):
        make(float("inf"))


def test_infinite_flag_value_exits_before_any_solve(tmp_path, capsys, monkeypatch):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    monkeypatch.setattr(flow, "_solve", lambda *a, **k: pytest.fail("a pair was solved"))
    assert main(["flow", str(src / "frames"), "--alpha", "inf",
                 "-o", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert "error [ParameterError]" in err and "alpha must be > 0 and finite" in err
    assert not (tmp_path / "f").exists()


def test_flow_flag_help_reads_flow_params_defaults(capsys, monkeypatch):
    for params in (FlowParams(), FlowParams(alpha=7.5, iterations=9, presmooth_sigma=0.5)):
        monkeypatch.setattr(cli, "PipelineConfig", lambda: PipelineConfig(flow=params))
        with pytest.raises(SystemExit):
            main(["flow", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"weight (default {params.alpha})" in text
        assert f"iterations (default {params.iterations})" in text
        assert f"px (default {params.presmooth_sigma})" in text


def test_wrong_config_type_exits_before_flow(tmp_path, capsys):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"pca_k": "6"}))
    assert main(["edg", str(src / "frames"), "--config", str(tmp_path / "cfg.json"),
                 "-o", str(tmp_path / "e")]) == 1
    assert "'pca_k' must be int" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_rbf_seed_is_not_a_config_key(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"rbf": {"seed": 5}}))
    assert main(["seed-weights", "--channels", "2", "--config", str(tmp_path / "cfg.json"),
                 "-o", str(tmp_path / "w.json")]) == 1
    assert "unexpected key 'rbf.seed'" in capsys.readouterr().err


@pytest.mark.parametrize("weights", [[], ["--weights", "w.json", "--seed-weights"]])
def test_cpda_demo_needs_exactly_one_weight_source(tmp_path, capsys, weights):
    save_feature_clip(FeatureClip(data=np.zeros((3, 4, 4, 2))), tmp_path / "c.ftc")
    with pytest.raises(SystemExit) as exc:
        main(["cpda-demo", str(tmp_path / "c.ftc"), *weights, "--ed", "0", "--es", "1",
              "-o", str(tmp_path / "o.ftc")])
    assert exc.value.code == 2
    assert "--weights" in capsys.readouterr().err
    assert not (tmp_path / "o.ftc").exists()


def test_cpda_demo_truncated_clip_exits_1(tmp_path, capsys):
    (tmp_path / "c.ftc").write_bytes(b"FTC1\x01\x00")
    assert main(["cpda-demo", str(tmp_path / "c.ftc"), "--seed-weights", "--ed", "0",
                 "--es", "1", "-o", str(tmp_path / "out.ftc")]) == 1
    assert "error [FormatError]" in capsys.readouterr().err


def test_cpda_demo_weights_missing_keys_exits_1(tmp_path, capsys):
    save_feature_clip(FeatureClip(data=np.zeros((3, 4, 4, 2))), tmp_path / "c.ftc")
    (tmp_path / "w.json").write_text(json.dumps({"heads": 2, "alpha": 0.5}))
    assert main(["cpda-demo", str(tmp_path / "c.ftc"), "--weights", str(tmp_path / "w.json"),
                 "--ed", "0", "--es", "1", "-o", str(tmp_path / "out.ftc")]) == 1
    err = capsys.readouterr().err
    assert "error [FormatError]" in err and "missing key 'phase_w1'" in err
    assert not (tmp_path / "out.ftc").exists()


@pytest.mark.parametrize("text,needle", [
    ("t,p0,p1\n0,0.5,x\n", "line 2: non-numeric value"),
    ("t,p0,p1\n0,0.5,1.0\n1,0.5\n", "line 3 has 2 values, the header has 3"),
    ("t,p0,p1\n", "no data rows"),
    ("t,p0,p1\n0,0.5,nan\n", "line 2: non-finite value"),
    ("t,p0,p1\n0,inf,1.0\n", "line 2: non-finite value"),
    ("t,p0,p1\n0\n1\n", "line 2 has 1 values, the header has 3"),
], ids=["non-numeric", "ragged", "header-only", "nan", "inf", "header-width"])
def test_cpda_demo_malformed_pedg_csv_exits_1(tmp_path, capsys, text, needle):
    save_feature_clip(FeatureClip(data=np.zeros((3, 4, 4, 2))), tmp_path / "c.ftc")
    (tmp_path / "bad.csv").write_text(text)
    assert main(["cpda-demo", str(tmp_path / "c.ftc"), "--seed-weights",
                 "--ed", "0", "--es", "1", "--pedg", str(tmp_path / "bad.csv"),
                 "-o", str(tmp_path / "o.ftc")]) == 1
    err = capsys.readouterr().err
    assert "error [FormatError]" in err and "bad.csv" in err and needle in err
    assert not (tmp_path / "o.ftc").exists()


def test_atomic_write_leaves_nothing_behind_on_failure(tmp_path):
    target = tmp_path / "out.csv"

    def failing():
        with atomic_write(target, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("disk full")

    with pytest.raises(RuntimeError):
        failing()
    assert list(tmp_path.iterdir()) == []
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        failing()
    assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == b"old"
    with atomic_write(target, "wb") as fh:
        fh.write(b"new")
    assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == b"new"
    # the renamed file gets the mode a plain open() gives
    (tmp_path / "plain").write_bytes(b"")
    assert target.stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_atomic_write_makes_a_missing_parent_and_leaves_no_file_on_failure(tmp_path):
    target = tmp_path / "a" / "b" / "out.bin"
    with pytest.raises(RuntimeError):
        with atomic_write(target, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("disk full")
    assert list(target.parent.iterdir()) == []
    with atomic_write(target, "wb") as fh:
        fh.write(b"new")
    assert list(target.parent.iterdir()) == [target] and target.read_bytes() == b"new"


@pytest.mark.parametrize("argv,written", [
    (["seed-weights", "--channels", "4", "-o", "{out}/w.json"], ["w.json"]),
    (["cpda-demo", "{tmp}/in.ftc", "--seed-weights", "--ed", "0", "--es", "1",
      "-o", "{out}/enhanced.ftc"], ["enhanced.ftc"]),
    (["eval", "{tmp}/m", "{tmp}/m", "--report", "{out}/report.json"],
     ["report.csv", "report.json"]),
], ids=["seed-weights", "cpda-demo", "eval"])
def test_a_file_output_goes_into_a_missing_nested_directory(tmp_path, capsys, argv, written):
    # each exited 1 with a FileNotFoundError naming its temporary file
    save_feature_clip(FeatureClip(data=np.ones((2, 3, 3, 2))), tmp_path / "in.ftc")
    save_masks(MaskSequence(masks=np.zeros((2, 4, 4), dtype=np.uint8)), tmp_path / "m")
    out = tmp_path / "missing" / "nested"
    assert main([a.format(tmp=tmp_path, out=out) for a in argv]) == 0, capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == written


def test_atomic_write_follows_the_umask_at_write_time(tmp_path):
    old = os.umask(0o077)
    try:
        with atomic_write(tmp_path / "atomic") as fh:
            fh.write("x")
        (tmp_path / "plain").write_text("x")
    finally:
        os.umask(old)
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


@pytest.mark.filterwarnings("error")  # channels 0 once divided by zero in a numpy call
@pytest.mark.parametrize("flags", [
    ["--channels", "0"], ["--channels", "2", "--k2", "0"], ["--channels", "2", "--d-e", "0"],
    ["--channels", "2", "--d-p", "-1", "--heads", "1"],
    ["--channels", "2", "--k2", "-2", "--heads", "1"],
], ids=["channels-0", "k2-0", "d_e-0", "d_p-neg", "k2-neg"])
def test_seed_weights_size_below_one_exits_1(tmp_path, capsys, flags):
    assert main(["seed-weights", *flags, "-o", str(tmp_path / "w.json")]) == 1
    err = capsys.readouterr().err
    assert "error [ParameterError]" in err and "must be >= 1" in err
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("name,value", [("gate_b", [1.0]), ("phase_w1", [[1.0]])])
def test_cpda_demo_misshapen_weight_exits_1(tmp_path, capsys, name, value):
    save_feature_clip(FeatureClip(data=np.zeros((3, 4, 4, 4))), tmp_path / "c.ftc")
    write_json(tmp_path / "w.json", seed_cpda_weights(channels=4, seed=1))
    payload = json.loads((tmp_path / "w.json").read_text())
    payload[name] = value
    (tmp_path / "w.json").write_text(json.dumps(payload))
    assert main(["cpda-demo", str(tmp_path / "c.ftc"), "--weights", str(tmp_path / "w.json"),
                 "--ed", "0", "--es", "1", "-o", str(tmp_path / "o.ftc")]) == 1
    err = capsys.readouterr().err
    assert "error [ModelError]" in err and f"weight '{name}' must have shape" in err
    assert not (tmp_path / "o.ftc").exists()


@pytest.mark.parametrize("flags", [["--seed", "99"], ["--config", "cfg.json"]])
def test_cpda_demo_weights_rejects_seed_and_config(tmp_path, capsys, flags):
    save_feature_clip(FeatureClip(data=np.zeros((3, 4, 4, 2))), tmp_path / "c.ftc")
    write_json(tmp_path / "w.json", seed_cpda_weights(channels=2, seed=1))
    with pytest.raises(SystemExit) as exc:  # before any file is read
        main(["cpda-demo", str(tmp_path / "c.ftc"), "--weights", str(tmp_path / "w.json"),
              *flags, "--ed", "0", "--es", "1", "-o", str(tmp_path / "o.ftc")])
    assert exc.value.code == 2
    assert "not --weights" in capsys.readouterr().err
    assert not (tmp_path / "o.ftc").exists()


@pytest.mark.parametrize("make,field", [
    (lambda x: FlowParams(alpha=x), "alpha"),
    (lambda x: RbfConfig(sigma=x), "sigma"),
])
@pytest.mark.parametrize("value", [1e-300, 1e-160, 1e160])
def test_parameter_checks_reject_a_square_that_is_not_normal(make, field, value):
    # the solver and the kernel divide by the square, which underflows to 0
    # or a subnormal, or overflows to inf
    with pytest.raises(ParameterError, match=f"^{field} must be > 0 .* a normal, finite float"):
        make(value)
    make(1e-150)  # squares to a normal float: accepted
    make(1e154)


@pytest.mark.parametrize("alpha", ["1e-300", "1e160"])
def test_flow_alpha_with_no_normal_square_exits_before_any_solve(tmp_path, capsys,
                                                                 monkeypatch, alpha):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    monkeypatch.setattr(flow, "_solve", lambda *a, **k: pytest.fail("a pair was solved"))
    assert main(["flow", str(src / "frames"), "--alpha", alpha,
                 "-o", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert "error [ParameterError]" in err and "alpha must be > 0" in err
    assert not (tmp_path / "f").exists()


def test_edg_sigma_with_no_normal_square_exits_1(tmp_path, capsys):
    # sigma 1e-300 used to give W = 0 and every EDG energy 0, with exit 0
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "12", "--size", "48", "--base-radius", "8",
                 "-o", str(src)]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"pca_k": 3, "k2": 3, "rbf": {"sigma": 1e-300, "m_centers": 4, "epochs": 5}}))
    assert main(["edg", str(src / "frames"), "--config", str(tmp_path / "cfg.json"),
                 "-o", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert "error [ParameterError]" in err and "sigma must be > 0" in err
    assert not (tmp_path / "e").exists()


def test_fit_from_the_config_file_equals_the_fit_flag(tmp_path):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "20", "--size", "64", "--base-radius", "12",
                 "--seed", "3", "-o", str(src)]) == 0
    (tmp_path / "c.json").write_text(json.dumps({"rbf": {"fit": "ls"}}))
    args = ["edg", str(src / "frames"), "--m-centers", "8", "--pca-k", "6", "--k2", "4"]
    assert main(args + ["--config", str(tmp_path / "c.json"), "-o", str(tmp_path / "a")]) == 0
    assert main(args + ["--fit", "ls", "-o", str(tmp_path / "b")]) == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")
    model = read_json(tmp_path / "a" / "model.json", dynamics.DynamicsModel)
    assert model.config.fit == "ls"
    assert main(args + ["-o", str(tmp_path / "c")]) == 0  # the default fit is LMS
    lms = read_json(tmp_path / "c" / "model.json", dynamics.DynamicsModel)
    assert lms.config.fit == "lms" and not np.array_equal(lms.weights, model.weights)


@pytest.mark.parametrize("how", ["flag", "config"])
def test_unknown_fit_exits_1_before_flow(tmp_path, capsys, monkeypatch, how):
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    monkeypatch.setattr(flow, "flow_sequence", lambda *a, **k: pytest.fail("flow ran"))
    (tmp_path / "c.json").write_text(json.dumps({"rbf": {"fit": "lsq"}}))
    extra = ["--fit", "lsq"] if how == "flag" else ["--config", str(tmp_path / "c.json")]
    assert main(["edg", str(src / "frames"), *extra, "-o", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert "error [ParameterError]" in err and "fit must be 'lms' or 'ls', got 'lsq'" in err
    assert not (tmp_path / "e").exists()


def test_fit_flag_help_names_the_default(capsys):
    with pytest.raises(SystemExit):
        main(["edg", "--help"])
    assert "closed-form ridge) (default lms)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("flags,field", [
    (["--presmooth", "1e6"], "presmooth_sigma"),
    (["--presmooth", "1e300"], "presmooth_sigma"),
    (["--alpha", "1e-100"], "flow.alpha"),
    (["--alpha", "1e8"], "flow.alpha"),
])
def test_flow_settings_float64_cannot_hold_exit_1_naming_the_field(tmp_path, capsys,
                                                                  flags, field):
    # --presmooth 1e6 escaped as a ZeroDivisionError, 1e300 as a ValueError
    # from scipy; --alpha 1e8 returned a flow without an error
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    assert main(["flow", str(src / "frames"), *flags, "-o", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [") and field in err


def test_flow_at_tiny_alpha_runs_in_float64(tmp_path):
    # float32 overflowed here: RuntimeWarnings, then a NumericError that named
    # no setting
    src = tmp_path / "seq"
    assert main(["phantom", "--t", "4", "--size", "64", "--base-radius", "12",
                 "-o", str(src)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["flow", str(src / "frames"), "--alpha", "1e-10",
                     "-o", str(tmp_path / "f")]) == 0
    for path in sorted((tmp_path / "f").glob("flow_*.bin")):
        f = flow.load_flow(path)
        assert np.isfinite(f.u).all() and np.isfinite(f.v).all()
