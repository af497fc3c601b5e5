"""Smoke test: every demo runs to completion and writes its artifacts."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

from echodyn.seqio import PhantomSpec

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, out, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, "-o", str(out)])
    runpy.run_path(str(DEMOS / name), run_name="__main__")


def test_demo_01_phantom_and_flow(tmp_path, monkeypatch):
    out = tmp_path / "01"
    run_demo("01_phantom_and_flow.py", out, monkeypatch)
    t = PhantomSpec().t_count
    assert len(list(out.glob("flow_*.bin"))) == t - 1
    assert len(list((out / "masks").glob("mask_*.pgm"))) == t


def test_demo_02_edg_pipeline(tmp_path, monkeypatch):
    out = tmp_path / "02"
    run_demo("02_edg_pipeline.py", out, monkeypatch)
    rows = (out / "pedg.csv").read_text().splitlines()[1:]
    assert len(rows) == PhantomSpec().t_count - 1  # one per flow frame, as `echodyn edg`
    assert (out / "model.json").is_file() and (out / "edg.csv").is_file()


def test_demo_03_cpda_modulation(tmp_path, monkeypatch):
    out = tmp_path / "03"
    run_demo("03_cpda_modulation.py", out, monkeypatch)
    assert (out / "enhanced.ftc").read_bytes()[:4] == b"FTC1"


def test_demo_04_segmentation_metrics(tmp_path, monkeypatch):
    out = tmp_path / "04"
    run_demo("04_segmentation_metrics.py", out, monkeypatch)
    for name in ("perfect", "eroded-every-frame", "dilated-every-other"):
        assert (out / f"report_{name}.json").is_file()
        assert (out / f"report_{name}.csv").is_file()
