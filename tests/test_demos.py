"""Smoke test: the EDG and CPDA demos run to completion and write their artifacts."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

from echodyn.seqio import PhantomSpec

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, out, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, "-o", str(out)])
    runpy.run_path(str(DEMOS / name), run_name="__main__")


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
