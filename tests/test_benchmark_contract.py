"""The names the benchmark under benchmarks/ reaches into the package by.

`benchmarks/tracing.py` wraps module attributes by name and
`benchmarks/workloads.py` reads config and seed helpers from `echodyn.cli`;
a rename in the package would otherwise surface only as a broken benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_are_package_functions():
    traced = load_traced()
    assert traced
    for module, names in traced.items():
        package_module = importlib.import_module(f"echodyn.{module}")
        for name in names:
            assert callable(getattr(package_module, name, None)), f"echodyn.{module}.{name}"


def test_cli_exposes_what_the_workloads_read():
    from echodyn import cli

    assert isinstance(cli.PipelineConfig(), cli.PipelineConfig)
    assert isinstance(cli.stage_seed(7, cli.STAGE_CPDA_WEIGHTS), int)
