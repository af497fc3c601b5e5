"""The names the benchmark under benchmarks/ reaches into the package by.

`benchmarks/tracing.py` wraps module attributes by name,
`benchmarks/workloads.py` reads config and seed helpers from `echodyn.cli`
and calls the flow solver for `flow_err_rel`, and `benchmarks/harness.py`
records `flow.FlowParams().iterations`; a rename in the package would
otherwise surface only as a broken benchmark. Per-pair and per-frame
metrics count the spans of `compute_flow` and `extract_descriptor`, so
inlining either would zero them without breaking the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_traced():
    return load_tracing().TRACED


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


def test_flow_api_the_workloads_read():
    from echodyn import flow

    iterations = flow.FlowParams().iterations
    assert type(iterations) is int and iterations > 0
    ys, xs = np.mgrid[0:16, 0:16].astype(float)
    a, b = 0.5 + 0.2 * np.sin(xs / 3), 0.5 + 0.2 * np.sin((xs - 1) / 3)
    got = flow.compute_flow(a, b, flow.FlowParams())
    assert isinstance(got, flow.FlowField)
    assert got.u.shape == got.v.shape == (16, 16)


def test_tracer_sees_every_pair_and_frame():
    from echodyn import dynamics, pipeline, seqio

    tracing = load_tracing()
    tracer = tracing.Tracer()
    seq, _ = seqio.generate_phantom(
        seqio.PhantomSpec(t_count=8, height=48, width=48, base_radius=8.0))
    cfg = pipeline.PipelineConfig(pca_k=3, rbf=dynamics.RbfConfig(m_centers=4, epochs=10),
                                  k2=2)
    tracer.install({layer: importlib.import_module(f"echodyn.{layer}")
                    for layer in tracing.TRACED})
    try:
        pipeline.run_edg(seq, cfg)
    finally:
        tracer.uninstall()
    names = {span["id"]: span["name"] for span in tracer.spans}

    def calls_under(parent, child):
        return sum(span["name"] == child and names.get(span["parent"]) == parent
                   for span in tracer.spans)

    pairs = seq.t_count - 1
    assert calls_under("flow.flow_sequence", "flow.compute_flow") == pairs
    assert calls_under("descriptor.descriptor_sequence", "descriptor.extract_descriptor") == pairs


def test_tracer_counts_every_pair_solved_on_two_threads(monkeypatch):
    # the tracer keeps one span stack for all threads, so a pair's span may
    # get the other thread's pair as its parent; the count still holds
    from echodyn import flow, seqio

    seq, _ = seqio.generate_phantom(
        seqio.PhantomSpec(t_count=6, height=160, width=160, base_radius=30.0))
    assert seq.shape[0] * seq.shape[1] > flow.THREADED_PIXELS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install({layer: importlib.import_module(f"echodyn.{layer}")
                    for layer in tracing.TRACED})
    try:
        flow.flow_sequence(seq)
    finally:
        tracer.uninstall()
    names = [span["name"] for span in tracer.spans]
    assert names.count("flow.compute_flow") == seq.t_count - 1
    assert names.count("flow.flow_sequence") == 1
