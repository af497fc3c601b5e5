from __future__ import annotations

import os
import re
import threading

import numpy as np
import pytest
from hypothesis import settings

from echodyn import halves
from echodyn.descriptor import SectorGrid
from echodyn.pipeline import PipelineConfig, run_edg
from echodyn.seqio import PhantomSpec, generate_phantom

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is reproducible and its time stable on a busy box.
settings.register_profile("echodyn", derandomize=True, database=None, deadline=None,
                          max_examples=30)
settings.load_profile("echodyn")


@pytest.fixture(autouse=True)
def no_temp_file_left(request):
    """Fail a test that leaves a `seqio.atomic_write` temp file (a name ending in
    a dot and 12 hex digits) anywhere under its `tmp_path`."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = [p for p in tmp_path.rglob("*") if re.search(r"\.[0-9a-f]{12}$", p.name)]
    assert not left, f"temp files left behind: {left}"


@pytest.fixture(scope="session")
def phantom():
    """Default seeded phantom: T=32, 128x128, contraction 0.3."""
    return generate_phantom(PhantomSpec())


@pytest.fixture(scope="session")
def phantom_edg(phantom):
    """The default edg pipeline (PipelineConfig()) run on the default phantom."""
    seq, _ = phantom
    return run_edg(seq, PipelineConfig())


@pytest.fixture(scope="session")
def phantom_flows(phantom_edg):
    return phantom_edg.flows


@pytest.fixture(scope="session")
def phantom_grid():
    return SectorGrid()


@pytest.fixture(scope="session")
def phantom_descriptors(phantom_edg):
    return phantom_edg.z, phantom_edg.scaler, phantom_edg.pca


@pytest.fixture(scope="session")
def phantom_model(phantom_edg):
    return phantom_edg.model


def make_frames(t, h, w, fn):
    """Stack fn(xs, ys, t) over t frames; helper for synthetic sequences."""
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return np.stack([np.clip(fn(xs, ys, i), 0.0, 1.0) for i in range(t)])


def two_usable_cpus():
    """The first two CPUs this process may run on, fewer where it has fewer."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return cpus[:2]


def allow_cpus(monkeypatch, cpus):
    """Let `halves.in_halves` see `cpus` as the CPUs the process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def record_halves(monkeypatch, module):
    """The set of threads that run `module`'s `in_halves` work, filled as it runs."""
    seen = set()

    def spy(work, count, threaded):
        halves.in_halves(lambda *a: seen.add(threading.get_ident()) or work(*a), count, threaded)

    monkeypatch.setattr(module, "in_halves", spy)
    return seen
