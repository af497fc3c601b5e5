from __future__ import annotations

import numpy as np
import pytest

from echodyn.descriptor import SectorGrid
from echodyn.pipeline import PipelineConfig, run_edg
from echodyn.seqio import PhantomSpec, generate_phantom


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
