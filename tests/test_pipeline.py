"""`run_edg` rejects a config that cannot fit the sequence before any stage runs."""

from __future__ import annotations

import pytest

from echodyn import flow
from echodyn.descriptor import SectorGrid
from echodyn.dynamics import RbfConfig
from echodyn.errors import InsufficientDataError, ParameterError
from echodyn.pipeline import PipelineConfig, run_edg
from echodyn.seqio import FrameSequence, PhantomSpec, generate_phantom


def small_config(pca_k, m_centers, k2):
    return PipelineConfig(pca_k=pca_k, rbf=RbfConfig(m_centers=m_centers, epochs=20), k2=k2)


def phantom_frames(t_count):
    spec = PhantomSpec(t_count=t_count, height=48, width=48, base_radius=8.0)
    return generate_phantom(spec)[0]


@pytest.fixture
def flow_calls(monkeypatch):
    """Count flow_sequence calls; the real solver still runs."""
    calls = []
    real = flow.flow_sequence

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "flow_sequence", counting)
    return calls


# each case makes a different bound the binding one: T >= pca_k + 2,
# T >= m_centers + 1, T >= k2 + 3
@pytest.mark.parametrize("pca_k,m_centers,k2,t_min", [
    (6, 4, 2, 8), (3, 8, 2, 9), (3, 8, 7, 10),
], ids=["pca_k", "m_centers", "k2"])
def test_shortest_sequence_runs_and_one_frame_less_fails_before_flow(
        flow_calls, pca_k, m_centers, k2, t_min):
    cfg = small_config(pca_k, m_centers, k2)
    seq = phantom_frames(t_min)
    short = FrameSequence(frames=seq.frames[:-1], ed_index=seq.ed_index,
                          es_index=seq.es_index)
    with pytest.raises(InsufficientDataError, match=f"at least {t_min} frames"):
        run_edg(short, cfg)
    assert not flow_calls
    result = run_edg(seq, cfg)
    assert flow_calls and result.pedg.shape == (t_min - 2, k2)


@pytest.mark.parametrize("cfg,needle", [
    (small_config(3, 8, 20), "k2=20"),
    (small_config(3, 8, 0), "k2=0"),
    (PipelineConfig(grid=SectorGrid(r_bins=1, theta_bins=1), pca_k=7), "pca_k=7"),
    # more sectors than the 48 x 48 frame has pixels; r_bins = 2**62 ran flow
    # on every pair, then escaped as an OverflowError
    (PipelineConfig(grid=SectorGrid(r_bins=49, theta_bins=48)), "r_bins x theta_bins"),
    (PipelineConfig(grid=SectorGrid(r_bins=2 ** 62)), "r_bins x theta_bins"),
    (PipelineConfig(grid=SectorGrid(theta_bins=2 ** 62)), "r_bins x theta_bins"),
    # a float64 history of 2**62 epochs passes int64 bytes; numpy raised
    # "array is too big" in fit_rbf_weights, after flow
    (PipelineConfig(rbf=RbfConfig(epochs=2 ** 62)), "epochs"),
], ids=["k2-above-m", "k2-zero", "pca_k-above-descriptor", "sectors-above-pixels",
        "r_bins-2**62", "theta_bins-2**62", "epochs-2**62"])
def test_config_out_of_range_fails_before_flow(flow_calls, cfg, needle):
    with pytest.raises(ParameterError, match=needle):
        run_edg(phantom_frames(40), cfg)
    assert not flow_calls
