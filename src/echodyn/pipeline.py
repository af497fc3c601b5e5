"""The edg pipeline as one library call, and the config that drives it.

`run_edg` chains flow -> polar descriptors -> RBF dynamics -> energies ->
EDG maps -> P_EDG; `save_edg_result` writes what it produced. Randomness
derives from one master seed through named streams: stage_seed(seed,
stage) = blake2b(seed_le8 || stage)[:8], for the stages "phantom",
"kmeans" and "cpda-weights".

Stages are called as module attributes (``flow.flow_sequence``), never as
imported names, so that wrappers installed on those attributes (the
benchmark's span tracer) see every stage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import descriptor, dynamics, flow, seqio
from .errors import InsufficientDataError, ParameterError

STAGE_PHANTOM = "phantom"
STAGE_KMEANS = "kmeans"
STAGE_CPDA_WEIGHTS = "cpda-weights"


def stage_seed(seed: int, stage: str) -> int:
    """Derive a per-stage 64-bit seed: blake2b(seed_le8 || stage_name)."""
    h = hashlib.blake2b(digest_size=8)
    h.update((seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    h.update(stage.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class CpdaDims:
    d_p: int = 8
    d_e: int = 8
    heads: int = 2
    alpha: float = 0.5


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline, serializable to one JSON file."""

    seed: int = 7
    grid: descriptor.SectorGrid = descriptor.SectorGrid()
    flow: flow.FlowParams = flow.FlowParams()
    pca_k: int = 10
    rbf: dynamics.RbfConfig = dynamics.RbfConfig()
    k2: int = 8
    cpda: CpdaDims = CpdaDims()

    @staticmethod
    def from_json(path: Path | str) -> "PipelineConfig":
        """Load a (partial) config file; a malformed file is a ParameterError."""
        return seqio.read_json(path, PipelineConfig, ParameterError)


def override(cfg, path: str, value):
    """Copy of `cfg` with dotted `path` (e.g. "flow.alpha") set; validation reruns."""
    head, _, rest = path.partition(".")
    return replace(cfg, **{head: override(getattr(cfg, head), rest, value) if rest else value})


@dataclass(frozen=True)
class EdgResult:
    """Everything one `run_edg` call produced, stage by stage."""

    config: PipelineConfig
    flows: list[flow.FlowField]  # T-1 fields, frame t -> t+1
    z: np.ndarray  # (T-1) x pca_k state trajectory
    scaler: descriptor.ScalerModel
    pca: descriptor.PcaModel
    model: dynamics.DynamicsModel
    energies: np.ndarray  # (T-2) x M, one E_t row per state transition
    maps: np.ndarray  # (T-2) x R x TH, one EDG map per state transition
    pedg: np.ndarray  # (T-2) x k2, one P_EDG row per state transition


def _check_sizes(cfg: PipelineConfig, t_count: int) -> None:
    """Raise the error a later stage would raise when `cfg` cannot fit T frames.

    T frames give T-1 descriptor rows, whose PCA needs pca_k <= rows - 1 and
    <= the descriptor length; T-1 states, from which k-means draws m_centers
    centers; and T-2 energy rows of m_centers columns, whose PCA needs
    k2 <= rows - 1 and <= m_centers.
    """
    if not 1 <= cfg.pca_k <= cfg.grid.descriptor_length:
        raise ParameterError(f"pca_k={cfg.pca_k} out of range "
                             f"1..{cfg.grid.descriptor_length} (the descriptor length)")
    if not 1 <= cfg.k2 <= cfg.rbf.m_centers:
        raise ParameterError(f"k2={cfg.k2} out of range 1..{cfg.rbf.m_centers} (m_centers)")
    t_min = max(cfg.pca_k + 2, cfg.rbf.m_centers + 1, cfg.k2 + 3)
    if t_count < t_min:
        raise InsufficientDataError(
            f"need at least {t_min} frames for pca_k={cfg.pca_k}, "
            f"m_centers={cfg.rbf.m_centers}, k2={cfg.k2}; got {t_count}")


def run_edg(seq: seqio.FrameSequence, cfg: PipelineConfig = PipelineConfig()) -> EdgResult:
    """Run the dynamic pipeline on a sequence, every setting taken from `cfg`.

    The k-means centers are seeded from stage_seed(cfg.seed, "kmeans"), and
    cfg.rbf.fit selects the RBF weight fit ("lms" or closed-form "ls").
    A config that cannot fit `seq` is rejected before any stage runs.
    """
    _check_sizes(cfg, seq.t_count)
    flows = flow.flow_sequence(seq, cfg.flow)
    z, scaler, pca = descriptor.descriptor_sequence(seq, flows, cfg.grid, cfg.pca_k)
    model = dynamics.train_dynamics(z, cfg.rbf, seed=stage_seed(cfg.seed, STAGE_KMEANS))
    energies = dynamics.energy_sequence(model, z)
    maps = dynamics.edg_sequence(model, z, pca, scaler, cfg.grid)
    pedg, _ = dynamics.pedg_sequence(energies, cfg.k2)
    return EdgResult(config=cfg, flows=flows, z=z, scaler=scaler, pca=pca, model=model,
                     energies=energies, maps=maps, pedg=pedg)


def save_edg_result(result: EdgResult, out: Path | str) -> None:
    """Write EDG heatmaps at the frame size, edg.csv, model.json, descriptor_model.json
    and pedg.csv (one row per flow frame, T-1: the final transition's row repeats)."""
    out = Path(out)
    dynamics.save_edg_outputs(result.maps, result.config.grid, *result.flows[0].u.shape, out)
    dynamics.save_pedg_csv(dynamics.align_pedg(result.pedg, len(result.flows)),
                           out / "pedg.csv")
    seqio.write_json(out / "model.json", result.model)
    seqio.write_json(out / "descriptor_model.json",
                     descriptor.FeatureModels(result.scaler, result.pca))
