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

import dataclasses
import hashlib
import json
import os
import tempfile
import types
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import descriptor, dynamics, flow, seqio
from .errors import ParameterError

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

    def to_json(self, path: Path | str) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def from_json(path: Path | str) -> "PipelineConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"{path}: malformed JSON config: {exc}") from None
        return PipelineConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "PipelineConfig":
        """Build from a (partial) nested dict; missing keys keep their defaults."""
        return _from_dict(PipelineConfig, raw, "")


def _from_dict(cls, raw, prefix: str):
    """Load dataclass `cls` from a dict: a dataclass-typed field loads from a
    sub-dict, lists become tuples; an unknown key or a value that does not
    match its field's declared type raises ParameterError naming the dotted key."""
    if not isinstance(raw, dict):
        raise ParameterError(f"config '{prefix.rstrip('.') or '<root>'}' must be an object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        if key not in hints:
            raise ParameterError(f"unknown config key '{prefix}{key}'")
        tp = hints[key]
        if dataclasses.is_dataclass(tp):
            value = _from_dict(tp, value, f"{prefix}{key}.")
        elif not _fits(value, tp):
            raise ParameterError(f"config '{prefix}{key}' must be "
                                 f"{getattr(tp, '__name__', tp)}, got {value!r}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def _fits(value, tp) -> bool:
    """Whether JSON `value` matches the declared type `tp`; an int fits float,
    a bool fits only bool."""
    if isinstance(tp, types.UnionType):
        return any(_fits(value, arm) for arm in typing.get_args(tp))
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


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


def run_edg(seq: seqio.FrameSequence, cfg: PipelineConfig = PipelineConfig(),
            method: str = "lms") -> EdgResult:
    """Run the dynamic pipeline on a sequence.

    The k-means centers are seeded from stage_seed(cfg.seed, "kmeans");
    `method` selects the RBF weight fit ("lms" or closed-form "ls").
    """
    flows = flow.flow_sequence(seq, cfg.flow)
    z, scaler, pca = descriptor.descriptor_sequence(seq, flows, cfg.grid, k=cfg.pca_k)
    model = dynamics.train_dynamics(z, cfg.rbf, seed=stage_seed(cfg.seed, STAGE_KMEANS),
                                    method=method)
    energies = dynamics.energy_sequence(model, z)
    maps = dynamics.edg_sequence(model, z, pca, scaler, cfg.grid)
    pedg, _ = dynamics.pedg_sequence(energies, k2=cfg.k2)
    return EdgResult(config=cfg, flows=flows, z=z, scaler=scaler, pca=pca, model=model,
                     energies=energies, maps=maps, pedg=pedg)


def _file_mode() -> int:
    """The mode a plain `open(path, "w")` would give a new file (0o666 less umask)."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


_FILE_MODE = _file_mode()


def atomic_write(path: Path, writer) -> None:
    """Write through `writer(tmp_path)` then rename into place.

    The temporary file is unique to the call and sits beside `path`; if
    `writer` raises it is removed, so `path` keeps its old bytes (or stays
    absent) and nothing else is left behind.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    os.close(fd)
    try:
        os.chmod(tmp, _FILE_MODE)  # mkstemp creates it owner-only
        writer(Path(tmp))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def save_edg_result(result: EdgResult, h: int, w: int, out: Path | str) -> None:
    """Write EDG heatmaps, edg.csv, model.json, descriptor_model.json and pedg.csv
    (one row per flow frame, T-1: the final transition's row repeats)."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    dynamics.save_edg_outputs(result.maps, result.config.grid, h, w, out)
    p_rows = dynamics.align_pedg(result.pedg, len(result.flows))
    atomic_write(out / "pedg.csv", lambda p: dynamics.save_pedg_csv(p_rows, p))
    atomic_write(out / "model.json", lambda p: dynamics.save_dynamics_model(result.model, p))
    atomic_write(out / "descriptor_model.json",
                 lambda p: descriptor.save_feature_models(result.scaler, result.pca, p))
