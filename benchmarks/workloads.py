"""The three benchmark workloads: inputs, the operation, and its output checks.

Every operation is one or two ``echodyn.cli.main([...])`` calls on a
fresh input written to disk; inputs derive from the run seed and the
operation index, so no input repeats within a run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import statistics
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion

from echodyn import cli, cpda, flow, seqio

import oracles

# voxels of each enhanced clip checked against the oracle, four of them corners
_CPDA_VOXELS = 48
# mask frames per downstream operation whose HD95 is recomputed by brute force
_HD95_FRAMES = 2
_HD95_TOL = 1e-9
# f32 storage of the enhanced clip: half an ulp relative, plus summation-order slack
_F32_REL = 2.0 ** -23
_F32_ABS = 1e-9

# untimed edg runs that give the downstream workload its EDG quality guards
PROBE_OPS = 6

# criterion 4's transitions at T=32: peak wall speed, and quiet around ED/ES
_PEAK_AT_32 = (7, 8, 22, 23)
_QUIET_AT_32 = (0, 14, 15, 16, 29)

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def op_seed(seed: int, workload: str, idx: int) -> int:
    """Per-operation 63-bit seed from the run seed, workload name and index."""
    h = hashlib.blake2b(f"{workload}/{seed}/{idx}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


def dir_bytes(path: Path) -> int:
    return path.stat().st_size if path.is_file() else sum(
        p.stat().st_size for p in path.iterdir() if p.is_file())


@dataclass
class Op:
    """One operation: its input and output locations and what the checks found."""

    idx: int
    seed: int
    root: Path
    frames: int
    seqio_bytes: int = 0
    gen_s: float = 0.0
    data: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    @property
    def out(self) -> Path:
        return self.root / "out"


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _read_csv_floats(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)


def contrast_transitions(t_count: int) -> tuple[list[int], list[int]]:
    """Criterion 4's peak and quiet EDG frames, scaled from T=32 to `t_count`.

    EDG frame i spans frames i..i+2, so its mid-time i+1 is scaled by
    T/32 and mapped back, clipped to the T-2 frames that exist.
    """
    def scale(indices):
        mids = [math.floor((i + 1) * t_count / 32 + 0.5) - 1 for i in indices]
        return sorted({min(max(m, 0), t_count - 3) for m in mids})
    return scale(_PEAK_AT_32), scale(_QUIET_AT_32)


def flow_err_rel(sequences: list[np.ndarray], cache_dir: Path) -> tuple[float, dict]:
    """Relative L2 distance of compute_flow(FlowParams()) from converged Horn-Schunck.

    Three pairs of each (T, H, W) sequence: the two peaks of wall speed
    (T/4 and 3T/4) and the quiet end-systole (T/2). Summed over all of
    them: ||w - w*|| / ||w*|| with w = (u, v).
    """
    params = flow.FlowParams()
    prev, nxt = [], []
    for frames in sequences:
        t = frames.shape[0]
        for p in (t // 4, t // 2, 3 * t // 4):
            prev.append(frames[p])
            nxt.append(frames[p + 1])
    ref_u, ref_v, info = oracles.hs_reference(np.stack(prev), np.stack(nxt), params.alpha,
                                              params.presmooth_sigma, cache_dir)
    num = den = 0.0
    for k, (a, b) in enumerate(zip(prev, nxt)):
        got = flow.compute_flow(a, b, params)
        u, v = ref_u[k].astype(np.float64), ref_v[k].astype(np.float64)
        num += float(np.sum((got.u - u) ** 2 + (got.v - v) ** 2))
        den += float(np.sum(u ** 2 + v ** 2))
    info["pairs"] = len(prev)
    return math.sqrt(num / den), info


class EdgWorkload:
    """``echodyn edg <input> --seed S -o <out>`` on a seeded phantom."""

    def __init__(self, name: str, size: int, t_count: int, base_radius: float,
                 container: str, flow_sequences: int, contrast_ops: int):
        self.name = name
        self.size = size
        self.t_count = t_count
        self.base_radius = base_radius
        self.container = container  # "pgm" (frame directory) or "eds"
        # leading inputs of a run whose flow is compared with the reference,
        # and leading operations whose EDG contrast is reported
        self.flow_sequences = flow_sequences
        self.contrast_ops = contrast_ops
        self.frame_px = size * size
        self.conv_mac = 0

    def make_input(self, work: Path, idx: int, seed: int) -> Op:
        op = Op(idx=idx, seed=seed, root=work / f"op{idx:03d}", frames=self.t_count)
        spec = seqio.PhantomSpec(t_count=self.t_count, height=self.size, width=self.size,
                                 base_radius=self.base_radius, seed=seed)
        seq, _ = seqio.generate_phantom(spec)
        op.root.mkdir(parents=True)
        path = op.root / ("frames.eds" if self.container == "eds" else "frames")
        seqio.save_sequence(seq, path)
        op.data["input"] = path
        op.seqio_bytes = dir_bytes(path)
        return op

    def commands(self, op: Op, out: Path | None = None) -> list[list[str]]:
        return [["edg", str(op.data["input"]), "--seed", str(op.seed),
                 "-o", str(out or op.out)]]

    def check(self, op: Op) -> list[str]:
        """Outputs present and finite; records the operation's EDG contrast."""
        t, out, errors = self.t_count, op.out, []
        names = {"edg.csv", "pedg.csv", "model.json", "descriptor_model.json"}
        heatmaps = {f"edg_{i:04d}.pgm" for i in range(t - 2)}
        present = {p.name for p in out.iterdir()} if out.is_dir() else set()
        missing = (names | heatmaps) - present
        extra = {n for n in present if n.startswith("edg_") and n.endswith(".pgm")} - heatmaps
        if missing or extra:
            return [f"missing outputs {sorted(missing)[:4]}, unexpected {sorted(extra)[:4]}"]
        for name in sorted(heatmaps):
            raw = (out / name).read_bytes()
            m = _PGM_HEADER.match(raw)
            if not m or (int(m[1]), int(m[2])) != (self.size, self.size) \
                    or len(raw) != m.end() + self.frame_px:
                errors.append(f"{name}: not a {self.size}x{self.size} P5 image")
        for name in ("model.json", "descriptor_model.json"):
            try:
                payload = json.loads((out / name).read_text())
            except ValueError as exc:
                errors.append(f"{name}: {exc}")
                continue
            if not _finite_json(payload):
                errors.append(f"{name}: non-finite value")
        try:
            header, pedg = _read_csv_floats(out / "pedg.csv")
            header_e, edg = _read_csv_floats(out / "edg.csv")
        except (ValueError, IndexError) as exc:
            return errors + [f"csv: {exc}"]
        if header[0] != "t" or pedg.shape[0] != t - 1 or not np.isfinite(pedg).all():
            errors.append(f"pedg.csv: want {t - 1} finite rows, got shape {pedg.shape}")
        if header_e != ["t", "r", "theta", "energy"] or edg.ndim != 2 \
                or not np.isfinite(edg).all() or (edg[:, 3] < 0).any():
            return errors + ["edg.csv: bad header or non-finite/negative energy"]
        totals = np.bincount(edg[:, 0].astype(int), weights=edg[:, 3], minlength=t - 2)
        if totals.shape[0] != t - 2:
            return errors + [f"edg.csv: frames beyond {t - 3}"]
        peak, quiet = contrast_transitions(t)
        op.values["edg_contrast"] = float(totals[peak].mean() / totals[quiet].mean())
        return errors

    def corrupt(self, op: Op) -> None:
        """Damage one output as a failing program would (used by the self-test)."""
        path = op.out / "pedg.csv"
        lines = path.read_text().splitlines()
        lines[-1] = ",".join(["nan"] * len(lines[-1].split(",")))
        path.write_text("\n".join(lines) + "\n")

    def determinism(self, op: Op, run) -> list[str]:
        """Re-run `op` into a second directory; outputs must match byte for byte."""
        again = op.root / "rerun"
        rc = run(self.commands(op, again))
        if rc != 0:
            return [f"re-run exited with {rc}"]
        return [f"{name} differs on re-run" for name in ("edg.csv", "pedg.csv", "model.json")
                if (op.out / name).read_bytes() != (again / name).read_bytes()]

    def quality(self, ops: list[Op], cache_dir: Path, run) -> dict:
        """flow_err_rel over the first flow_sequences inputs, median edg_contrast
        over the first contrast_ops operations."""
        frames = [seqio.load_sequence(op.data["input"]).frames
                  for op in ops[:self.flow_sequences]]
        value, info = flow_err_rel(frames, cache_dir)
        contrasts = [op.values["edg_contrast"] for op in ops[:self.contrast_ops]]
        return {"flow_err_rel": value, "flow_reference": info,
                "edg_contrast": statistics.median(contrasts), "edg_contrast_per_op": contrasts}


class DownstreamWorkload:
    """``echodyn cpda-demo`` on a seeded feature clip, then ``echodyn eval`` on masks."""

    name = "downstream"

    def __init__(self, clip_shape: tuple[int, int, int, int], mask_size: int,
                 mask_frames: int, base_radius: float, probe: EdgWorkload):
        self.clip_shape = clip_shape  # T, H, W, C
        self.mask_size = mask_size
        self.mask_frames = mask_frames
        self.base_radius = base_radius
        self.probe = probe
        self.flow_sequences = self.contrast_ops = 0
        cfg = cli.PipelineConfig()
        self.dims = cfg.cpda
        self.k2 = cfg.k2
        t, h, w, c = clip_shape
        self.conv_mac = t * h * w * c * c * 27
        self.frame_px = 0

    def make_input(self, work: Path, idx: int, seed: int) -> Op:
        t, h, w, c = self.clip_shape
        op = Op(idx=idx, seed=seed, root=work / f"op{idx:03d}", frames=t)
        op.out.mkdir(parents=True)  # cpda-demo and eval write into an existing directory
        rng = np.random.default_rng(seed)
        clip = rng.standard_normal(self.clip_shape, dtype=np.float32)
        with open(op.root / "clip.ftc", "wb") as fh:
            fh.write(b"FTC1" + struct.pack("<4I", t, h, w, c))
            fh.write(clip.astype("<f4").tobytes())
        pedg = rng.normal(size=(t - 1, self.k2))
        with open(op.root / "pedg.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"p{i}" for i in range(self.k2)])
            for i, row in enumerate(pedg):
                writer.writerow([i] + [repr(float(v)) for v in row])

        spec = seqio.PhantomSpec(
            t_count=self.mask_frames, height=self.mask_size, width=self.mask_size,
            base_radius=self.base_radius * rng.uniform(0.96, 1.04),
            contraction_fraction=rng.uniform(0.25, 0.35), speckle_sigma=0.0, seed=seed)
        gt = seqio.generate_phantom(spec)[1].masks
        pred = np.stack([_perturb(m, rng) for m in gt])
        seqio.save_masks(seqio.MaskSequence(masks=gt), op.root / "gt")
        seqio.save_masks(seqio.MaskSequence(masks=pred), op.root / "pred")
        op.data.update(clip=clip, pedg=np.vstack([pedg, pedg[-1:]]), gt=gt, pred=pred)
        op.seqio_bytes = dir_bytes(op.root / "gt") + dir_bytes(op.root / "pred")
        return op

    def commands(self, op: Op) -> list[list[str]]:
        t = self.clip_shape[0]
        return [["cpda-demo", str(op.root / "clip.ftc"), "--seed-weights",
                 "--seed", str(op.seed), "--ed", "0", "--es", str(t // 2),
                 "--pedg", str(op.root / "pedg.csv"), "-o", str(op.out / "enhanced.ftc")],
                ["eval", str(op.root / "pred"), str(op.root / "gt"),
                 "--report", str(op.out / "report.json")]]

    def check(self, op: Op) -> list[str]:
        errors = self._check_cpda(op) + self._check_eval(op)
        op.data.clear()  # release the clip and masks
        return errors

    def _check_cpda(self, op: Op) -> list[str]:
        path = op.out / "enhanced.ftc"
        if not path.is_file():
            return ["enhanced.ftc missing"]
        raw = path.read_bytes()
        n = math.prod(self.clip_shape)
        if raw[:4] != b"FTC1" or struct.unpack("<4I", raw[4:20]) != self.clip_shape \
                or len(raw) != 20 + 4 * n:
            return [f"enhanced.ftc: not an FTC1 clip of shape {self.clip_shape}"]
        got = np.frombuffer(raw, dtype="<f4", offset=20).reshape(self.clip_shape)
        if not np.isfinite(got).all():
            return ["enhanced.ftc: non-finite values"]
        weights = cpda.seed_cpda_weights(
            channels=self.clip_shape[3], d_p=self.dims.d_p, d_e=self.dims.d_e, k2=self.k2,
            heads=self.dims.heads, alpha=self.dims.alpha,
            seed=cli.stage_seed(op.seed, cli.STAGE_CPDA_WEIGHTS))
        rng = np.random.default_rng(op.seed ^ 0x5EED)
        t, h, w, _ = self.clip_shape
        voxels = np.column_stack([rng.integers(0, s, _CPDA_VOXELS) for s in self.clip_shape])
        voxels[:4, :3] = [[0, 0, 0], [t - 1, 0, 0], [0, h - 1, w - 1], [t - 1, h - 1, w - 1]]
        expected = oracles.cpda_voxels(op.data["clip"].astype(np.float64), op.data["pedg"],
                                       0, t // 2, weights, voxels)
        actual = got[tuple(voxels.T)].astype(np.float64)
        bad = np.abs(actual - expected) > _F32_REL * np.abs(expected) + _F32_ABS
        return [f"enhanced.ftc: {int(bad.sum())} of {len(voxels)} sampled voxels "
                "differ from the direct 27-tap + attention oracle"] if bad.any() else []

    def _check_eval(self, op: Op) -> list[str]:
        try:
            report = json.loads((op.out / "report.json").read_text())
            labels = report["per_label"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"report.json: {exc}"]
        if not (op.out / "report.csv").is_file():
            return ["report.csv missing"]
        errors = []
        t = self.mask_frames
        for name, m in labels.items():
            dice = np.asarray(m["dice_per_frame"], dtype=np.float64)
            if dice.shape != (t,) or not ((dice >= 0) & (dice <= 1)).all():
                errors.append(f"report.json: {name} Dice outside [0,1] or not {t} frames")
        if set(labels) != {"LV", "LVM", "LA"}:
            return errors + [f"report.json: labels {sorted(labels)}"]
        rng = np.random.default_rng(op.seed ^ 0xD15)
        for frame in rng.choice(t, size=min(_HD95_FRAMES, t), replace=False):
            for value, name in ((1, "LV"), (2, "LVM"), (3, "LA")):
                p, g = op.data["pred"][frame] == value, op.data["gt"][frame] == value
                got = labels[name]["hd95_per_frame"][frame]
                if not (p.any() and g.any()):
                    if got is not None:
                        errors.append(f"{name} frame {frame}: HD95 reported for an empty mask")
                    continue
                want = oracles.brute_force_hd95(p, g)
                if got is None or abs(got - want) > _HD95_TOL:
                    errors.append(f"{name} frame {frame}: HD95 {got} vs brute force {want}")
        return errors

    def corrupt(self, op: Op) -> None:
        path = op.out / "report.json"
        report = json.loads(path.read_text())
        report["per_label"]["LV"]["dice_per_frame"][0] = 1.5
        path.write_text(json.dumps(report))

    def quality(self, ops: list[Op], cache_dir: Path, run) -> dict:
        """The EDG quality guards from PROBE_OPS untimed edg runs on small phantoms.

        The timed loop runs no flow, so the guards need inputs of their own;
        they are seeded from the run seed like every other input.
        """
        work = ops[0].root.parent / "probe"
        probes = []
        for i in range(PROBE_OPS):
            op = self.probe.make_input(work, i, op_seed(ops[0].seed, "probe", i))
            rc = run(self.probe.commands(op))
            errors = [f"probe edg exited with {rc}"] if rc else self.probe.check(op)
            if errors:
                raise RuntimeError("; ".join(errors))
            probes.append(op)
        return self.probe.quality(probes, cache_dir, run)


def _shift(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate a label image, filling with background."""
    out = np.zeros_like(mask)
    h, w = mask.shape
    out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
        mask[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    return out


def _perturb(gt: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A plausible prediction: GT shifted by up to 2 px, one label grown or shrunk."""
    pred = _shift(gt, *rng.integers(-2, 3, size=2))
    label = int(rng.integers(1, 4))
    region = pred == label
    if rng.random() < 0.5:
        pred[binary_dilation(region)] = label
    else:
        pred[region & ~binary_erosion(region)] = 0
    return pred


def build(name: str, tiny: bool):
    """The workload called `name`, at benchmark size or at self-test size."""
    if tiny:
        small = EdgWorkload("edg-small", 32, 20, 5.0, "pgm", 4, 2)
        large = EdgWorkload("edg-large", 32, 20, 5.0, "eds", 2, 2)
        down = DownstreamWorkload((8, 8, 8, 4), 32, 8, 5.0, small)
    else:
        # the flow error of single 128^2 pairs varies by 15-20%, less on larger
        # frames, and one operation's contrast by 15-30%: sample sizes that keep
        # both steady between seeds; the contrast sample matches the operations
        # a run times anyway
        small = EdgWorkload("edg-small", 128, 32, 24.0, "pgm", 8, 7)
        large = EdgWorkload("edg-large", 256, 18, 48.0, "eds", 2, 4)
        probe = EdgWorkload("probe", 64, 32, 12.0, "pgm", PROBE_OPS, PROBE_OPS)
        down = DownstreamWorkload((64, 64, 64, 16), 256, 64, 48.0, probe)
    return {"edg-small": small, "edg-large": large, "downstream": down}[name]
