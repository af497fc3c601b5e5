"""Frame-sequence I/O and the synthetic beating-heart phantom.

On-disk formats are deliberately simple and bit-exact:

* frame directory: ``meta.json`` ({"t","h","w","ed","es"}) plus
  ``frame_%04d.pgm`` binary PGM (P5, maxval 255);
* mask directory: ``mask_%04d.pgm`` with label bytes 0/1/2/3 stored directly;
* ``.eds`` container: magic ``EDS1``, little-endian u32 T,H,W,ed,es,
  then T*H*W raw gray bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .errors import DimensionError, FormatError, GeometryError, InsufficientDataError

LABEL_BACKGROUND = 0
LABEL_LV = 1
LABEL_LVM = 2
LABEL_LA = 3

# horizontal-to-vertical semi-axis ratio of the phantom LV ellipse
_LV_ASPECT = 0.8
# antiphase atrial pulse as a fraction of the LV contraction fraction
_LA_PULSE = 0.5
# spatial correlation (px) of the speckle texture / decorrelation noise
_TEXTURE_CORR_PX = 1.5
_DECORR_CORR_PX = 1.0
# wall displacement (px/frame) at which decorrelation reaches full strength
_DECORR_DISP_REF = 0.7


@dataclass(frozen=True)
class FrameSequence:
    """T grayscale frames in [0,1] with end-diastole/end-systole indices."""

    frames: np.ndarray  # (T, H, W) float64 in [0, 1]
    ed_index: int
    es_index: int
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 3 or 0 in f.shape[1:]:
            raise DimensionError(f"frames must be T x H x W with H, W >= 1, got shape {f.shape}")
        t = f.shape[0]
        if t < 2:
            raise InsufficientDataError(f"need at least 2 frames, got {t}")
        if not (0 <= self.ed_index < t and 0 <= self.es_index < t):
            raise FormatError(
                f"ed/es indices ({self.ed_index}, {self.es_index}) out of range for T={t}"
            )
        if self.ed_index == self.es_index:
            raise FormatError("ed_index and es_index must differ")
        if not (f.min() >= 0.0 and f.max() <= 1.0):  # false for NaN too
            raise FormatError("frame values must lie in [0, 1]")
        object.__setattr__(self, "frames", f)

    @property
    def t_count(self) -> int:
        return self.frames.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.frames.shape[1], self.frames.shape[2]


@dataclass(frozen=True)
class MaskSequence:
    """Integer label masks (0=background, 1=LV, 2=LVM, 3=LA) paired with frames."""

    masks: np.ndarray  # (T, H, W) uint8

    def __post_init__(self):
        m = np.asarray(self.masks)
        if m.ndim != 3:
            raise DimensionError(f"masks must be T x H x W, got shape {m.shape}")
        if not np.isin(m, (0, 1, 2, 3)).all():
            raise FormatError("mask labels must be in {0,1,2,3}")
        object.__setattr__(self, "masks", m.astype(np.uint8))

    @property
    def t_count(self) -> int:
        return self.masks.shape[0]


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry/noise parameters for the synthetic beating-heart sequence."""

    t_count: int = 32
    height: int = 128
    width: int = 128
    cycles: int = 1
    base_radius: float = 24.0
    contraction_fraction: float = 0.3
    speckle_sigma: float = 0.02
    seed: int = 7

    def __post_init__(self):
        if self.t_count < 2:
            raise FormatError(f"t_count must be >= 2, got {self.t_count}")
        if not (0.0 <= self.contraction_fraction < 0.9):
            raise FormatError(
                f"contraction_fraction must be in [0, 0.9), got {self.contraction_fraction}"
            )
        if self.speckle_sigma < 0:
            raise FormatError("speckle_sigma must be >= 0")
        if self.cycles < 1:
            raise FormatError("cycles must be >= 1")


def quantize_frame(frame: np.ndarray) -> np.ndarray:
    """[0,1] floats -> bytes, round half up (0.5*255 = 127.5 -> 128)."""
    return np.clip(np.floor(frame * 255.0 + 0.5), 0, 255).astype(np.uint8)


def write_pgm(path: Path | str, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=np.uint8)
    if data.ndim != 2:
        raise DimensionError("PGM payload must be 2-D")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path: Path | str) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) into a uint8 H x W array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (missing P5 magic)")
    # tokenize the header, skipping '#' comment lines
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise FormatError(f"{path}: unsupported PGM maxval {maxval} (need 255)")
    payload = raw[pos:pos + h * w]
    if len(payload) != h * w:
        raise FormatError(f"{path}: expected {h * w} pixel bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def read_binary(path: Path | str, magic: bytes, n_fields: int, n_dims: int,
                item_bytes: int) -> tuple[tuple[int, ...], bytes]:
    """Read a file laid out as `magic`, `n_fields` little-endian u32, payload.

    The first `n_dims` fields are dimensions: each must be >= 1 and the
    payload must hold exactly their product times `item_bytes` bytes.
    Returns (fields, payload); any mismatch raises FormatError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic (expected {magic.decode()})")
    end = 4 + 4 * n_fields
    if len(raw) < end:
        raise FormatError(f"{path}: truncated header ({len(raw)} of {end} bytes)")
    fields = struct.unpack(f"<{n_fields}I", raw[4:end])
    dims = fields[:n_dims]
    if min(dims) < 1:
        raise FormatError(f"{path}: zero dimension in header {dims}")
    if len(raw) - end != math.prod(dims) * item_bytes:
        raise FormatError(f"{path}: payload size mismatch")
    return fields, raw[end:]


def save_sequence(seq: FrameSequence, path: Path | str) -> None:
    """Write a sequence as a frame directory, or as a single `.eds` container.

    Directory layout: ``meta.json`` plus ``frame_%04d.pgm``. The `.eds`
    container drops free-form meta strings; everything else round-trips.
    """
    path = Path(path)
    if path.suffix == ".eds":
        _save_eds(seq, path)
        return
    path.mkdir(parents=True, exist_ok=True)
    t, (h, w) = seq.t_count, seq.shape
    meta = {"t": t, "h": h, "w": w, "ed": seq.ed_index, "es": seq.es_index}
    if seq.meta:
        meta["meta"] = dict(seq.meta)
    with open(path / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for i in range(t):
        write_pgm(path / f"frame_{i:04d}.pgm", quantize_frame(seq.frames[i]))


def load_sequence(path: Path | str) -> FrameSequence:
    """Load a frame directory or a `.eds` container; frames come back in [0,1]."""
    path = Path(path)
    if path.is_file() and path.suffix == ".eds":
        return _load_eds(path)
    meta_path = path / "meta.json"
    if not meta_path.is_file():
        raise FormatError(f"{path}: missing meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    for key in ("t", "h", "w", "ed", "es"):
        if key not in meta:
            raise FormatError(f"{meta_path}: missing field '{key}'")
    t, h, w = meta["t"], meta["h"], meta["w"]
    if t < 2:
        raise InsufficientDataError(f"{path}: sequence too short (T={t})")
    frames = np.empty((t, h, w), dtype=np.float64)
    for i in range(t):
        img = read_pgm(path / f"frame_{i:04d}.pgm")
        if img.shape != (h, w):
            raise DimensionError(
                f"frame_{i:04d}.pgm has shape {img.shape}, expected {(h, w)}"
            )
        frames[i] = img / 255.0
    return FrameSequence(
        frames=frames,
        ed_index=meta["ed"],
        es_index=meta["es"],
        meta=dict(meta.get("meta", {})),
    )


def _save_eds(seq: FrameSequence, path: Path) -> None:
    t, (h, w) = seq.t_count, seq.shape
    with open(path, "wb") as fh:
        fh.write(b"EDS1")
        fh.write(struct.pack("<5I", t, h, w, seq.ed_index, seq.es_index))
        for i in range(t):
            fh.write(quantize_frame(seq.frames[i]).tobytes())


def _load_eds(path: Path) -> FrameSequence:
    (t, h, w, ed, es), payload = read_binary(path, b"EDS1", 5, 3, 1)
    if t < 2:
        raise InsufficientDataError(f"{path}: sequence too short (T={t})")
    frames = np.frombuffer(payload, dtype=np.uint8).reshape(t, h, w) / 255.0
    return FrameSequence(frames=frames, ed_index=ed, es_index=es)


def save_masks(masks: MaskSequence, path: Path | str) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for i in range(masks.t_count):
        write_pgm(path / f"mask_{i:04d}.pgm", masks.masks[i])


def load_masks(path: Path | str) -> MaskSequence:
    """Load mask_0000.pgm .. mask_{T-1}.pgm; the numbering must have no gaps."""
    path = Path(path)
    count = len(list(path.glob("mask_*.pgm")))
    if not count:
        raise FormatError(f"{path}: no mask_*.pgm files found")
    files = [path / f"mask_{i:04d}.pgm" for i in range(count)]
    missing = next((f for f in files if not f.is_file()), None)
    if missing is not None:
        raise FormatError(f"{path}: {missing.name} is missing (mask numbering has a gap)")
    imgs = [read_pgm(f) for f in files]
    shapes = {im.shape for im in imgs}
    if len(shapes) != 1:
        raise DimensionError(f"{path}: inconsistent mask dimensions {shapes}")
    return MaskSequence(masks=np.stack(imgs))


def phantom_radius(t: int, spec: PhantomSpec) -> float:
    """Cosine contraction law: r(0)=base, r(t_count/2)=base*(1-contraction)."""
    phase = 2.0 * np.pi * t / spec.t_count
    return spec.base_radius * (1.0 - spec.contraction_fraction * (1.0 - np.cos(phase)) / 2.0)


def phantom_la_radius(t: int, spec: PhantomSpec) -> float:
    """Atrial counterpart of r(t): expands while the ventricle contracts."""
    phase = 2.0 * np.pi * t / spec.t_count
    pulse = _LA_PULSE * spec.contraction_fraction * (1.0 - np.cos(phase)) / 2.0
    return (spec.base_radius / 2.0) * (1.0 + pulse)


def generate_phantom(spec: PhantomSpec) -> tuple[FrameSequence, MaskSequence]:
    """Synthesize a beating LV ellipse + LVM annulus + LA disc with speckle.

    The LV is an ellipse (horizontal semi-axis 0.8*r(t), vertical r(t))
    centered at the image center with the LVM as a fixed-thickness annulus
    around it; the LA disc below pulses in antiphase (it fills while the
    ventricle empties). Base grays: interior 0.2, wall 0.8, background
    0.45, rendered with ~1 px soft edges.

    The speckle model has two seeded Gaussian components, both spatially
    band-limited like a point-spread function: a static texture field
    advected with the moving tissue, and per-frame decorrelation noise
    whose amplitude follows the instantaneous wall speed (fast motion
    decorrelates the pattern; a motionless heart yields bit-static
    frames). Masks carry no noise; ed_index/es_index are the argmax and
    argmin of r(t) over the first cycle.
    """
    h, w = spec.height, spec.width
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    wall = max(2.0, spec.base_radius / 5.0)
    la_base = spec.base_radius / 2.0
    la_max = la_base * (1.0 + _LA_PULSE * spec.contraction_fraction)
    la_cy = cy + spec.base_radius + wall + 2.0 + la_base

    # bounds at maximum dilation (LV at ED, LA at ES)
    r_out = spec.base_radius + wall
    if (cy - r_out < 0 or la_cy + la_max > h - 1
            or cx - _LV_ASPECT * r_out < 0 or cx + _LV_ASPECT * r_out > w - 1
            or cx - la_max < 0 or cx + la_max > w - 1):
        raise GeometryError(
            f"phantom geometry (base_radius={spec.base_radius}) exceeds "
            f"{h}x{w} image bounds"
        )

    t_total = spec.t_count * spec.cycles
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = ys - cy, xs - cx
    dla = np.hypot(ys - la_cy, dx)

    rng = np.random.default_rng(spec.seed)
    if spec.speckle_sigma > 0:
        texture = gaussian_filter(rng.normal(0.0, 1.0, size=(h, w)), _TEXTURE_CORR_PX)
        texture *= spec.speckle_sigma / texture.std()
        decorr = gaussian_filter(rng.normal(0.0, 1.0, size=(t_total, h, w)),
                                 (0.0, _DECORR_CORR_PX, _DECORR_CORR_PX))
        decorr *= 1.0 / decorr.std()
    else:
        texture = decorr = None
    # peak wall displacement per frame; scales the decorrelation amplitude
    peak_disp = (spec.base_radius * spec.contraction_fraction * np.pi / spec.t_count)
    dec_gain = min(1.0, peak_disp / _DECORR_DISP_REF)

    frames = np.empty((t_total, h, w), dtype=np.float64)
    masks = np.zeros((t_total, h, w), dtype=np.uint8)
    radii = np.array([phantom_radius(t, spec) for t in range(t_total)])
    for t in range(t_total):
        r = radii[t]
        la_r = phantom_la_radius(t, spec)
        ax, ay = _LV_ASPECT * r, r
        e_in = np.sqrt((dx / ax) ** 2 + (dy / ay) ** 2)
        e_out = np.sqrt((dx / (ax + wall)) ** 2 + (dy / (ay + wall)) ** 2)
        lv = e_in <= 1.0
        lvm = (e_out <= 1.0) & ~lv

        mask = np.zeros((h, w), dtype=np.uint8)
        mask[lvm] = LABEL_LVM
        mask[lv] = LABEL_LV
        mask[dla <= la_r] = LABEL_LA
        masks[t] = mask

        # soft-edged gray composition, ~1 px transitions
        mu_i = np.clip((1.0 - e_in) * min(ax, ay) + 0.5, 0.0, 1.0)
        mu_o = np.clip((1.0 - e_out) * min(ax + wall, ay + wall) + 0.5, 0.0, 1.0)
        mu_la = np.clip(la_r - dla + 0.5, 0.0, 1.0)
        img = 0.45 * (1.0 - mu_o) + 0.8 * mu_o
        img = img * (1.0 - mu_i) + 0.2 * mu_i
        img = img * (1.0 - mu_la) + 0.2 * mu_la

        if texture is not None:
            # tissue weights: 1 inside each structure, fading over ~4 px
            wgt_lv = np.clip(1.0 - (e_out - 1.0) * min(ax + wall, ay + wall) / 4.0,
                             0.0, 1.0)
            wgt_la = np.clip(1.0 - (dla - la_r) / 4.0, 0.0, 1.0)
            # advect the texture with each structure (material scale r0/r)
            fac = 1.0 + (spec.base_radius / r - 1.0) * wgt_lv
            s_la = la_base / la_r
            samp_y = cy + dy * fac
            samp_x = cx + dx * fac
            samp_y = samp_y * (1.0 - wgt_la) + (la_cy + (ys - la_cy) * s_la) * wgt_la
            samp_x = samp_x * (1.0 - wgt_la) + (cx + dx * s_la) * wgt_la
            tex = map_coordinates(texture, [samp_y, samp_x], order=1, mode="nearest")
            speed = abs(np.sin(2.0 * np.pi * t / spec.t_count))
            amp = spec.speckle_sigma * dec_gain * speed
            img = img + tex + amp * np.maximum(wgt_lv, wgt_la) * decorr[t]
        frames[t] = np.clip(img, 0.0, 1.0)

    first_cycle = radii[: spec.t_count]
    ed = int(np.argmax(first_cycle))
    es = int(np.argmin(first_cycle))
    if es == ed:  # motionless heart: fall back to nominal mid-cycle systole
        es = (ed + spec.t_count // 2) % spec.t_count
    seq = FrameSequence(frames=frames, ed_index=ed, es_index=es,
                        meta={"source": "phantom", "seed": str(spec.seed)})
    return seq, MaskSequence(masks=masks)
