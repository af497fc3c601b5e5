"""File I/O for every echodyn format, and the synthetic beating-heart phantom.

On-disk formats are deliberately simple and bit-exact:

* frame directory: ``meta.json`` (a `SequenceMeta`) plus
  ``frame_%04d.pgm`` binary PGM (P5, maxval 255; the header numbers are
  decimal digits, each after whitespace or ``#`` comments to end of line);
* mask directory: ``mask_%04d.pgm`` with label bytes 0/1/2/3 stored directly.
  One reader takes both: files numbered from 0000 with no gap, all H x W
  with H, W >= 1. For frames, T, H and W come from meta.json, and frames
  numbered T or above are ignored; for masks, T is the number of files
  named ``mask_%04d.pgm`` and H x W the first mask's shape;
* ``.eds`` container: magic ``EDS1``, little-endian u32 T,H,W,ed,es,
  then T*H*W raw gray bytes.

Every JSON file (config, models, weights, ``meta.json``, and the
``report.json`` of `metrics.MetricsReport`) is a dataclass written by
`write_json` and read back by `read_json`, which checks it against the
dataclass's type hints: the dataclass is the schema. `write_binary` writes
every ``.eds``, FLW1 and FTC1 file, drawing its payload a frame or plane at
a time, and `read_binary` hands the payload back as a view of the file's
bytes, not a copy: FTC1 and FLW1 arrays load as read-only float32 views,
and `encode_f32` range-checks every array they store. `write_csv` writes
every CSV file and `read_csv` reads every all-numeric one back: no other
module opens a file. Every writer goes through `atomic_write`, which makes
a missing parent directory; a failed write leaves the target as it was and
no other file, and a written file gets the mode a plain `open()` gives
under the current umask.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import re
import reprlib
import struct
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .errors import (
    INT64_MAX,
    DimensionError,
    FormatError,
    GeometryError,
    InsufficientDataError,
    NumericError,
    ParameterError,
)

LABEL_BACKGROUND = 0
LABEL_LV = 1
LABEL_LVM = 2
LABEL_LA = 3

# horizontal-to-vertical semi-axis ratio of the phantom LV ellipse
_LV_ASPECT = 0.8
# antiphase atrial pulse as a fraction of the LV contraction fraction
_LA_PULSE = 0.5
_F32_MAX = float(np.finfo(np.float32).max)  # FTC1 and FLW1 files hold float32
# spatial correlation (px) of the speckle texture / decorrelation noise
_TEXTURE_CORR_PX = 1.5
_DECORR_CORR_PX = 1.0
# wall displacement (px/frame) at which decorrelation reaches full strength
_DECORR_DISP_REF = 0.7

# "P5", then width, height and maxval, each after whitespace and '#' comment
# lines and ending at whitespace; one whitespace byte separates the pixels
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)(?!\S)" * 3)


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
class SequenceMeta:
    """The ``meta.json`` of a frame directory: T, H, W, the ED/ES indices and
    the free-form meta strings."""

    t: int
    h: int
    w: int
    ed: int
    es: int
    meta: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class MaskSequence:
    """Integer label masks (0=background, 1=LV, 2=LVM, 3=LA) paired with frames."""

    masks: np.ndarray  # (T, H, W) uint8

    def __post_init__(self):
        m = np.asarray(self.masks)
        if m.ndim != 3 or 0 in m.shape[1:]:
            raise DimensionError(f"masks must be T x H x W with H, W >= 1, got shape {m.shape}")
        with np.errstate(invalid="ignore"):  # NaN casts to some byte; the check below fails it
            labels = m.astype(np.uint8, copy=False)
        if not (np.array_equal(labels, m) and labels.max(initial=0) <= 3):
            raise FormatError("mask labels must be in {0,1,2,3}")
        object.__setattr__(self, "masks", labels)

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
        if not 2 <= self.t_count <= INT64_MAX:
            raise ParameterError(f"t_count must be >= 2 and fit int64, got {self.t_count}")
        for name in ("height", "width", "cycles"):
            if not 1 <= getattr(self, name) <= INT64_MAX:
                raise ParameterError(
                    f"{name} must be >= 1 and fit int64, got {getattr(self, name)}")
        if not (0.0 <= self.contraction_fraction < 0.9):
            raise ParameterError(
                f"contraction_fraction must be in [0, 0.9), got {self.contraction_fraction}"
            )
        # below 1 px the ventricle is a pixel at most; near 0 its ellipse test overflows
        if not 1.0 <= self.base_radius < math.inf:
            raise ParameterError(f"base_radius must be >= 1 px and finite, got {self.base_radius}")
        if not (self.speckle_sigma >= 0 and math.isfinite(self.speckle_sigma)):
            raise ParameterError(
                f"speckle_sigma must be >= 0 and finite, got {self.speckle_sigma}")


def quantize_frame(frame: np.ndarray) -> np.ndarray:
    """[0,1] floats -> bytes, round half up (0.5*255 = 127.5 -> 128)."""
    return np.clip(np.floor(frame * 255.0 + 0.5), 0, 255).astype(np.uint8)


def write_pgm(path: Path | str, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=np.uint8)
    if data.ndim != 2:
        raise DimensionError("PGM payload must be 2-D")
    h, w = data.shape
    with atomic_write(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path: Path | str) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) into a uint8 H x W array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (missing P5 magic)")
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise FormatError(f"{path}: truncated PGM header")
    if not all(map(bytes.isdigit, header.groups())):  # int() would take b"+4" and b"1_0"
        raise FormatError(f"{path}: non-numeric PGM header {list(header.groups())}")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise FormatError(f"{path}: unsupported PGM maxval {maxval} (need 255)")
    payload = raw[header.end() + 1:]  # the pixels and nothing after them
    if len(payload) != h * w:
        raise FormatError(f"{path}: expected {h * w} pixel bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def read_binary(path: Path | str, magic: bytes, n_fields: int, n_dims: int,
                item_bytes: int) -> tuple[tuple[int, ...], memoryview]:
    """Read a file laid out as `magic`, `n_fields` little-endian u32, payload.

    The first `n_dims` fields are dimensions: each must be >= 1 and the
    payload must hold exactly their product times `item_bytes` bytes.
    Returns (fields, payload), the payload a view into the file's bytes
    rather than a copy; any mismatch raises FormatError.
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
    return fields, memoryview(raw)[end:]


def encode_f32(array: np.ndarray, what: str) -> np.ndarray:
    """`array` as little-endian float32, as an FTC1 or FLW1 file stores it; a
    value past the float32 range is a NumericError naming `what`."""
    if not (-_F32_MAX <= array.min(initial=0.0) and array.max(initial=0.0) <= _F32_MAX):
        raise NumericError(f"{what} values exceed the float32 range of the file")
    return array.astype("<f4")


def write_binary(path: Path | str, magic: bytes, fields, payloads) -> None:
    """Write `magic`, `fields` as little-endian u32, then the arrays drawn one
    at a time from the iterable `payloads`, each as its bytes in C order
    whatever its memory layout: the layout `read_binary` reads."""
    with atomic_write(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(fields)}I", *fields))
        for payload in payloads:
            fh.write(np.ascontiguousarray(payload))


def write_csv(path: Path | str, header, rows) -> None:
    """Write the `header` row, then `rows`, one `writerow` each: a float cell
    (a numpy float too) as repr(float(x)), which reads back exactly, and
    None as an empty cell."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x
                             for x in row])


def read_csv(path: Path | str) -> tuple[list[str], np.ndarray]:
    """The header row and the data rows, as floats, of a CSV file whose every
    data cell is a number: the mirror of `write_csv`. No data row, a
    non-numeric or non-finite cell, or a row whose width differs from the
    header's is a FormatError naming the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header, values = next(reader, []), []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise FormatError(f"{where} has {len(row)} values, the header has {len(header)}")
            try:
                values.append([float(v) for v in row])
            except ValueError:
                raise FormatError(f"{where}: non-numeric value in {row}") from None
            if not np.isfinite(values[-1]).all():
                raise FormatError(f"{where}: non-finite value in {row}")
    if not values:
        raise FormatError(f"{path}: no data rows")
    return header, np.array(values)


@contextmanager
def atomic_write(path: Path | str, mode: str = "w", **open_kwargs):
    """Open a file object for writing `path`; it is renamed into place on success.

    A missing parent directory is created first. The temporary file is
    unique to the call and sits beside `path`, created with the mode a plain
    `open()` gives under the current umask; if the body raises it is
    removed, so `path` keeps its old bytes (or stays absent) and no file is
    left behind, though a directory created for it stays.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path | str, obj) -> None:
    """Write dataclass `obj` atomically as indented JSON with sorted keys: a
    dataclass becomes an object keyed by field name, an array nested lists."""
    with atomic_write(path) as fh:
        json.dump(dataclasses.asdict(obj), fh, indent=2, sort_keys=True,
                  default=lambda array: array.tolist())
        fh.write("\n")


def read_json(path: Path | str, cls, error: type[Exception] = FormatError):
    """Load dataclass `cls` from the JSON file `path` (see `from_json_dict`).

    Malformed JSON and every problem `from_json_dict` finds raise `error`.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{path}: malformed JSON: {exc}") from None
    return from_json_dict(cls, raw, error, f"{path}: ")


def from_json_dict(cls, raw, error: type[Exception] = FormatError, context: str = ""):
    """Build dataclass `cls` from parsed JSON, checked against its type hints.

    A dataclass loads from an object (as a field, list item or dict value
    too); an `np.ndarray` from a rectangular nested list of numbers (as
    float64); a fixed-length tuple or a list from a list; an int fits float,
    and a bool fits only bool. A key may be absent only when its field has
    a default. Every missing key, unexpected key, wrong-typed value and
    non-finite number (NaN, Infinity, 1e999), at any depth, goes into one
    `error` that names the dataclass field holding it by dotted path; each
    object's missing and unexpected keys come before the problems inside its values.
    """
    problems: list[str] = []
    obj = _decode(cls, raw, "", problems)
    if problems:
        raise error(context + ", ".join(problems))
    return obj


_BAD = object()  # marks a JSON value that does not fit its declared type


def _non_finite(value) -> bool:
    """Whether parsed JSON `value` holds NaN or an infinity at any depth
    (`json` parses the NaN and Infinity literals, and 1e999 as inf)."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, list):
        return any(map(_non_finite, value))
    if isinstance(value, dict):
        return any(map(_non_finite, value.values()))
    return False


def _decode(tp, value, key: str, problems: list[str]):
    """`value` converted to type `tp`, or _BAD. A dataclass adds its own problems
    to `problems` by dotted key; the field holding any other misfit is named."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            problems.append(f"'{key or '<root>'}' must be a JSON object")
            return _BAD
        start = len(problems)
        prefix = f"{key}." if key else ""
        fields = {f.name: f for f in dataclasses.fields(tp)}
        problems += [f"missing key '{prefix}{name}'" for name, f in fields.items()
                     if name not in value and f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING]
        problems += [f"unexpected key '{prefix}{name}'" for name in value if name not in fields]
        kwargs = {}
        for name, hint in typing.get_type_hints(tp).items():
            if name not in value:
                continue
            before = len(problems)
            kwargs[name] = _decode(hint, value[name], prefix + name, problems)
            if kwargs[name] is _BAD and len(problems) == before:
                type_name = hint.__name__ if isinstance(hint, type) else hint
                problems.append(f"'{prefix}{name}' must be finite" if _non_finite(value[name])
                                else f"'{prefix}{name}' must be {type_name}, "
                                     f"got {reprlib.repr(value[name])}")
        return tp(**kwargs) if len(problems) == start else _BAD
    if isinstance(tp, types.UnionType):
        for arm in typing.get_args(tp):
            out = _decode(arm, value, key, problems)
            if out is not _BAD:
                return out
        return _BAD
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, list):
        if not isinstance(value, list) or origin is tuple and len(value) != len(args):
            return _BAD
        hints = args if origin is tuple else args * len(value)
        items = [_decode(hint, item, f"{key}.{i}", problems)
                 for i, (hint, item) in enumerate(zip(hints, value))]
        return _BAD if any(item is _BAD for item in items) else origin(items)
    if origin is dict:
        if not isinstance(value, dict):
            return _BAD
        items = {k: _decode(args[1], v, f"{key}.{k}", problems) for k, v in value.items()}
        return _BAD if any(item is _BAD for item in items.values()) else items
    if _non_finite(value):
        return _BAD
    if tp is np.ndarray:
        if not isinstance(value, list):
            return _BAD
        # as objects, a ragged list keeps lists as elements and a bool stays a bool
        arr = np.array(value, dtype=object)
        return arr.astype(np.float64) if set(map(type, arr.flat)) <= {int, float} else _BAD
    if tp is type(None):
        return None if value is None else _BAD
    if isinstance(value, bool):
        return value if tp is bool else _BAD
    if tp is float and isinstance(value, int):
        return float(value)
    return value if isinstance(value, tp) else _BAD


def save_sequence(seq: FrameSequence, path: Path | str) -> None:
    """Write a sequence as a frame directory, or as a single `.eds` container.

    Directory layout: ``meta.json`` plus ``frame_%04d.pgm``. The `.eds`
    container drops free-form meta strings; everything else round-trips.
    ``meta.json`` is written last, so a directory whose save failed midway
    has none and does not load.
    """
    path = Path(path)
    if path.suffix == ".eds":
        _save_eds(seq, path)
        return
    (path / "meta.json").unlink(missing_ok=True)
    t, (h, w) = seq.t_count, seq.shape
    for i in range(t):
        write_pgm(path / f"frame_{i:04d}.pgm", quantize_frame(seq.frames[i]))
    write_json(path / "meta.json",
               SequenceMeta(t, h, w, seq.ed_index, seq.es_index, dict(seq.meta)))


def load_sequence(path: Path | str) -> FrameSequence:
    """Load a frame directory or a `.eds` container; frames come back in [0,1]."""
    path = Path(path)
    if path.is_file() and path.suffix == ".eds":
        return _load_eds(path)
    meta_path = path / "meta.json"
    if not meta_path.is_file():
        raise FormatError(f"{path}: missing meta.json")
    meta = read_json(meta_path, SequenceMeta)
    if meta.t < 2:
        raise InsufficientDataError(f"{path}: sequence too short (T={meta.t})")
    frames = _read_pgm_series(path, "frame", meta.t, (meta.h, meta.w))
    return FrameSequence(frames=frames / 255.0, ed_index=meta.ed, es_index=meta.es,
                         meta=meta.meta)


def _read_pgm_series(path: Path, stem: str, count: int, shape: tuple | None) -> np.ndarray:
    """``{stem}_0000.pgm`` .. ``{stem}_{count-1:04d}.pgm`` of directory `path` as
    a (count, H, W) uint8 array, each image of `shape` (H, W), or of the
    first image's shape when `shape` is None. A missing or misfit file is named."""
    images = []
    for i in range(count):
        file = path / f"{stem}_{i:04d}.pgm"
        if not file.is_file():
            raise FormatError(f"{path}: {file.name} is missing (expected "
                              f"{stem}_0000.pgm .. {stem}_{count - 1:04d}.pgm with no gap)")
        image = read_pgm(file)
        shape = shape or image.shape
        if image.shape != shape:
            raise DimensionError(f"{file.name} has shape {image.shape}, expected {shape}")
        images.append(image)
    return np.stack(images)


def _save_eds(seq: FrameSequence, path: Path) -> None:
    write_binary(path, b"EDS1", (seq.t_count, *seq.shape, seq.ed_index, seq.es_index),
                 map(quantize_frame, seq.frames))


def _load_eds(path: Path) -> FrameSequence:
    (t, h, w, ed, es), payload = read_binary(path, b"EDS1", 5, 3, 1)
    if t < 2:
        raise InsufficientDataError(f"{path}: sequence too short (T={t})")
    frames = np.frombuffer(payload, dtype=np.uint8).reshape(t, h, w) / 255.0
    return FrameSequence(frames=frames, ed_index=ed, es_index=es)


def save_masks(masks: MaskSequence, path: Path | str) -> None:
    for i in range(masks.t_count):
        write_pgm(Path(path) / f"mask_{i:04d}.pgm", masks.masks[i])


def load_masks(path: Path | str) -> MaskSequence:
    """Load mask_0000.pgm .. mask_{T-1}.pgm; the numbering must have no gaps.

    T counts the files named ``mask_%04d.pgm``; other files, such as
    ``mask_0001_old.pgm``, are ignored.
    """
    path = Path(path)
    # exactly the names f"mask_{i:04d}.pgm" gives for i >= 0
    count = sum(bool(re.fullmatch(r"mask_([0-9]{4}|[1-9][0-9]{4,})\.pgm", p.name))
                for p in path.glob("mask_*.pgm"))
    if not count:
        raise FormatError(f"{path}: no mask_%04d.pgm files found")
    return MaskSequence(masks=_read_pgm_series(path, "mask", count, None))


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
