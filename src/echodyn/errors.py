"""Exception types shared across the pipeline and the checks that raise them:
`check_range` is the one NaN-safe bound on a single parameter, whose
ParameterError says "fit int64", "finite" or the bound the value missed. A
record that `seqio.read_json` loads re-raises its check's error, prefixed
with the file and the record's dotted key."""

import math
import sys

import numpy as np

# the largest size or count a parameter may take: numpy indexes with int64
# (a seed may be larger, as `pipeline.stage_seed` keeps its low 64 bits)
INT64_MAX = 2 ** 63 - 1


class EchodynError(Exception):
    """Base class for all pipeline errors."""


class FormatError(EchodynError):
    """File contents do not match the expected on-disk format."""


class DimensionError(EchodynError):
    """Array shapes are inconsistent or too small to operate on."""


class GeometryError(EchodynError):
    """Requested phantom geometry does not fit inside the image."""


class InsufficientDataError(EchodynError):
    """Not enough samples/frames for the requested operation."""


class ParameterError(EchodynError):
    """A parameter is outside its valid range."""


class NumericError(EchodynError):
    """Non-finite values where finite ones are required."""


class ModelError(EchodynError):
    """A fitted model does not match the data it is applied to."""


class DivergenceError(EchodynError):
    """Training residual blew up; typically the learning rate is too large."""


class UndefinedDistanceError(EchodynError):
    """Boundary distance requested against an empty mask."""


def check_shapes(model, kind: str, sizes: str, shapes: dict) -> None:
    """Raise ModelError naming the first field of `model` whose array does not
    have its shape in `shapes` (field name -> shape); `sizes` says which sizes
    those shapes were built from."""
    for name, shape in shapes.items():
        if np.shape(getattr(model, name)) != shape:
            raise ModelError(f"{kind} '{name}' must have shape {shape} ({sizes}), "
                             f"got {np.shape(getattr(model, name))}")


def check_float64_count(setting: str, count: int) -> None:
    """Raise ParameterError naming `setting` when an array of `count` float64
    values would take more than INT64_MAX bytes, which no numpy array can."""
    if 8 * count > INT64_MAX:
        raise ParameterError(f"{setting} = {count} float64 values, "
                             f"more than {INT64_MAX} bytes")


def check_range(name: str, value, low, high=INT64_MAX, *, low_open: bool = False,
                high_open: bool = False) -> None:
    """Raise ParameterError naming `name` unless low <= value <= high, with <
    at an end whose `*_open` flag is set; NaN always fails."""
    if not ((low < value if low_open else low <= value)
            and (value < high if high_open else value <= high)):
        end = ("fit int64" if high == INT64_MAX else "finite" if high == math.inf
               else f"{'<' if high_open else '<='} {high}")
        raise ParameterError(f"{name} must be {'>' if low_open else '>='} {low} and {end}, "
                             f"got {value}")


def square_is_normal(x: float) -> bool:
    """Whether x > 0 and x * x is a normal, finite float, as a value whose
    square the code divides by must be (flow's alpha, the RBF kernel's sigma)."""
    return x > 0 and sys.float_info.min <= x * x < math.inf
