"""Exception types shared across the pipeline, the bound on sizes, and the
shape check every stored model runs on its arrays."""

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
