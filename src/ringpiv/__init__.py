"""Binary cross-correlation PIV: 10-bit frame pairs to one integer displacement per window.

``import ringpiv`` loads only the pipeline.  The synthetic-frame generator
and the PGM reader are imported on their own: ``ringpiv.synth`` and
``ringpiv.pgm``.
"""

from .errors import (
    ConfigError,
    DimensionError,
    InputFormatError,
    RingPivError,
)
from .images import BinaryImage, GrayImage, MAX_INTENSITY
from .piv import (
    Displacement,
    PivConfig,
    VectorField,
    WindowGrid,
    compute_field,
    peak_displacement,
    tile_windows,
)

__all__ = [
    "BinaryImage",
    "ConfigError",
    "DimensionError",
    "Displacement",
    "GrayImage",
    "InputFormatError",
    "MAX_INTENSITY",
    "PivConfig",
    "RingPivError",
    "VectorField",
    "WindowGrid",
    "compute_field",
    "peak_displacement",
    "tile_windows",
]
