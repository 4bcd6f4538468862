"""Binary cross-correlation PIV: 10-bit frame pairs to one integer displacement per window."""

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
from .synth import FlowSpec, ParticleField, RenderConfig, advect, render_pair, seed_particles

__all__ = [
    "BinaryImage",
    "ConfigError",
    "DimensionError",
    "Displacement",
    "FlowSpec",
    "GrayImage",
    "InputFormatError",
    "MAX_INTENSITY",
    "ParticleField",
    "PivConfig",
    "RenderConfig",
    "RingPivError",
    "VectorField",
    "WindowGrid",
    "advect",
    "compute_field",
    "peak_displacement",
    "render_pair",
    "seed_particles",
    "tile_windows",
]
