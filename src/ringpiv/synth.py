"""Synthetic particle image pairs with known flow fields.

Particles are rendered as hard-edged discs: the downstream binarization
discards intensity profiles, so the simplest renderer suffices.  All
randomness goes through numpy's PCG64 generator seeded explicitly, so a
given (seed, flow, config) triple always produces bit-identical frames.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .images import MAX_INTENSITY, GrayImage

_NOISE_SEED_SALT = 0x5EED_0F_0123
_FLOW_FIELDS = {"uniform": ("dx", "dy"), "shear": ("rate",), "vortex": ("center", "strength")}


@dataclass(frozen=True)
class FlowSpec:
    """Displacement field applied between the two exposures.

    kinds:
      uniform  - every particle moves by (dx, dy) pixels
      shear    - dx = rate * y, dy = 0
      vortex   - solid-body rotation about ``center`` by angle ``strength``
                 (radians); small angles approximate the usual tangential flow
    Displacements are in pixels per frame pair.  A field the kind does not
    read must keep its default.
    """

    kind: str
    dx: float = 0.0
    dy: float = 0.0
    rate: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in _FLOW_FIELDS:
            raise ConfigError(f"unknown flow kind {self.kind!r}")
        used = _FLOW_FIELDS[self.kind]
        for f in fields(self)[1:]:  # every field after kind is numeric
            value = getattr(self, f.name)
            if f.name not in used and not np.array_equal(value, f.default):
                raise ConfigError(f"{self.kind} flow does not use {f.name}, got {value!r}")
            if not np.isfinite(value).all():
                raise ConfigError(f"{f.name} must be finite, got {value!r}")

    @classmethod
    def uniform(cls, dx: float, dy: float) -> "FlowSpec":
        return cls(kind="uniform", dx=dx, dy=dy)

    @classmethod
    def shear(cls, rate: float) -> "FlowSpec":
        return cls(kind="shear", rate=rate)

    @classmethod
    def vortex(cls, center: tuple[float, float], strength: float) -> "FlowSpec":
        return cls(kind="vortex", center=center, strength=strength)

    def displacement_at(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Displacement (ux, uy) at positions (x, y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "uniform":
            return np.full_like(x, self.dx), np.full_like(y, self.dy)
        if self.kind == "shear":
            return self.rate * y, np.zeros_like(y)
        cx, cy = self.center
        rx, ry = x - cx, y - cy
        c, s = np.cos(self.strength), np.sin(self.strength)
        return (c * rx - s * ry) - rx, (s * rx + c * ry) - ry


@dataclass(frozen=True)
class ParticleField:
    positions: np.ndarray  # shape (n, 2) float64, columns (x, y)
    radius: float
    seed: int

    def __post_init__(self):
        if not (isinstance(self.radius, numbers.Real) and np.isfinite(self.radius) and self.radius > 0):
            raise ConfigError(f"radius must be a positive finite number, got {self.radius!r}")
        try:
            # Its own read-only copy, so the caller's array stays writable and cannot change the field.
            positions = np.array(self.positions, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"positions must be numeric: {exc}") from None
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigError(f"positions must be an (n, 2) array, got shape {positions.shape}")
        if not np.isfinite(positions).all():
            raise ConfigError("positions must be finite")
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)

    @property
    def count(self) -> int:
        return len(self.positions)


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; a bool or a non-integer raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RenderConfig:
    """Frame size and intensities; every field is an integer, numpy integers are stored as ``int``."""

    width: int = 320
    height: int = 256
    background: int = 100
    particle_intensity: int = 900
    noise_amplitude: int = 0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _integer(f.name, getattr(self, f.name)))
        if not (0 <= self.background <= MAX_INTENSITY):
            raise ConfigError(f"background {self.background} outside 0..{MAX_INTENSITY}")
        if not (0 <= self.particle_intensity <= MAX_INTENSITY):
            raise ConfigError(
                f"particle intensity {self.particle_intensity} outside 0..{MAX_INTENSITY}"
            )
        if self.noise_amplitude < 0:
            raise ConfigError("noise amplitude must be >= 0")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError(f"width and height must be positive, got {self.width}x{self.height}")


def seed_particles(
    width: int, height: int, density: float, seed: int, radius: float = 3.0
) -> ParticleField:
    """Uniformly placed particles; expected count = density * (area / 32^2).

    ``density`` is particles per 32x32 interrogation window.  The actual
    count is Poisson-distributed around the expectation, matching a uniform
    seeding process.
    """
    width, height = _integer("width", width), _integer("height", height)
    if isinstance(density, bool) or not isinstance(density, numbers.Real):
        raise ConfigError(f"density must be a number, got {density!r}")
    if not (np.isfinite(density) and density > 0):
        raise ConfigError(f"density must be a positive finite number, got {density!r}")
    if width <= 0 or height <= 0:
        raise ConfigError(f"width and height must be positive, got {width}x{height}")
    rng = np.random.default_rng(seed)
    expected = density * (width * height) / 1024.0
    n = int(rng.poisson(expected))
    xs = rng.uniform(0.0, width, size=n)
    ys = rng.uniform(0.0, height, size=n)
    return ParticleField(positions=np.column_stack([xs, ys]), radius=radius, seed=seed)


def advect(field: ParticleField, flow: FlowSpec) -> ParticleField:
    """Move each particle by the flow displacement at its position.

    Particles leaving the frame are kept; they simply render partially or
    not at all.
    """
    if field.count == 0:
        return field
    x, y = field.positions[:, 0], field.positions[:, 1]
    ux, uy = flow.displacement_at(x, y)
    moved = np.column_stack([x + ux, y + uy])
    return ParticleField(positions=moved, radius=field.radius, seed=field.seed)


def render(field: ParticleField, cfg: RenderConfig) -> np.ndarray:
    """Paint discs over the background; returns an int array (no noise)."""
    img = np.full((cfg.height, cfg.width), cfg.background, dtype=np.int32)
    if field.count == 0:
        return img
    r = field.radius
    span = int(np.ceil(r))
    offs = np.arange(-span, span + 1)
    oy, ox = np.meshgrid(offs, offs, indexing="ij")
    cx = field.positions[:, 0]
    cy = field.positions[:, 1]
    # Nearest pixel of each center, then a (2*span+1)^2 patch around it.
    px = np.rint(cx).astype(np.int64)[:, None, None] + ox[None, :, :]
    py = np.rint(cy).astype(np.int64)[:, None, None] + oy[None, :, :]
    inside = (px - cx[:, None, None]) ** 2 + (py - cy[:, None, None]) ** 2 <= r * r
    inside &= (px >= 0) & (px < cfg.width) & (py >= 0) & (py < cfg.height)
    img[py[inside], px[inside]] = cfg.particle_intensity
    return img


def render_pair(
    field: ParticleField, flow: FlowSpec, cfg: RenderConfig
) -> tuple[GrayImage, GrayImage]:
    """Frame 1 renders the field; frame 2 renders the advected field."""
    first = render(field, cfg)
    second = render(advect(field, flow), cfg)
    if cfg.noise_amplitude:
        rng = np.random.default_rng(field.seed ^ _NOISE_SEED_SALT)
        amp = cfg.noise_amplitude
        first = first + rng.integers(-amp, amp + 1, size=first.shape)
        second = second + rng.integers(-amp, amp + 1, size=second.shape)
    first = np.clip(first, 0, MAX_INTENSITY)
    second = np.clip(second, 0, MAX_INTENSITY)
    return GrayImage.from_array(first), GrayImage.from_array(second)
