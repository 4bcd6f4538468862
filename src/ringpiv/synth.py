"""Synthetic particle image pairs with known flow fields.

Particles are rendered as hard-edged discs: the downstream binarization
discards intensity profiles, so the simplest renderer suffices, and a
frame holds only the background and particle levels.  The one random step,
``seed_particles``, draws from numpy's PCG64 generator seeded explicitly, so
a given (seed, flow, config) triple always produces bit-identical frames.
The records are checked and read-only on ``images._ReadOnly``, like ``PivConfig``:
a flow's fields are finite floats and its ``center`` a pair of them.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError
from .images import MAX_INTENSITY, GrayImage, _integer, _ReadOnly, _shown, _size

_FLOW_FIELDS = {"uniform": ("dx", "dy"), "shear": ("rate",), "vortex": ("center", "strength")}


class FlowSpec(_ReadOnly):
    """Displacement field applied between the two exposures.

    kinds:
      uniform  - every particle moves by (dx, dy) pixels
      shear    - dx = rate * y, dy = 0
      vortex   - solid-body rotation about ``center`` by angle ``strength``
                 (radians); small angles approximate the usual tangential flow
    Displacements are in pixels per frame pair.  Every field after ``kind`` is a
    finite ``float``, ``center`` a tuple of two; a field the kind does not read
    must keep its default.  Read-only, compared and hashed by value.
    """

    __slots__ = ("kind", "dx", "dy", "rate", "center", "strength")

    def __init__(self, kind: str, dx: float = 0.0, dy: float = 0.0, rate: float = 0.0,
                 center: tuple[float, float] = (0.0, 0.0), strength: float = 0.0):
        if not isinstance(kind, str) or kind not in _FLOW_FIELDS:
            raise ConfigError(f"unknown flow kind {_shown(kind)}")
        values = (_real("dx", dx), _real("dy", dy), _real("rate", rate), _center(center),
                  _real("strength", strength))
        for name, value, default in zip(self.__slots__[1:], values, FlowSpec.__init__.__defaults__):
            if name not in _FLOW_FIELDS[kind] and value != default:
                raise ConfigError(f"{kind} flow does not use {name}, got {value!r}")
        self._set(kind, *values)

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


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite float, > 0 if ``positive``; ``10**30`` is 1e30, ``10**400`` not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or positive and number <= 0:
        wanted = "a positive finite number" if positive else "finite"
        raise ConfigError(f"{name} must be {wanted}, got {_shown(value)}")
    return number


def _center(value) -> tuple[float, float]:
    """``value`` as an (x, y) tuple of finite floats; any other shape raises ConfigError."""
    try:
        x, y = value if np.shape(value) == (2,) else ()
    except ValueError:  # not a pair; np.shape raises it too, for a ragged sequence
        raise ConfigError(f"center must be an (x, y) pair, got {_shown(value)}") from None
    return _real("center", x), _real("center", y)


class ParticleField(_ReadOnly):
    """Discs of one radius; ``==`` is identity, as for the images."""

    __slots__ = ("positions", "radius")  # positions: shape (n, 2) float64, columns (x, y)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, positions: np.ndarray, radius: float):
        radius = _real("radius", radius, positive=True)
        try:
            # Its own read-only copy, so the caller's array stays writable and cannot change the field.
            positions = np.array(positions, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"positions must be numeric: {exc}") from None
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigError(f"positions must be an (n, 2) array, got shape {positions.shape}")
        if not np.isfinite(positions).all():
            raise ConfigError("positions must be finite")
        positions.setflags(write=False)
        self._set(positions, radius)

    @property
    def count(self) -> int:
        return len(self.positions)


def _require(name: str, value, kind: type) -> None:
    """Raise ConfigError unless ``value`` is a ``kind``, as ``compute_field`` does for its inputs."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


class RenderConfig(_ReadOnly):
    """Positive frame size and two levels in ``0..MAX_INTENSITY``, as ``int``s; compared by value."""

    __slots__ = ("width", "height", "background", "particle_intensity")

    def __init__(self, width: int = 320, height: int = 256, background: int = 100,
                 particle_intensity: int = 900):
        size = _size("width", width, ConfigError), _size("height", height, ConfigError)
        names = self.__slots__[2:]
        levels = tuple(map(_integer, names, (background, particle_intensity)))
        for name, level in zip(names, levels):
            if not 0 <= level <= MAX_INTENSITY:
                raise ConfigError(f"{name} {_shown(level)} outside 0..{MAX_INTENSITY}")
        self._set(*size, *levels)


def seed_particles(
    width: int, height: int, density: float, seed: int, radius: float = 3.0
) -> ParticleField:
    """Uniformly placed particles; expected count = density * (area / 32^2).

    ``density`` is particles per 32x32 interrogation window.  The actual
    count is Poisson-distributed around the expectation, matching a uniform
    seeding process.
    """
    width, height = _size("width", width, ConfigError), _size("height", height, ConfigError)
    density = _real("density", density, positive=True)
    seed = _integer("seed", seed)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {_shown(seed)}")
    rng = np.random.default_rng(seed)
    expected = density * (width * height) / 1024.0
    n = int(rng.poisson(expected))
    xs = rng.uniform(0.0, width, size=n)
    ys = rng.uniform(0.0, height, size=n)
    return ParticleField(positions=np.column_stack([xs, ys]), radius=radius)


def advect(field: ParticleField, flow: FlowSpec) -> ParticleField:
    """Move each particle by the flow displacement at its position.

    Particles leaving the frame are kept; they simply render partially or
    not at all.
    """
    _require("field", field, ParticleField)
    _require("flow", flow, FlowSpec)
    x, y = field.positions[:, 0], field.positions[:, 1]
    ux, uy = flow.displacement_at(x, y)
    moved = np.column_stack([x + ux, y + uy])
    return ParticleField(positions=moved, radius=field.radius)


def render(field: ParticleField, cfg: RenderConfig) -> np.ndarray:
    """Paint discs over the background; returns an int array."""
    _require("field", field, ParticleField)
    _require("cfg", cfg, RenderConfig)
    img = np.full((cfg.height, cfg.width), cfg.background, dtype=np.int32)
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
    return GrayImage.from_array(render(field, cfg)), GrayImage.from_array(render(advect(field, flow), cfg))
