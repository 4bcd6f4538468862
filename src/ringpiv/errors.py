"""Exception types shared across the package."""


class RingPivError(Exception):
    """Base class for all package errors."""


class DimensionError(RingPivError, ValueError):
    """Image/grid geometry mismatch (non-divisible tiling, size mismatch)."""


class ConfigError(RingPivError, ValueError):
    """Invalid configuration value or combination."""


class InputFormatError(RingPivError, ValueError):
    """Malformed or unsupported input (bad PGM magic, pixel above maxval, non-integer intensity)."""

