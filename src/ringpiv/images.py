"""Image containers, and ``_ReadOnly``, the base of every checked record.

A record's constructor runs every check and sets the fields with ``_set``;
the ``piv`` docstring says why ``WindowGrid`` and ``Displacement`` stay
tuples.  A BinaryImage is a read-only 2-D bool raster, one byte per pixel,
not on the ``compute_field`` path: that binarizes with ``piv.binarize_frame``.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError, DimensionError, InputFormatError

MAX_INTENSITY = 1023  # 10-bit sensor ceiling


def _shown(value) -> str:
    """``repr(value)`` for an error message, or a stand-in when an int is past Python's 4300-digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _integer(name: str, value, error: type[Exception] = ConfigError) -> int:
    """``value`` as an ``int``; a bool or a non-integer raises ``error``.

    ``operator.index`` takes Python and numpy integers (and 0-d integer
    arrays) and is far cheaper than ``isinstance(value, numbers.Integral)``;
    ``piv.tile_windows`` runs it on every block.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {_shown(value)}")


def _size(name: str, value, error: type[Exception]) -> int:
    """``value`` as a positive ``int``; a bool, a non-integer or a value <= 0 raises ``error``."""
    value = _integer(name, value, error)
    if value <= 0:
        raise error(f"{name} {_shown(value)} must be positive")
    return value


class _ReadOnly:
    """Fields listed in ``__slots__``, set once by ``__init__`` with ``_set``; compared by value.

    Pickling and copying replay the constructor call, so its checks run again.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set every field, in ``__slots__`` order; each constructor calls it once."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class GrayImage(_ReadOnly):
    """Read-only grayscale raster with 10-bit intensities; ``data[y, x]`` is pixel (x, y).

    ``==`` is identity; compare contents with ``np.array_equal(a.data, b.data)``.
    """

    __slots__ = ("data",)  # shape (height, width), uint16
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, data: np.ndarray):
        if not isinstance(data, np.ndarray):
            raise InputFormatError(f"data must be a numpy array, got {type(data).__name__}; see from_array")
        if data.ndim != 2 or data.size == 0:
            raise DimensionError(f"expected a non-empty 2-D array, got shape {data.shape}")
        if not np.issubdtype(data.dtype, np.integer):
            raise InputFormatError(f"intensities must be integers, got dtype {data.dtype}")
        if np.issubdtype(data.dtype, np.signedinteger) and int(data.min()) < 0:
            raise InputFormatError(f"intensity {int(data.min())} is negative")
        if int(data.max()) > MAX_INTENSITY:
            raise InputFormatError(f"intensity {int(data.max())} exceeds 10-bit maximum {MAX_INTENSITY}")
        # Its own copy, so the caller's array stays writable and cannot change the image.
        data = np.array(data, dtype=np.uint16)
        data.setflags(write=False)
        self._set(data)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        """Copy a 2-D integer array."""
        try:
            data = np.asarray(arr)
        except ValueError as exc:  # a ragged nested sequence
            raise InputFormatError(f"data must be a rectangular array: {exc}") from None
        return cls(data=data)


class BinaryImage(_ReadOnly):
    """Read-only binary raster; ``bits[y, x]`` is pixel (x, y).

    ``==`` is identity; compare contents with ``np.array_equal(a.bits, b.bits)``.
    """

    __slots__ = ("bits",)  # shape (height, width), bool
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, bits: np.ndarray):
        if not isinstance(bits, np.ndarray):
            raise InputFormatError(f"bits must be a numpy array, got {type(bits).__name__}; see from_bool")
        if bits.dtype != bool or bits.ndim != 2 or bits.size == 0:
            raise DimensionError(
                f"expected a non-empty 2-D bool array, got {bits.dtype} of shape {bits.shape}"
            )
        bits = np.array(bits, dtype=bool)  # its own copy, as in GrayImage
        bits.setflags(write=False)
        self._set(bits)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @classmethod
    def from_bool(cls, arr) -> "BinaryImage":
        """Copy a 2-D boolean array."""
        try:
            bits = np.asarray(arr, dtype=bool)
        except ValueError as exc:  # a ragged nested sequence
            raise InputFormatError(f"bits must be a rectangular array: {exc}") from None
        return cls(bits=bits)

    def to_bool(self) -> np.ndarray:
        """The read-only (height, width) bool array."""
        return self.bits
