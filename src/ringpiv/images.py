"""Image containers: 10-bit grayscale rasters and binary rasters.

A BinaryImage is a read-only 2-D bool raster, one byte per pixel.  It is
not on the ``compute_field`` path, which binarizes each frame to a plain
(H, W) bool array with ``piv.binarize_frame``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputFormatError

MAX_INTENSITY = 1023  # 10-bit sensor ceiling


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Read-only grayscale raster with 10-bit intensities; ``data[y, x]`` is pixel (x, y).

    ``==`` is identity; compare contents with ``np.array_equal(a.data, b.data)``.
    """

    data: np.ndarray  # shape (height, width), uint16

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.size == 0:
            raise DimensionError(f"expected a non-empty 2-D array, got shape {self.data.shape}")
        if not np.issubdtype(self.data.dtype, np.integer):
            raise InputFormatError(f"intensities must be integers, got dtype {self.data.dtype}")
        if np.issubdtype(self.data.dtype, np.signedinteger) and int(self.data.min()) < 0:
            raise InputFormatError(f"intensity {int(self.data.min())} is negative")
        if int(self.data.max()) > MAX_INTENSITY:
            raise InputFormatError(
                f"intensity {int(self.data.max())} exceeds 10-bit maximum {MAX_INTENSITY}"
            )
        # Its own copy, so the caller's array stays writable and cannot change the image.
        object.__setattr__(self, "data", np.array(self.data, dtype=np.uint16))
        self.data.setflags(write=False)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        """Copy a 2-D integer array."""
        return cls(data=np.asarray(arr))


@dataclass(frozen=True, eq=False)
class BinaryImage:
    """Read-only binary raster; ``bits[y, x]`` is pixel (x, y).

    ``==`` is identity; compare contents with ``np.array_equal(a.bits, b.bits)``.
    """

    bits: np.ndarray  # shape (height, width), bool

    def __post_init__(self):
        if self.bits.dtype != bool or self.bits.ndim != 2 or self.bits.size == 0:
            raise DimensionError(
                f"expected a non-empty 2-D bool array, got {self.bits.dtype} of shape {self.bits.shape}"
            )
        # Its own copy, so the caller's array stays writable and cannot change the image.
        object.__setattr__(self, "bits", np.array(self.bits, dtype=bool))
        self.bits.setflags(write=False)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @classmethod
    def from_bool(cls, arr) -> "BinaryImage":
        """Copy a 2-D boolean array."""
        return cls(bits=np.asarray(arr, dtype=bool))

    def to_bool(self) -> np.ndarray:
        """The read-only (height, width) bool array."""
        return self.bits
