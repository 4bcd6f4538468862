"""Image containers: 10-bit grayscale rasters and bit-packed binary images.

A BinaryImage stores pixels as a continuous row-major bit stream packed
32 bits per word, LSB-first within each word.  Bit k of the stream is
pixel (x, y) with k = y * width + x; only the final word may carry
zero padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputFormatError

MAX_INTENSITY = 1023  # 10-bit sensor ceiling


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """(..., w) bool with w <= 64 -> (...) uint64 row words, bit x = column x."""
    padded = np.zeros(bits.shape[:-1] + (64,), dtype=bool)
    padded[..., : bits.shape[-1]] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")[..., 0]


@dataclass(frozen=True)
class GrayImage:
    """Row-major grayscale raster with 10-bit intensities."""

    width: int
    height: int
    data: np.ndarray  # shape (height, width), uint16

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DimensionError(f"image dimensions must be positive, got {self.width}x{self.height}")
        if self.data.shape != (self.height, self.width):
            raise DimensionError(
                f"data shape {self.data.shape} does not match {self.height}x{self.width}"
            )
        if not np.issubdtype(self.data.dtype, np.integer):
            raise InputFormatError(f"intensities must be integers, got dtype {self.data.dtype}")
        if self.data.size and int(self.data.min()) < 0:
            raise InputFormatError(f"intensity {int(self.data.min())} is negative")
        if self.data.size and int(self.data.max()) > MAX_INTENSITY:
            raise DimensionError(
                f"intensity {int(self.data.max())} exceeds 10-bit maximum {MAX_INTENSITY}"
            )
        if self.data.dtype != np.uint16:
            object.__setattr__(self, "data", self.data.astype(np.uint16))
        self.data.setflags(write=False)

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got shape {arr.shape}")
        return cls(width=arr.shape[1], height=arr.shape[0], data=arr.copy())

    def window(self, x0: int, y0: int, size: int) -> "GrayImage":
        if x0 < 0 or y0 < 0 or x0 + size > self.width or y0 + size > self.height:
            raise DimensionError(
                f"window {size}x{size} at ({x0},{y0}) exceeds image {self.width}x{self.height}"
            )
        return GrayImage.from_array(self.data[y0 : y0 + size, x0 : x0 + size])


@dataclass(frozen=True)
class BinaryImage:
    """Bit-packed binary raster: 32 pixels per word, continuous row-major stream."""

    width: int
    height: int
    words: np.ndarray  # uint32, length ceil(width*height / 32)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DimensionError(f"image dimensions must be positive, got {self.width}x{self.height}")
        nbits = self.width * self.height
        nwords = (nbits + 31) // 32
        if self.words.dtype != np.uint32:
            object.__setattr__(self, "words", self.words.astype(np.uint32))
        if self.words.shape != (nwords,):
            raise DimensionError(
                f"expected {nwords} packed words for {self.width}x{self.height}, got {self.words.shape}"
            )
        # Padding bits beyond width*height must be zero.
        pad = nwords * 32 - nbits
        if pad and (int(self.words[-1]) >> (32 - pad)):
            raise DimensionError("padding bits of the final word are not zero")
        self.words.setflags(write=False)

    @property
    def bit_count(self) -> int:
        return self.width * self.height

    @classmethod
    def from_bool(cls, arr) -> "BinaryImage":
        """Pack a 2-D boolean array into the 32-bit word stream."""
        arr = np.asarray(arr, dtype=bool)
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got shape {arr.shape}")
        h, w = arr.shape
        flat = arr.reshape(-1)
        nwords = (flat.size + 31) // 32
        padded = np.zeros(nwords * 32, dtype=bool)
        padded[: flat.size] = flat
        octets = np.packbits(padded, bitorder="little")
        words = octets.view("<u4").copy()
        return cls(width=w, height=h, words=words)

    def to_bool(self) -> np.ndarray:
        """Unpack to a 2-D boolean array of shape (height, width)."""
        octets = self.words.view(np.uint8)
        bits = np.unpackbits(octets, bitorder="little")[: self.bit_count]
        return bits.reshape(self.height, self.width).astype(bool)

    def get_bit(self, x: int, y: int) -> int:
        k = y * self.width + x
        return (int(self.words[k >> 5]) >> (k & 31)) & 1

    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def window(self, x0: int, y0: int, size: int) -> "BinaryImage":
        """Extract a square sub-region as a new packed image."""
        if x0 < 0 or y0 < 0 or x0 + size > self.width or y0 + size > self.height:
            raise DimensionError(
                f"window {size}x{size} at ({x0},{y0}) exceeds image {self.width}x{self.height}"
            )
        return BinaryImage.from_bool(self.to_bool()[y0 : y0 + size, x0 : x0 + size])

    def packed_rows(self) -> np.ndarray:
        """Rows as uint64 values, bit x of row y = pixel (x, y). Requires width <= 64."""
        if self.width > 64:
            raise DimensionError(f"packed_rows supports width <= 64, got {self.width}")
        return _pack_rows(self.to_bool())
