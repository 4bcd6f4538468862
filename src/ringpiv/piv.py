"""Window tiling, binarization, direct cross-correlation, and full-field PIV.

Coordinate conventions
----------------------
A correlation plane is an (s, s) array indexed (iy, ix) by the pattern
placement top-left inside the search window; only fully-overlapping
placements are evaluated, so a w-pixel window and p-pixel pattern give
s = w - p + 1 placements per axis.  Zero displacement is the centred
placement off = (s - 1) // 2 on both axes, which equals the pattern's own
offset (w - p) // 2, so the plane's shape alone fixes it.  A placement
(iy, ix) maps to

    dx = off - ix
    dy = off - iy

so that (dx, dy) is the motion of particles from frame 1 to frame 2 in
raster coordinates (positive dx rightward, positive dy downward).

Hot path
--------
Each frame is binarized by ``binarize_frame`` to one (H, W) bool array;
``_split_windows`` views it as (rows, cols, ws, ws) windows without a
copy, and the centred pattern is a slice of that view.
``_pack_window_rows`` is the one packer: it copies each window row into a
64-bool slot and packs all of them in one flat ``np.packbits`` run, so
each window row becomes one uint64 row word: bit x is column x, upper bits
zero, one format for every w <= 64.  The correlator packs
k = min(64 // p, p) consecutive pattern rows into one word, row j of a
group in bits [j*p, j*p + p), so a placement takes ceil(p / k) XOR +
popcounts instead of p (k = 1 for p > 32).  The search word of each
(start row, ix) is built once and shared by every group and iy starting
there; only a partial last group (fewer than k rows) is masked to its lanes.
Windows are correlated 64 at a time.  Correlate time per window by chunk
size (us, one thread, 2-CPU Intel Xeon):

    windows per chunk    32     64     96    128    256
    2048x2048, 32/16    7.7    6.3    5.7    6.4    7.6
    1280x1024, 64/48   41.4   36.6   36.0   35.8   40.8

64 to 128 are level within the noise; 64 keeps the intermediates smallest
(under 1 MiB at 32/16), bounded whatever the frame size.  The peak reads
the plane in an order sorted by (dx^2 + dy^2, iy, ix), cached per plane
size s; argmax returns the first of equal maxima, which in that order is
the tie-break winner.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .images import BinaryImage, GrayImage

_WORD = np.uint64
_CHUNK = 64  # windows per correlate call


@dataclass(frozen=True)
class WindowGrid:
    """Non-overlapping tiling of an image into square interrogation windows."""

    window_size: int
    cols: int
    rows: int

    @property
    def count(self) -> int:
        return self.cols * self.rows

    def origin(self, index: int) -> tuple[int, int]:
        wy, wx = divmod(index, self.cols)
        return wx * self.window_size, wy * self.window_size

    def center(self, index: int) -> tuple[float, float]:
        x0, y0 = self.origin(index)
        half = self.window_size / 2.0
        return x0 + half, y0 + half


def tile_windows(width: int, height: int, window_size: int) -> WindowGrid:
    """Tile a width x height image into disjoint square windows."""
    if window_size <= 0:
        raise ConfigError(f"window_size must be positive, got {window_size}")
    if width % window_size:
        raise DimensionError(f"width {width} is not divisible by window size {window_size}")
    if height % window_size:
        raise DimensionError(f"height {height} is not divisible by window size {window_size}")
    return WindowGrid(window_size=window_size, cols=width // window_size, rows=height // window_size)


@dataclass(frozen=True)
class PivConfig:
    """Parameters of the correlation pipeline.

    ``binarization`` is either "adaptive" (per-window mean threshold) or
    "global" (one fixed threshold for the whole image, ``threshold``
    required; adaptive mode takes none).  Equal correlation peaks go to the
    smallest dx^2 + dy^2, then to the first in row-major plane order.  Sizes
    and the threshold must be integers; numpy integers are stored as ``int``.
    """

    window_size: int = 32
    pattern_size: int = 16
    binarization: str = "adaptive"
    threshold: int | None = None

    def __post_init__(self):
        for name in ("window_size", "pattern_size", "threshold"):
            value = getattr(self, name)
            if value is None and name == "threshold":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.window_size <= 0 or self.pattern_size <= 0:
            raise ConfigError("window_size and pattern_size must be positive")
        if self.pattern_size > self.window_size:
            raise ConfigError(
                f"pattern_size {self.pattern_size} exceeds window_size {self.window_size}"
            )
        if self.window_size > 64:
            raise ConfigError("window_size above 64 is not supported by the packed correlator")
        if self.binarization not in ("adaptive", "global"):
            raise ConfigError(f"unknown binarization mode {self.binarization!r}")
        if self.binarization == "adaptive":
            if self.threshold is not None:
                raise ConfigError(f"adaptive binarization takes no threshold, got {self.threshold}")
        elif self.threshold is None:
            raise ConfigError("global binarization requires a threshold")
        elif not (0 <= self.threshold <= 1023):
            raise ConfigError(f"threshold {self.threshold} outside 0..1023")


@dataclass(frozen=True)
class Displacement:
    dx: int
    dy: int
    peak_value: int
    window_index: int = 0


@dataclass(frozen=True)
class VectorField:
    grid: WindowGrid
    vectors: list[Displacement] = field(default_factory=list)

    def __post_init__(self):
        if len(self.vectors) != self.grid.count:
            raise DimensionError(
                f"{len(self.vectors)} vectors for {self.grid.count} windows"
            )


def adaptive_thresholds(img: GrayImage, window_size: int) -> np.ndarray:
    """Mean intensity of each window_size tile, rounded half up; (rows, cols) int64."""
    grid = tile_windows(img.width, img.height, window_size)
    ws = window_size
    # Whole rows first, then runs of ws columns.  A column sum of a window
    # is at most ws * 1023, inside uint32 for any ws below 4 million.
    sums = (
        img.data.reshape(grid.rows, ws, grid.cols, ws)
        .sum(axis=1, dtype=np.uint32)
        .sum(axis=2, dtype=np.int64)
    )
    area = ws * ws
    return (2 * sums + area) // (2 * area)


def binarize_frame(img: GrayImage, cfg: PivConfig) -> np.ndarray:
    """(H, W) bool: pixel >= cfg.threshold ("global") or >= its window's mean ("adaptive")."""
    if cfg.binarization == "global":
        return img.data >= cfg.threshold
    ws = cfg.window_size
    thr = adaptive_thresholds(img, ws).astype(np.uint16)
    blocks = img.data.reshape(thr.shape[0], ws, thr.shape[1], ws)
    return (blocks >= thr[:, None, :, None]).reshape(img.height, img.width)


def _pack_window_rows(bits: np.ndarray) -> np.ndarray:
    """(..., w) bool with w <= 64 -> (...) uint64 row words, bit x = column x."""
    padded = np.zeros(bits.shape[:-1] + (64,), dtype=bool)
    padded[..., : bits.shape[-1]] = bits
    # Each padded row is one word of the flat bit run, and one long packbits
    # run is far faster than many 64-bool rows along an axis.
    return np.packbits(padded, bitorder="little").view("<u8").reshape(bits.shape[:-1])


def _packed_xcorr_batch(
    search_rows: np.ndarray, pattern_rows: np.ndarray, w: int, p: int
) -> np.ndarray:
    """XNOR match counts for a batch of windows.

    search_rows: (n, w) uint64, pattern_rows: (n, p) uint64.  Returns
    (n, s, s) int64 planes with s = w - p + 1, indexed (iy, ix).
    """
    n, s = len(search_rows), w - p + 1
    k = min(64 // p, p)  # pattern rows per word
    groups = -(-p // k)
    pad = groups * k - p  # rows missing from the last group
    lanes = np.arange(k, dtype=_WORD) * _WORD(p)
    pattern = np.zeros((n, groups * k), dtype=_WORD)
    pattern[:, :p] = pattern_rows
    pattern_words = (pattern.reshape(n, groups, k) << lanes).sum(axis=2, dtype=_WORD)
    # (n, row, ix): the p-bit slice of every search row at every horizontal placement
    sliced = np.zeros((n, w + pad, s), dtype=_WORD)
    sliced[:, :w] = (search_rows[:, :, None] >> np.arange(s, dtype=_WORD)) & _WORD((1 << p) - 1)
    # (n, start row, ix): k consecutive slices per word, built once per start row
    starts = s + (groups - 1) * k
    search_words = sliced[:, :starts].copy()
    for j in range(1, k):
        search_words |= sliced[:, j : j + starts] << lanes[j]
    diff = np.zeros((n, s, s), dtype=np.uint16)  # at most p * p <= 4096
    xor = np.empty((n, s, s), dtype=_WORD)
    count = np.empty((n, s, s), dtype=np.uint8)
    for g in range(groups):
        np.bitwise_xor(search_words[:, g * k : g * k + s], pattern_words[:, g, None, None], out=xor)
        if pad and g == groups - 1:
            # A partial last group compares only the pattern's rows: the
            # lanes above them hold search rows below the placement.
            xor &= _WORD((1 << (k - pad) * p) - 1)
        diff += np.bitwise_count(xor, out=count)
    planes = np.full((n, s, s), p * p, dtype=np.int64)
    planes -= diff
    return planes


def xcorr_binary(search: BinaryImage, pattern: BinaryImage) -> np.ndarray:
    """Binary cross-correlation: per-placement count of matching bits (XNOR sum).

    Returns the (s, s) int64 plane, s = w - p + 1.  Implemented with
    word-packed rows, XOR, and population counts; equal to the per-bit
    definition exactly.
    """
    if search.width != search.height or pattern.width != pattern.height:
        raise ConfigError("search and pattern regions must be square")
    if pattern.width > search.width:
        raise ConfigError(
            f"pattern {pattern.width} larger than search window {search.width}"
        )
    if search.width > 64:
        raise DimensionError(f"search window {search.width} is wider than a 64-bit row word")
    search_rows = _pack_window_rows(search.bits)[None]
    pattern_rows = _pack_window_rows(pattern.bits)[None]
    return _packed_xcorr_batch(search_rows, pattern_rows, search.width, pattern.width)[0]


@functools.lru_cache(maxsize=16)
def _tie_order(s: int) -> np.ndarray:
    """Flat placement indices of an (s, s) plane sorted by (dx^2 + dy^2, iy, ix), read-only."""
    off = (s - 1) // 2
    iy, ix = np.indices((s, s)).reshape(2, -1)
    order = np.lexsort((ix, iy, (off - ix) ** 2 + (off - iy) ** 2))
    order.setflags(write=False)
    return order


def peak_displacement(plane: np.ndarray, window_index: int = 0) -> Displacement:
    """Displacement of the maximum of an (s, s) correlation plane.

    Zero displacement is the centred placement (s - 1) // 2.  Equal peaks
    are resolved by smallest dx^2 + dy^2, then row-major plane order, so a
    constant plane yields (0, 0).
    """
    if plane.ndim != 2 or plane.size == 0 or plane.shape[0] != plane.shape[1]:
        raise DimensionError(
            f"correlation plane must be a non-empty square 2-D array, got shape {plane.shape}"
        )
    s = plane.shape[0]
    order = _tie_order(s)
    ranked = plane.ravel()[order]
    best = int(ranked.argmax())  # the first maximum in tie order
    iy, ix = divmod(int(order[best]), s)
    off = (s - 1) // 2
    return Displacement(
        dx=off - ix, dy=off - iy, peak_value=int(ranked[best]), window_index=window_index
    )


def _split_windows(bits: np.ndarray, grid: WindowGrid) -> np.ndarray:
    """(H, W) bool -> (rows, cols, ws, ws) view, indexed (window row, window col, y, x)."""
    ws = grid.window_size
    return bits.reshape(grid.rows, ws, grid.cols, ws).transpose(0, 2, 1, 3)


def compute_field(frame1: GrayImage, frame2: GrayImage, cfg: PivConfig) -> VectorField:
    """Full-field PIV: one displacement per interrogation window.

    Both frames are binarized per the config; the centered pattern of each
    frame-2 window is correlated (XNOR sum) against the matching frame-1
    window.  Deterministic; windows are independent.
    """
    if (frame1.width, frame1.height) != (frame2.width, frame2.height):
        raise DimensionError(
            f"frame sizes differ: {frame1.width}x{frame1.height} vs {frame2.width}x{frame2.height}"
        )
    grid = tile_windows(frame1.width, frame1.height, cfg.window_size)
    w, p = cfg.window_size, cfg.pattern_size
    off = (w - p) // 2  # the centred pattern's top-left inside its window
    search_wins = _split_windows(binarize_frame(frame1, cfg), grid)
    pattern_wins = _split_windows(binarize_frame(frame2, cfg), grid)[..., off : off + p, off : off + p]
    search_rows = _pack_window_rows(search_wins).reshape(grid.count, w)
    pattern_rows = _pack_window_rows(pattern_wins).reshape(grid.count, p)

    vectors = []
    for start in range(0, grid.count, _CHUNK):
        stop = start + _CHUNK
        planes = _packed_xcorr_batch(search_rows[start:stop], pattern_rows[start:stop], w, p)
        vectors += [peak_displacement(plane, start + i) for i, plane in enumerate(planes)]
    return VectorField(grid=grid, vectors=vectors)
