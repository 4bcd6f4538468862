"""Window tiling, binarization, direct cross-correlation, and full-field PIV.

Coordinate conventions
----------------------
``_packed_xcorr_batch`` returns (n, s, s) uint16 correlation planes, one
per window, each value the count of matching bits (at most p * p <= 4096),
and ``peak_displacement`` reads each (s, s) plane.  A plane is indexed
(iy, ix) by the pattern placement top-left inside the search window; only
fully-overlapping placements are evaluated, so a w-pixel window and
p-pixel pattern give s = w - p + 1 placements per axis.
Zero displacement is the centred placement off = (s - 1) // 2 on both
axes, which equals the pattern's own offset (w - p) // 2, so the plane's
shape alone fixes it.  A placement (iy, ix) maps to

    dx = off - ix
    dy = off - iy

so that (dx, dy) is the motion of particles from frame 1 to frame 2 in
raster coordinates (positive dx rightward, positive dy downward).

Records
-------
``PivConfig`` and ``VectorField``, like every checked record, are read-only
``__slots__`` classes on ``images._ReadOnly`` whose pickles and copies re-run
``__init__``.  No module imports ``dataclasses``, whose code generation every
import would pay.  ``WindowGrid`` and ``Displacement`` stay unchecked
``NamedTuple``s: one ``Displacement`` is built per window in the serial
peak loop, and a Python ``__init__`` there would slow it.

Hot path
--------
One block is the unit of work: a run of at most n = ``_chunk_windows(w,
p)`` windows in row-major order, n // cols whole window rows (at least
one), or n windows of one row when a row holds more than n.  Each block of
both frames runs the whole pipeline below, so memory does not grow with
the frame (see the rounds below).  ``binarize_frame`` turns a block's pixels
into a bool array.  The adaptive threshold sums each window column over ws
rows in the uint16 of the pixels (64 * 1023 fits), then compares each band
of ws rows against its thresholds repeated to one block-wide row.
``_pack_window_rows`` is the one packer: each row of w bools takes the
smallest 8/16/32/64-bit slot that holds it (padded only when w is not a
slot size), one flat ``np.packbits`` run packs all of them, and each slot
is widened to a uint64 row word: bit x is column x, upper bits zero, one
format for every w <= 64.  ``compute_field`` packs a block's bools as
(h, cols, w) without a copy, and ``_split_windows`` transposes those
(h, cols) row words into (w, windows) window rows.  The centred pattern is
derived from frame 2's window rows by shift and mask, so there is no
second packing pass.  The window index is the last, contiguous axis of
every correlator array, and each numpy pass runs over a whole block of
windows in lock-step.  The correlator
packs k = min(64 // p, p) consecutive pattern rows into one word, row j of
a group in bits [j*p, j*p + p), so a placement takes ceil(p / k) XOR +
popcounts instead of p (k = 1 for p > 32).  The search word of each
(start row, ix) is built once and shared by every group and iy starting
there; for k = 1 it is the row slice itself.  For k > 1 the words are
built by doubling in the slice buffer: a word of m consecutive slices that
ORs in the word m rows below it, shifted m * p, holds 2m, so k = 4 takes
two shift-OR steps and k = 8 three.  Each step makes one shifted temporary
and frees it, so the build holds at most two slice-sized buffers and no
per-lane temporary.  When k is not a power of
two the last step overshoots and one AND clears the lanes past k.  Only a
partial last group (fewer than k rows) is masked to its lanes.  n is the
most windows whose (w + pad, s, windows) slice buffer fits
``_CHUNK_BYTES``.  Correlate time per window by budget (us, windows per
call in brackets, median of 15 interleaved rounds over one frame's
windows, one thread, 2-CPU Intel Xeon, numpy 2.4):

    budget               256 KiB     512 KiB     1 MiB       2 MiB
    2048x2048, 32/16     3.6 (60)    3.2 (120)   3.4 (240)   4.2 (481)
    1280x1024, 64/48    26.1 (30)   21.9 (60)   20.0 (120)  19.2 (240)

1 MiB is within 6% of the best for both; 2 MiB gains 4% at 64/48 and
loses 24% at 32/16, for twice the memory.  The planes come back C-ordered,
one contiguous (s, s) block per window.  The peak reads a plane in an
order sorted by (dx^2 + dy^2, iy, ix), cached per plane size s with the dx
and dy of each placement; argmax returns the first of equal maxima, which
in that order is the tie-break winner.

Blocks run in rounds, the paper's duplicated processing modules.  A round
is as many consecutive blocks as keep their (windows, s, s) uint16 planes
under ``_ROUND_BYTES``: one round at 2048x2048 32/16 (22 blocks) and at
1280x1024 64/48 (3 blocks), three at 4096x4096 32/16.  Binarize, pack,
split and correlate of a round's blocks run on ``_WORKERS`` threads, the
CPUs this process may run on capped at the round's block count, the
calling thread being one of them: each claims the round's next unclaimed
block until none is left, so a one-block frame starts no thread.  Those
stages are numpy passes that release the GIL.  The calling thread then
joins the workers and reads the peaks of the round's planes in window
order.  The peak is a short Python step per window that holds the GIL, so
it stays serial: with the peaks inside the workers, 2048x2048 32/16 ran
0.99x as fast as the one-thread code, against 1.38x with serial peaks
(in-process interleaved timing, 2-CPU Intel Xeon).  Output is
bit-identical for any worker count and round size.  Memory is bounded by
one round of planes plus one block's front-end and correlator buffers per
worker.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, InputFormatError
from .images import MAX_INTENSITY, GrayImage, _integer, _ReadOnly, _shown, _size

_WORD = np.uint64
_CHUNK_BYTES = 1 << 20  # one correlate call's slice buffer, see _chunk_windows
_ROUND_BYTES = 4 << 20  # the planes of one round of blocks, see compute_field
# Threads per round of blocks: the CPUs this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class WindowGrid(NamedTuple):
    """Non-overlapping tiling of an image into square interrogation windows."""

    window_size: int
    cols: int
    rows: int

    @property
    def count(self) -> int:
        return self.cols * self.rows


def tile_windows(width: int, height: int, window_size: int) -> WindowGrid:
    """Tile a width x height image into disjoint square windows; sizes are integers, bools rejected."""
    window_size = _size("window_size", window_size, ConfigError)
    width, height = _size("width", width, DimensionError), _size("height", height, DimensionError)
    if width % window_size:
        raise DimensionError(f"width {_shown(width)} is not divisible by window size {window_size}")
    if height % window_size:
        raise DimensionError(f"height {_shown(height)} is not divisible by window size {window_size}")
    return WindowGrid(window_size=window_size, cols=width // window_size, rows=height // window_size)


class PivConfig(_ReadOnly):
    """Parameters of the correlation pipeline.

    ``binarization`` is either "adaptive" (per-window mean threshold) or
    "global" (one fixed threshold for the whole image, ``threshold``
    required; adaptive mode takes none).  Equal correlation peaks go to the
    smallest dx^2 + dy^2, then to the first in row-major plane order.  Sizes
    and the threshold must be integers; numpy integers are stored as ``int``.
    Read-only, compared and hashed by value.
    """

    __slots__ = ("window_size", "pattern_size", "binarization", "threshold")

    def __init__(
        self,
        window_size: int = 32,
        pattern_size: int = 16,
        binarization: str = "adaptive",
        threshold: int | None = None,
    ):
        window_size = _size("window_size", window_size, ConfigError)
        pattern_size = _size("pattern_size", pattern_size, ConfigError)
        if threshold is not None:
            threshold = _integer("threshold", threshold)
        if pattern_size > window_size:
            raise ConfigError(f"pattern_size {_shown(pattern_size)} exceeds window_size {window_size}")
        if window_size > 64:
            raise ConfigError("window_size above 64 is not supported by the packed correlator")
        if binarization not in ("adaptive", "global"):
            raise ConfigError(f"unknown binarization mode {_shown(binarization)}")
        if binarization == "adaptive":
            if threshold is not None:
                raise ConfigError(f"adaptive binarization takes no threshold, got {_shown(threshold)}")
        elif threshold is None:
            raise ConfigError("global binarization requires a threshold")
        elif not (0 <= threshold <= MAX_INTENSITY):
            raise ConfigError(f"threshold {_shown(threshold)} outside 0..{MAX_INTENSITY}")
        self._set(window_size, pattern_size, binarization, threshold)


class Displacement(NamedTuple):
    """Integer motion of one window's particles from frame 1 to frame 2.

    ``dx`` is positive rightward and ``dy`` positive downward, in pixels;
    ``peak_value`` is the matching-bit count at that placement, and
    ``window_index`` the window's row-major index in its ``WindowGrid``.
    """

    dx: int
    dy: int
    peak_value: int
    window_index: int = 0


class VectorField(_ReadOnly):
    """One ``Displacement`` per window of ``grid``, in window order; read-only, compared by value."""

    __slots__ = ("grid", "vectors")

    def __init__(self, grid: WindowGrid, vectors: list[Displacement]):
        if len(vectors) != grid.count:
            raise DimensionError(f"{len(vectors)} vectors for {grid.count} windows")
        self._set(grid, vectors)


def adaptive_thresholds(data: np.ndarray, window_size: int) -> np.ndarray:
    """Mean of each window_size tile of (h, W) uint16 pixels, rounded half up; (rows, cols) int64."""
    grid = tile_windows(data.shape[1], data.shape[0], window_size)
    ws = window_size
    # Each window column summed over ws whole rows first.  The sum is at most
    # ws * 1023: the pixels' own uint16, with no cast, up to ws = 64.
    sums = (
        data.reshape(grid.rows, ws, data.shape[1])
        .sum(axis=1, dtype=np.min_scalar_type(ws * MAX_INTENSITY))
        .reshape(grid.rows, grid.cols, ws)
        .sum(axis=2, dtype=np.int64)
    )
    area = ws * ws
    return (2 * sums + area) // (2 * area)


def binarize_frame(data: np.ndarray, cfg: PivConfig) -> np.ndarray:
    """(h, W) uint16 pixels -> bool: >= cfg.threshold ("global") or >= its window's mean ("adaptive")."""
    if cfg.binarization == "global":
        return data >= cfg.threshold
    ws = cfg.window_size
    # One threshold per pixel column of each band of ws rows: every compare
    # runs the whole width.
    thr = np.repeat(adaptive_thresholds(data, ws).astype(np.uint16), ws, axis=1)
    bands = data.reshape(thr.shape[0], ws, data.shape[1])
    return (bands >= thr[:, None, :]).reshape(data.shape)


def _pack_window_rows(bits: np.ndarray) -> np.ndarray:
    """(..., w) bool with w <= 64 -> (...) uint64 row words, bit x = column x."""
    w = bits.shape[-1]
    slot = max(8, 1 << (w - 1).bit_length())  # 8, 16, 32 or 64 bits per row
    if w < slot:
        padded = np.zeros(bits.shape[:-1] + (slot,), dtype=bool)
        padded[..., :w] = bits
        bits = padded
    # Each row is one slot of the flat bit run, and one long packbits run is
    # far faster than many short rows along an axis.
    words = np.packbits(bits, axis=None, bitorder="little").view(f"<u{slot // 8}")
    return words.astype(_WORD, copy=False).reshape(bits.shape[:-1])


def _rows_per_word(p: int) -> int:
    """Pattern rows packed into one uint64 word by the correlator."""
    return min(64 // p, p)


def _chunk_windows(w: int, p: int) -> int:
    """Windows per correlate call: as many as fit one call's slice buffer in _CHUNK_BYTES."""
    pad = -p % _rows_per_word(p)
    return max(1, _CHUNK_BYTES // (8 * (w + pad) * (w - p + 1)))


def _packed_xcorr_batch(
    search_rows: np.ndarray, pattern_rows: np.ndarray, w: int, p: int
) -> np.ndarray:
    """XNOR match counts for a batch of windows, the window index last.

    search_rows: (w, n) uint64, pattern_rows: (p, n) uint64.  Returns
    (n, s, s) uint16 planes with s = w - p + 1, indexed (iy, ix).
    """
    n, s = search_rows.shape[1], w - p + 1
    k = _rows_per_word(p)
    groups = -(-p // k)
    pad = groups * k - p  # rows missing from the last group
    lanes = np.arange(k, dtype=_WORD) * _WORD(p)
    pattern = np.zeros((groups * k, n), dtype=_WORD)
    pattern[:p] = pattern_rows
    pattern_words = (pattern.reshape(groups, k, n) << lanes[:, None]).sum(axis=1, dtype=_WORD)
    # (row, ix, n): the p-bit slice of every search row at every horizontal placement
    search_words = np.empty((w + pad, s, n), dtype=_WORD)
    search_words[w:] = 0
    np.right_shift(search_rows[:, None], np.arange(s, dtype=_WORD)[:, None], out=search_words[:w])
    search_words[:w] &= _WORD((1 << p) - 1)
    # (start row, ix, n): k consecutive slices per word, built once per start row
    # by doubling in place: a word of m slices ORed with the word m rows below,
    # shifted m * p, holds 2m (rows past the end count as zero); lanes past k are masked.
    m = 1
    while m < k:
        search_words[:-m] |= search_words[m:] << _WORD(m * p)
        m *= 2
    if m > k:
        search_words &= _WORD((1 << k * p) - 1)
    diff = np.zeros((s, s, n), dtype=np.uint16)  # at most p * p <= 4096
    xor = np.empty((s, s, n), dtype=_WORD)
    count = np.empty((s, s, n), dtype=np.uint8)
    for g in range(groups):
        np.bitwise_xor(search_words[g * k : g * k + s], pattern_words[g], out=xor)
        if pad and g == groups - 1:
            # A partial last group compares only the pattern's rows: the
            # lanes above them hold search rows below the placement.
            xor &= _WORD((1 << (k - pad) * p) - 1)
        diff += np.bitwise_count(xor, out=count)
    # C order makes each window's plane contiguous, so the peak reads it without a copy.
    return np.subtract(np.uint16(p * p), diff.transpose(2, 0, 1), order="C")


@functools.lru_cache(maxsize=16)
def _tie_order(s: int) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Placements of an (s, s) plane sorted by (dx^2 + dy^2, iy, ix).

    Returns their flat indices (read-only) and their dx and dy.
    """
    off = (s - 1) // 2
    iy, ix = np.indices((s, s)).reshape(2, -1)
    order = np.lexsort((ix, iy, (off - ix) ** 2 + (off - iy) ** 2))
    order.setflags(write=False)
    return order, tuple((off - ix[order]).tolist()), tuple((off - iy[order]).tolist())


def peak_displacement(plane: np.ndarray, window_index: int = 0) -> Displacement:
    """Displacement of the maximum of an (s, s) correlation plane.

    Zero displacement is the centred placement (s - 1) // 2.  Equal peaks
    are resolved by smallest dx^2 + dy^2, then row-major plane order, so a
    constant plane yields (0, 0).
    """
    shape = plane.shape
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise DimensionError(
            f"correlation plane must be a non-empty square 2-D array, got shape {shape}"
        )
    order, dx, dy = _tie_order(shape[0])
    ranked = plane.ravel()[order]
    best = ranked.argmax()  # the first maximum in tie order
    return Displacement(dx[best], dy[best], ranked.item(best), window_index)


def _split_windows(row_words: np.ndarray, ws: int) -> np.ndarray:
    """(h, cols) row words of a block of whole windows -> (ws, windows) rows, the window index last."""
    h, cols = row_words.shape
    return row_words.reshape(h // ws, ws, cols).transpose(1, 0, 2).reshape(ws, -1)


def _in_threads(fn, jobs: list) -> list:
    """``[fn(job) for job in jobs]`` on up to ``_WORKERS`` threads, this one included.

    Each thread claims the next unclaimed job until none is left, so one job
    starts no thread.  The first exception stops further claims and is
    raised here, unchanged, once every started thread has been joined.
    Plain threads: importing ``concurrent.futures`` (and with it
    ``logging``) would add several ms to every cold start.
    """
    results, errors = [None] * len(jobs), []
    claims, lock = iter(range(len(jobs))), threading.Lock()

    def work():
        while not errors:
            with lock:
                i = next(claims, None)
            if i is None:
                return
            try:
                results[i] = fn(jobs[i])
            except BaseException as exc:  # re-raised below, in the calling thread
                errors.append(exc)

    started = []
    try:
        for _ in range(min(_WORKERS, len(jobs)) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            started.append(thread)
        work()
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results


def compute_field(frame1: GrayImage, frame2: GrayImage, cfg: PivConfig) -> VectorField:
    """Full-field PIV: one displacement per interrogation window.

    The frames are cut into blocks of at most ``_chunk_windows`` windows in
    row-major order: whole window rows, or part of one row when a row holds
    more.  Each block of both frames is binarized per the config, and the
    centred pattern of each frame-2 window is correlated (XNOR sum) against
    the matching frame-1 window, a round of blocks at a time on up to
    ``_WORKERS`` threads; the peaks are then read in window order.  Memory
    is bounded by one round of planes plus one block per worker, not by the
    frame.  Deterministic for any worker count; windows are independent.
    """
    for name, frame in (("frame1", frame1), ("frame2", frame2)):
        if not isinstance(frame, GrayImage):
            raise InputFormatError(
                f"{name} must be a GrayImage, got {type(frame).__name__}; see GrayImage.from_array"
            )
    if not isinstance(cfg, PivConfig):
        raise ConfigError(f"cfg must be a PivConfig, got {type(cfg).__name__}")
    if (frame1.width, frame1.height) != (frame2.width, frame2.height):
        raise DimensionError(
            f"frame sizes differ: {frame1.width}x{frame1.height} vs {frame2.width}x{frame2.height}"
        )
    grid = tile_windows(frame1.width, frame1.height, cfg.window_size)
    w, p = cfg.window_size, cfg.pattern_size
    off = (w - p) // 2  # the centred pattern's top-left inside its window
    n = _chunk_windows(w, p)
    bw, bh = min(grid.cols, n) * w, max(1, n // grid.cols) * w  # one block's pixels
    blocks = [(y, x) for y in range(0, frame1.height, bh) for x in range(0, frame1.width, bw)]
    # A round holds the (windows, s, s) uint16 planes of its blocks until their peaks are read.
    per_round = max(1, _ROUND_BYTES // (2 * (w - p + 1) ** 2 * (bw // w) * (bh // w)))

    def correlate(block):
        y, x = block
        # Each image row of the block split into its windows' rows, packed, then transposed.
        search_rows, frame2_rows = (
            _split_windows(_pack_window_rows(bits.reshape(len(bits), -1, w)), w)
            for bits in (binarize_frame(f.data[y : y + bh, x : x + bw], cfg) for f in (frame1, frame2))
        )
        # The centred pattern: rows off..off+p of each window, bits off..off+p of each row.
        pattern_rows = (frame2_rows[off : off + p] >> _WORD(off)) & _WORD((1 << p) - 1)
        return _packed_xcorr_batch(search_rows, pattern_rows, w, p)

    vectors = []
    for start in range(0, len(blocks), per_round):
        for planes in _in_threads(correlate, blocks[start : start + per_round]):
            vectors += [peak_displacement(plane, i) for i, plane in enumerate(planes, len(vectors))]
    return VectorField(grid=grid, vectors=vectors)
