"""Independent reference for ``compute_field`` and the gate that applies it.

Plain numpy over bool arrays: it shares no code with ``ringpiv.piv``, so a
packed-path bug cannot hide in both.  Rules it restates from the package
contract:

- adaptive binarization: bit = pixel >= the window mean rounded half up;
  global: bit = pixel >= threshold;
- correlation: for each full-overlap placement of the centred frame-2
  pattern inside the frame-1 window, the number of equal bits (XNOR sum);
- peak: the highest count; ties go to the smallest dx^2 + dy^2, then to the
  first placement in row-major (iy, ix) order, where dx = off - ix and
  dy = off - iy with off = (w - p) // 2.
"""

from __future__ import annotations

import numpy as np

# The recovery bound of tests/test_field.py. A run below it is not correct;
# single pairs below it are counted and reported.
MIN_HIT_RATE = 0.95


def window_centres(width: int, height: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-space centre (x, y) of every window, row-major."""
    ys, xs = np.divmod(np.arange((width // window) * (height // window)), width // window)
    return xs * window + window / 2.0, ys * window + window / 2.0


def _windows(frame: np.ndarray, w: int) -> np.ndarray:
    """(H, W) -> (n, w, w), row-major window order."""
    h, wd = frame.shape
    return frame.reshape(h // w, w, wd // w, w).swapaxes(1, 2).reshape(-1, w, w)


def binarize(frame: np.ndarray, cfg: dict) -> np.ndarray:
    """(n, w, w) bool windows of one frame."""
    wins = _windows(frame.astype(np.int64), cfg["window_size"])
    if cfg["binarization"] == "global":
        return wins >= cfg["threshold"]
    area = cfg["window_size"] ** 2
    sums = wins.sum(axis=(1, 2))
    thresholds = (2 * sums + area) // (2 * area)  # mean, rounded half up
    return wins >= thresholds[:, None, None]


def correlation_planes(search: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """(n, w, w) and (n, p, p) bool -> (n, s, s) XNOR sums, indexed (iy, ix)."""
    n, w, _ = search.shape
    p = pattern.shape[1]
    s = w - p + 1
    planes = np.empty((n, s, s), dtype=np.int64)
    for iy in range(s):
        for ix in range(s):
            equal = search[:, iy : iy + p, ix : ix + p] == pattern
            planes[:, iy, ix] = equal.sum(axis=(1, 2))
    return planes


def oracle_vectors(frame1: np.ndarray, frame2: np.ndarray, cfg: dict) -> np.ndarray:
    """(n, 3) int64 rows (dx, dy, peak_value), one per window."""
    w, p = cfg["window_size"], cfg["pattern_size"]
    off = (w - p) // 2
    search = binarize(frame1, cfg)
    pattern = binarize(frame2, cfg)[:, off : off + p, off : off + p]
    planes = correlation_planes(search, pattern)
    n, s, _ = planes.shape
    iy, ix = np.divmod(np.arange(s * s), s)
    dx, dy = off - ix, off - iy
    # Rank of each placement under the tie-break: distance first, then row-major.
    rank = np.empty(s * s, dtype=np.int64)
    rank[np.lexsort((np.arange(s * s), dx * dx + dy * dy))] = np.arange(s * s)
    flat = planes.reshape(n, s * s)
    peak = flat.max(axis=1)
    best = np.where(flat == peak[:, None], rank, s * s).argmin(axis=1)
    return np.column_stack([dx[best], dy[best], peak])


def field_array(field) -> np.ndarray:
    """A ``VectorField`` as (n, 3) int64 rows (dx, dy, peak_value)."""
    return np.array([(v.dx, v.dy, v.peak_value) for v in field.vectors], dtype=np.int64)


def gate(vectors: np.ndarray, oracle: np.ndarray, truth: np.ndarray, tolerance: int) -> tuple[bool, int]:
    """Check one pair's output.

    Returns (matches_oracle, hits): whether every (dx, dy, peak) equals the
    oracle, and how many windows recover the flow at their centre within
    ``tolerance`` pixels.
    """
    matches = vectors.shape == oracle.shape and bool(np.array_equal(vectors, oracle))
    if vectors.shape[0] != truth.shape[0]:
        return False, 0
    err = np.abs(vectors[:, :2] - truth)
    hits = int(np.count_nonzero((err <= tolerance + 1e-9).all(axis=1)))
    return matches, hits
