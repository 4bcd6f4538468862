"""Plain-numpy references for the correlator and the peak.

They share no code with ``ringpiv.piv``: no bit packing, no row groups and
no cached tie order, so a fault there cannot cancel out against them.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def xnor_plane(search: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """(s, s) count of equal bits at every placement (iy, ix) of a bool pattern."""
    return (sliding_window_view(search, pattern.shape) == pattern).sum(axis=(2, 3))


def lexsort_peak(values: np.ndarray, offset: int) -> tuple[int, int, int]:
    """(dx, dy, peak) of a plane whose zero displacement is (offset, offset).

    Every maximum is a candidate; the first in (dx^2 + dy^2, iy, ix) order wins.
    """
    peak = values.max()
    ties_y, ties_x = np.nonzero(values == peak)
    dx = offset - ties_x
    dy = offset - ties_y
    best = np.lexsort((ties_x, ties_y, dx * dx + dy * dy))[0]
    return int(dx[best]), int(dy[best]), int(peak)
