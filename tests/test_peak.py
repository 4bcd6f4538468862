import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import lexsort_peak
from ringpiv import DimensionError, peak_displacement
from test_correlation import packed_plane


def test_peak_at_zero_shift():
    v = np.zeros((17, 17), dtype=np.int64)
    v[8, 8] = 10
    d = peak_displacement(v)
    assert (d.dx, d.dy, d.peak_value) == (0, 0, 10)


def test_peak_coordinate_convention():
    # Placement index (iy, ix) = (11, 6) means dx = 8-6 = +2, dy = 8-11 = -3.
    v = np.zeros((17, 17), dtype=np.int64)
    v[11, 6] = 5
    d = peak_displacement(v)
    assert (d.dx, d.dy) == (2, -3)


def test_constant_plane_tie_breaks_to_zero():
    v = np.full((17, 17), 7, dtype=np.int64)
    d = peak_displacement(v)
    assert (d.dx, d.dy) == (0, 0)
    assert d.peak_value == 7


def test_tie_break_prefers_smaller_magnitude_then_row_major():
    v = np.zeros((17, 17), dtype=np.int64)
    v[8, 10] = 9  # dx = -2
    v[8, 7] = 9   # dx = +1 -> smaller magnitude wins
    assert peak_displacement(v).dx == 1
    # Equal magnitudes: row-major plane order decides (smaller iy, then ix).
    v2 = np.zeros((17, 17), dtype=np.int64)
    v2[7, 8] = 9   # dy = +1
    v2[9, 8] = 9   # dy = -1
    assert peak_displacement(v2).dy == 1


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=-8, max_value=8),
    b=st.integers(min_value=-8, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_planted_pattern_recovers_exact_shift(a, b, seed):
    # Plant the pattern at the placement for displacement (a, b); fill the
    # rest of the window with the complement of the pattern's tiling.  The
    # pattern is regenerated until every row and column mixes 0s and 1s.
    rng = np.random.default_rng(seed)
    p = 16
    while True:
        pat = rng.random((p, p)) < 0.5
        if (
            pat.any(axis=0).all() and (~pat).any(axis=0).all()
            and pat.any(axis=1).all() and (~pat).any(axis=1).all()
        ):
            break
    ix = 8 - a
    iy = 8 - b
    tiled = np.tile(pat, (2, 2))
    search = ~tiled[:32, :32]
    search[iy : iy + p, ix : ix + p] = pat
    plane = packed_plane(search, pat)
    d = peak_displacement(plane)
    assert (d.dx, d.dy) == (a, b)
    assert d.peak_value == p * p


@settings(max_examples=200, deadline=None)
@given(s=st.integers(1, 64), seed=st.integers(min_value=0, max_value=2**31))
@example(s=1, seed=0)  # one placement
@example(s=2, seed=1)  # even size: zero displacement at (0, 0), off the middle
def test_peak_matches_lexsort_reference_on_tie_heavy_planes(s, seed):
    values = np.random.default_rng(seed).integers(0, 3, size=(s, s))
    d = peak_displacement(values)
    assert (d.dx, d.dy, d.peak_value) == lexsort_peak(values, (s - 1) // 2)


@pytest.mark.parametrize(
    "plane",
    [np.ones(17), np.ones((17, 16)), np.ones((0, 0)), np.ones(()), np.ones((17, 17, 1))],
    ids=["1-D", "non-square", "empty", "0-D", "3-D"],
)
def test_peak_rejects_1d_non_square_and_empty_planes(plane):
    with pytest.raises(DimensionError, match="non-empty square 2-D") as raised:
        peak_displacement(plane)
    assert str(raised.value).endswith(f"got shape {plane.shape}")
