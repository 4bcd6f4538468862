import numpy as np
import pytest

from ringpiv import ConfigError, DimensionError, tile_windows


def test_paper_geometry_80_windows():
    grid = tile_windows(320, 256, 32)
    assert (grid.cols, grid.rows) == (10, 8)
    assert grid.count == 80


def test_single_window():
    grid = tile_windows(32, 32, 32)
    assert grid.count == 1


def test_non_divisible_height_names_axis():
    with pytest.raises(DimensionError, match="height 250"):
        tile_windows(320, 250, 32)


def test_non_divisible_width_names_axis():
    with pytest.raises(DimensionError, match="width 300"):
        tile_windows(300, 256, 32)


@pytest.mark.parametrize("width, height, axis", [(0, 32, "width 0"), (32, -32, "height -32")])
def test_non_positive_size_names_axis(width, height, axis):
    with pytest.raises(DimensionError, match=axis):
        tile_windows(width, height, 32)


@pytest.mark.parametrize(
    "size, message",
    [
        (16.0, "window_size must be an integer, got 16.0"),
        (True, "window_size must be an integer, got True"),
        ("16", "window_size must be an integer, got '16'"),
        (0, "window_size 0 must be positive"),
    ],
)
def test_window_size_must_be_a_positive_integer(size, message):
    with pytest.raises(ConfigError, match=message):
        tile_windows(64, 64, size)


@pytest.mark.parametrize(
    "width, height, message",
    [
        (64.0, 64, "width must be an integer, got 64.0"),
        (64, True, "height must be an integer, got True"),
        (64, None, "height must be an integer, got None"),
    ],
)
def test_frame_size_must_be_an_integer(width, height, message):
    with pytest.raises(DimensionError, match=message):
        tile_windows(width, height, 16)


def test_numpy_sizes_give_an_int_grid():
    grid = tile_windows(np.int64(64), np.uint16(32), np.int32(16))
    assert grid == (16, 4, 2)
    assert all(type(v) is int for v in grid)
