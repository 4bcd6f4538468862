import pytest

from ringpiv import DimensionError, tile_windows


def test_paper_geometry_80_windows():
    grid = tile_windows(320, 256, 32)
    assert (grid.cols, grid.rows) == (10, 8)
    assert grid.count == 80


def test_single_window():
    grid = tile_windows(32, 32, 32)
    assert grid.count == 1
    assert grid.origin(0) == (0, 0)


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


def test_origins_row_major_disjoint_cover():
    grid = tile_windows(96, 64, 32)
    origins = [grid.origin(i) for i in range(grid.count)]
    assert origins == [(0, 0), (32, 0), (64, 0), (0, 32), (32, 32), (64, 32)]
    assert len(set(origins)) == grid.count


def test_window_center():
    grid = tile_windows(64, 64, 32)
    assert grid.center(0) == (16.0, 16.0)
    assert grid.center(3) == (48.0, 48.0)
