import pytest

from ringpiv import DimensionError, tile_windows


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

