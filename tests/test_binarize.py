import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringpiv import (
    DimensionError,
    GrayImage,
    PivConfig,
    tile_windows,
)
from ringpiv.piv import adaptive_thresholds, binarize_frame


def binarize_at(img, threshold):
    """Global binarization at one threshold."""
    return binarize_frame(img, PivConfig(binarization="global", threshold=threshold))


def test_global_all_zero_below_threshold():
    img = GrayImage.from_array(np.zeros((32, 32), dtype=np.uint16))
    out = binarize_at(img, 1)
    assert np.count_nonzero(out) == 0


def test_global_all_max_threshold_zero():
    img = GrayImage.from_array(np.full((32, 32), 1023, dtype=np.uint16))
    out = binarize_at(img, 0)
    assert np.count_nonzero(out) == 32 * 32


def test_global_matches_per_pixel_reference():
    rng = np.random.default_rng(42)
    data = rng.integers(0, 1024, size=(256, 320)).astype(np.uint16)
    out = binarize_at(GrayImage.from_array(data), 512)
    # Independent per-pixel oracle on the unpacked result.
    expected = data >= 512
    np.testing.assert_array_equal(out, expected)


def test_adaptive_constant_window_all_ones():
    img = GrayImage.from_array(np.full((32, 32), 700, dtype=np.uint16))
    assert np.count_nonzero(binarize_frame(img, PivConfig())) == 1024


def test_adaptive_half_split_selects_high_half():
    data = np.zeros((32, 32), dtype=np.uint16)
    data[:16] = 1000
    out = binarize_frame(GrayImage.from_array(data), PivConfig())
    np.testing.assert_array_equal(out, data == 1000)


def test_adaptive_equals_per_window_global_oracle():
    rng = np.random.default_rng(5)
    data = rng.integers(0, 1024, size=(128, 160)).astype(np.uint16)
    img = GrayImage.from_array(data)
    grid = tile_windows(160, 128, 32)
    out = binarize_frame(img, PivConfig())
    # Oracle: apply global binarization window by window with that window's
    # rounded-half-up mean.
    for idx in range(grid.count):
        x0, y0 = grid.origin(idx)
        block = data[y0 : y0 + 32, x0 : x0 + 32]
        mean = block.sum() / block.size
        thr = int(np.floor(mean + 0.5))
        ref = binarize_at(GrayImage.from_array(block), thr)
        np.testing.assert_array_equal(out[y0 : y0 + 32, x0 : x0 + 32], ref)


def test_adaptive_threshold_rounds_half_up():
    # 2x2 window with sum 2001 -> mean 500.25 -> 500; sum 2002 -> 500.5 -> 501.
    img1 = GrayImage.from_array(np.array([[500, 500], [500, 501]], dtype=np.uint16))
    img2 = GrayImage.from_array(np.array([[500, 500], [501, 501]], dtype=np.uint16))
    assert adaptive_thresholds(img1, 2)[0, 0] == 500
    assert adaptive_thresholds(img2, 2)[0, 0] == 501


def test_adaptive_grid_mismatch():
    # 48 px wide: 32-px windows do not tile it, and the error names the axis.
    img = GrayImage.from_array(np.zeros((64, 48), dtype=np.uint16))
    with pytest.raises(DimensionError, match="width 48"):
        binarize_frame(img, PivConfig())


@pytest.mark.parametrize("ws", [1, 8, 33, 64])
def test_adaptive_thresholds_equal_an_int64_reference(ws):
    rng = np.random.default_rng(ws)
    rows, cols = 3, 2
    data = rng.integers(0, 1024, size=(rows * ws, cols * ws))
    img = GrayImage.from_array(data)
    sums = data.astype(np.int64).reshape(rows, ws, cols, ws).sum(axis=(1, 3))
    area = ws * ws
    expected = (2 * sums + area) // (2 * area)
    np.testing.assert_array_equal(adaptive_thresholds(img, ws), expected)


@pytest.mark.parametrize("ws", [64, 65])
def test_adaptive_thresholds_of_a_saturated_frame(ws):
    # A window column of ws pixels at 1023 sums to 65472 at ws = 64, the
    # largest window a PivConfig allows, and overflows uint16 at ws = 65.
    img = GrayImage.from_array(np.full((2 * ws, 2 * ws), 1023, dtype=np.uint16))
    thr = adaptive_thresholds(img, ws)
    np.testing.assert_array_equal(thr, np.full((2, 2), 1023))


def per_window_mean_reference(data, cfg):
    """(H, W) bool from int64 window sums and a 4-D broadcast, one threshold per window."""
    if cfg.binarization == "global":
        return data >= cfg.threshold
    ws = cfg.window_size
    h, w = data.shape
    blocks = data.astype(np.int64).reshape(h // ws, ws, w // ws, ws)
    area = ws * ws
    mean = (2 * blocks.sum(axis=(1, 3)) + area) // (2 * area)  # rounded half up
    return (blocks >= mean[:, None, :, None]).reshape(h, w)


@settings(max_examples=60, deadline=None)
@given(
    ws=st.integers(1, 64),
    tiles=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    binarization=st.sampled_from(["adaptive", "global"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(ws=64, tiles=(2, 3), binarization="adaptive", seed=0)
@example(ws=1, tiles=(3, 2), binarization="adaptive", seed=1)
def test_binarize_equals_a_per_window_mean_reference(ws, tiles, binarization, seed):
    rows, cols = tiles
    rng = np.random.default_rng(seed)
    levels = int(rng.choice([2, 3, 1024]))  # few levels put pixels exactly on the mean
    data = rng.integers(0, levels, size=(rows * ws, cols * ws)) * (1023 // (levels - 1))
    threshold = int(rng.integers(0, 1024)) if binarization == "global" else None
    cfg = PivConfig(window_size=ws, pattern_size=1, binarization=binarization, threshold=threshold)
    out = binarize_frame(GrayImage.from_array(data), cfg)
    np.testing.assert_array_equal(out, per_window_mean_reference(data, cfg))


def test_binarize_a_saturated_frame_at_the_largest_window():
    # A window column of 64 pixels at 1023 sums to 65472, the top of the
    # uint16 range it is summed in.  One pixel at 1022 stays below its
    # window's mean of 1023, and would be set if a column sum wrapped.
    data = np.full((128, 192), 1023, dtype=np.uint16)
    data[70, 150] = 1022
    cfg = PivConfig(window_size=64, pattern_size=64)
    out = binarize_frame(GrayImage.from_array(data), cfg)
    np.testing.assert_array_equal(out, per_window_mean_reference(data, cfg))
    assert np.argwhere(~out).tolist() == [[70, 150]]
