import numpy as np
import pytest

from ringpiv import BinaryImage, DimensionError, GrayImage, InputFormatError


def test_gray_rejects_out_of_range():
    with pytest.raises(DimensionError):
        GrayImage.from_array(np.full((4, 4), 1024, dtype=np.int32))
    with pytest.raises(DimensionError, match="intensity 70000"):
        GrayImage.from_array(np.full((4, 4), 70000, dtype=np.int32))


@pytest.mark.parametrize(
    "values, message",
    [
        ([[1.7, 2.0]], "dtype float64"),
        ([[np.nan, 2.0]], "dtype float64"),
        ([[True, False]], "dtype bool"),
        ([[-1, 2]], "intensity -1 is negative"),
    ],
)
def test_gray_rejects_non_integer_and_negative(values, message):
    data = np.array(values)
    with pytest.raises(InputFormatError, match=message):
        GrayImage.from_array(data)
    with pytest.raises(InputFormatError, match=message):
        GrayImage(width=2, height=1, data=data)


def test_gray_shape_mismatch():
    with pytest.raises(DimensionError):
        GrayImage(width=4, height=4, data=np.zeros((4, 5), dtype=np.uint16))


def test_binary_roundtrip_random():
    rng = np.random.default_rng(7)
    for h, w in [(1, 1), (3, 5), (32, 32), (17, 41), (256, 320)]:
        bits = rng.random((h, w)) < 0.5
        img = BinaryImage.from_bool(bits)
        assert img.width == w and img.height == h
        assert len(img.words) == (w * h + 31) // 32
        np.testing.assert_array_equal(img.to_bool(), bits)


def test_binary_bit_order_is_lsb_first_row_major():
    # Only pixel (x=1, y=0) set in a 3x2 image -> stream bit 1 -> word value 2.
    bits = np.zeros((2, 3), dtype=bool)
    bits[0, 1] = True
    img = BinaryImage.from_bool(bits)
    assert int(img.words[0]) == 2
    # Pixel (x=0, y=1) is stream bit 3 -> value 8.
    bits2 = np.zeros((2, 3), dtype=bool)
    bits2[1, 0] = True
    assert int(BinaryImage.from_bool(bits2).words[0]) == 8


def test_binary_get_bit_matches_unpacked():
    rng = np.random.default_rng(11)
    bits = rng.random((9, 13)) < 0.4
    img = BinaryImage.from_bool(bits)
    for y in range(9):
        for x in range(13):
            assert img.get_bit(x, y) == int(bits[y, x])


def test_binary_rejects_dirty_padding():
    words = np.array([0xFFFFFFFF], dtype=np.uint32)
    with pytest.raises(DimensionError):
        BinaryImage(width=5, height=5, words=words)  # 25 bits, 7 pad bits set


def test_binary_window_extraction():
    rng = np.random.default_rng(3)
    bits = rng.random((64, 64)) < 0.5
    img = BinaryImage.from_bool(bits)
    win = img.window(32, 16, 32)
    np.testing.assert_array_equal(win.to_bool(), bits[16:48, 32:64])


def test_packed_rows_bit_assignment():
    bits = np.zeros((2, 8), dtype=bool)
    bits[0, 0] = True
    bits[0, 7] = True
    bits[1, 3] = True
    rows = BinaryImage.from_bool(bits).packed_rows()
    assert rows[0] == (1 | 1 << 7)
    assert rows[1] == 1 << 3
