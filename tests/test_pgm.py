import numpy as np
import pytest

from ringpiv import GrayImage, InputFormatError
from ringpiv.pgm import read_pgm, write_pgm


def test_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(31)
    img = GrayImage.from_array(rng.integers(0, 1024, size=(40, 56)).astype(np.uint16))
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_array_equal(back.data, img.data)


def test_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(32)
    img = GrayImage.from_array(rng.integers(0, 256, size=(10, 12)).astype(np.uint16))
    path = tmp_path / "b.pgm"
    write_pgm(path, img)
    with open(path, "rb") as f:
        assert f.read(2) == b"P5"
    back = read_pgm(path)
    np.testing.assert_array_equal(back.data, img.data)


def test_reads_comments_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    raster = bytes(range(6))
    for header in (
        b"P5\n# a comment\n3 2\n# another\n255\n",
        b"P5\n# a CR-terminated comment\r3 2\r255\n",
        b"P5\v3\f2\v255\n",  # vertical tab and form feed are whitespace too
        b"P5 #a\n3 #b\n#c\n2 # d\n255\n",  # a comment between every pair of fields
    ):
        path.write_bytes(header + raster)
        img = read_pgm(path)
        assert (img.width, img.height) == (3, 2), header
        assert img.data[1, 2] == 5, header


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(InputFormatError, match="magic"):
        read_pgm(path)


def test_rejects_16bit_above_1023(tmp_path):
    path = tmp_path / "e.pgm"
    data = np.array([[1024]], dtype=">u2")
    path.write_bytes(b"P5\n1 1\n65535\n" + data.tobytes())
    with pytest.raises(InputFormatError, match="1023"):
        read_pgm(path)


def test_rejects_truncated_raster(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(InputFormatError, match="truncated"):
        read_pgm(path)


def test_rejects_pixel_above_maxval(tmp_path):
    path = tmp_path / "g.pgm"
    data = np.array([[300, 400]], dtype=">u2")
    path.write_bytes(b"P5\n2 1\n300\n" + data.tobytes())
    with pytest.raises(InputFormatError, match="400 exceeds the header maxval 300"):
        read_pgm(path)


@pytest.mark.parametrize("maxval, pixel", [(1023, 1024), (2000, 1500)])
def test_rejects_pixel_above_the_10_bit_maximum(tmp_path, maxval, pixel):
    path = tmp_path / "h.pgm"
    data = np.array([[0, pixel]], dtype=">u2")
    path.write_bytes(f"P5\n2 1\n{maxval}\n".encode() + data.tobytes())
    with pytest.raises(InputFormatError, match=f"intensity {pixel} exceeds 10-bit maximum 1023"):
        read_pgm(path)


@pytest.mark.parametrize(
    "header",
    [b"P5 1_0 1 255\n", b"P5 +2 1 255\n", b"P5 2 1 2_55\n", b"P5 2 -1 255\n", b"P5 2 1 0x10\n",
     "P5 \u0662 1 255\n".encode(), b"P5 2#c\n 1 255\n"],
    ids=["underscore-width", "plus-width", "underscore-maxval", "minus-height", "hex-maxval", "arabic-digit",
         "hash-in-width"],
)
def test_header_numbers_must_be_ascii_decimal_digits(tmp_path, header):
    """``int()`` would read b"1_0" as 10 and take a sign; a PGM header holds plain digits."""
    path = tmp_path / "i.pgm"
    path.write_bytes(header + bytes(20))
    with pytest.raises(InputFormatError, match="bad PGM header token"):
        read_pgm(path)


@pytest.mark.parametrize(
    "header",
    [b"", b"P5\n3 2", b"P5\n3 2\n# a comment that runs to the end of the file"],
    ids=["empty", "no-maxval", "comment-to-eof"],
)
def test_rejects_a_truncated_header(tmp_path, header):
    path = tmp_path / "j.pgm"
    path.write_bytes(header)
    with pytest.raises(InputFormatError, match="truncated PGM header"):
        read_pgm(path)


def test_write_rejects_an_array_that_is_not_a_gray_image(tmp_path):
    with pytest.raises(InputFormatError, match="img must be a GrayImage, got ndarray; see GrayImage.from_array"):
        write_pgm(tmp_path / "k.pgm", np.zeros((2, 2), dtype=np.uint16))
