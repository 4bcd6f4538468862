"""Binary PGM (P5) reading and writing for 8- and 16-bit grayscale images.

16-bit files use the standard big-endian byte order.  Values above the
10-bit ceiling are rejected on read since the pipeline models a 10-bit
sensor.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InputFormatError
from .images import MAX_INTENSITY, GrayImage


_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*)*(\S*)")  # whitespace and '#' comments, then one token


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    token = _TOKEN.match(buf, pos)
    if not token[1]:
        raise InputFormatError("truncated PGM header")
    return token[1], token.end()


def read_pgm(path) -> GrayImage:
    with open(path, "rb") as f:
        buf = f.read()
    magic, pos = _read_token(buf, 0)
    if magic != b"P5":
        raise InputFormatError(f"not a binary PGM (magic {magic!r}, expected b'P5')")
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos)
        if not tok.isdigit():  # ASCII decimal only: int() would also take b"+2" and b"1_0"
            raise InputFormatError(f"bad PGM header token {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise InputFormatError(f"bad PGM dimensions {width}x{height}")
    if not (0 < maxval < 65536):
        raise InputFormatError(f"bad PGM maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = width * height * dtype.itemsize
    raster = buf[pos : pos + need]
    if len(raster) != need:
        raise InputFormatError(
            f"PGM raster truncated: expected {need} bytes, got {len(raster)}"
        )
    data = np.frombuffer(raster, dtype=dtype).reshape(height, width)  # GrayImage copies it
    # GrayImage rejects any pixel above 1023, so only a lower maxval needs a pass of its own.
    if maxval < MAX_INTENSITY and int(data.max()) > maxval:
        raise InputFormatError(f"pixel value {int(data.max())} exceeds the header maxval {maxval}")
    return GrayImage(data=data)


def write_pgm(path, img: GrayImage) -> None:
    if not isinstance(img, GrayImage):
        raise InputFormatError(f"img must be a GrayImage, got {type(img).__name__}; see GrayImage.from_array")
    maxval = MAX_INTENSITY if int(img.data.max(initial=0)) > 255 else 255
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    if maxval > 255:
        raster = img.data.astype(">u2").tobytes()
    else:
        raster = img.data.astype("u1").tobytes()
    with open(path, "wb") as f:
        f.write(header + raster)
