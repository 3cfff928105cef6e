"""Binary netpbm (PGM P5 / PPM P6) encoding and decoding, maxval 255.

Writers emit the canonical header ``P5\\n<w> <h>\\n255\\n`` (P6 for color)
followed by row-major samples, so output files are byte-stable. The one
reader, `read_raster`, accepts the full netpbm header grammar (whitespace
runs, ``#`` comments, zero-padded fields) but only 8-bit maxval; any other
bytes raise UnsupportedFormat.

`write_file` is the package's one file writer: every output file, the
PGM/PPM writers' included, is written through it, so a failed write raises
IoFailure ``cannot write <path>: <reason>`` wherever it happens.

Importing this module loads no numpy. `read_raster` hands back the raster
as a view of the file's bytes, which is all `eval` reads label maps with;
`read_pgm` and `read_ppm` wrap that view as a uint8 array, and they and the
writers import numpy when first called.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import IoFailure, UnsupportedFormat

if TYPE_CHECKING:
    import numpy as np

_TOKEN = re.compile(rb"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*0*([0-9]+)")
# a field with more significant digits than this cannot describe an image
# that fits in memory (and would trip int()'s 4300-digit limit)
_MAX_DIGITS = 18


def _parse_header(data: bytes, magic: bytes, path):
    if not data.startswith(magic):
        raise UnsupportedFormat(f"{path}: expected {magic.decode()} magic")
    pos = len(magic)
    fields = []
    for _ in range(3):
        m = _TOKEN.match(data, pos)
        if m is None:
            raise UnsupportedFormat(f"{path}: truncated netpbm header")
        if len(m.group(1)) > _MAX_DIGITS:
            raise UnsupportedFormat(f"{path}: netpbm header field too long")
        fields.append(int(m.group(1)))
        pos = m.end()
    # exactly one whitespace byte separates the header from the raster
    if pos >= len(data) or data[pos:pos + 1] not in (b" ", b"\t", b"\r", b"\n"):
        raise UnsupportedFormat(f"{path}: malformed netpbm header")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedFormat(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise UnsupportedFormat(f"{path}: bad dimensions {width}x{height}")
    return width, height, pos


_CHANNELS = {b"P5": 1, b"P6": 3}


def read_raster(path, magic: bytes) -> tuple[int, int, memoryview]:
    """The width, height and row-major samples of a P5 (``magic=b"P5"``) or P6 file.

    The samples, one byte per channel, are a read-only view of the file's
    bytes; bytes after the raster are ignored. A missing file raises
    FileNotFoundError, any other read failure IoFailure.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    width, height, pos = _parse_header(data, magic, path)
    channels = _CHANNELS[magic]
    n = height * width * channels
    if len(data) - pos < n:
        raise UnsupportedFormat(f"{path}: raster shorter than {width}x{height}x{channels}")
    return width, height, memoryview(data)[pos:pos + n]


def _read(path, magic: bytes) -> np.ndarray:
    import numpy as np

    width, height, raster = read_raster(path, magic)
    return np.frombuffer(raster, np.uint8).reshape(height, width, _CHANNELS[magic])


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a (height, width) uint8 array."""
    return _read(path, b"P5")[:, :, 0]


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a (height, width, 3) uint8 array."""
    return _read(path, b"P6")


def cast_exact(values, dtype, order: str = "C") -> np.ndarray | None:
    """`values` as a `dtype` array laid out in `order`, or None if that loses a value.

    Only casts to an integer dtype that NumPy does not call safe can lose one:
    out of range, fractional or NaN. A cast to bool keeps each value's truthiness.
    """
    import numpy as np

    given = np.asarray(values)
    with np.errstate(invalid="ignore"):  # a NaN's cast is refused below
        arr = np.asarray(given, dtype=dtype, order=order)
    lossless = (arr.dtype.kind not in "iu" or np.can_cast(given.dtype, arr.dtype)
                or np.array_equal(arr, given))
    return arr if lossless else None


def write_file(path, chunks) -> None:
    """Write the bytes-like `chunks` to `path` in turn; failing raises IoFailure naming it."""
    try:
        with open(path, "wb") as out:
            for chunk in chunks:
                out.write(chunk)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write(path, magic: bytes, pixels: np.ndarray) -> None:
    import numpy as np

    height, width = pixels.shape[:2]
    if width < 1 or height < 1:
        raise IoFailure(f"refusing to write {width}x{height} image")
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    raster = cast_exact(pixels, np.uint8)
    if raster is None:
        raise IoFailure(f"refusing to write {path}: samples must be whole numbers in 0..255")
    write_file(path, (header, raster))  # from the array's own buffer: no bytes copy


def write_pgm(pixels: np.ndarray, path) -> None:
    """Write a (height, width) uint8 array as binary PGM."""
    if pixels.ndim != 2:
        raise IoFailure(f"PGM needs a 2-d array, got shape {pixels.shape}")
    _write(path, b"P5", pixels)


def write_ppm(pixels: np.ndarray, path) -> None:
    """Write a (height, width, 3) uint8 array as binary PPM."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise IoFailure(f"PPM needs a (h, w, 3) array, got shape {pixels.shape}")
    _write(path, b"P6", pixels)
