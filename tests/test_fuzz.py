"""Seeded mutation fuzz of the two parsers that read outside bytes.

Valid P5, P6 and manifest inputs are mutated by bit flips, byte
inserts (header bytes, random bytes and long digit runs) and deletes.
Whatever the bytes, a reader must return an array or a cube, or raise
an InkscanError; any other exception would reach the CLI as a traceback.
The numpy-free `netpbm.read_raster` must fail alike, or return the same
shape and bytes as the array reader.
"""

import re

import numpy as np
import pytest

from inkscan import netpbm
from inkscan.errors import InkscanError
from inkscan.hsi_cube import HyperCube, load_cube

CASES = 1500
_HEADER_BYTES = b" \t\r\n#0123456789P\x00/"


def mutate(data: bytes, rng) -> bytes:
    """One to three edits, half of them within the first 24 bytes."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        span = len(out) if rng.integers(2) else min(len(out), 24)
        pos = int(rng.integers(span + 1))
        op = int(rng.integers(5))
        if op == 0 and pos < len(out):
            out[pos] ^= 1 << int(rng.integers(8))
        elif op == 1:
            out[pos:pos] = bytes([_HEADER_BYTES[int(rng.integers(len(_HEADER_BYTES)))]])
        elif op == 2:
            out[pos:pos] = rng.bytes(int(rng.integers(1, 8)))
        elif op == 3:
            digit = b"0123456789"[int(rng.integers(10))]
            out[pos:pos] = bytes([digit]) * int(rng.choice([5, 30, 4400, 5000]))
        else:
            del out[pos:pos + int(rng.integers(1, 8))]
    return bytes(out)


@pytest.mark.parametrize("magic, read, shape", [
    (b"P5", netpbm.read_pgm, (3, 4)),
    (b"P6", netpbm.read_ppm, (3, 4, 3)),
])
def test_netpbm_reader_survives_mutation(tmp_path, magic, read, shape):
    pixels = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
    seed = b"%s\n# scanner\n4 3\n255\n" % magic + pixels.tobytes()
    rng = np.random.default_rng(int.from_bytes(magic, "big"))
    path = tmp_path / "case.pnm"
    outcomes = set()
    for _ in range(CASES):
        path.write_bytes(mutate(seed, rng))
        try:
            image = read(path)
        except InkscanError as exc:
            outcomes.add(type(exc).__name__)
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                netpbm.read_raster(path, magic)
        else:
            assert image.dtype == np.uint8 and image.shape[2:] == shape[2:]
            width, height, raster = netpbm.read_raster(path, magic)
            assert (height, width) == image.shape[:2] and raster == image.tobytes()
            outcomes.add("array")
    assert {"array", "UnsupportedFormat"} <= outcomes


def test_manifest_loader_survives_mutation(tmp_path):
    bands = tmp_path / "bands"
    bands.mkdir()
    for b in (1, 2):
        netpbm.write_pgm(np.full((2, 3), b, dtype=np.uint8), bands / f"band_{b}.pgm")
    seed = b"1\tbands/band_1.pgm\n2\tbands/band_2.pgm\n"
    rng = np.random.default_rng(7)
    manifest = tmp_path / "manifest.txt"
    outcomes = set()
    for _ in range(CASES):
        manifest.write_bytes(mutate(seed, rng))
        try:
            cube = load_cube(manifest)
        except InkscanError as exc:
            outcomes.add(type(exc).__name__)
        else:
            assert isinstance(cube, HyperCube)
            outcomes.add("cube")
    assert {"cube", "UnsupportedFormat", "MissingBandFile"} <= outcomes
