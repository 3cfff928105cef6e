"""Byte-level checks of the PGM/PPM codecs against an independent
struct-style writer and reader written inline here."""

import numpy as np
import pytest

from inkscan import netpbm
from inkscan.errors import IoFailure, UnsupportedFormat


def independent_pgm_bytes(pixels):
    h, w = pixels.shape
    out = bytearray(f"P5\n{w} {h}\n255\n".encode())
    for y in range(h):
        for x in range(w):
            out.append(int(pixels[y, x]))
    return bytes(out)


def independent_ppm_bytes(pixels):
    h, w, _ = pixels.shape
    out = bytearray(f"P6\n{w} {h}\n255\n".encode())
    for y in range(h):
        for x in range(w):
            for c in range(3):
                out.append(int(pixels[y, x, c]))
    return bytes(out)


def test_pgm_header_and_payload_exact(tmp_path):
    path = tmp_path / "one.pgm"
    netpbm.write_pgm(np.array([[128]], dtype=np.uint8), path)
    assert path.read_bytes() == b"P5\n1 1\n255\n\x80"


def test_pgm_two_pixel_payload(tmp_path):
    path = tmp_path / "two.pgm"
    netpbm.write_pgm(np.array([[0, 255]], dtype=np.uint8), path)
    assert path.read_bytes()[-2:] == b"\x00\xff"


def test_ppm_red_pixel_exact(tmp_path):
    path = tmp_path / "red.ppm"
    netpbm.write_ppm(np.array([[[255, 0, 0]]], dtype=np.uint8), path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\x00\x00"


def test_pgm_matches_independent_writer(tmp_path, rng):
    for trial in range(10):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        pixels = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        path = tmp_path / f"t{trial}.pgm"
        netpbm.write_pgm(pixels, path)
        assert path.read_bytes() == independent_pgm_bytes(pixels)


def test_ppm_matches_independent_writer(tmp_path, rng):
    for trial in range(10):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        pixels = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        path = tmp_path / f"t{trial}.ppm"
        netpbm.write_ppm(pixels, path)
        assert path.read_bytes() == independent_ppm_bytes(pixels)


def test_round_trips_bit_exact(tmp_path, rng):
    for trial in range(20):
        h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        gray = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        color = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        gp, cp = tmp_path / f"g{trial}.pgm", tmp_path / f"c{trial}.ppm"
        netpbm.write_pgm(gray, gp)
        netpbm.write_ppm(color, cp)
        assert np.array_equal(netpbm.read_pgm(gp), gray)
        assert np.array_equal(netpbm.read_ppm(cp), color)


def test_reader_accepts_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n 2\t1\n# another\n255\n\x05\x06")
    assert netpbm.read_pgm(path).tolist() == [[5, 6]]


def test_reader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(UnsupportedFormat):
        netpbm.read_pgm(path)


def test_reader_rejects_wide_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(UnsupportedFormat):
        netpbm.read_pgm(path)


def test_reader_rejects_short_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(UnsupportedFormat):
        netpbm.read_pgm(path)


def test_writer_rejects_empty_image(tmp_path):
    with pytest.raises(IoFailure):
        netpbm.write_pgm(np.zeros((0, 0), dtype=np.uint8), tmp_path / "e.pgm")
    with pytest.raises(IoFailure):
        netpbm.write_ppm(np.zeros((0, 0, 3), dtype=np.uint8), tmp_path / "e.ppm")
    assert not (tmp_path / "e.pgm").exists()


def test_writers_reject_wrong_ndim(tmp_path):
    with pytest.raises(IoFailure, match="PGM needs a 2-d array"):
        netpbm.write_pgm(np.zeros((2, 2, 3), dtype=np.uint8), tmp_path / "a.pgm")
    with pytest.raises(IoFailure, match=r"PPM needs a \(h, w, 3\) array"):
        netpbm.write_ppm(np.zeros((2, 2), dtype=np.uint8), tmp_path / "a.ppm")
    assert list(tmp_path.iterdir()) == []


def test_write_into_missing_directory_is_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="cannot write"):
        netpbm.write_pgm(np.zeros((2, 2), dtype=np.uint8), tmp_path / "no" / "a.pgm")


def test_reader_accepts_zero_padded_fields(tmp_path):
    path = tmp_path / "z.pgm"
    path.write_bytes(b"P5\n0000000004 3\n255\n" + bytes(range(12)))
    assert netpbm.read_pgm(path).tolist() == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    # only significant digits count towards the field bound
    path.write_bytes(b"P5\n" + b"0" * 5000 + b"2 1\n" + b"0" * 5000 + b"255\n\x05\x06")
    assert netpbm.read_pgm(path).tolist() == [[5, 6]]


@pytest.mark.parametrize("field", [0, 1, 2])
def test_reader_rejects_overlong_field(tmp_path, field):
    # 5,000 digits would overflow int()'s conversion limit
    fields = [b"1", b"1", b"255"]
    fields[field] = b"1" * 5000
    header = b"%s\n%s\n" % (b" ".join(fields[:2]), fields[2])
    for magic, read in ((b"P5", netpbm.read_pgm), (b"P6", netpbm.read_ppm)):
        path = tmp_path / "long.pnm"
        path.write_bytes(magic + b"\n" + header + b"\x00" * 3)
        with pytest.raises(UnsupportedFormat, match="too long"):
            read(path)


def test_readers_let_a_missing_file_through(tmp_path):
    for read in (netpbm.read_pgm, netpbm.read_ppm):
        with pytest.raises(FileNotFoundError):
            read(tmp_path / "missing.pnm")


def test_reader_wraps_other_os_errors(tmp_path):
    for read in (netpbm.read_pgm, netpbm.read_ppm):
        with pytest.raises(IoFailure):
            read(tmp_path)  # a directory
