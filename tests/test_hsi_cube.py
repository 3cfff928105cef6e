"""Cube loading order, band views, reference-image rounding, round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest

from inkscan import netpbm
from inkscan.binarize import ForegroundMask, SpectrumSet
from inkscan.cluster import ClusterModel
from inkscan.errors import (
    BandOutOfRange,
    DimensionMismatch,
    EmptyCube,
    MissingBandFile,
    UnsupportedFormat,
)
from inkscan.hsi_cube import (
    GrayImage,
    HyperCube,
    band_image,
    load_cube,
    natural_key,
    read_manifest,
    reference_image,
    write_gray_pgm,
)
from inkscan.segment import SegmentationMap


def write_band(path, value_or_array, shape=(4, 3)):
    if np.isscalar(value_or_array):
        pixels = np.full(shape, value_or_array, dtype=np.uint8)
    else:
        pixels = np.asarray(value_or_array, dtype=np.uint8)
    netpbm.write_pgm(pixels, path)


def test_directory_load_uses_natural_numeric_order(tmp_path):
    # 12 constant bands; lexicographic order would put band_10 before band_2
    for i in range(1, 13):
        write_band(tmp_path / f"band_{i}.pgm", i * 10)
    cube = load_cube(tmp_path)
    assert cube.bands == 12
    assert [int(cube.data[b, 0, 0]) for b in range(12)] == [i * 10 for i in range(1, 13)]


def test_natural_key_orders_digits_numerically():
    names = ["band_10.pgm", "band_2.pgm", "band_1.pgm"]
    assert sorted(names, key=natural_key) == ["band_1.pgm", "band_2.pgm", "band_10.pgm"]


def test_manifest_load_honors_declared_order(tmp_path):
    for i, value in [(1, 40), (2, 80), (3, 120)]:
        write_band(tmp_path / f"x{i}.pgm", value)
    manifest = tmp_path / "cube.manifest"
    manifest.write_text("3\tx3.pgm\n1\tx1.pgm\n2\tx2.pgm\n")
    assert read_manifest(manifest) == [(1, "x1.pgm"), (2, "x2.pgm"), (3, "x3.pgm")]
    cube = load_cube(manifest)
    assert [int(cube.data[b, 0, 0]) for b in range(3)] == [40, 80, 120]


def test_manifest_overrides_natural_filename_order(tmp_path):
    for i, value in [(1, 40), (2, 80), (3, 120)]:
        write_band(tmp_path / f"x{i}.pgm", value)
    manifest = tmp_path / "scrambled.manifest"
    manifest.write_text("1\tx3.pgm\n2\tx1.pgm\n3\tx2.pgm\n")
    cube = load_cube(manifest)
    assert [int(cube.data[b, 0, 0]) for b in range(3)] == [120, 40, 80]


def test_manifest_with_byte_order_mark_loads_same_cube(tmp_path):
    for i, value in [(1, 40), (2, 80)]:
        write_band(tmp_path / f"x{i}.pgm", value)
    plain, marked = tmp_path / "plain.manifest", tmp_path / "marked.manifest"
    plain.write_text("2\tx2.pgm\n1\tx1.pgm\n", encoding="utf-8")
    marked.write_text("2\tx2.pgm\n1\tx1.pgm\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_manifest(marked) == read_manifest(plain)
    assert load_cube(marked).data.tobytes() == load_cube(plain).data.tobytes()


def test_manifest_not_utf8_is_unsupported(tmp_path):
    m = tmp_path / "m.txt"
    m.write_bytes(b"\xef\xbb\xbf1\ta\xff.pgm\n")
    with pytest.raises(UnsupportedFormat, match="not a text file"):
        read_manifest(m)


def test_manifest_rejects_gaps_and_duplicates(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("1\ta.pgm\n3\tb.pgm\n")
    with pytest.raises(UnsupportedFormat):
        read_manifest(m)
    m.write_text("1\ta.pgm\n1\tb.pgm\n")
    with pytest.raises(UnsupportedFormat):
        read_manifest(m)
    m.write_text("1\ta.pgm\n2\ta.pgm\n")
    with pytest.raises(UnsupportedFormat):
        read_manifest(m)


def test_manifest_missing_band_file(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("1\tnowhere.pgm\n")
    with pytest.raises(MissingBandFile):
        load_cube(m)


def test_directory_load_survives_non_decimal_digit_names(tmp_path):
    # "\u00b2" (superscript two) is a digit to str.isdigit() but not to int()
    write_band(tmp_path / "\u00b21.pgm", 7)
    write_band(tmp_path / "band_2.pgm", 9)
    assert natural_key("\u00b21.pgm") == ((0, "\u00b2"), (1, 1), (0, ".pgm"))
    assert load_cube(tmp_path).data[:, 0, 0].tolist() == [9, 7]  # "band_" < "\u00b2"


def test_reference_mode_grammar(rng):
    cube = HyperCube(rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8))
    for mode in ("band:\u00b2", "band:-1", "band:+2", "band: 2", "band:"):
        with pytest.raises(ValueError, match="reference mode"):
            reference_image(cube, mode)


def test_manifest_rejects_nul_in_path(tmp_path):
    write_band(tmp_path / "a.pgm", 1)
    m = tmp_path / "m.txt"
    m.write_text("1\ta.pgm\x00x\n")
    with pytest.raises(UnsupportedFormat, match="NUL"):
        read_manifest(m)
    with pytest.raises(UnsupportedFormat, match="NUL"):
        load_cube(m)


def test_dimension_mismatch_carries_details(tmp_path):
    write_band(tmp_path / "band_1.pgm", 0, shape=(10, 10))
    write_band(tmp_path / "band_2.pgm", 0, shape=(9, 10))
    with pytest.raises(DimensionMismatch) as exc:
        load_cube(tmp_path)
    assert exc.value.band_index == 2
    assert exc.value.expected == (10, 10)
    assert exc.value.found == (10, 9)


def test_manifest_third_band_errors_keep_their_details(tmp_path):
    # the cube's buffer exists once band 1 is read; later bands still fail alone
    for i in (1, 2, 4):
        write_band(tmp_path / f"b{i}.pgm", i, shape=(10, 10))
    write_band(tmp_path / "b3.pgm", 3, shape=(9, 10))
    m = tmp_path / "m.txt"
    m.write_text("".join(f"{i}\tb{i}.pgm\n" for i in range(1, 5)))
    with pytest.raises(DimensionMismatch) as exc:
        load_cube(m)
    assert str(exc.value) == "band 3 is 10x9, expected 10x10"
    assert exc.value.band_index == 3
    assert exc.value.expected == (10, 10)
    assert exc.value.found == (10, 9)
    (tmp_path / "b3.pgm").unlink()
    with pytest.raises(MissingBandFile) as exc:
        load_cube(m)
    assert str(exc.value) == f"band 3: {tmp_path / 'b3.pgm'} does not exist"


def test_empty_sources(tmp_path):
    with pytest.raises(EmptyCube):
        load_cube(tmp_path)
    empty_manifest = tmp_path / "m.txt"
    empty_manifest.write_text("")
    with pytest.raises(EmptyCube):
        load_cube(empty_manifest)
    with pytest.raises(MissingBandFile):
        load_cube(tmp_path / "missing")


def test_minimal_single_band_cube(tmp_path):
    write_band(tmp_path / "band_1.pgm", 0, shape=(1, 1))
    cube = load_cube(tmp_path)
    assert (cube.width, cube.height, cube.bands) == (1, 1, 1)
    assert int(cube.data[0, 0, 0]) == 0


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
def test_cube_rejects_zero_length_axis(shape):
    with pytest.raises(ValueError, match="dimensions must all be >= 1"):
        HyperCube(np.zeros(shape, dtype=np.uint8))


def test_band_image_slices_and_range(rng):
    data = rng.integers(0, 256, size=(5, 4, 6)).astype(np.uint8)
    cube = HyperCube(data)
    for b in range(1, 6):
        view = band_image(cube, b)
        assert np.array_equal(view.pixels, data[b - 1])
    for bad in (0, 6, -1):
        with pytest.raises(BandOutOfRange):
            band_image(cube, bad)


def test_band_image_constant_cube():
    cube = HyperCube(np.full((3, 2, 2), 7, dtype=np.uint8))
    assert (band_image(cube, 2).pixels == 7).all()


def test_reference_mean_simple_values():
    cube = HyperCube(np.stack([
        np.full((1, 1), 10, dtype=np.uint8),
        np.full((1, 1), 20, dtype=np.uint8),
    ]))
    assert reference_image(cube, "mean").pixels[0, 0] == 15

    cube = HyperCube(np.stack([
        np.full((1, 1), 10, dtype=np.uint8),
        np.full((1, 1), 21, dtype=np.uint8),
    ]))
    # 15.5 rounds half-up to 16
    assert reference_image(cube, "mean").pixels[0, 0] == 16


def test_reference_mean_single_band_is_identity(rng):
    data = rng.integers(0, 256, size=(1, 6, 7)).astype(np.uint8)
    cube = HyperCube(data)
    assert np.array_equal(reference_image(cube, "mean").pixels, data[0])


def test_reference_mean_matches_rounding_oracle_all_pairs():
    # every (a, b) pair in 0..255 as a two-band cube, against an exact
    # Fraction-based round-half-up oracle
    a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    cube = HyperCube(np.stack([a, b]).astype(np.uint8))
    got = reference_image(cube, "mean").pixels
    for i in (0, 1, 17, 254, 255):
        for j in range(256):
            half_up = math.floor(Fraction(i + j, 2) + Fraction(1, 2))
            assert got[i, j] == half_up, (i, j)
    # full-grid check via integer arithmetic written differently
    assert np.array_equal(got, ((a + b + 1) // 2).astype(np.uint8))


@pytest.mark.parametrize("bands", [2, 4, 33, 128, 129, 256, 257, 258])
def test_reference_mean_matches_int64_formula_for_every_sum(bands):
    # one pixel per sum 0..255 * B, so the all-255 pixel and, for even B,
    # every sum on an exact .5 are there; 128/129 and 257/258 straddle the
    # widths at which 511 * B and 255 * B leave uint16
    sums = np.arange(255 * bands + 1)
    data = ((sums // bands).astype(np.uint8)
            + (np.arange(bands)[:, None] < sums % bands)).reshape(bands, 1, -1)
    assert np.array_equal(data.sum(axis=0, dtype=np.int64)[0], sums)
    got = reference_image(HyperCube(data), "mean").pixels[0]
    assert np.array_equal(got, (2 * sums + bands) // (2 * bands))
    assert got[-1] == 255
    if bands % 2 == 0:
        halves = sums[sums % bands == bands // 2]  # sum / B = k + 0.5
        assert np.array_equal(got[halves], halves // bands + 1)


def test_reference_mean_band_permutation_invariant(rng):
    data = rng.integers(0, 256, size=(7, 5, 5)).astype(np.uint8)
    cube = HyperCube(data)
    shuffled = HyperCube(data[rng.permutation(7)])
    assert np.array_equal(
        reference_image(cube, "mean").pixels,
        reference_image(shuffled, "mean").pixels,
    )


def test_reference_single_band_mode(rng):
    data = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
    cube = HyperCube(data)
    assert np.array_equal(reference_image(cube, "band:3").pixels, data[2])
    with pytest.raises(BandOutOfRange):
        reference_image(cube, "band:5")
    with pytest.raises(ValueError):
        reference_image(cube, "median")


def test_cube_round_trip_through_pgm(tmp_path, rng):
    data = rng.integers(0, 256, size=(6, 8, 5)).astype(np.uint8)
    cube = HyperCube(data)
    lines = []
    for b in range(1, 7):
        name = f"band_{b}.pgm"
        write_gray_pgm(band_image(cube, b), tmp_path / name)
        lines.append(f"{b}\t{name}")
    (tmp_path / "m.txt").write_text("\n".join(lines) + "\n")

    by_dir = load_cube(tmp_path)
    by_manifest = load_cube(tmp_path / "m.txt")
    assert np.array_equal(by_dir.data, data)
    assert np.array_equal(by_manifest.data, data)


def test_load_is_deterministic(tmp_path, rng):
    data = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
    for b in range(3):
        write_band(tmp_path / f"band_{b + 1}.pgm", data[b])
    once = load_cube(tmp_path)
    twice = load_cube(tmp_path)
    assert once.data.tobytes() == twice.data.tobytes()


def test_gray_pgm_round_trip(tmp_path, rng):
    image = GrayImage(rng.integers(0, 256, size=(9, 2)).astype(np.uint8))
    write_gray_pgm(image, tmp_path / "g.pgm")
    assert np.array_equal(netpbm.read_pgm(tmp_path / "g.pgm"), image.pixels)


def test_binary_file_as_manifest_is_unsupported(tmp_path):
    path = tmp_path / "band_1.pgm"
    write_band(path, 3)
    with pytest.raises(UnsupportedFormat):
        load_cube(path)


# record, array field, stored dtype, stored order, a valid shape, the other fields
FROZEN_FIELDS = {
    "GrayImage.pixels": (GrayImage, "pixels", np.uint8, "C", (4, 6), {}),
    "HyperCube.data": (HyperCube, "data", np.uint8, "C", (3, 4, 6), {}),
    "ForegroundMask.flags": (ForegroundMask, "flags", np.bool_, "C", (4, 6), {}),
    # band-major samples: vectors.T is a C-contiguous (B, N) array
    "SpectrumSet.vectors": (SpectrumSet, "vectors", np.float64, "F", (6, 4),
                            {"coords": np.zeros((6, 2))}),
    "SpectrumSet.coords": (SpectrumSet, "coords", np.int32, "C", (6, 2),
                           {"vectors": np.zeros((6, 4))}),
    "SegmentationMap.labels": (SegmentationMap, "labels", np.uint8, "C", (4, 6), {"k": 1}),
    "ClusterModel.centroids": (ClusterModel, "centroids", np.float64, "C", (2, 3),
                               {"labels": np.zeros(6, dtype=np.int32), "inertia": 0.0,
                                "iterations": 1, "converged": True}),
    "ClusterModel.labels": (ClusterModel, "labels", np.int32, "C", (6,),
                            {"centroids": np.zeros((2, 3)), "inertia": 0.0,
                             "iterations": 1, "converged": True}),
}


@pytest.mark.parametrize("field", FROZEN_FIELDS)
def test_record_rejects_wrong_ndim(field):
    record, name, _, _, shape, others = FROZEN_FIELDS[field]
    for bad in (np.zeros(shape + (1,)), np.zeros(())):  # a 0-d value too
        with pytest.raises(ValueError, match=f"{record.__name__}.{name}"):
            record(**{name: bad}, **others)


@pytest.mark.parametrize("layout", ["strided", "transposed"])
@pytest.mark.parametrize("field", FROZEN_FIELDS)
def test_record_stores_read_only_c_array(field, layout):
    record, name, dtype, order, shape, others = FROZEN_FIELDS[field]
    expected = (np.arange(math.prod(shape)) % 2).reshape(shape)  # int64
    if layout == "strided":
        given = np.repeat(expected, 2, axis=-1)[..., ::2]
    elif expected.ndim > 1:  # laid out in the other order
        given = np.asarray(expected, order="F" if order == "C" else "C")
    else:  # a 1-d field is stored reversed instead
        given = expected[::-1].copy()[::-1]
    assert not given.flags[f"{order}_CONTIGUOUS"]
    stored = getattr(record(**{name: given}, **others), name)
    assert stored.flags[f"{order}_CONTIGUOUS"]
    assert not stored.flags.writeable
    assert stored.dtype == dtype
    assert np.array_equal(stored, expected)


@pytest.mark.parametrize("field", FROZEN_FIELDS)
def test_record_leaves_caller_array_writeable(field):
    # an array that needs no conversion is shared, not copied or frozen
    record, name, dtype, order, shape, others = FROZEN_FIELDS[field]
    given = np.zeros(shape, dtype=dtype, order=order)
    stored = getattr(record(**{name: given}, **others), name)
    assert np.shares_memory(stored, given)
    assert not stored.flags.writeable
    assert given.flags.writeable
    given[...] = 0  # still allowed


INTEGER_FIELDS = [field for field, spec in FROZEN_FIELDS.items() if np.dtype(spec[2]).kind in "iu"]


@pytest.mark.parametrize("case", ["above range", "below range", "fractional", "nan"])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_record_refuses_a_value_its_dtype_cannot_hold(field, case):
    """No value wraps or truncates on its way into an integer field."""
    record, name, dtype, _, shape, others = FROZEN_FIELDS[field]
    info = np.iinfo(dtype)
    bad = {"above range": info.max + 1, "below range": info.min - 1,
           "fractional": 0.5, "nan": np.nan}[case]
    given = np.zeros(shape, dtype=np.int64 if "range" in case else np.float64)
    given.flat[-1] = bad
    # a label map checks its labels' range first, with a message of its own
    message = name if record is SegmentationMap and "range" in case else f"{record.__name__}.{name}"
    with pytest.raises(ValueError, match=message):
        record(**{name: given}, **others)


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_record_keeps_whole_values_of_any_dtype(field):
    record, name, dtype, _, shape, others = FROZEN_FIELDS[field]
    given = np.zeros(shape)
    given.flat[-1] = 1.0
    stored = getattr(record(**{name: given}, **others), name)
    assert stored.dtype == dtype and np.array_equal(stored, given)


def test_bool_record_keeps_truthiness():
    flags = ForegroundMask(np.array([[0, 255, -1], [0.5, 0.0, 2**40]])).flags
    assert flags.tolist() == [[False, True, True], [True, False, True]]
