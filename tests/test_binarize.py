"""Threshold semantics, Otsu vs an exhaustive scan, spectral extraction."""

from fractions import Fraction

import dataclasses

import numpy as np
import pytest

from inkscan.binarize import (
    KEEP_AT_OR_ABOVE,
    KEEP_BELOW,
    ForegroundMask,
    SpectrumSet,
    ThresholdConfig,
    extract_spectra,
    foreground,
    gather_foreground,
    otsu_threshold,
    scale_to_unit_length,
    threshold_binary,
)
from inkscan.errors import (
    DegenerateHistogram,
    DimensionMismatch,
    EmptyForeground,
    InvalidSpec,
    ZeroSpectrum,
)
from inkscan.hsi_cube import GrayImage, HyperCube, band_image, write_gray_pgm
from conftest import make_spectrum_set


def exhaustive_otsu(pixels):
    """Independent oracle: scan every threshold, exact rational scores.

    Classes are {p < t} and {p >= t}; returns the lowest t maximizing
    between-class variance w_b*w_f*(mu_b - mu_f)^2.
    """
    values = [int(v) for v in np.asarray(pixels).ravel()]
    best_t, best_score = None, None
    for t in range(256):
        below = [v for v in values if v < t]
        at_or_above = [v for v in values if v >= t]
        if not below or not at_or_above:
            continue
        wb, wf = len(below), len(at_or_above)
        mb = Fraction(sum(below), wb)
        mf = Fraction(sum(at_or_above), wf)
        score = wb * wf * (mb - mf) ** 2
        if best_score is None or score > best_score:
            best_t, best_score = t, score
    if best_t is None:
        raise DegenerateHistogram("constant image")
    return best_t


def gray(rows):
    return GrayImage(np.asarray(rows, dtype=np.uint8))


class TestThresholdBinary:
    def test_pixel_at_threshold_is_foreground(self):
        image = gray([[0, 39, 40, 41]])
        mask = threshold_binary(image, ThresholdConfig(40, KEEP_AT_OR_ABOVE))
        assert mask.flags.tolist() == [[False, False, True, True]]

    def test_keep_below_polarity(self):
        image = gray([[0, 39, 40, 41]])
        mask = threshold_binary(image, ThresholdConfig(40, KEEP_BELOW))
        assert mask.flags.tolist() == [[True, True, False, False]]

    def test_all_zero_image_is_background(self):
        mask = threshold_binary(gray(np.zeros((5, 5))), ThresholdConfig(40))
        assert mask.count == 0

    def test_polarities_partition_image(self, rng):
        for _ in range(20):
            image = gray(rng.integers(0, 256, size=(6, 7)))
            t = int(rng.integers(1, 256))
            above = threshold_binary(image, ThresholdConfig(t, KEEP_AT_OR_ABOVE))
            below = threshold_binary(image, ThresholdConfig(t, KEEP_BELOW))
            assert np.array_equal(above.flags, ~below.flags)

    def test_monotone_in_threshold(self, rng):
        image = gray(rng.integers(0, 256, size=(8, 8)))
        previous = None
        for t in range(0, 256, 5):
            mask = threshold_binary(image, ThresholdConfig(t, KEEP_AT_OR_ABOVE))
            if previous is not None:
                # raising t never adds foreground pixels
                assert not np.any(mask.flags & ~previous)
            previous = mask.flags

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThresholdConfig(256)
        with pytest.raises(ValueError):
            ThresholdConfig(40, "keep-everything")

    def test_invalid_config_is_invalid_spec(self):
        for bad in ((300,), (-1,), (40, "keep-everything")):
            with pytest.raises(InvalidSpec) as info:
                ThresholdConfig(*bad)
            assert isinstance(info.value, ValueError)


class TestOtsu:
    def test_two_level_image_returns_lowest_maximizer(self):
        image = gray([[0] * 8 + [200] * 8])
        t = otsu_threshold(image)
        assert t == 1  # any t in 1..200 gives the same split; lowest wins
        assert t == exhaustive_otsu(image.pixels)

    def test_constant_image_degenerate(self):
        with pytest.raises(DegenerateHistogram):
            otsu_threshold(gray(np.full((4, 4), 9)))

    def test_bimodal_split_matches_oracle(self, rng):
        lo = rng.normal(30, 6, size=200).clip(0, 255).astype(np.uint8)
        hi = rng.normal(220, 8, size=150).clip(0, 255).astype(np.uint8)
        image = gray(np.concatenate([lo, hi]).reshape(25, 14))
        t = otsu_threshold(image)
        assert t == exhaustive_otsu(image.pixels)
        split = threshold_binary(image, ThresholdConfig(t))
        oracle_split = image.pixels >= exhaustive_otsu(image.pixels)
        assert np.array_equal(split.flags, oracle_split)

    def test_random_images_match_oracle(self, rng):
        for _ in range(50):
            shape = (int(rng.integers(1, 9)), int(rng.integers(2, 9)))
            image = gray(rng.integers(0, 256, size=shape))
            if len(np.unique(image.pixels)) < 2:
                continue
            assert otsu_threshold(image) == exhaustive_otsu(image.pixels)


class TestExtractSpectra:
    def test_three_foreground_pixels_33_bands(self, rng):
        data = rng.integers(0, 256, size=(33, 4, 5)).astype(np.uint8)
        cube = HyperCube(data)
        flags = np.zeros((4, 5), dtype=bool)
        flags[0, 1] = flags[2, 3] = flags[3, 0] = True
        spectra = extract_spectra(cube, ForegroundMask(flags))
        assert (spectra.count, spectra.bands) == (3, 33)

    def test_full_mask_enumerates_pixels_row_major(self, rng):
        data = rng.integers(0, 256, size=(2, 3, 4)).astype(np.uint8)
        cube = HyperCube(data)
        spectra = extract_spectra(cube, ForegroundMask(np.ones((3, 4), dtype=bool)))
        assert spectra.count == 12
        expected_coords = [(x, y) for y in range(3) for x in range(4)]
        assert [tuple(c) for c in spectra.coords] == expected_coords

    def test_rows_equal_pixel_spectra_bit_exact(self, rng):
        data = rng.integers(0, 256, size=(6, 5, 5)).astype(np.uint8)
        cube = HyperCube(data)
        flags = rng.random((5, 5)) < 0.4
        if not flags.any():
            flags[2, 2] = True
        spectra = extract_spectra(cube, ForegroundMask(flags))
        assert spectra.count == int(flags.sum())
        for row, (x, y) in zip(spectra.vectors, spectra.coords):
            assert row.tobytes() == cube.data[:, y, x].astype(np.float64).tobytes()

    def test_samples_stored_band_major(self, rng, tmp_path):
        cube = HyperCube(rng.integers(1, 256, size=(7, 6, 5)).astype(np.uint8))
        spectra = extract_spectra(cube, ForegroundMask(rng.random((6, 5)) < 0.5))
        for b in range(cube.bands):
            write_gray_pgm(band_image(cube, b + 1), tmp_path / f"band_{b + 1}.pgm")
        unit = foreground(tmp_path, ThresholdConfig(0), normalize="unit-length").spectra
        for stored in (spectra, unit):
            assert stored.vectors.T.flags.c_contiguous
            assert stored.vectors.shape[1] == 7

    def test_empty_mask_raises(self):
        cube = HyperCube(np.zeros((2, 3, 3), dtype=np.uint8))
        for step in (gather_foreground, extract_spectra):
            with pytest.raises(EmptyForeground) as raised:
                step(cube, ForegroundMask(np.zeros((3, 3), dtype=bool)))
            assert str(raised.value) == "mask has no foreground pixels"

    def test_mask_dimension_mismatch(self):
        cube = HyperCube(np.zeros((2, 3, 3), dtype=np.uint8))
        for step in (gather_foreground, extract_spectra):
            with pytest.raises(DimensionMismatch) as raised:
                step(cube, ForegroundMask(np.ones((2, 3), dtype=bool)))
            assert str(raised.value) == "mask is 3x2, cube is 3x3"

    def test_gathered_rows_are_8_bit_and_own_their_memory(self, rng):
        """The gather step's rows and coords share no byte with the cube, so
        the cube can be freed before SpectrumSet promotes the rows."""
        cube = HyperCube(rng.integers(0, 256, size=(7, 6, 5)).astype(np.uint8))
        mask = ForegroundMask(rng.random((6, 5)) < 0.5)
        rows, coords = gather_foreground(cube, mask)
        assert (rows.dtype, rows.shape) == (np.uint8, (7, mask.count))
        assert (coords.dtype, coords.shape) == (np.int32, (mask.count, 2))
        assert not np.shares_memory(rows, cube.data)
        spectra = extract_spectra(cube, mask)
        assert spectra.vectors.tobytes("A") == rows.T.astype(np.float64).tobytes("A")
        assert spectra.coords.tobytes() == coords.tobytes()

    def test_uint8_rows_are_eight_bit_without_a_scan(self, rng):
        """uint8 input is 8-bit by type; a set with no bands never is. The
        field is derived: a caller can neither pass nor set it."""
        rows = rng.integers(0, 256, size=(7, 20)).astype(np.uint8)
        spectra = SpectrumSet(rows.T, np.zeros((20, 2)))
        assert spectra.eight_bit is True
        assert spectra.vectors.tobytes("A") == rows.T.astype(np.float64).tobytes("A")
        assert SpectrumSet(np.zeros((3, 0), dtype=np.uint8), np.zeros((3, 2))).eight_bit is False
        with pytest.raises(TypeError):
            SpectrumSet(rows.T, np.zeros((20, 2)), eight_bit=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spectra.eight_bit = False

    @pytest.mark.parametrize("case", ["uint8 levels", "uint8 zero", "uint8 255",
                                      "float64 levels", "float64 zero", "float64 255",
                                      "float64 negative zero", "float64 nan"])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_eight_bit_is_uint8_input_with_bands(self, rng, case, order):
        """`eight_bit` is a fact of the input's dtype, never of its values:
        uint8 input with at least one band always is, float64 input never
        is, whatever it holds, and a set with no bands never is."""
        dtype, values = case.split(" ", 1)
        for n, b in ((1, 1), (5, 3), (4103, 33), (3, 0), (0, 2), (0, 0)):
            x = rng.integers(0, 256, size=(n, b)).astype(np.float64)
            if values != "levels":
                x[...] = {"zero": 0.0, "255": 255.0, "negative zero": -0.0,
                          "nan": np.nan}[values]
            spectra = SpectrumSet(np.asarray(x.astype(dtype), order=order), np.zeros((n, 2)))
            assert spectra.eight_bit is (dtype == "uint8" and b > 0), (n, b)
            assert spectra.vectors.tobytes("A") == np.asarray(x, order="F").tobytes("A")

    def test_spectrum_set_rejects_bad_coords(self):
        with pytest.raises(ValueError, match=r"\(N, 2\) coords"):
            SpectrumSet(np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="4 spectra but 3 coordinates"):
            SpectrumSet(np.zeros((4, 3)), np.zeros((3, 2)))


class TestNormalize:
    def test_three_four_five_triangle(self):
        assert scale_to_unit_length(np.array([[3.0, 4.0]])).tolist() == [[0.6, 0.8]]

    def test_rows_have_unit_norm(self, rng):
        unit = scale_to_unit_length(rng.random((40, 7)) + 0.01)
        norms = np.linalg.norm(unit, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    @pytest.mark.parametrize("bands", [1, 2, 3, 8, 9, 33, 129])
    def test_unit_length_bits_follow_row_major_norms(self, rng, bands):
        # The einsum row norm rounds differently on band-major memory; real-valued
        # rows (unlike 8-bit ones, whose squares add exactly) show the difference.
        v = rng.random((300, bands)) * 100.0 + 0.01
        expected = v / np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
        unit = scale_to_unit_length(np.asfortranarray(v))
        assert unit.tobytes() == expected.tobytes()

    def test_unit_length_divides_in_place(self, rng):
        vectors = np.asfortranarray(rng.random((300, 9)) * 100.0 + 0.01)
        expected = scale_to_unit_length(vectors.copy(order="F"))
        assert scale_to_unit_length(vectors) is vectors
        assert vectors.tobytes("A") == expected.tobytes("A")

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroSpectrum) as exc:
            scale_to_unit_length(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert exc.value.row == 1

    def test_unknown_mode_rejected(self, tmp_path):
        """Before any file is read: a source that does not exist is never looked at."""
        with pytest.raises(ValueError, match="unknown normalization 'l2'"):
            foreground(tmp_path / "missing", ThresholdConfig(), normalize="l2")
