"""Label maps, rendering, label PGM and CSV exports."""

import numpy as np
import pytest

from inkscan import scoring, segment
from inkscan.binarize import ForegroundMask, SpectrumSet
from inkscan.errors import DimensionMismatch, IoFailure, TooManyClusters
from inkscan.segment import (
    _BLOCK_ROWS,
    SegmentationMap,
    build_label_map,
    default_palette,
    export_spectra_csv,
    read_label_pgm,
    render_segmentation,
    write_label_pgm,
    write_rgb_ppm,
)
from inkscan.rng import SplitMix64
from conftest import make_spectrum_set


def mask_of(rows):
    return ForegroundMask(np.asarray(rows, dtype=bool))


class TestBuildLabelMap:
    def test_two_pixels_k5(self):
        mask = mask_of([[1, 0], [0, 1]])
        segmap = build_label_map(mask, np.array([0, 4]), 5)
        assert segmap.labels.tolist() == [[1, 0], [0, 5]]
        assert segmap.k == 5

    def test_empty_labels_all_background(self):
        mask = mask_of(np.zeros((3, 3)))
        segmap = build_label_map(mask, np.zeros(0, dtype=int), 5)
        assert not segmap.labels.any()

    def test_count_mismatch(self):
        mask = mask_of([[1, 1]])
        with pytest.raises(DimensionMismatch, match="1 labels for 2 foreground pixels"):
            build_label_map(mask, np.array([0]), 5)

    @pytest.mark.parametrize("label", [-1, 5])
    def test_label_outside_0_to_k_minus_1(self, label):
        with pytest.raises(ValueError, match=r"cluster labels must lie in 0\.\.4"):
            build_label_map(mask_of([[1, 1]]), np.array([0, label]), 5)

    def test_map_label_above_k(self):
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.2"):
            SegmentationMap(np.array([[3]]), 2)

    def test_map_label_outside_0_to_k_raises_and_never_wraps(self):
        # uint8 would store 256 as 0 and -1 as 255: the check runs before the cast
        for label in (-1, 256, 511):
            with pytest.raises(ValueError, match=r"labels must lie in 0\.\.255"):
                SegmentationMap(np.array([[1, label]], dtype=np.int64), 255)

    def test_label_map_is_uint8(self):
        segmap = build_label_map(mask_of([[1, 0], [1, 1]]), np.array([0, 254, 3], np.int32), 255)
        assert segmap.labels.dtype == np.uint8
        assert segmap.labels.tolist() == [[1, 0], [255, 4]]

    def test_scan_order_round_trip(self, rng):
        flags = rng.random((6, 7)) < 0.5
        flags[0, 0] = True
        mask = ForegroundMask(flags)
        labels = rng.integers(0, 4, size=mask.count)
        segmap = build_label_map(mask, labels, 4)
        recovered = segmap.labels[mask.flags] - 1
        assert recovered.tolist() == labels.tolist()
        assert not segmap.labels[~mask.flags].any()


class TestRender:
    def test_six_distinct_colors_for_k5(self):
        labels = np.array([[0, 1, 2], [3, 4, 5]])
        render = render_segmentation(SegmentationMap(labels, 5), default_palette(5))
        colors = {tuple(px) for px in render.reshape(-1, 3)}
        assert len(colors) == 6

    def test_all_background_is_monochrome(self):
        segmap = SegmentationMap(np.zeros((4, 4), dtype=int), 3)
        render = render_segmentation(segmap, default_palette(3))
        assert {tuple(px) for px in render.reshape(-1, 3)} == {(0, 0, 0)}

    def test_permuted_labels_and_palette_render_identically(self, rng):
        labels = rng.integers(0, 4, size=(5, 5))
        palette = default_palette(3)
        base = render_segmentation(SegmentationMap(labels, 3), palette)

        perm = np.array([3, 1, 2])  # cluster i -> perm[i-1]
        permuted_labels = np.where(labels > 0, perm[labels - 1], 0)
        permuted_palette = palette.copy()
        permuted_palette[perm] = palette[1:]  # cluster i's color moves to row perm[i-1]
        other = render_segmentation(SegmentationMap(permuted_labels, 3), permuted_palette)
        assert np.array_equal(base, other)

    def test_pointwise_change(self):
        labels = np.ones((3, 3), dtype=int)
        base = render_segmentation(SegmentationMap(labels, 2), default_palette(2))
        changed = labels.copy()
        changed[1, 1] = 2
        other = render_segmentation(SegmentationMap(changed, 2), default_palette(2))
        assert (base != other).any(axis=2).sum() == 1

    def test_palette_too_small(self):
        segmap = SegmentationMap(np.array([[3]]), 3)
        with pytest.raises(TooManyClusters, match="palette has 1 cluster colors, map needs 3"):
            render_segmentation(segmap, np.array([(0, 0, 0), (255, 0, 0)], dtype=np.uint8))
        with pytest.raises(TooManyClusters, match="default palette has 8 cluster colors, need 9"):
            default_palette(9)

    def test_default_palette_distinct(self):
        palette = default_palette(8)
        assert palette.shape == (9, 3)
        assert len({tuple(color) for color in palette.tolist()}) == 9

    @pytest.mark.parametrize("palette, message", [
        ([(0, 0, 0, 0), (255, 0, 0, 0)], "table"),  # four channels
        ([0, 255], "table"),
        ([(0, 0, 0), (256, 0, 0)], "table"),
        ([(0, 0, 0), (-1, 0, 0)], "table"),
        ([(0, 0, 0), (float("nan"), 0, 0)], "table"),
        ([(0, 0, 0), (0, 0, 0)], "distinct"),
    ])
    def test_palette_table_checks(self, palette, message):
        segmap = SegmentationMap(np.array([[1]]), 1)
        with pytest.raises(ValueError, match=message):
            render_segmentation(segmap, palette)

    def test_only_rows_in_use_must_be_distinct(self):
        palette = np.array([(0, 0, 0), (255, 0, 0), (255, 0, 0)], dtype=np.uint8)
        render = render_segmentation(SegmentationMap(np.array([[0, 1]]), 1), palette)
        assert render.tolist() == [[[0, 0, 0], [255, 0, 0]]]


class TestLabelPgm:
    def test_round_trip_preserves_labels(self, tmp_path, rng):
        labels = rng.integers(0, 6, size=(7, 5))
        segmap = SegmentationMap(labels, 5)
        write_label_pgm(segmap, tmp_path / "labels.pgm")
        back = read_label_pgm(tmp_path / "labels.pgm")
        assert np.array_equal(back.labels, labels)
        assert back.k == labels.max()

    def test_values_within_k(self, tmp_path):
        segmap = SegmentationMap(np.array([[0, 1, 5], [2, 3, 4]]), 5)
        write_label_pgm(segmap, tmp_path / "l.pgm")
        data = (tmp_path / "l.pgm").read_bytes()
        assert set(data[-6:]) == {0, 1, 2, 3, 4, 5}

    def test_k_over_255_rejected(self):
        # the map itself refuses k > 255, so no such map reaches the writer
        with pytest.raises(TooManyClusters, match="k=256"):
            SegmentationMap(np.array([[256]]), 256)

    def test_read_keeps_the_pgm_uint8_array(self, tmp_path):
        write_label_pgm(SegmentationMap(np.array([[0, 3], [255, 1]]), 255), tmp_path / "l.pgm")
        back = read_label_pgm(tmp_path / "l.pgm")
        assert back.labels.dtype == np.uint8 and not back.labels.flags.writeable
        assert back.labels.tolist() == [[0, 3], [255, 1]] and back.k == 255

    @pytest.mark.parametrize("k", [0, 5, 255])
    def test_numpy_free_reader_matches(self, tmp_path, rng, k):
        """`scoring.read_label_raster`, which `eval` reads with, gives the k and
        label bytes of `read_label_pgm`: k is the highest label present, here
        only at the last pixel, with a level below it absent."""
        labels = rng.integers(0, max(k, 1), size=(37, 23))
        labels[labels == k // 2] = 0
        labels[-1, -1] = k
        write_label_pgm(SegmentationMap(labels, k), tmp_path / "l.pgm")
        raster = scoring.read_label_raster(tmp_path / "l.pgm")
        back = read_label_pgm(tmp_path / "l.pgm")
        assert raster.k == back.k == k
        assert raster.labels == back.labels.tobytes()
        assert (raster.width, raster.height) == (back.width, back.height) == (23, 37)

    @pytest.mark.parametrize("top", [0, 1, 15, 16, 255])
    def test_raster_k_is_the_highest_label(self, tmp_path, rng, top):
        """k is `max(labels)` on both sides of the 0..15 shortcut."""
        labels = rng.integers(0, top + 1, size=(31, 17))
        labels.flat[rng.integers(labels.size)] = top
        write_label_pgm(SegmentationMap(labels, top), tmp_path / "l.pgm")
        raster = scoring.read_label_raster(tmp_path / "l.pgm")
        assert raster.k == max(raster.labels) == top


class TestPpm:
    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(IoFailure):
            write_rgb_ppm(np.zeros((0, 0, 3), dtype=np.uint8), tmp_path / "z.ppm")


def oracle_csv(spectra: SpectrumSet, rows=slice(None)) -> bytes:
    """The CSV by its definition: per-value repr rows, then a newline."""
    header = ",".join(["x", "y"] + [f"b{j}" for j in range(1, spectra.bands + 1)])
    lines = [header] + [f"{x},{y},{','.join(map(repr, values))}"
                        for (x, y), values in zip(spectra.coords[rows].tolist(),
                                                  spectra.vectors[rows].tolist())]
    return ("\n".join(lines) + "\n").encode()


def spy_level_table(monkeypatch) -> list:
    """Record each `_level_table` build in the returned list."""
    builds, level_table = [], segment._level_table
    monkeypatch.setattr(segment, "_level_table",
                        lambda coords: builds.append(1) or level_table(coords))
    return builds


def level_spectra(rng, n, bands, coord_high=600) -> SpectrumSet:
    """A set built from uint8 rows, as extracted from an 8-bit cube."""
    return SpectrumSet(rng.integers(0, 256, size=(n, bands)).astype(np.uint8),
                       rng.integers(0, coord_high, size=(n, 2)))


class TestCsv:
    def test_shape_and_header(self, tmp_path, rng):
        spectra = SpectrumSet(
            rng.integers(0, 256, size=(3, 33)).astype(float),
            np.array([[0, 0], [1, 0], [2, 0]]),
        )
        path = tmp_path / "s.csv"
        export_spectra_csv(spectra, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[:2] == ["x", "y"]
        assert header[2] == "b1" and header[-1] == "b33"
        assert all(len(line.split(",")) == 35 for line in lines)

    def test_sample_limit_at_or_above_n_keeps_all(self, tmp_path, rng):
        spectra = make_spectrum_set(rng.random((5, 2)))
        path = tmp_path / "all.csv"
        assert export_spectra_csv(spectra, path, sample_limit=5) == 5
        assert export_spectra_csv(spectra, path, sample_limit=99) == 5

    def test_sampling_deterministic_and_order_preserving(self, tmp_path, rng):
        spectra = make_spectrum_set(rng.random((50, 3)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_spectra_csv(spectra, a, sample_limit=10, seed=1)
        export_spectra_csv(spectra, b, sample_limit=10, seed=1)
        assert a.read_bytes() == b.read_bytes()
        xs = [int(line.split(",")[0]) for line in a.read_text().splitlines()[1:]]
        assert xs == sorted(xs)  # conftest coords make x the original row index
        assert len(xs) == 10

    def test_reparse_recovers_exact_floats(self, tmp_path, rng):
        vectors = rng.random((20, 4)) * rng.choice([1.0, 1e-7, 1e9], size=(20, 1))
        spectra = make_spectrum_set(vectors)
        path = tmp_path / "rt.csv"
        export_spectra_csv(spectra, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        parsed = np.array([[float(v) for v in row[2:]] for row in rows])
        assert parsed.tobytes() == spectra.vectors.tobytes()

    def test_negative_limit_rejected(self, rng, tmp_path):
        with pytest.raises(ValueError):
            export_spectra_csv(make_spectrum_set(rng.random((3, 2))), tmp_path / "x.csv", -1)

    @pytest.mark.parametrize("bands", [0, 1, 2, 33])
    @pytest.mark.parametrize("n", [0, 1, 4097, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 1])
    def test_levels_match_oracle(self, tmp_path, rng, bands, n, monkeypatch):
        spectra = level_spectra(rng, n or 5, bands)
        limit = 0 if n == 0 else None  # n = 0: the header line alone
        path = tmp_path / "s.csv"
        builds = spy_level_table(monkeypatch)
        assert export_spectra_csv(spectra, path, sample_limit=limit) == n
        expected = oracle_csv(spectra, slice(0, 0) if n == 0 else slice(None))
        assert path.read_bytes() == expected
        assert len(builds) == (bands > 0)  # an 8-bit set builds the table once

    @pytest.mark.parametrize("value", [-0.0, 0.5, 255.0000001, 256.0, -3.0, 2.0 ** 53,
                                       1e16, float("nan"), float("inf"), float("-inf")])
    def test_values_beyond_levels_match_oracle(self, tmp_path, rng, value, monkeypatch):
        builds = spy_level_table(monkeypatch)
        # the odd value alone, in the first of two blocks, and in the second
        for n, row in [(6, 3), (_BLOCK_ROWS + 6, 3), (_BLOCK_ROWS + 6, _BLOCK_ROWS + 3)]:
            spectra = level_spectra(rng, n, 33)
            vectors = spectra.vectors.copy()
            vectors[row, 7] = value
            spectra = SpectrumSet(vectors, spectra.coords)
            assert not spectra.eight_bit
            path = tmp_path / "s.csv"
            export_spectra_csv(spectra, path)
            assert path.read_bytes() == oracle_csv(spectra)
            assert f",{value!r}," in path.read_text()
        assert not builds  # a float set is written by repr

    def test_real_values_across_block_edge_match_oracle(self, tmp_path, rng):
        spectra = make_spectrum_set(rng.random((_BLOCK_ROWS + 5, 3)) * 300)
        path = tmp_path / "s.csv"
        assert export_spectra_csv(spectra, path) == _BLOCK_ROWS + 5
        assert path.read_bytes() == oracle_csv(spectra)

    @pytest.mark.parametrize("coord", [-1, -70000, 256, 70000, 2 ** 31 - 1, -(2 ** 31)])
    def test_any_coordinate_matches_oracle(self, tmp_path, rng, coord):
        spectra = level_spectra(rng, 20, 3)
        coords = spectra.coords.copy()
        coords[4] = (coord, 7)
        coords[9] = (3, coord)
        spectra = SpectrumSet(spectra.vectors.astype(np.uint8), coords)
        assert spectra.eight_bit  # the coordinates' tokens come from the table
        path = tmp_path / "s.csv"
        export_spectra_csv(spectra, path)
        assert path.read_bytes() == oracle_csv(spectra)

    def test_sampled_levels_match_oracle(self, tmp_path, rng):
        spectra = level_spectra(rng, 4097, 33)
        halves = SpectrumSet(spectra.vectors + 0.5, spectra.coords)  # formatted by repr
        path = tmp_path / "s.csv"
        for limit in (1000, 3000):  # within one block, and across blocks
            rows = sorted(SplitMix64(3).sample_indices(4097, limit))
            for sampled in (spectra, halves):
                assert export_spectra_csv(sampled, path, sample_limit=limit, seed=3) == limit
                assert path.read_bytes() == oracle_csv(sampled, rows)

    def test_unwritable_path_is_io_failure(self, tmp_path, rng):
        with pytest.raises(IoFailure):
            export_spectra_csv(level_spectra(rng, 3, 2), tmp_path / "missing" / "s.csv")
