"""Synthetic document generator and the best-permutation scoring oracle."""

import itertools
import math

import numpy as np
import pytest

from inkscan.binarize import ThresholdConfig, extract_spectra, threshold_binary
from inkscan.cluster import KMeansParams, kmeans_fit
from inkscan.errors import DimensionMismatch, InvalidSpec, TooManyClusters
from inkscan.hsi_cube import reference_image
from inkscan import synth
from inkscan.rng import SplitMix64, normal_block
from inkscan.segment import SegmentationMap, build_label_map
from inkscan.synth import (
    EvalReport,
    SynthSpec,
    best_permutation_accuracy,
    confusion_matrix,
    generate_signatures,
    synth_document,
)


def independent_best_accuracy(pred, truth):
    """Oracle: enumerate every injective pred->truth assignment with dicts."""
    pred_labels = list(range(1, pred.k + 1))
    truth_labels = list(range(1, truth.k + 1))
    truth_ink = int((truth.labels > 0).sum())
    if truth_ink == 0:
        return 1.0
    best = 0
    size = min(len(pred_labels), len(truth_labels))
    for chosen_preds in itertools.combinations(pred_labels, size):
        for chosen_truths in itertools.permutations(truth_labels, size):
            matched = 0
            for p, t in zip(chosen_preds, chosen_truths):
                matched += int(((pred.labels == p) & (truth.labels == t)).sum())
            best = max(best, matched)
    return best / truth_ink


def small_spec(**overrides):
    base = dict(width=40, height=30, bands=8, ink_count=3, coverage=0.2, seed=5)
    base.update(overrides)
    return SynthSpec(**base)


class TestSynthDocument:
    def test_deterministic(self):
        spec = small_spec(noise_sigma=4.0)
        cube_a, truth_a = synth_document(spec)
        cube_b, truth_b = synth_document(spec)
        assert cube_a.data.tobytes() == cube_b.data.tobytes()
        assert truth_a.labels.tobytes() == truth_b.labels.tobytes()

    def test_zero_noise_pixels_equal_signatures(self):
        spec = small_spec(noise_sigma=0.0)
        cube, truth = synth_document(spec)
        master = SplitMix64(spec.seed)
        signatures = generate_signatures(spec, SplitMix64(master.spawn_seed()))
        rounded = np.clip(np.floor(signatures + 0.5), 0, 255).astype(np.uint8)
        for ink in range(1, 4):
            ys, xs = np.nonzero(truth.labels == ink)
            assert len(ys) > 0
            for y, x in zip(ys[:5], xs[:5]):
                assert np.array_equal(cube.data[:, y, x], rounded[ink - 1])
        ys, xs = np.nonzero(truth.labels == 0)
        assert (cube.data[:, ys, xs] == 0).all()

    def test_background_level_respected(self):
        spec = small_spec(noise_sigma=0.0, background_level=17)
        cube, truth = synth_document(spec)
        ys, xs = np.nonzero(truth.labels == 0)
        assert (cube.data[:, ys, xs] == 17).all()

    def test_coverage_exact_and_every_ink_present(self):
        for seed in range(10):
            for coverage in (0.05, 0.2, 0.5, 0.85):
                spec = SynthSpec(width=37, height=23, bands=4, ink_count=4,
                                 coverage=coverage, seed=seed)
                _, truth = synth_document(spec)
                ink_pixels = int((truth.labels > 0).sum())
                assert ink_pixels == round(coverage * 37 * 23)
                for ink in range(1, 5):
                    assert (truth.labels == ink).any()
                assert truth.labels.max() <= 4

    def test_strokes_are_thin_rows(self):
        _, truth = synth_document(small_spec(coverage=0.1, seed=3))
        # text-like: every ink row is interrupted, not a solid block
        ink_rows = np.nonzero((truth.labels > 0).any(axis=1))[0]
        assert len(ink_rows) >= 3
        gaps = (truth.labels[ink_rows] == 0).sum(axis=1)
        assert (gaps > 0).mean() > 0.5

    def test_signature_separation_guarantee(self):
        for sigma, seeds in ((0.0, range(6)), (4.0, range(6)), (8.0, range(4))):
            for seed in seeds:
                spec = SynthSpec(width=64, height=64, bands=33, ink_count=5,
                                 noise_sigma=sigma, coverage=0.2, seed=seed)
                master = SplitMix64(spec.seed)
                sigs = generate_signatures(spec, SplitMix64(master.spawn_seed()))
                assert sigs.min() >= 60.0 and sigs.max() <= 255.0
                for i in range(5):
                    for j in range(i + 1, 5):
                        sep = float(np.abs(sigs[i] - sigs[j]).mean())
                        assert sep >= spec.separation, (sigma, seed, i, j)

    def test_unattainable_separation_raises(self):
        # MAD can never exceed 195 inside [60, 255]
        with pytest.raises(InvalidSpec):
            spec = small_spec(noise_sigma=40.0, ink_count=5, bands=33)
            master = SplitMix64(spec.seed)
            generate_signatures(spec, SplitMix64(master.spawn_seed()))

    def test_user_signatures_used_exactly(self):
        signatures = np.tile(np.array([[10.0], [200.0]]), (1, 4))
        spec = SynthSpec(width=10, height=10, bands=4, ink_count=2,
                         ink_signatures=signatures, coverage=0.3, seed=1)
        cube, truth = synth_document(spec)
        for ink, level in ((1, 10), (2, 200)):
            ys, xs = np.nonzero(truth.labels == ink)
            assert (cube.data[:, ys, xs] == level).all()

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            small_spec(ink_count=0)
        with pytest.raises(InvalidSpec):
            small_spec(coverage=1.0)
        with pytest.raises(InvalidSpec):
            small_spec(coverage=0.0)
        with pytest.raises(InvalidSpec):
            small_spec(noise_sigma=-1.0)
        for sigma in (math.nan, math.inf):
            with pytest.raises(InvalidSpec):
                small_spec(noise_sigma=sigma)
        with pytest.raises(InvalidSpec):
            SynthSpec(width=3, height=3, bands=2, ink_count=8, coverage=0.1, seed=0)
        with pytest.raises(InvalidSpec):
            small_spec(ink_signatures=np.full((3, 8), 300.0))
        with pytest.raises(InvalidSpec):
            small_spec(ink_signatures=np.zeros((2, 8)))
        with pytest.raises(InvalidSpec):
            small_spec(background_level=300)

    @pytest.mark.parametrize("field", ["width", "height", "bands"])
    def test_zero_extent_rejected(self, field):
        sizes = {"width": 10, "height": 10, "bands": 2, field: 0}
        with pytest.raises(InvalidSpec, match="must all be >= 1"):
            SynthSpec(**sizes, ink_count=1)

    def test_fewer_rows_than_inks_rejected(self):
        with pytest.raises(InvalidSpec, match="height >= ink_count"):
            SynthSpec(width=100, height=2, bands=4, ink_count=3)

    def test_ink_count_fits_8_bit_labels(self):
        spec = SynthSpec(width=16, height=255, bands=1, ink_count=255, coverage=0.5)
        assert spec.ink_count == 255
        with pytest.raises(InvalidSpec, match="255"):
            SynthSpec(width=16, height=256, bands=1, ink_count=256, coverage=0.5)

    def test_one_band_signatures(self):
        spec = small_spec(bands=1, ink_count=4, noise_sigma=2.0)
        master = SplitMix64(spec.seed)
        sigs = generate_signatures(spec, SplitMix64(master.spawn_seed()))
        assert sigs.shape == (4, 1)
        assert sigs.min() >= 60.0 and sigs.max() <= 255.0
        assert all(abs(float(a - b)) >= spec.separation
                   for a, b in itertools.combinations(sigs[:, 0], 2))
        cube, truth = synth_document(small_spec(bands=1, ink_count=4))
        # noise-free: each ink is one rounded level, at least 2 from the others
        levels = [set(cube.data[0][truth.labels == ink].tolist()) for ink in range(1, 5)]
        assert all(len(level) == 1 for level in levels)
        assert len(set.union(*levels)) == 4

    def test_every_ink_appears_when_a_section_gets_no_budget(self):
        # 1x6 page, 5 inks, 5 ink pixels: the proportional split leaves the
        # last one-row section at 0, so the largest budget donates a pixel
        spec = SynthSpec(width=1, height=6, bands=2, ink_count=5, coverage=0.834, seed=3)
        _, truth = synth_document(spec)
        assert sorted(truth.labels[truth.labels > 0].tolist()) == [1, 2, 3, 4, 5]

    def test_zero_noise_pipeline_is_exact(self):
        spec = small_spec(noise_sigma=0.0, ink_count=4, bands=12, width=60, height=40)
        cube, truth = synth_document(spec)
        ref = reference_image(cube, "mean")
        mask = threshold_binary(ref, ThresholdConfig(40))
        spectra = extract_spectra(cube, mask)
        model = kmeans_fit(spectra, KMeansParams(k=4, seed=0, restarts=3))
        pred = build_label_map(mask, model.labels, 4)
        report = best_permutation_accuracy(pred, truth)
        assert report.accuracy == 1.0



def whole_band_reference(spec, truth):
    """The page made one whole band at a time, as synth_document did before tiling."""
    master = SplitMix64(spec.seed)
    sig_seed, _, noise_seed = (master.spawn_seed() for _ in range(3))
    signatures = spec.ink_signatures
    if signatures is None:
        signatures = generate_signatures(spec, SplitMix64(sig_seed))
    lut = np.vstack([np.full(spec.bands, float(spec.background_level)), signatures])
    pixels = spec.width * spec.height
    cube = np.empty((spec.bands, spec.height, spec.width), dtype=np.uint8)
    for b in range(spec.bands):
        plane = lut[truth, b]
        if spec.noise_sigma > 0.0:
            block = normal_block(noise_seed, 2 * pixels * b, pixels)
            plane = plane + spec.noise_sigma * block.reshape(spec.height, spec.width)
        cube[b] = np.clip(np.floor(plane + 0.5), 0.0, 255.0)
    return cube


class TestTiledNoise:
    # (width, height, inks): 1, 65,535, 65,536, 65,537 and 2 * 65,536 + 3 pixels
    @pytest.mark.parametrize("shape", [(1, 1, 1), (255, 257, 3), (256, 256, 3),
                                       (65_537, 1, 1), (5_243, 25, 3)])
    @pytest.mark.parametrize("sigma,background", [(0.0, 0), (0.0, 40), (3.0, 0), (3.0, 40)])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_tiles_match_whole_bands(self, monkeypatch, shape, sigma, background, cpus):
        width, height, inks = shape
        spec = SynthSpec(width=width, height=height, bands=3, ink_count=inks,
                         noise_sigma=sigma, coverage=0.6, background_level=background,
                         seed=13)
        monkeypatch.setattr(synth.os, "cpu_count", lambda: cpus)
        cube, truth = synth_document(spec)
        expected = whole_band_reference(spec, truth.labels)
        assert cube.data.tobytes() == expected.tobytes()

    def test_row_block_distances_match_the_3d_mean(self, rng):
        # one block, several blocks, and a partial last block; the oracle
        # stays under 3M elements
        for n, bands in ((1, 33), (5, 2), (600, 1), (128, 33), (300, 33), (40, 1000)):
            pool = rng.uniform(60.0, 255.0, (n, bands))
            oracle = np.abs(pool[:, None, :] - pool[None, :, :]).mean(axis=2)
            assert synth._mean_abs_distances(pool).tobytes() == oracle.tobytes(), (n, bands)

class TestConfusion:
    def test_identical_maps_diagonal(self, rng):
        labels = rng.integers(0, 4, size=(6, 6))
        segmap = SegmentationMap(labels, 3)
        counts = confusion_matrix(segmap, segmap)
        assert counts.sum() == 36
        assert (counts == np.diag(np.diag(counts))).all()

    def test_all_background(self):
        segmap = SegmentationMap(np.zeros((4, 5), dtype=int), 2)
        counts = confusion_matrix(segmap, segmap)
        assert counts[0, 0] == 20 and counts.sum() == 20

    def test_total_count_and_margins(self, rng):
        pred = SegmentationMap(rng.integers(0, 4, size=(9, 8)), 3)
        truth = SegmentationMap(rng.integers(0, 5, size=(9, 8)), 4)
        counts = confusion_matrix(pred, truth)
        assert counts.shape == (5, 5)
        assert counts.sum() == 72
        for label in range(5):
            assert counts[label].sum() == int((truth.labels == label).sum())
            assert counts[:, label].sum() == int((pred.labels == label).sum())

    def test_dimension_mismatch(self):
        a = SegmentationMap(np.zeros((2, 2), dtype=int), 1)
        b = SegmentationMap(np.zeros((2, 3), dtype=int), 1)
        with pytest.raises(DimensionMismatch):
            confusion_matrix(a, b)


class TestBestPermutationAccuracy:
    def test_identity(self, rng):
        segmap = SegmentationMap(rng.integers(0, 6, size=(8, 8)), 5)
        report = best_permutation_accuracy(segmap, segmap)
        assert report.accuracy == 1.0
        present = set(np.unique(segmap.labels)) - {0}
        assert all(report.mapping[p] == p for p in present)

    def test_cyclic_permutation_scores_one(self, rng):
        labels = rng.integers(0, 6, size=(10, 10))
        truth = SegmentationMap(labels, 5)
        cycled = np.where(labels > 0, labels % 5 + 1, 0)
        pred = SegmentationMap(cycled, 5)
        report = best_permutation_accuracy(pred, truth)
        assert report.accuracy == 1.0
        for p, t in report.mapping.items():
            assert p == t % 5 + 1

    def test_nine_of_ten_pixels(self):
        # 10 ink pixels over 5 inks; one pixel is mislabeled
        truth_labels = np.array([[1, 1, 2, 2, 3], [3, 4, 4, 5, 5]])
        pred_labels = truth_labels.copy()
        pred_labels[0, 0] = 2  # the single error
        truth = SegmentationMap(truth_labels, 5)
        pred = SegmentationMap(pred_labels, 5)
        report = best_permutation_accuracy(pred, truth)
        assert report.accuracy == 0.9
        assert report.mapping == {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
        assert report.confusion[1, 2] == 1  # truth 1 predicted as 2
        assert independent_best_accuracy(pred, truth) == 0.9

    def test_matches_exhaustive_oracle_on_random_pairs(self, rng):
        for _ in range(50):
            h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            kp, kt = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            pred = SegmentationMap(rng.integers(0, kp + 1, size=(h, w)), kp)
            truth = SegmentationMap(rng.integers(0, kt + 1, size=(h, w)), kt)
            report = best_permutation_accuracy(pred, truth)
            assert report.accuracy == independent_best_accuracy(pred, truth)

    def test_relabeling_invariance(self, rng):
        truth = SegmentationMap(rng.integers(0, 4, size=(8, 8)), 3)
        pred_labels = rng.integers(0, 4, size=(8, 8))
        base = best_permutation_accuracy(SegmentationMap(pred_labels, 3), truth)
        perm = np.array([0, 3, 1, 2])  # relabel predictions
        permuted = SegmentationMap(perm[pred_labels], 3)
        assert best_permutation_accuracy(permuted, truth).accuracy == base.accuracy

    def test_accuracy_consistent_with_confusion(self, rng):
        truth = SegmentationMap(rng.integers(0, 5, size=(9, 9)), 4)
        pred = SegmentationMap(rng.integers(0, 5, size=(9, 9)), 4)
        report = best_permutation_accuracy(pred, truth)
        matched = sum(int(report.confusion[t, p]) for p, t in report.mapping.items())
        truth_ink = int(report.confusion[1:, :].sum())
        assert report.accuracy == matched / truth_ink

    def test_k_above_exhaustive_limit(self):
        segmap = SegmentationMap(np.zeros((2, 2), dtype=int), 9)
        with pytest.raises(TooManyClusters, match="exhaustive search handles k <= 8"):
            best_permutation_accuracy(segmap, segmap)

    def test_no_truth_ink_defined_as_one(self):
        pred = SegmentationMap(np.array([[1, 0]]), 1)
        truth = SegmentationMap(np.zeros((1, 2), dtype=int), 1)
        assert best_permutation_accuracy(pred, truth).accuracy == 1.0
