"""Synthetic document generator and the best-permutation scoring oracle."""

import itertools
import math
import threading

import numpy as np
import pytest

from inkscan.binarize import ThresholdConfig, extract_spectra, threshold_binary
from inkscan.cluster import KMeansParams, kmeans_fit
from inkscan.errors import DimensionMismatch, InvalidSpec
from inkscan.hsi_cube import reference_image
from inkscan import scoring, synth
from inkscan.rng import SplitMix64, normal_block, polar_block
from inkscan.segment import (
    EvalReport,
    SegmentationMap,
    best_permutation_accuracy,
    build_label_map,
    confusion_matrix,
)
from inkscan.synth import SynthSpec, generate_signatures, synth_document


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


def bincount_confusion(pred, truth):
    """Oracle: numpy's bincount of truth * side + pred codes, the counter eval once used."""
    side = max(pred.k, truth.k) + 1
    flat = truth.labels.ravel().astype(np.int64) * side + pred.labels.ravel()
    return np.bincount(flat, minlength=side * side).reshape(side, side)


def subset_dp_bijection(pred, truth):
    """Judge: exact subset DP over the truths taken so far, O(k^2 2^k), tie rule included.

    Pred labels 1..kp take a truth each, in order, or stay unmatched (0); with
    kp >= kt every truth must be taken, and with kp < kt no pred stays
    unmatched. Returns the accuracy and the lexicographically smallest optimal
    {pred: truth} mapping tuple, unmatched sorting first.
    """
    counts = bincount_confusion(pred, truth).tolist()
    kp, kt = pred.k, truth.k
    spare = max(0, kp - kt)  # unmatched preds every mapping holds
    taken = [bin(mask).count("1") for mask in range(1 << kt)]
    # most[p][mask]: most pixels preds p + 1..kp match once `mask` is taken; None = no way
    most = [[None] * (1 << kt) for _ in range(kp + 1)]
    most[kp] = [0 if taken[mask] == min(kp, kt) else None for mask in range(1 << kt)]

    def gain(p, mask, t):  # pred p + 1 takes truth t (0 = unmatched); None = no way
        if t == 0:
            return most[p + 1][mask] if p - taken[mask] < spare else None
        if mask >> (t - 1) & 1 or most[p + 1][mask | 1 << (t - 1)] is None:
            return None
        return counts[t][p + 1] + most[p + 1][mask | 1 << (t - 1)]

    for p in range(kp - 1, -1, -1):
        for mask in range(1 << kt):
            if p - spare <= taken[mask] <= p:  # reachable after p preds
                gains = [g for t in range(kt + 1) if (g := gain(p, mask, t)) is not None]
                most[p][mask] = max(gains, default=None)
    mapping, mask = {}, 0
    for p in range(kp):
        t = next(t for t in range(kt + 1) if gain(p, mask, t) == most[p][mask])
        if t:
            mapping[p + 1] = t
            mask |= 1 << (t - 1)
    truth_ink = sum(map(sum, counts[1:]))
    return (most[0][0] / truth_ink if truth_ink else 1.0), mapping


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


class TestSynthBands:
    # 300 x 257 = 77,100 pixels: a whole tile, then a partial one
    SPEC = dict(width=300, height=257, ink_count=3, noise_sigma=3.0, coverage=0.3, seed=7)

    def test_take_gets_each_band_in_order(self, monkeypatch):
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 3)
        spec = SynthSpec(bands=7, **self.SPEC)
        taken = []
        truth = synth.synth_bands(spec, lambda b, plane: taken.append((b, plane.copy())))
        assert [b for b, _ in taken] == list(range(7))
        want = whole_band_reference(spec, truth.labels)
        for b, plane in taken:
            assert plane.shape == (257, 300) and plane.dtype == np.uint8
            assert plane.tobytes() == want[b].tobytes(), b

    def test_exception_from_take_propagates_and_stops_the_pool(self, monkeypatch):
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 3)
        threads = threading.active_count()
        taken = []

        def take(b, plane):
            taken.append(b)
            if b == 1:
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            synth.synth_bands(SynthSpec(bands=9, **self.SPEC), take)
        assert taken == [0, 1]
        assert threading.active_count() == threads

    def test_spec_failure_raises_before_take(self):
        taken = []
        with pytest.raises(InvalidSpec, match="separation"):
            synth.synth_bands(SynthSpec(width=32, height=32, bands=4, ink_count=2,
                                        noise_sigma=1e300), lambda b, plane: taken.append(b))
        assert taken == []


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

    @staticmethod
    def spy_exact(monkeypatch):
        """Sizes of the draws that `synth` recomputes with the float64 cosine."""
        sizes, exact = [], synth._exact_normals

        def spy(radius, angle):
            sizes.append(radius.size)
            return exact(radius, angle)
        monkeypatch.setattr(synth, "_exact_normals", spy)
        return sizes

    def test_float32_path_falls_back_near_rounding_edges(self, monkeypatch):
        spec = SynthSpec(width=300, height=257, bands=5, ink_count=3, noise_sigma=8.0,
                         coverage=0.3, seed=3)
        exact = self.spy_exact(monkeypatch)
        cube, truth = synth_document(spec)
        assert 0 < sum(exact) < 5 * 300 * 257 // 1000
        assert cube.data.tobytes() == whole_band_reference(spec, truth.labels).tobytes()

    # 1e6: the margin exceeds 1/2; 1.7e308: sigma * r overflows to +-inf, so the
    # check itself is NaN
    @pytest.mark.parametrize("sigma", [1e6, 1e300, 1.7e308])
    def test_every_draw_is_exact_once_the_margin_covers_a_step(self, monkeypatch, sigma):
        spec = SynthSpec(width=300, height=230, bands=2, ink_count=2, noise_sigma=sigma,
                         ink_signatures=np.array([[0.0, 255.0], [127.5, 3.0]]),
                         coverage=0.3, background_level=200, seed=4)
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 2)  # tile threads take this errstate
        exact = self.spy_exact(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            cube, truth = synth_document(spec)
            expected = whole_band_reference(spec, truth.labels)
        assert sum(exact) == 2 * 300 * 230
        assert cube.data.tobytes() == expected.tobytes()

    def test_planes_on_rounding_edges_take_the_exact_floor(self):
        """Each plane puts the exact and the float32 sum on either side of 101,
        so every draw whose two cosines differ must be recomputed."""
        sigma, count = 8.0, 200_000
        radius, angle = polar_block(31, 0, count)
        normal = normal_block(31, 0, count)
        fast = radius * np.cos(angle.astype(np.float32)).astype(np.float64)
        plane = 100.5 - sigma * (normal + fast) / 2
        want = np.floor(plane + sigma * normal + 0.5)
        fast_floor = np.floor(plane + sigma * fast + 0.5)
        assert (fast_floor != want).sum() > count // 10
        assert synth._floor_noisy(plane, sigma, radius, angle).tobytes() == want.tobytes()

    def test_non_finite_checks_fall_back(self, monkeypatch):
        exact = self.spy_exact(monkeypatch)
        plane = np.array([np.inf, np.nan, -np.inf, 3.0])
        radius, angle = np.array([1.0, 1.0, 1.0, 0.0]), np.full(4, 0.5)
        got = synth._floor_noisy(plane, 1.0, radius, angle)
        assert exact == [3]
        assert got.tobytes() == np.floor(plane + radius * np.cos(angle) + 0.5).tobytes()

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

    @pytest.mark.parametrize("case", ["random-8-bit", "1x1", "all-background", "disjoint",
                                      "no-background", "every-pair", "zero-one-runs",
                                      "one-row-one-column"])
    def test_pair_counter_matches_bincount_oracle(self, rng, case):
        """The plain-Python counter eval runs, on a label map as eval reads it and as the
        library holds it, equals numpy's bincount for any 8-bit labels.

        The counter deletes background/background pixels as 00 00 01 byte runs, so
        "zero-one-runs" lays 0/1 labels that spell that run across pixel boundaries:
        truth and pred each read 0, 0, 1, ... with pred 1 and 2 pixels behind, and
        every sequence of three 0/1 (truth, pred) pixels."""
        spelled = np.tile([0, 0, 1], 64)
        windows = np.array(list(itertools.product((0, 1), repeat=6))).reshape(-1, 2)
        rows, columns = np.indices((256, 256))
        pairs = {
            "1x1": [(np.array([[7]]), 7, np.array([[0]]), 3)],
            "all-background": [(np.zeros((5, 3), dtype=int), 4, np.zeros((5, 3), dtype=int), 2)],
            "disjoint": [(rng.integers(4, 10, size=(6, 9)), 9,
                          rng.integers(1, 4, size=(6, 9)), 3)],
            "random-8-bit": [(rng.integers(0, kp + 1, size=(h, w)), kp,
                              rng.integers(0, kt + 1, size=(h, w)), kt)
                             for h, w, kp, kt in ((1, 700, 255, 255), (37, 29, 255, 17),
                                                  (64, 64, 3, 255), (9, 11, 200, 254))],
            "no-background": [(rng.integers(1, 6, size=(40, 50)), 5,
                               rng.integers(1, 4, size=(40, 50)), 3)],
            "every-pair": [(columns, 255, rows, 255)],
            "zero-one-runs": [(np.roll(spelled, shift).reshape(8, 24), 1,
                               spelled.reshape(8, 24), 1) for shift in (1, 2)]
                             + [(windows[:, 1].reshape(8, 24), 1, windows[:, 0].reshape(8, 24), 1)],
            "one-row-one-column": [(rng.integers(0, 3, size=shape), 2,
                                    rng.integers(0, 3, size=shape), 2)
                                   for shape in ((1, 301), (301, 1))],
        }
        for pred_labels, kp, truth_labels, kt in pairs[case]:
            pred, truth = SegmentationMap(pred_labels, kp), SegmentationMap(truth_labels, kt)
            oracle = bincount_confusion(pred, truth)
            raster = [scoring.LabelRaster(m.labels.tobytes(), m.width, m.height, m.k)
                      for m in (pred, truth)]
            assert scoring.confusion_counts(*raster) == oracle.tolist()
            got = confusion_matrix(pred, truth)
            assert got.dtype == np.int64 and got.tobytes() == oracle.astype(np.int64).tobytes()

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

    def test_matches_subset_dp_judge_on_tie_heavy_maps(self, rng):
        # at most 15 pixels over up to 169 label pairs: most counts are 0 or 1, so most
        # mappings tie and the judge's tie rule decides
        for _ in range(400):
            kp, kt = (int(k) for k in rng.integers(0, 13, size=2))
            h, w = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            pred = SegmentationMap(rng.integers(0, kp + 1, size=(h, w)), kp)
            truth = SegmentationMap(rng.integers(0, kt + 1, size=(h, w)), kt)
            accuracy, mapping, _ = scoring.best_bijection(pred, truth)
            assert (accuracy, mapping) == subset_dp_bijection(pred, truth), (kp, kt)

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

    @pytest.mark.parametrize("k", [9, 10, 11, 12])
    def test_k_above_eight_matches_subset_dp_judge(self, rng, k):
        for kp, kt in ((k, k), (k, 8), (8, k)):
            truth_labels = rng.integers(0, kt + 1, size=(12, 12))
            noisy = rng.integers(0, kp + 1, size=(12, 12))
            pred_labels = np.where(rng.random((12, 12)) < 0.5, truth_labels % (kp + 1), noisy)
            pred, truth = SegmentationMap(pred_labels, kp), SegmentationMap(truth_labels, kt)
            report = best_permutation_accuracy(pred, truth)
            assert (report.accuracy, report.mapping) == subset_dp_bijection(pred, truth)

    def test_all_255_labels_against_a_relabeled_copy(self, rng):
        # tie terms reach 256**255, past any float: a float step in the solver fails here
        truth = SegmentationMap(np.arange(256).reshape(16, 16), 255)
        relabel = np.concatenate([[0], rng.permutation(np.arange(1, 256))])
        pred = SegmentationMap(relabel[truth.labels], 255)
        accuracy, mapping, _ = scoring.best_bijection(pred, truth)
        assert accuracy == 1.0
        assert mapping == {int(relabel[t]): t for t in range(1, 256)}

    def test_no_truth_ink_defined_as_one(self):
        pred = SegmentationMap(np.array([[1, 0]]), 1)
        truth = SegmentationMap(np.zeros((1, 2), dtype=int), 1)
        assert best_permutation_accuracy(pred, truth).accuracy == 1.0
