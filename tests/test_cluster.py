"""K-means against brute-force oracles: assignment, inertia, optimality,
determinism across runs and worker counts, and the distance kernel and
cluster sums against the broadcast formulas they compute, bit for bit."""

import dataclasses
import itertools
import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from inkscan import cluster, segment
from inkscan.binarize import (
    SpectrumSet,
    ThresholdConfig,
    extract_spectra,
    normalize_spectra,
    threshold_binary,
)
from inkscan.cluster import (
    CHUNK_SIZE,
    INIT_KMEANSPP,
    INIT_RANDOM,
    KMeansParams,
    _Kernel,
    _exact_sq_dist_to,
    _inertia_fixed_order,
    _lloyd_pass,
    _sq_dist_to,
    _sq_dists,
    assign,
    inertia,
    kmeans_fit,
    kmeans_init,
)
from inkscan.errors import DimensionMismatch, InkscanError, InvalidSpec, TooFewSamples
from inkscan.hsi_cube import reference_image
from inkscan.rng import SplitMix64
from inkscan.synth import SynthSpec, synth_document
from conftest import make_spectrum_set


def lloyd_trace(spectra, params, monkeypatch):
    """Fit one restart; return (model, inertia after each Lloyd iteration).

    Wraps `_lloyd_pass` to copy the centroids and labels it starts from:
    those of the previous iteration after its centroid update. The last
    iteration's value is the model's own inertia.
    """
    assert params.restarts == 1
    entries = []
    lloyd_pass = cluster._lloyd_pass

    def spy(kern, centroids, labels, sum_clusters):
        entries.append((centroids.copy(), labels.copy()))
        return lloyd_pass(kern, centroids, labels, sum_clusters)

    with monkeypatch.context() as patch:
        patch.setattr(cluster, "_lloyd_pass", spy)
        model = kmeans_fit(spectra, params)
    trace = [inertia(c, spectra, labels) for c, labels in entries[1:]]
    return model, trace + [model.inertia]


def brute_force_assign(points, centroids):
    """Naive nearest-centroid labels; ties to the lowest centroid index."""
    labels = []
    for p in points:
        best_c, best_d = 0, None
        for c, centroid in enumerate(centroids):
            d = 0.0
            for a, b in zip(p, centroid):
                d += (a - b) * (a - b)
            if best_d is None or d < best_d:
                best_c, best_d = c, d
        labels.append(best_c)
    return labels


def broadcast_sq_dists(x, centroids):
    """The (N, k) distance formula the kernel must match bit for bit."""
    diff = x[:, None, :] - centroids[None, :, :]
    return (diff * diff).sum(axis=2)


def chunked_accumulate(x, labels, k):
    """Per-cluster sums and counts: member rows summed chunk by chunk."""
    sums = np.zeros((k, x.shape[1]), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    for s in range(0, x.shape[0], CHUNK_SIZE):
        lab = labels[s:s + CHUNK_SIZE]
        chunk = x[s:s + CHUNK_SIZE]
        counts += np.bincount(lab, minlength=k)
        for c in range(k):
            members = chunk[lab == c]
            if members.shape[0]:
                sums[c] += members.sum(axis=0)
    return sums, counts


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def partition_wcss(points, groups):
    """WCSS of an explicit partition, centroids at group means."""
    total = 0.0
    for group in groups:
        members = [points[i] for i in group]
        mean = [sum(col) / len(col) for col in zip(*members)]
        for m in members:
            total += sum((a - b) ** 2 for a, b in zip(m, mean))
    return total


def best_two_partition(points):
    """Exhaustive optimum over all 2-partitions with both sides non-empty."""
    n = len(points)
    best = None
    for bits in range(1, 2 ** (n - 1)):  # last point stays in group a: halves the scan
        a = [i for i in range(n) if ((bits >> i) & 1) == 0]
        b = [i for i in range(n) if ((bits >> i) & 1) == 1]
        if not a or not b:
            continue
        wcss = partition_wcss(points, [a, b])
        if best is None or wcss < best:
            best = wcss
    return best


class TestFit:
    def test_two_separated_groups_exact(self):
        points = [(0.0, 0.0), (0.0, 1.0), (10.0, 10.0), (10.0, 11.0)]
        spectra = make_spectrum_set(points)
        model = kmeans_fit(spectra, KMeansParams(k=2, seed=0, restarts=4))
        got = sorted(map(tuple, model.centroids.tolist()))
        assert got == [(0.0, 0.5), (10.0, 10.5)]
        assert model.inertia == 1.0
        # brute force over both-sided partitions confirms 1.0 is optimal
        assert best_two_partition(points) == 1.0
        assert model.converged

    def test_k1_closed_form(self, rng):
        points = rng.normal(size=(30, 4))
        spectra = make_spectrum_set(points)
        model = kmeans_fit(spectra, KMeansParams(k=1, seed=3))
        assert np.allclose(model.centroids[0], points.mean(axis=0), rtol=1e-12)
        assert model.labels.tolist() == [0] * 30
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert math.isclose(model.inertia, expected, rel_tol=1e-12)
        assert model.iterations <= 2

    def test_n_equals_k_perfect_fit(self, rng):
        points = rng.normal(size=(6, 3)) * 10
        spectra = make_spectrum_set(points)
        model = kmeans_fit(spectra, KMeansParams(k=6, seed=1))
        assert model.inertia == 0.0
        assert sorted(model.labels.tolist()) == list(range(6))
        assert model.iterations <= 2
        assert sorted(map(tuple, model.centroids.tolist())) == sorted(map(tuple, points.tolist()))

    def test_too_few_and_empty(self):
        with pytest.raises(TooFewSamples):
            kmeans_fit(make_spectrum_set([[1.0, 2.0]]), KMeansParams(k=2))
        with pytest.raises(TooFewSamples, match="0 samples"):
            kmeans_fit(make_spectrum_set(np.zeros((0, 3))), KMeansParams(k=1))

    def test_zero_bands_rejected_by_every_entry_point(self):
        spectra = make_spectrum_set(np.zeros((5, 0)))
        calls = [lambda: kmeans_fit(spectra, KMeansParams(k=2)),
                 lambda: kmeans_init(spectra, KMeansParams(k=2)),
                 lambda: kmeans_init(spectra, KMeansParams(k=2, init=INIT_RANDOM)),
                 lambda: assign(np.zeros((2, 0)), spectra),
                 lambda: assign(np.zeros((2, 3)), spectra)]
        for call in calls:
            with pytest.raises(DimensionMismatch, match="^samples have no bands$"):
                call()

    def test_fixed_point_after_convergence(self, rng):
        points = rng.normal(size=(50, 3))
        spectra = make_spectrum_set(points)
        model = kmeans_fit(spectra, KMeansParams(k=3, seed=5, tolerance=0.0))
        assert model.converged
        again = assign(model.centroids, spectra)
        assert np.array_equal(again, model.labels)
        for c in range(3):
            members = points[model.labels == c]
            if len(members):
                assert np.allclose(model.centroids[c], members.mean(axis=0), rtol=1e-9)

    def test_restarts_pick_lowest_inertia(self, rng):
        points = rng.normal(size=(40, 2))
        spectra = make_spectrum_set(points)
        single = [
            kmeans_fit(spectra, KMeansParams(k=3, seed=seed, init=INIT_RANDOM))
            for seed in range(6)
        ]
        multi = kmeans_fit(spectra, KMeansParams(k=3, seed=0, init=INIT_RANDOM, restarts=6))
        assert multi.inertia == min(m.inertia for m in single)

    def test_empty_cluster_repair_on_duplicates(self):
        # three duplicate rows put two centroids on the same point; the
        # starved cluster must be re-seeded, not crash or divide by zero
        points = [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (5.0, 5.0), (9.0, 0.0)]
        spectra = make_spectrum_set(points)
        for seed in range(8):
            model = kmeans_fit(spectra, KMeansParams(k=3, seed=seed, init=INIT_RANDOM))
            assert model.labels.max() < 3
            check = inertia(model.centroids, spectra, model.labels)
            assert math.isclose(check, model.inertia, rel_tol=1e-9, abs_tol=1e-12)

    def test_inertia_trace_non_increasing(self, rng, monkeypatch):
        for trial in range(30):
            n = int(rng.integers(5, 120))
            b = int(rng.integers(1, 8))
            k = int(rng.integers(1, min(n, 6) + 1))
            points = rng.normal(size=(n, b)) * rng.uniform(0.5, 20)
            model, trace = lloyd_trace(
                make_spectrum_set(points),
                KMeansParams(k=k, seed=trial, init=INIT_RANDOM),
                monkeypatch,
            )
            assert len(trace) == model.iterations
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier * (1 + 1e-9) + 1e-12

    def test_byte_identical_across_runs_and_workers(self, rng):
        points = rng.normal(size=(900, 5))
        spectra = make_spectrum_set(points)
        params = KMeansParams(k=4, seed=11, restarts=3)
        models = [
            kmeans_fit(spectra, params),
            kmeans_fit(spectra, params),
            kmeans_fit(spectra, params, workers=4),
        ]
        first = models[0]
        for other in models[1:]:
            assert first.centroids.tobytes() == other.centroids.tobytes()
            assert first.labels.tobytes() == other.labels.tobytes()
            assert first.inertia == other.inertia
            assert first.iterations == other.iterations
            assert first.converged == other.converged

    def test_label_permutation_leaves_inertia_unchanged(self, rng):
        points = rng.normal(size=(60, 3))
        spectra = make_spectrum_set(points)
        model = kmeans_fit(spectra, KMeansParams(k=4, seed=2))
        perm = np.array([2, 0, 3, 1])
        permuted_centroids = model.centroids[np.argsort(perm)]
        permuted_labels = perm[model.labels]
        assert inertia(permuted_centroids, spectra, permuted_labels) == model.inertia

    def test_scale_equivariance_power_of_two(self, rng):
        points = rng.normal(size=(80, 4))
        spectra = make_spectrum_set(points)
        scaled = make_spectrum_set(points * 4.0)
        params = KMeansParams(k=3, seed=9, tolerance=0.0, max_iterations=200)
        base = kmeans_fit(spectra, params)
        big = kmeans_fit(scaled, params)
        assert np.array_equal(base.labels, big.labels)
        assert np.array_equal(base.centroids * 4.0, big.centroids)
        assert big.inertia == base.inertia * 16.0

    def test_small_instance_optimality(self, rng):
        hits = 0
        trials = 100
        for trial in range(trials):
            n = int(rng.integers(2, 9))
            b = int(rng.integers(1, 4))
            points = rng.uniform(-5, 5, size=(n, b))
            model = kmeans_fit(
                make_spectrum_set(points),
                KMeansParams(k=2, seed=trial, restarts=10),
            )
            best = best_two_partition([tuple(p) for p in points.tolist()])
            assert model.inertia >= best - 1e-9 * max(best, 1.0)
            if model.inertia <= best * (1 + 1e-9) + 1e-12:
                hits += 1
        assert hits >= 95


def ink_page_spectra(signatures=None):
    """Foreground spectra of a 5-ink, 33-band page at sigma 8: the easy
    acceptance recipe, or with the given ink signatures."""
    size = 512 if signatures is None else 128
    cube, _ = synth_document(SynthSpec(width=size, height=size, bands=33, ink_count=5,
                                       ink_signatures=signatures, noise_sigma=8.0, seed=1))
    return extract_spectra(cube, threshold_binary(reference_image(cube), ThresholdConfig()))


@pytest.fixture(scope="module")
def restart_cases():
    """{name: (spectra, params)} for the restart oracle: restarts that end at
    one partition, at different ones, through empty-cluster reseeds, and
    with non-finite centroids."""
    gen = np.random.default_rng(7)
    close = np.round(120.0 + gen.normal(0.0, 3.0, size=(5, 33)), 3)  # inks a few levels apart
    rows = gen.integers(0, 256, size=(33, 6)).astype(np.uint8)[:, gen.integers(0, 6, 5000)]
    nan_points = gen.normal(size=(300, 4)) * 5.0
    nan_points[::37, 1] = np.nan
    inf_points = gen.normal(size=(300, 4)) * 5.0
    inf_points[5, 2] = np.inf
    return {
        "easy": (ink_page_spectra(), KMeansParams(k=5, restarts=5)),
        "close": (ink_page_spectra(close), KMeansParams(k=5, restarts=5, max_iterations=12)),
        "reseed": (SpectrumSet(rows.T, np.zeros((5000, 2))),
                   KMeansParams(k=8, seed=3, restarts=5, max_iterations=20)),
        "nan": (make_spectrum_set(nan_points), KMeansParams(k=3, restarts=5, max_iterations=20)),
        "inf": (make_spectrum_set(inf_points), KMeansParams(k=3, restarts=5, max_iterations=20)),
    }


class TestRestarts:
    """`kmeans_fit` drops a restart that would tie the best so far without
    its inertia pass; the winner is still the one the per-restart loop
    picks: one single-restart fit per seed, lowest inertia, ties to the
    lowest restart."""

    @pytest.mark.parametrize("case", ["easy", "close", "reseed", "nan", "inf"])
    @np.errstate(invalid="ignore")  # non-finite centroids
    def test_winner_matches_per_restart_loop(self, restart_cases, case, monkeypatch):
        spectra, params = restart_cases[case]
        fits = [kmeans_fit(spectra, KMeansParams(k=params.k, seed=params.seed + r, restarts=1,
                                                 max_iterations=params.max_iterations))
                for r in range(params.restarts)]
        want = fits[0]
        for fit in fits[1:]:
            if fit.inertia < want.inertia:
                want = fit
        if case == "reseed":
            reseeds, exact_sq_dist_to = [], cluster._exact_sq_dist_to
            monkeypatch.setattr(cluster, "_exact_sq_dist_to",
                                lambda *args: reseeds.append(1) or exact_sq_dist_to(*args))
        got = kmeans_fit(spectra, params)
        if case == "reseed":
            assert reseeds
        if case in ("nan", "inf"):
            assert not np.isfinite(got.centroids).all()
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert bits(got.inertia) == bits(want.inertia)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)

    @pytest.mark.parametrize("case, passes", [("easy", 1), ("close", 5)])
    def test_inertia_passes(self, restart_cases, case, passes, monkeypatch):
        """The easy page's five restarts end at one partition, so four skip
        their pass; the close page's end at five, and none does. There a
        later restart wins, so a fit that kept only the first would fail."""
        spectra, params = restart_cases[case]
        calls, inertia_pass = [], cluster._inertia_fixed_order
        monkeypatch.setattr(cluster, "_inertia_fixed_order",
                            lambda *args: calls.append(1) or inertia_pass(*args))
        got = kmeans_fit(spectra, params)
        assert len(calls) == passes
        first = kmeans_fit(spectra, KMeansParams(k=params.k, restarts=1,
                                                 max_iterations=params.max_iterations))
        assert (got.inertia < first.inertia) == (case == "close")

    def test_tie_rule_reads_observed_pairs_only(self, rng):
        """A tie is every observed (best label, label) pair naming centroids
        of the same bits: label numbers may differ, a centroid no sample
        holds may differ, and one last bit in a held centroid breaks it."""
        spectra = make_spectrum_set(rng.normal(size=(200, 3)))
        best = kmeans_fit(spectra, KMeansParams(k=4, seed=1))
        perm = np.array([2, 0, 3, 1])
        centroids = np.empty_like(best.centroids)
        centroids[perm] = best.centroids
        labels = perm[best.labels].astype(np.int32)
        assert cluster._ties_best(best, centroids, labels)
        extra = np.vstack([centroids, [[9.0, 9.0, 9.0]]])  # held by no sample
        assert cluster._ties_best(best, extra, labels)
        held = perm[best.labels[0]]
        centroids[held, 0] = np.nextafter(centroids[held, 0], np.inf)
        assert not cluster._ties_best(best, centroids, labels)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerSplit:
    """`kmeans_fit(..., workers=w)` runs restart r in process r % w, forked
    children included, and picks the winner here in restart order: every
    bit is the one-process fit's, a failure is the one the sequential loop
    raises, and no child outlives the fit."""

    @pytest.mark.parametrize("case", ["easy", "close", "unit-length", "reseed"])
    def test_same_bits_at_any_worker_count(self, restart_cases, case, monkeypatch):
        """8-bit pages where later restarts tie the best (easy) or not
        (close), real-valued samples, and restarts that reseed empty
        clusters; 6 workers is one more than the restarts."""
        spectra, params = restart_cases["close" if case == "unit-length" else case]
        if case == "unit-length":
            spectra = normalize_spectra(spectra, "unit-length")
        if case == "reseed":  # it reseeds from the first pass on; 5 passes keep it quick
            params = dataclasses.replace(params, max_iterations=5)
        calls, inertia_pass = [], cluster._inertia_fixed_order
        monkeypatch.setattr(cluster, "_inertia_fixed_order",
                            lambda *args: calls.append(1) or inertia_pass(*args))
        fits = []
        for workers in (1, 2, 3, 5, 6):
            fits.append(kmeans_fit(spectra, params, workers=workers))
            assert_no_child_left()
        first = fits[0]
        for other in fits[1:]:
            assert other.centroids.tobytes() == first.centroids.tobytes()
            assert other.labels.tobytes() == first.labels.tobytes()
            assert bits(other.inertia) == bits(first.inertia)
            assert (other.iterations, other.converged) == (first.iterations, first.converged)
        if case == "easy":  # four restarts tie the first, here as in the one-process fit
            assert len(calls) == 5

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failed_restart_raises(self, restart_cases, workers, monkeypatch):
        """Seeds 1 and 3 fail; at 3 workers seed 3 fails in this process and
        seed 1 in a child, and seed 1's error is the one raised."""
        spectra, params = restart_cases["close"]
        fit_once = cluster._fit_once

        def failing(kern, params, seed):
            if seed in (1, 3):
                raise RuntimeError(f"restart with seed {seed} failed")
            return fit_once(kern, params, seed)

        monkeypatch.setattr(cluster, "_fit_once", failing)
        with pytest.raises(RuntimeError, match=r"^restart with seed 1 failed$"):
            kmeans_fit(spectra, params, workers=workers)
        assert_no_child_left()

    def test_child_that_dies_names_its_restarts(self, restart_cases, monkeypatch):
        spectra, params = restart_cases["close"]
        fit_once = cluster._fit_once

        def killed_at_seed_1(kern, params, seed):
            if seed == 1:  # in the child that holds restarts 1 and 3
                os.kill(os.getpid(), signal.SIGKILL)
            return fit_once(kern, params, seed)

        monkeypatch.setattr(cluster, "_fit_once", killed_at_seed_1)
        message = r"^the process fitting restarts 1, 3 ended without a result \(signal 9\)$"
        with pytest.raises(InkscanError, match=message):
            kmeans_fit(spectra, params, workers=2)
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_running_children(self, restart_cases, monkeypatch):
        spectra, params = restart_cases["close"]
        parent = os.getpid()

        def interrupted_here_stuck_there(kern, params, seed):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(cluster, "_fit_once", interrupted_here_stuck_there)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            kmeans_fit(spectra, params, workers=3)
        assert_no_child_left()
        assert time.monotonic() - started < 30


class TestInit:
    def test_k1_returns_a_sample(self, rng):
        points = rng.normal(size=(10, 3))
        spectra = make_spectrum_set(points)
        for mode in (INIT_KMEANSPP, INIT_RANDOM):
            c = kmeans_init(spectra, KMeansParams(k=1, init=mode, seed=4))
            assert any(np.array_equal(c[0], p) for p in points)

    def test_k1_kmeanspp_makes_no_distance_pass(self, rng, monkeypatch):
        """The first pick is uniform, and no later pick reads distances to it."""
        points = rng.normal(size=(10, 3))
        spectra = make_spectrum_set(points)
        monkeypatch.setattr(cluster, "_sq_dist_to", lambda *args: pytest.fail("distance pass"))
        for seed in range(5):
            c = kmeans_init(spectra, KMeansParams(k=1, init=INIT_KMEANSPP, seed=seed))
            assert c.tobytes() == points[[SplitMix64(seed).below(10)]].tobytes()

    def test_n_equals_k_is_permutation(self, rng):
        points = rng.normal(size=(5, 2)) * 3
        spectra = make_spectrum_set(points)
        for mode in (INIT_KMEANSPP, INIT_RANDOM):
            c = kmeans_init(spectra, KMeansParams(k=5, init=mode, seed=8))
            assert sorted(map(tuple, c.tolist())) == sorted(map(tuple, points.tolist()))

    def test_deterministic_per_seed(self, rng):
        points = rng.normal(size=(40, 3))
        spectra = make_spectrum_set(points)
        for mode in (INIT_KMEANSPP, INIT_RANDOM):
            a = kmeans_init(spectra, KMeansParams(k=4, init=mode, seed=123))
            b = kmeans_init(spectra, KMeansParams(k=4, init=mode, seed=123))
            assert a.tobytes() == b.tobytes()

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            kmeans_init(make_spectrum_set([[0.0], [1.0]]), KMeansParams(k=3))

    def test_kmeanspp_prefers_far_points(self):
        # two tight groups far apart: the second centroid lands in the
        # other group for any seed, since nearly all D^2 mass sits there
        points = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (100.0, 100.0), (100.1, 100.0)]
        spectra = make_spectrum_set(points)
        for seed in range(20):
            c = kmeans_init(spectra, KMeansParams(k=2, init=INIT_KMEANSPP, seed=seed))
            sides = {p[0] > 50 for p in c.tolist()}
            assert sides == {True, False}

    def test_kmeanspp_zero_mass_draws_from_unchosen(self):
        # two distinct values, k = 4: once both are chosen every D^2 is 0,
        # so the last two centres come from the uniform fallback. Bands
        # 1..3 tag each row's index in the sign bits of zeros, which leave
        # every distance unchanged, so the chosen indices can be read back.
        points = np.zeros((6, 4))
        points[:, 0] = np.arange(6) % 2
        for i in range(6):
            for bit in range(3):
                if i >> bit & 1:
                    points[i, 1 + bit] = -0.0
        spectra = make_spectrum_set(points)
        pinned = {0: [1, 2, 5, 3], 1: [5, 4, 2, 3], 2: [4, 5, 3, 0],
                  3: [3, 4, 1, 5], 4: [4, 5, 3, 0], 5: [2, 5, 4, 3]}
        for seed, expected in pinned.items():
            c = kmeans_init(spectra, KMeansParams(k=4, seed=seed))
            chosen = (np.signbit(c[:, 1:]) @ [1, 2, 4]).tolist()
            assert chosen == expected, seed
            assert c[:, 0].tolist() == [i % 2 for i in chosen]
            assert expected[0] % 2 != expected[1] % 2  # D^2 mass picks the other value
            assert len(set(expected)) == 4  # the fallback skips chosen rows


class TestAssignAndInertia:
    def test_sample_on_centroid(self):
        centroids = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
        spectra = make_spectrum_set([[9.0, 1.0]])
        assert assign(centroids, spectra).tolist() == [2]

    def test_equidistant_tie_to_lowest(self):
        centroids = np.array([[0.0], [2.0]])
        spectra = make_spectrum_set([[1.0]])
        assert assign(centroids, spectra).tolist() == [0]

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 60))
            b = int(rng.integers(1, 9))
            k = int(rng.integers(1, 7))
            points = rng.normal(size=(n, b))
            centroids = rng.normal(size=(k, b))
            got = assign(centroids, make_spectrum_set(points))
            expected = brute_force_assign(points.tolist(), centroids.tolist())
            assert got.tolist() == expected

    def test_assign_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assign(np.zeros((2, 3)), make_spectrum_set([[1.0, 2.0]]))

    @pytest.mark.parametrize("centroids", [np.zeros((2, 3)), np.zeros(2), np.float64(0.0)])
    def test_assign_and_inertia_share_centroid_check(self, centroids):
        spectra = make_spectrum_set([[1.0, 2.0]])
        with pytest.raises(DimensionMismatch) as from_assign:
            assign(centroids, spectra)
        with pytest.raises(DimensionMismatch) as from_inertia:
            inertia(centroids, spectra, np.array([0]))
        assert str(from_assign.value) == str(from_inertia.value)
        assert "2-dim samples" in str(from_assign.value)

    def test_empty_centroid_matrix_rejected(self):
        for points, labels in (([[1.0, 2.0]], [0]), (np.zeros((0, 2)), [])):
            spectra = make_spectrum_set(points)
            with pytest.raises(DimensionMismatch, match=r"\(0, 2\)"):
                assign(np.zeros((0, 2)), spectra)
            with pytest.raises(DimensionMismatch, match=r"\(0, 2\)"):
                inertia(np.zeros((0, 2)), spectra, np.array(labels, dtype=np.int32))

    def test_inertia_zero_when_samples_sit_on_centroids(self):
        centroids = np.array([[1.0, 1.0], [2.0, 2.0]])
        spectra = make_spectrum_set([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        assert inertia(centroids, spectra, np.array([0, 1, 0])) == 0.0

    def test_inertia_three_four_five(self):
        centroids = np.array([[3.0, 4.0]])
        spectra = make_spectrum_set([[0.0, 0.0]])
        assert inertia(centroids, spectra, np.array([0])) == 25.0

    def test_inertia_matches_independent_resum(self, rng):
        for _ in range(20):
            n, b, k = int(rng.integers(1, 80)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
            points = rng.normal(size=(n, b))
            centroids = rng.normal(size=(k, b))
            labels = rng.integers(0, k, size=n)
            got = inertia(centroids, make_spectrum_set(points), labels)
            expected = math.fsum(
                sum((points[i][j] - centroids[labels[i]][j]) ** 2 for j in range(b))
                for i in range(n)
            )
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-15)

    def test_inertia_label_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            inertia(np.zeros((2, 2)), make_spectrum_set([[0.0, 0.0]]), np.array([5]))

    def test_inertia_label_count_mismatch(self):
        with pytest.raises(DimensionMismatch, match="3 labels for 2 samples"):
            inertia(np.zeros((2, 2)), make_spectrum_set(np.zeros((2, 2))), np.zeros(3, int))

    def test_inertia_pass_holds_one_chunk_buffer(self):
        """Each chunk's centroids are gathered into the pass's one (CHUNK_SIZE, B)
        buffer and the samples subtracted in place, with no temporary beside it."""
        gen = np.random.default_rng(7)
        n, b, k = 2 * CHUNK_SIZE + 5, 33, 5
        x = make_spectrum_set(gen.integers(0, 256, size=(n, b))).vectors
        centroids = gen.random((k, b)) * 255
        labels = gen.integers(0, k, size=n)
        tracemalloc.start()
        try:
            _inertia_fixed_order(x, centroids, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * CHUNK_SIZE * b * x.itemsize


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            KMeansParams(k=0)
        with pytest.raises(ValueError):
            KMeansParams(k=1, init="plusplus")
        with pytest.raises(ValueError):
            KMeansParams(k=1, max_iterations=0)
        with pytest.raises(ValueError):
            KMeansParams(k=1, tolerance=-1.0)
        with pytest.raises(ValueError):
            KMeansParams(k=1, tolerance=math.nan)
        with pytest.raises(ValueError):
            KMeansParams(k=1, restarts=0)

    def test_invalid_params_are_invalid_spec(self):
        for bad in ({"k": 0}, {"init": "plusplus"}, {"max_iterations": 0},
                    {"tolerance": -1.0}, {"tolerance": math.nan}, {"restarts": 0}):
            with pytest.raises(InvalidSpec):
                KMeansParams(**{"k": 1, **bad})
        with pytest.raises(InvalidSpec, match="finite") as info:
            KMeansParams(k=1, tolerance=float("inf"))
        assert isinstance(info.value, ValueError)


class TestKernel:
    """The kernel's distances and sums against the NumPy formulas they compute."""

    @pytest.mark.parametrize("b", [1, 2, 7, 8, 9, 16, 33, 127, 128, 129, 200, 300])
    def test_distances_bit_equal_to_broadcast(self, b):
        """On a chunk's band rows of an F-ordered array, as `SpectrumSet` stores
        samples, and on a gathered column set, as the label step passes them."""
        gen = np.random.default_rng(b)
        for n in (1, 4095, 4096, 4097, 10000):
            x = gen.normal(size=(n, b)) * 37.3 + 11.1  # row-major, as the formula sums
            x_t = np.asfortranarray(x).T
            centroids = gen.normal(size=(3, b)) * 37.3
            for s, e in _Kernel(make_spectrum_set(x)).spans:
                got = _sq_dists(x_t[:, s:e], centroids)
                want = broadcast_sq_dists(x[s:e], centroids).T
                assert np.array_equal(bits(got), bits(want)), (b, n, s)
                cols = s + np.flatnonzero(gen.random(e - s) < 0.3)
                got = _sq_dists(x_t[:, cols], centroids)
                want = broadcast_sq_dists(x[cols], centroids).T
                assert np.array_equal(bits(got), bits(want)), (b, n, s, "gathered")

    @pytest.mark.parametrize("b", [1, 7, 33, 129])
    def test_sq_dist_to_bit_equal_at_any_worker_count(self, b):
        gen = np.random.default_rng(100 + b)
        x = gen.normal(size=(10000, b)) * 5.5
        diff = x - x[17]
        want = (diff * diff).sum(axis=1)
        kern = _Kernel(make_spectrum_set(x))
        for _ in range(2):  # a second pass on the same kernel keeps the bits
            assert np.array_equal(bits(_sq_dist_to(kern, 17)), bits(want))

    def test_integer_ties_go_to_lowest_index(self, rng):
        points = rng.integers(-3, 4, size=(5000, 4)).astype(np.float64)
        base = rng.integers(-3, 4, size=(3, 4)).astype(np.float64)
        centroids = np.vstack([base, base[::-1]])  # every centroid appears twice
        expected = brute_force_assign(points.tolist(), centroids.tolist())
        spectra = make_spectrum_set(points)
        for workers in (1, 2):
            got = assign(centroids, spectra, workers=workers)
            assert got.tolist() == expected
        assert set(expected) <= {0, 1, 2}

    def test_nan_distance_goes_to_first_nan_centroid(self):
        """A sample at NaN distance from some centroid takes the first such
        centroid, as NumPy's argmin does, even past a finite distance."""
        spectra = make_spectrum_set([[1.0, 1.0], [0.0, 0.0], [np.nan, 0.0]])
        centroids = [[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0], [np.nan, 1.0]]
        assert assign(centroids, spectra).tolist() == [1, 1, 0]

    @pytest.mark.parametrize("n", [1, 4095, 4097, 10000])
    @pytest.mark.parametrize("b", [1, 2, 8, 9, 33, 129, 256])
    def test_fused_sums_bit_equal_to_chunked_accumulate(self, n, b):
        gen = np.random.default_rng(n + b)
        x = gen.normal(size=(n, b)) * 19.7
        # the last centroid sits far away, so its cluster stays empty
        centroids = np.vstack([gen.normal(size=(4, b)) * 19.7, np.full((1, b), 1e6)])
        labels = np.empty(n, dtype=np.int32)
        sums, counts = _lloyd_pass(_Kernel(make_spectrum_set(x)), centroids, labels, True)
        assert labels.tolist() == broadcast_sq_dists(x, centroids).argmin(axis=1).tolist()
        want_sums, want_counts = chunked_accumulate(x, labels, 5)
        assert np.array_equal(bits(sums), bits(want_sums))
        assert np.array_equal(counts, want_counts)
        assert counts[4] == 0

    @pytest.mark.parametrize("b", [1, 2, 7, 8, 33, 129, 200])
    def test_certified_labels_match_exact_oracles(self, b):
        """Near-duplicate centroids leave BLAS scores unable to rank most rows.

        The label step must still return the exact kernel's labels: the
        broadcast formula's argmin, and for B < 8, where NumPy's row sum
        adds sequentially as brute force does, `brute_force_assign` too
        (from 8 bands NumPy sums pairwise, and on these near ties its bits
        and brute force's pick different centroids).
        """
        gen = np.random.default_rng(b)
        for scale in (1e-3, 1.0, 1e3, 1e6):
            c = gen.normal(size=b) * 10 * scale
            centroids = np.vstack([c, np.nextafter(c, np.inf), c + 1e-9 * scale, c,
                                   c + 1e3 * scale])
            x = c + gen.normal(size=(5000, b)) * scale
            x[0, 0], x[1, 0], x[2, b - 1] = np.nan, np.inf, -np.inf
            want = np.concatenate([broadcast_sq_dists(x[s:s + 1000], centroids).argmin(axis=1)
                                   for s in range(0, len(x), 1000)])
            if b < 8:
                assert want.tolist() == brute_force_assign(x.tolist(), centroids.tolist())
            spectra = make_spectrum_set(x)
            for workers in (1, 2):
                got = assign(centroids, spectra, workers=workers)
                assert np.array_equal(got, want), (scale, workers)

    @pytest.mark.parametrize("case", ["8-bit", "negative", "negative zero", "b1", "at 2^53",
                                      "past 2^53"])
    def test_exact_sums_bit_equal_to_chunked_accumulate(self, case):
        """A set built from uint8 takes the one-hot matmul, the empty set too;
        the bits stay the member-row sums'. Float sets take those sums. The
        labels are the pass's own: centroids at the first k - 1 samples, and
        one far away whose cluster stays empty."""
        gen = np.random.default_rng(7)
        n, b, k = 10000, 33, 5
        if case == "8-bit":
            x = gen.integers(0, 256, size=(n, b)).astype(np.float64)
        elif case == "negative":
            x = gen.integers(-1000, 1001, size=(n, b)).astype(np.float64)
        elif case == "negative zero":
            x = gen.integers(-2, 3, size=(n, b)).astype(np.float64)
            x[x == 0] = -0.0
            x[:, 3] = -0.0  # every cluster's band-3 sum adds only -0.0
        elif case == "b1":
            b = 1
            x = gen.integers(-255, 256, size=(n, b)).astype(np.float64)
        else:
            # N * max|x| at 2^53 or just past it, every sample in cluster 0: past it,
            # the sums leave the exact integers and only sample order gives the oracle's bits
            peak = 2**53 // n + (case == "past 2^53")
            x = peak - gen.integers(0, 2, size=(n, b)).astype(np.float64)
            x[0] = peak
        if "2^53" in case:  # the other centroids sit far away
            centroids = np.vstack([x[:1], np.full((k - 1, b), -1e15)])
        else:
            centroids = np.vstack([x[:k - 1], np.full((1, b), 1e6)])
        for m in (n,) if "2^53" in case else (0, 1, 255, n):
            for layout in (np.asfortranarray(x[:m]), x[:m]):  # both stored band-major
                if case == "8-bit":
                    layout = layout.astype(np.uint8)  # keeps the layout
                kern = _Kernel(make_spectrum_set(layout))
                assert kern.eight_bit == (case == "8-bit"), (case, m)
                labels = np.empty(m, dtype=np.int32)
                sums, counts = _lloyd_pass(kern, centroids, labels, True)
                want = broadcast_sq_dists(x[:m], centroids).argmin(axis=1)
                assert labels.tolist() == want.tolist(), (case, m)
                want_sums, want_counts = chunked_accumulate(x[:m], labels, k)
                assert np.array_equal(bits(sums), bits(want_sums)), (case, m)
                assert np.array_equal(counts, want_counts)
                assert counts[k - 1] == 0
                if "2^53" in case:
                    assert counts[0] == m

    @pytest.mark.parametrize("b", [1, 2, 7, 8, 33])
    def test_eight_bit_fallback_sums_bit_equal_to_chunked_accumulate(self, b):
        """Every centroid appears twice, so no label of a uint8-built set is
        certain and every sample takes the exact kernel; its column of the
        one-hot sum matrix must be rewritten to its label's. The far
        centroid's cluster stays empty."""
        gen = np.random.default_rng(40 + b)
        x = gen.integers(0, 256, size=(5000, b)).astype(np.uint8)
        base = x[:3].astype(np.float64)
        centroids = np.vstack([base, base[::-1], np.full((1, b), 1e6)])
        kern = _Kernel(make_spectrum_set(x))
        assert kern.eight_bit
        labels = np.empty(len(x), dtype=np.int32)
        sums, counts = _lloyd_pass(kern, centroids, labels, True)
        x = x.astype(np.float64)
        want = broadcast_sq_dists(x, centroids).argmin(axis=1)
        assert labels.tolist() == want.tolist()
        if b < 8:
            assert want.tolist() == brute_force_assign(x.tolist(), centroids.tolist())
        want_sums, want_counts = chunked_accumulate(x, labels, len(centroids))
        assert np.array_equal(bits(sums), bits(want_sums))
        assert np.array_equal(counts, want_counts)
        assert counts[-1] == 0 and set(labels.tolist()) <= {0, 1, 2}

    def test_fit_identical_at_one_two_three_workers(self, rng):
        points = rng.normal(size=(10000, 6)) * 3.0
        spectra = make_spectrum_set(points)
        params = KMeansParams(k=4, seed=7, restarts=2, max_iterations=15)
        first, *others = [kmeans_fit(spectra, params, workers=w) for w in (1, 2, 3)]
        for other in others:
            assert first.centroids.tobytes() == other.centroids.tobytes()
            assert first.labels.tobytes() == other.labels.tobytes()
            assert repr(first.inertia) == repr(other.inertia)
            assert first.iterations == other.iterations
            assert first.converged == other.converged

    @pytest.mark.parametrize("b", [1, 2, 7, 8, 33, 129, 200])
    @pytest.mark.parametrize("case", ["8-bit", "negative", "negative zero", "at bound",
                                      "past bound", "far past bound"])
    def test_matvec_distances_bit_equal_to_exact_kernel(self, b, case, monkeypatch):
        """On a set built from uint8 the distances to any sample take one matvec,
        with the exact kernel's bits; any other set (signed, -0.0, past 255) takes
        the exact kernel itself, which gives the same bits even where a
        matvec's would not, far past 4 B max|x|^2 = 2^53. A reseed measures
        from a centroid by the exact kernel, always: from an integral-valued
        centroid of an 8-bit set, with the matvec's bits."""
        gen = np.random.default_rng(b)
        n = CHUNK_SIZE + 1
        if case == "8-bit":
            x = gen.integers(0, 256, size=(n, b)).astype(np.float64)
        elif case == "negative":
            x = gen.integers(-1000, 1001, size=(n, b)).astype(np.float64)
        elif case == "negative zero":
            x = gen.integers(-2, 3, size=(n, b)).astype(np.float64)
            x[x == 0] = -0.0
        elif case == "far past bound":
            x = gen.integers(-2**40, 2**40, size=(n, b)).astype(np.float64)
        else:
            # rows of either sign near +-peak, opposite rows about 4 B peak^2 = 2^53 apart
            peak = math.isqrt(2**53 // (4 * b)) + (case == "past bound")
            sign = gen.choice([-1.0, 1.0], size=(n, 1))
            x = sign * (peak - gen.integers(0, 4, size=(n, b)))
            x[0] = peak
        # band-major, as a fit reads it
        kern = _Kernel(make_spectrum_set(x.astype(np.uint8) if case == "8-bit" else x))
        assert kern.eight_bit == (case == "8-bit")

        def exact(point):
            return np.concatenate([_sq_dists(kern.x.T[:, s:e], point[None, :])[0]
                                   for s, e in kern.spans])

        samples = [0, 1, n - 1, int(gen.integers(n))]
        top = np.abs(x).max()
        points = [np.zeros(b), np.full(b, -0.0), x[0], -x[0], x[0] + 0.5, np.full(b, top + 1),
                  np.round(x.mean(axis=0))]
        want_samples = [exact(x[i]) for i in samples]
        want_points = [exact(p) for p in points]
        calls = []
        monkeypatch.setattr(cluster, "_sq_dists",
                            lambda *args: calls.append(1) or _sq_dists(*args))
        for i, w in zip(samples, want_samples):
            calls.clear()
            assert np.array_equal(bits(_sq_dist_to(kern, i)), bits(w)), i
            assert len(calls) == (0 if kern.eight_bit else len(kern.spans)), i
        for i, (point, w) in enumerate(zip(points, want_points)):
            calls.clear()
            got = _exact_sq_dist_to(kern, point)
            assert np.array_equal(bits(got), bits(w)), i
            assert len(calls) == len(kern.spans), i
            if kern.eight_bit and i in (0, 2, 6):  # integral-valued, as a centroid may be
                matvec = point @ kern.x.T * -2.0 + kern.sq_norms + point @ point
                assert np.array_equal(bits(got), bits(matvec)), i

    def test_kmeanspp_init_takes_no_exact_pass_on_8bit_samples(self, monkeypatch):
        """The matvec path cannot silently vanish: on 8-bit samples k-means++
        init calls the exact kernel never, on unit-length rows once per chunk
        and pick after the first (the distances to the last pick go unread)."""
        gen = np.random.default_rng(3)
        centers = gen.integers(0, 256, size=(5, 33))
        x = centers[gen.integers(0, 5, size=10000)] + gen.integers(-8, 9, size=(10000, 33))
        spectra = make_spectrum_set(np.clip(x, 0, 255).astype(np.uint8))
        calls, init_calls = [], []
        init_centroids = cluster._init_centroids

        def spy(kern, *args):
            before = len(calls)
            centroids = init_centroids(kern, *args)
            init_calls.append(len(calls) - before)
            return centroids

        monkeypatch.setattr(cluster, "_sq_dists",
                            lambda *args: calls.append(1) or _sq_dists(*args))
        monkeypatch.setattr(cluster, "_init_centroids", spy)
        params = KMeansParams(k=5, seed=0, restarts=2)
        kmeans_fit(spectra, params)
        assert init_calls == [0, 0]
        init_calls.clear()
        kmeans_fit(normalize_spectra(spectra, "unit-length"), params)
        assert init_calls == [4 * 3, 4 * 3]  # 4 picks after the first x 3 chunks

    def test_reseeding_fit_on_uint8_rows_matches_exact_kernel_fit(self, monkeypatch):
        """Six distinct 8-bit spectra, many times over, with k = 8: clusters
        go empty and are reseeded from their centroids by the exact kernel.
        The fit has the bytes of the fit of the same rows as float64, which
        takes the exact kernel and the member-row sums throughout."""
        gen = np.random.default_rng(19)
        for b in (1, 2, 7, 33):
            rows = gen.integers(0, 256, size=(b, 6)).astype(np.uint8)[:, gen.integers(0, 6, 5000)]
            spectra = SpectrumSet(rows.T, np.zeros((5000, 2)))
            params = KMeansParams(k=8, seed=b, restarts=2, max_iterations=20)
            reseeds = []
            exact_sq_dist_to = cluster._exact_sq_dist_to
            with monkeypatch.context() as patch:
                patch.setattr(cluster, "_exact_sq_dist_to",
                              lambda *args: reseeds.append(1) or exact_sq_dist_to(*args))
                got = kmeans_fit(spectra, params)
            assert reseeds, b
            floats = SpectrumSet(rows.T.astype(np.float64), spectra.coords)
            assert spectra.eight_bit and not floats.eight_bit
            want = kmeans_fit(floats, params)
            assert got.centroids.tobytes() == want.centroids.tobytes(), b
            assert got.labels.tobytes() == want.labels.tobytes(), b
            assert repr(got.inertia) == repr(want.inertia), b
            assert (got.iterations, got.converged) == (want.iterations, want.converged), b

    def test_extracted_spectra_take_every_fast_path(self, tmp_path, monkeypatch):
        """What `segment` and `spectra` run on by default: the extract_spectra
        set of an 8-bit page is `eight_bit` by its uint8 rows, so the
        kernel's matvec and matmul and the CSV's token table apply, the
        table built once per export; its unit-length rows take the exact
        paths. The same values as float64 take the general paths and write
        the same CSV bytes, whole and sampled."""
        cube, _ = synth_document(SynthSpec(width=128, height=96, bands=9, ink_count=3,
                                           noise_sigma=4.0, seed=1))
        tables = []
        level_table = segment._level_table
        monkeypatch.setattr(segment, "_level_table",
                            lambda coords: tables.append(1) or level_table(coords))
        spectra = extract_spectra(cube, threshold_binary(reference_image(cube),
                                                         ThresholdConfig()))
        assert spectra.eight_bit and _Kernel(spectra).eight_bit
        floats = SpectrumSet(spectra.vectors, spectra.coords)
        assert not floats.eight_bit
        for limit in (None, 1200):  # either fills more than one block
            fast, general = tmp_path / "fast.csv", tmp_path / "general.csv"
            segment.export_spectra_csv(spectra, fast, sample_limit=limit, seed=3)
            segment.export_spectra_csv(floats, general, sample_limit=limit, seed=3)
            assert fast.read_bytes() == general.read_bytes(), limit
        assert spectra.count > 1200 > segment._BLOCK_ROWS and tables == [1, 1]
        assert not _Kernel(normalize_spectra(spectra, "unit-length")).eight_bit
