"""K-means against brute-force oracles: assignment, inertia, optimality,
determinism across runs and worker counts, and the band-major distance
kernel against the broadcast formula it replaces, bit for bit."""

import itertools
import math

import numpy as np
import pytest

from inkscan import cluster
from inkscan.cluster import (
    CHUNK_SIZE,
    INIT_KMEANSPP,
    INIT_RANDOM,
    KMeansParams,
    _Kernel,
    _lloyd_pass,
    _sq_dist_to,
    assign,
    inertia,
    kmeans_fit,
    kmeans_init,
)
from inkscan.errors import DimensionMismatch, InvalidSpec, TooFewSamples
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

    def spy(kern, centroids, labels):
        entries.append((centroids.copy(), labels.copy()))
        return lloyd_pass(kern, centroids, labels)

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


class TestInit:
    def test_k1_returns_a_sample(self, rng):
        points = rng.normal(size=(10, 3))
        spectra = make_spectrum_set(points)
        for mode in (INIT_KMEANSPP, INIT_RANDOM):
            c = kmeans_init(spectra, KMeansParams(k=1, init=mode, seed=4))
            assert any(np.array_equal(c[0], p) for p in points)

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
    """The band-major kernel against the formulas it replaces."""

    @pytest.mark.parametrize("b", [1, 2, 7, 8, 9, 16, 33, 127, 128, 129, 200, 300])
    def test_distances_bit_equal_to_broadcast(self, b):
        gen = np.random.default_rng(b)
        for n in (1, 4095, 4096, 4097, 10000):
            x = gen.normal(size=(n, b)) * 37.3 + 11.1
            centroids = gen.normal(size=(3, b)) * 37.3
            with _Kernel(x, 3) as kern:
                for s, e in kern.spans:
                    got = kern.sq_dists(s, e, centroids)
                    want = broadcast_sq_dists(x[s:e], centroids).T
                    assert np.array_equal(bits(got), bits(want)), (b, n, s)

    @pytest.mark.parametrize("b", [1, 7, 33, 129])
    def test_sq_dist_to_bit_equal_at_any_worker_count(self, b):
        gen = np.random.default_rng(100 + b)
        x = gen.normal(size=(10000, b)) * 5.5
        point = x[17]
        diff = x - point
        want = (diff * diff).sum(axis=1)
        for workers in (1, 2):
            with _Kernel(x, 1, workers) as kern:
                assert np.array_equal(bits(_sq_dist_to(kern, point)), bits(want))

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

    @pytest.mark.parametrize("n", [1, 4095, 4097, 10000])
    @pytest.mark.parametrize("b", [1, 2, 33])
    def test_fused_sums_bit_equal_to_chunked_accumulate(self, n, b):
        gen = np.random.default_rng(n + b)
        x = gen.normal(size=(n, b)) * 19.7
        # the last centroid sits far away, so its cluster stays empty
        centroids = np.vstack([gen.normal(size=(4, b)) * 19.7, np.full((1, b), 1e6)])
        for workers in (1, 2):
            labels = np.empty(n, dtype=np.int32)
            with _Kernel(x, 5, workers) as kern:
                sums, counts = _lloyd_pass(kern, centroids, labels)
            assert labels.tolist() == broadcast_sq_dists(x, centroids).argmin(axis=1).tolist()
            want_sums, want_counts = chunked_accumulate(x, labels, 5)
            assert np.array_equal(bits(sums), bits(want_sums))
            assert np.array_equal(counts, want_counts)
            assert counts[4] == 0

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
