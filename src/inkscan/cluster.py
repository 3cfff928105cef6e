"""Deterministic K-means (Lloyd's algorithm) over spectral vectors.

Everything here is reproducible bit-for-bit from the seed:

- initialization draws from the package's SplitMix64 stream;
- assignment ties go to the lowest centroid index;
- samples are processed in fixed-size chunks (CHUNK_SIZE) and all
  reductions combine chunks in index order, so any thread count yields
  byte-identical results to the sequential run;
- restarts run with seeds seed, seed+1, ... and the lowest-inertia model
  wins, ties to the lowest restart index.

Distances are squared Euclidean on raw 64-bit floats, sum((x - c)^2)
rather than the dot-product expansion, with the exact bits of NumPy's
row sum ((x - c) * (x - c)).sum(axis=-1). They are computed band-major,
as `SpectrumSet` stores the samples: a chunk's B band rows minus the k
centroids fill a (B, k, CHUNK_SIZE) scratch array, squared in place, and
the B band planes are added in NumPy's pairwise row-sum order (see
`_fold_bands`), so each add covers k * CHUNK_SIZE distances. Each worker
thread allocates its scratch once, B * k * CHUNK_SIZE * 8 bytes (5.4 MB
at B = 33, k = 5). A fit creates one thread pool for all its restarts;
each Lloyd iteration is one pass over the chunks that assigns labels
and returns the chunk's per-cluster sums and counts, added in chunk order.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .binarize import SpectrumSet
from .errors import DimensionMismatch, EmptyInput, InvalidSpec, TooFewSamples
from .hsi_cube import freeze_array
from .rng import SplitMix64

INIT_KMEANSPP = "kmeanspp"
INIT_RANDOM = "random"

# Fixed regardless of worker count; changing it changes reduction order.
CHUNK_SIZE = 4096


@dataclass(frozen=True)
class KMeansParams:
    """Clustering knobs; every randomized choice is pinned by `seed`."""

    k: int
    init: str = INIT_KMEANSPP
    seed: int = 0
    max_iterations: int = 300
    tolerance: float = 1e-6
    restarts: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise InvalidSpec("k must be >= 1")
        if self.init not in (INIT_KMEANSPP, INIT_RANDOM):
            raise InvalidSpec(f"unknown init {self.init!r}")
        if self.max_iterations < 1:
            raise InvalidSpec("max_iterations must be >= 1")
        if not 0 <= self.tolerance < np.inf:  # also rejects NaN
            raise InvalidSpec(f"tolerance must be finite and >= 0, got {self.tolerance}")
        if self.restarts < 1:
            raise InvalidSpec("restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Fitted model: centroids are the means of their assigned samples.

    `inertia` is the within-cluster sum of squared distances for `labels`
    against `centroids`.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool

    def __post_init__(self):
        freeze_array(self, "centroids", np.float64, 2)
        freeze_array(self, "labels", np.int32, 1)


def _chunks(n: int):
    return [(s, min(s + CHUNK_SIZE, n)) for s in range(0, n, CHUNK_SIZE)]


class _Kernel:
    """The (N, B) samples of one call in fixed chunks, with at most one thread pool.

    It reads the band rows of `x.T`, C-contiguous for SpectrumSet vectors.
    `sq_dists` fills a (B, rows, CHUNK_SIZE) scratch array that each
    thread allocates once and reuses for every chunk it handles.
    """

    def __init__(self, x: np.ndarray, rows: int, workers: int = 1):
        self.x = x
        self.spans = _chunks(x.shape[0])
        self._scratch_shape = (x.shape[1], rows, min(CHUNK_SIZE, x.shape[0]))
        self._local = threading.local()
        self._workers = workers if len(self.spans) > 1 else 1
        self._pool = None

    def __enter__(self):
        if self._workers > 1:
            self._pool = ThreadPoolExecutor(max_workers=self._workers)
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def map(self, fn) -> list:
        """fn(start, end) for every chunk; results in chunk order."""
        if self._pool is None:
            return [fn(s, e) for s, e in self.spans]
        return list(self._pool.map(lambda span: fn(*span), self.spans))

    def sq_dists(self, s: int, e: int, centroids: np.ndarray) -> np.ndarray:
        """(rows, e - s) squared distances of samples s:e to each centroid.

        Bit-equal to ((x - c) * (x - c)).sum(axis=-1) per sample; the
        result is a view into this thread's scratch, valid until its
        next call.
        """
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = np.empty(self._scratch_shape)
        t = scratch[:, : centroids.shape[0], : e - s]
        np.subtract(self.x.T[:, None, s:e], centroids.T[:, :, None], out=t)
        np.multiply(t, t, out=t)
        _fold_bands(t, 0, t.shape[0])
        return t[0]


def _fold_bands(t: np.ndarray, lo: int, n: int) -> None:
    """Sum planes t[lo:lo+n] into t[lo] in NumPy's pairwise row-sum order.

    NumPy adds a row of n doubles sequentially below 8, with eight
    running accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    plus a sequential tail up to 128, and by halving (at a multiple of 8)
    above that. Doing the same plane by plane gives every distance the
    bits of the row-wise sum. (NumPy's short-row sum starts from 0.0;
    squares are never -0.0, so skipping that add changes no bit.)
    """
    if n < 8:
        for i in range(lo + 1, lo + n):
            t[lo] += t[i]
    elif n <= 128:
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            t[lo : lo + 8] += t[i : i + 8]
        for step in (1, 2, 4):
            t[lo : lo + 8 : 2 * step] += t[lo + step : lo + 8 : 2 * step]
        for i in range(end, lo + n):
            t[lo] += t[i]
    else:
        half = n // 2
        half -= half % 8
        _fold_bands(t, lo, half)
        _fold_bands(t, lo + half, n - half)
        t[lo] += t[lo + half]


def _nearest(d2: np.ndarray) -> np.ndarray:
    """Row of the smallest entry in each column; ties to the lowest row.

    Overwrites d2[0] with the column minima.
    """
    best = d2[0]
    labels = np.zeros(d2.shape[1], dtype=np.intp)
    for c in range(1, d2.shape[0]):
        labels[d2[c] < best] = c
        np.minimum(best, d2[c], out=best)
    return labels


def _sq_dist_to(kern: _Kernel, point: np.ndarray) -> np.ndarray:
    out = np.empty(kern.x.shape[0])

    def run(s, e):
        out[s:e] = kern.sq_dists(s, e, point[None, :])[0]

    kern.map(run)
    return out


def _lloyd_pass(kern: _Kernel, centroids: np.ndarray, labels: np.ndarray):
    """Assign every sample (into `labels`); return per-cluster sums and counts.

    Within a chunk, one bincount per band row adds each cluster's members
    in sample order, as NumPy sums a cluster's member rows when B > 1;
    chunk partials are added in chunk order, so the totals do not depend
    on the thread count.
    """
    k, bands = centroids.shape

    def run(s, e):
        lab = _nearest(kern.sq_dists(s, e, centroids))
        labels[s:e] = lab
        rows = kern.x.T[:, s:e]
        if bands == 1:  # NumPy sums a one-column member block pairwise
            sums = np.array([[rows[0, lab == c].sum() for c in range(k)]])
        else:
            sums = np.array([np.bincount(lab, weights=row, minlength=k) for row in rows])
        return sums, np.bincount(lab, minlength=k)

    sums = np.zeros((bands, k))
    counts = np.zeros(k, dtype=np.int64)
    for chunk_sums, chunk_counts in kern.map(run):
        sums += chunk_sums
        counts += chunk_counts
    return sums.T, counts


def _inertia_fixed_order(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for s, e in _chunks(x.shape[0]):
        diff = np.subtract(x[s:e], centroids[labels[s:e]], order="C")  # summed row-major
        total += float((diff * diff).sum())
    return total


def kmeans_init(spectra: SpectrumSet, params: KMeansParams) -> np.ndarray:
    """Seed-determined initial centroids (k x B).

    random: k distinct sample rows, uniform without replacement.
    kmeanspp: first uniform, each next with probability proportional to
    squared distance from the nearest chosen centroid. If every remaining
    point duplicates a chosen centroid (zero total mass), the next index
    is drawn uniformly from the unchosen ones.
    """
    with _Kernel(spectra.vectors, 1) as kern:
        return _init_centroids(kern, params.k, params.init, params.seed)


def _init_centroids(kern: _Kernel, k: int, init: str, seed: int) -> np.ndarray:
    x = kern.x
    n = x.shape[0]
    if n == 0:
        raise EmptyInput("no samples to initialize from")
    if n < k:
        raise TooFewSamples(f"{n} samples for k={k}")
    rng = SplitMix64(seed)

    if init == INIT_RANDOM:
        idx = rng.sample_indices(n, k)
        return x[idx].copy()

    chosen = [rng.below(n)]
    d2 = _sq_dist_to(kern, x[chosen[0]])
    while len(chosen) < k:
        total = float(d2.sum())
        if total > 0.0:
            target = rng.next_double() * total
            cum = np.cumsum(d2)
            next_i = int(np.searchsorted(cum, target, side="right"))
            next_i = min(next_i, n - 1)
        else:
            remaining = sorted(set(range(n)) - set(chosen))
            next_i = remaining[rng.below(len(remaining))]
        chosen.append(next_i)
        d2 = np.minimum(d2, _sq_dist_to(kern, x[next_i]))
    return x[chosen].copy()


def _as_centroids(centroids, x: np.ndarray) -> np.ndarray:
    """`centroids` as a float64 (k, B) matrix for the B-column samples `x`."""
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or not len(centroids) or centroids.shape[1] != x.shape[1]:
        raise DimensionMismatch(f"centroids of shape {centroids.shape} do not fit "
                                f"{x.shape[1]}-dim samples")
    return centroids


def assign(centroids: np.ndarray, spectra: SpectrumSet, workers: int = 1) -> np.ndarray:
    """Nearest-centroid label per sample; exact ties to the lowest index."""
    x = spectra.vectors
    centroids = _as_centroids(centroids, x)
    labels = np.empty(x.shape[0], dtype=np.int32)
    with _Kernel(x, centroids.shape[0], workers) as kern:
        _lloyd_pass(kern, centroids, labels)
    return labels


def inertia(centroids: np.ndarray, spectra: SpectrumSet, labels: np.ndarray) -> float:
    """Within-cluster sum of squares, summed in fixed sample order."""
    labels = np.asarray(labels)
    x = spectra.vectors
    centroids = _as_centroids(centroids, x)
    if labels.shape != (x.shape[0],):
        raise DimensionMismatch(f"{labels.shape[0]} labels for {x.shape[0]} samples")
    if labels.size and (labels.min() < 0 or labels.max() >= centroids.shape[0]):
        raise DimensionMismatch("label out of range for centroid matrix")
    return _inertia_fixed_order(x, centroids, labels)


def kmeans_fit(
    spectra: SpectrumSet,
    params: KMeansParams,
    workers: int = 1,
) -> ClusterModel:
    """Run Lloyd iterations to convergence, best of `params.restarts` runs.

    Each iteration assigns samples to the nearest centroid, recomputes
    centroids as member means, re-seeds any empty cluster with the sample
    farthest from that cluster's previous centroid (ties to the lowest
    sample index), and stops once the maximum centroid displacement drops
    to `tolerance` or `max_iterations` is reached. Restart r uses seed
    seed+r; the lowest-inertia restart wins, ties to the lowest r.
    """
    best = None  # _init_centroids rejects too few samples
    with _Kernel(spectra.vectors, params.k, workers) as kern:
        for restart in range(params.restarts):
            model = _fit_once(kern, params, params.seed + restart)
            if best is None or model.inertia < best.inertia:
                best = model
    return best


def _fit_once(kern, params, seed):
    x = kern.x
    centroids = _init_centroids(kern, params.k, params.init, seed)
    tol2 = params.tolerance * params.tolerance
    labels = np.empty(x.shape[0], dtype=np.int32)
    converged = False
    iterations = 0

    for iterations in range(1, params.max_iterations + 1):
        sums, counts = _lloyd_pass(kern, centroids, labels)

        new_centroids = np.empty_like(centroids)
        occupied = counts > 0
        new_centroids[occupied] = sums[occupied] / counts[occupied, None]
        for c in np.nonzero(~occupied)[0]:  # ascending cluster index
            # first maximum: the lowest sample index among the farthest
            new_centroids[c] = x[int(_sq_dist_to(kern, centroids[c]).argmax())]

        moved = new_centroids - centroids
        max_disp2 = float((moved * moved).sum(axis=1).max())
        centroids = new_centroids

        if max_disp2 <= tol2:
            converged = True
            break

    return ClusterModel(
        centroids=centroids,
        labels=labels,
        inertia=_inertia_fixed_order(x, centroids, labels),
        iterations=iterations,
        converged=converged,
    )
