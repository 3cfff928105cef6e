"""Deterministic K-means (Lloyd's algorithm) over spectral vectors.

Everything here is reproducible bit-for-bit from the seed, whatever the
number of worker processes:

- initialization draws from the package's SplitMix64 stream;
- assignment ties go to the lowest centroid index, and a sample at NaN
  distance from some centroid goes to the first such (NumPy's argmin
  rule; only a non-finite centroid can make that a non-minimum);
- samples are processed in fixed-size chunks (CHUNK_SIZE) and all
  reductions combine chunks in index order;
- restarts run with seeds seed, seed+1, ... and the lowest-inertia model
  wins, ties to the lowest restart index. A restart whose every observed
  (best label, label) pair names centroids with the same bits as the best
  model's gives every sample the same difference row, so its inertia would
  have the best's bits and lose the tie: it is dropped without its inertia
  pass.

`kmeans_fit(..., workers=N)` splits the restarts over min(N, restarts)
processes where `os.fork` exists: restart r runs in worker r % N, worker 0
being the calling process, and the others are forked after the samples'
kernel is built, so they share its pages until they write. Each restart
computes exactly what it computes alone, and the winner is chosen here,
in restart order, as above, so every output bit is the same for any N.
Each extra process adds its private pages (its labels and temporaries,
about 4 MB on a 512 x 512 page) to the summed memory, while the largest
process's peak barely moves. Without `os.fork`, or with one worker, every
restart runs in the calling process. Everything else runs on the calling
thread.

Distances are squared Euclidean on raw 64-bit floats. The exact kernel,
`_sq_dists`, is NumPy's row sum ((x - c) * (x - c)).sum(axis=-1) on
row-major samples: the differences are laid out (k, m, B) in C order, so
each distance is summed along its contiguous bands.

k-means++ init needs every sample's distance to one picked sample, and
those distances feed sampling sums, so they must have the exact kernel's
bits. On a set built from uint8 rows, which `SpectrumSet.eight_bit` marks
and `extract_spectra` gives, `_sq_dist_to` takes them from one matvec,
|x|^2 + |c|^2 - 2 c.x: sample and point are then 8-bit levels, so every
term and partial sum is an exact integer, whatever order BLAS sums in.
Any other set takes the exact kernel: unit-length samples, and float
input even where it holds 8-bit levels, with the same bits, only slower.
So does the empty-cluster reseed, which measures from a centroid
(`_exact_sq_dist_to`). k-means++ makes one such pass per pick after the
first, k - 1 in all: nothing reads the distances to the last pick.

A Lloyd iteration, `_lloyd_pass`, is one loop over the chunks that uses
BLAS without letting it move a bit either. It takes a label from a BLAS
matmul only where an error bound proves the exact kernel picks the same
centroid, and asks the exact kernel everywhere else, so BLAS's rounding
and thread count decide only which samples fall back. The bound's
comparison, corrected where the exact kernel decided, is the chunk's
one-hot label matrix, and the chunk is summed while it is in cache: a
uint8-built set by one matmul with that matrix, as every partial sum is
then an exact integer, which any summation order gives, and any other
set as NumPy sums each cluster's member rows, row-major. `assign` runs
the same pass without the sums.
"""

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .binarize import SpectrumSet
from .errors import DimensionMismatch, InkscanError, InvalidSpec, TooFewSamples
from .hsi_cube import freeze_array
from .rng import SplitMix64

INIT_KMEANSPP = "kmeanspp"
INIT_RANDOM = "random"

# Changing it changes reduction order.
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
    """The (N, B) samples of one call in fixed chunks, and facts about them.

    It reads the band rows of `x.T`, C-contiguous for SpectrumSet vectors.
    On an `eight_bit` set every partial sum of samples and every matvec term
    is exact, in any order. `sq_norms` is |x|^2 and `norms` |x| per sample.
    """

    def __init__(self, spectra: SpectrumSet):
        if not spectra.bands:
            raise DimensionMismatch("samples have no bands")
        self.x = spectra.vectors
        self.spans = _chunks(spectra.count)
        # N * 255 and 4 B 255^2 stay within 2^53 for any N, B that fit in memory
        self.eight_bit = spectra.eight_bit
        self.sq_norms = np.einsum("ij,ij->j", self.x.T, self.x.T)
        self.norms = np.sqrt(self.sq_norms)


def _sq_dists(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(k, m) squared distances of the samples in (B, m) band rows to each centroid.

    ((x - c) * (x - c)).sum(axis=-1) on C-ordered (k, m, B) differences.
    Each distance is summed on its own, so a sample's distances have the
    same bits whichever columns it shares the call with.
    """
    t = np.subtract(rows.T[None], centroids[:, None, :], order="C")
    t *= t
    return t.sum(axis=-1)


def _sq_dist_to(kern: _Kernel, i: int) -> np.ndarray:
    """Squared distance of every sample to sample i, with the exact kernel's bits.

    On a uint8-built set the matvec path (see the module docstring) forms only
    integers of magnitude at most 4 B 255^2, all exact; like a sum of
    squares, its result is never -0.0. Any other set takes the exact kernel.
    """
    point = kern.x[i]
    if not kern.eight_bit:
        return _exact_sq_dist_to(kern, point)
    out = point @ kern.x.T
    out *= -2.0
    out += kern.sq_norms
    out += point @ point
    return out


def _exact_sq_dist_to(kern: _Kernel, point: np.ndarray) -> np.ndarray:
    """Squared distance of every sample to `point` by the exact kernel."""
    out = np.empty(kern.x.shape[0])
    for s, e in kern.spans:
        out[s:e] = _sq_dists(kern.x.T[:, s:e], point[None, :])[0]
    return out


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN scores fall back
def _lloyd_pass(kern: _Kernel, centroids: np.ndarray, labels: np.ndarray, sum_clusters: bool):
    """Nearest centroid per sample into `labels`, exact ties to the lowest index;
    with `sum_clusters`, returns each cluster's (k, B) sum and sample count.

    A chunk's scores come from one matmul, d = |c|^2 - 2 c.x, the squared
    distance less |x|^2. d + |x|^2 and the exact `_sq_dists` value are both
    within E = gamma_(B+2) (|x| + max|c|)^2 of the true distance, so where
    only one centroid scores within 4E of a sample's lowest score, it is
    the exact kernel's nearest, by a strict margin. The margin used is
    generous: 4 (B + 4) eps (|x| + max|c|)^2, plus (B + 4) smallest normal
    doubles for underflow.

    `near` marks with 1.0 each centroid within the margin, and one product
    [[1 ... 1], [0 ... k-1]] @ near gives each sample's count of such
    centroids and, where that count is 1, its label. Every other sample,
    NaN and inf included, takes the exact kernel, and its column of `near`
    is rewritten to its label's; `near` is then the one-hot matrix a
    uint8-built chunk is summed with. Chunk sums are added in chunk order
    onto 0.0.
    """
    k, bands = centroids.shape
    scale = 4 * (bands + 4) * np.finfo(np.float64).eps
    tiny = (bands + 4) * np.finfo(np.float64).smallest_normal
    minus_2c = -2.0 * centroids  # exact
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[:, None]
    c_max = np.sqrt(c_sq.max())
    tally = np.array([np.ones(k), np.arange(k)])  # count and label rows
    x_t = kern.x.T
    sums = np.zeros((bands, k))
    for s, e in kern.spans:
        rows = x_t[:, s:e]
        d = minus_2c @ rows
        d += c_sq
        best = d.min(axis=0)
        best += (kern.norms[s:e] + c_max) ** 2 * scale + tiny
        near = np.less_equal(d, best, out=d)  # the scores are not read again
        count, lab = tally @ near  # small integers, exact in any order
        labels[s:e] = lab
        unsure = np.flatnonzero(count != 1)
        if unsure.size:
            exact = _sq_dists(x_t[:, s + unsure], centroids).argmin(axis=0)
            labels[s + unsure] = exact
            near[:, unsure] = 0.0
            near[exact, unsure] = 1.0
        if not sum_clusters:
            continue
        if kern.eight_bit:
            sums += rows @ near.T
        else:
            lab = labels[s:e]
            for c in range(k):  # NumPy gathers C-ordered already; the call pins it
                sums[:, c] += np.ascontiguousarray(rows.T[lab == c]).sum(axis=0)
    return (sums.T, np.bincount(labels, minlength=k)) if sum_clusters else None


def _inertia_fixed_order(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    buf = np.empty((min(CHUNK_SIZE, x.shape[0]), x.shape[1]))  # summed row-major
    for s, e in _chunks(x.shape[0]):
        diff = buf[: e - s]
        # labels are range-checked; "clip" lets take write to `out` unbuffered
        np.take(centroids, labels[s:e], axis=0, out=diff, mode="clip")
        np.subtract(x[s:e], diff, out=diff)
        diff *= diff
        total += float(diff.sum())
    return total


def kmeans_init(spectra: SpectrumSet, params: KMeansParams) -> np.ndarray:
    """Seed-determined initial centroids (k x B).

    random: k distinct sample rows, uniform without replacement.
    kmeanspp: first uniform, each next with probability proportional to
    squared distance from the nearest chosen centroid. If every remaining
    point duplicates a chosen centroid (zero total mass), the next index
    is drawn uniformly from the unchosen ones.
    """
    return _init_centroids(_Kernel(spectra), params.k, params.init, params.seed)


def _init_centroids(kern: _Kernel, k: int, init: str, seed: int) -> np.ndarray:
    x = kern.x
    n = x.shape[0]
    if n < k:
        raise TooFewSamples(f"{n} samples for k={k}")
    rng = SplitMix64(seed)

    if init == INIT_RANDOM:
        idx = rng.sample_indices(n, k)
        return x[idx].copy()

    chosen = [rng.below(n)]
    d2 = np.full(n, np.inf)
    while len(chosen) < k:
        np.minimum(d2, _sq_dist_to(kern, chosen[-1]), out=d2)
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
    return x[chosen].copy()


def _as_centroids(centroids, x: np.ndarray) -> np.ndarray:
    """`centroids` as a float64 (k, B) matrix for the B-column samples `x`."""
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or not len(centroids) or centroids.shape[1] != x.shape[1]:
        raise DimensionMismatch(f"centroids of shape {centroids.shape} do not fit "
                                f"{x.shape[1]}-dim samples")
    return centroids


def assign(centroids: np.ndarray, spectra: SpectrumSet, workers: int = 1) -> np.ndarray:
    """Nearest-centroid label per sample; exact ties to the lowest index.

    Runs on the calling thread; `workers` is accepted and changes nothing.
    """
    kern = _Kernel(spectra)
    centroids = _as_centroids(centroids, kern.x)
    labels = np.empty(kern.x.shape[0], dtype=np.int32)
    _lloyd_pass(kern, centroids, labels, sum_clusters=False)
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
    seed+r; the lowest-inertia restart wins, ties to the lowest r. A
    restart that `_ties_best` shows would tie the best so far is dropped
    before its inertia pass, and only a kept restart becomes a model.

    `workers` > 1 runs the restarts in up to that many processes, forked
    where `os.fork` exists (see the module docstring); the model has the
    same bits for any `workers`. A restart that raises there raises here
    with its class and message, the lowest failed restart's, as the
    sequential loop would; a process that ends without its results raises
    InkscanError naming its restarts. Run OpenBLAS on one thread in a fit
    that forks (OPENBLAS_NUM_THREADS=1 before numpy loads, as `segment`
    does): each process restarts its pool otherwise, and together their
    threads outnumber the CPUs, which can make the split slower than one
    process.
    """
    best = None  # _init_centroids rejects too few samples
    kern = _Kernel(spectra)
    for centroids, labels, iterations, converged in _restart_runs(kern, params, workers):
        if best is not None and _ties_best(best, centroids, labels):
            continue
        inertia = _inertia_fixed_order(kern.x, centroids, labels)
        if best is None or inertia < best.inertia:
            best = ClusterModel(centroids=centroids, labels=labels, inertia=inertia,
                                iterations=iterations, converged=converged)
    return best


def _restart_runs(kern, params, workers):
    """`_fit_once`'s result for each restart, in restart order.

    With at most one worker per restart, or without `os.fork`, each runs
    here as it is asked for. Otherwise every result comes from
    `_forked_results` first, and a restart that failed raises its error
    where the sequential loop would have: the lowest failed restart's.
    """
    workers = min(workers, params.restarts)
    if workers < 2 or not hasattr(os, "fork"):
        for r in range(params.restarts):
            yield _fit_once(kern, params, params.seed + r)
        return
    results = _forked_results(kern, params, workers)
    for r in range(params.restarts):  # a worker stops at its first failure
        if isinstance(results[r], BaseException):
            raise results[r]
        yield results[r]


def _fit_share(kern, params, share) -> dict:
    """{r: `_fit_once`'s result} for the restarts r in `share`, in order, up to
    the first that raises, which maps to its exception instead."""
    results = {}
    for r in share:
        try:
            results[r] = _fit_once(kern, params, params.seed + r)
        except Exception as exc:  # raised in restart order by `_restart_runs`
            results[r] = exc
            break
    return results


def _forked_results(kern, params, workers: int) -> dict:
    """`_fit_share` of every restart, split over `workers` processes.

    Worker w runs restarts w, w + workers, ...: worker 0 in this process,
    each other one in a child forked after `kern` was built, which sends
    its share back pickled through a pipe. A child that ends without
    sending it maps each of its restarts to an InkscanError naming them.
    Every child is killed if still running, and reaped, however this
    returns.
    """
    import signal  # about 1 ms to import, paid only by a fit that forks

    children = []  # (pid, read end, share) of each child not yet reaped
    try:
        for w in range(1, workers):
            share = range(w, params.restarts, workers)
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _serve_share(kern, params, share, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), share))
        results = _fit_share(kern, params, range(0, params.restarts, workers))
        while children:
            pid, pipe, share = children[0]
            data = pipe.read()  # before waitpid: a share's labels outgrow the pipe's buffer
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            if code == 0:
                results.update(pickle.loads(data))
                continue
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            held = ", ".join(map(str, share))
            lost = InkscanError(f"the process fitting restarts {held} ended without "
                                f"a result ({how})")
            results.update(dict.fromkeys(share, lost))
        return results
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve_share(kern, params, share, write_fd: int):
    """A forked child's whole life: pickle `_fit_share`'s results into
    `write_fd`, then `os._exit`, 0 only once they are written. It never
    returns into the caller's stack, flushes no buffer it inherited and
    runs no atexit handler."""
    code = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(_fit_share(kern, params, share), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _ties_best(best: ClusterModel, centroids: np.ndarray, labels: np.ndarray) -> bool:
    """Whether every observed (best label, label) pair names centroids of equal bits.

    Then each sample's difference row has the bits it has under the best
    model, so the inertia would too: equal, or the same NaN, it cannot win.
    """
    k = len(centroids)
    # pair codes are below k * k; int64 temporaries where int32 would do
    # raised segment's peak RSS by 0.4 MB
    codes = best.labels.astype(np.int64) if k * k > np.iinfo(np.int32).max else best.labels
    pairs = np.flatnonzero(np.bincount(codes * k + labels))
    return best.centroids[pairs // k].tobytes() == centroids[pairs % k].tobytes()


def _fit_once(kern, params, seed):
    """One seeded Lloyd run: its centroids, labels, iterations and convergence."""
    x = kern.x
    centroids = _init_centroids(kern, params.k, params.init, seed)
    tol2 = params.tolerance * params.tolerance
    labels = np.empty(x.shape[0], dtype=np.int32)
    converged = False
    iterations = 0

    for iterations in range(1, params.max_iterations + 1):
        sums, counts = _lloyd_pass(kern, centroids, labels, sum_clusters=True)

        new_centroids = np.empty_like(centroids)
        occupied = counts > 0
        new_centroids[occupied] = sums[occupied] / counts[occupied, None]
        for c in np.nonzero(~occupied)[0]:  # ascending cluster index
            # first maximum: the lowest sample index among the farthest
            new_centroids[c] = x[int(_exact_sq_dist_to(kern, centroids[c]).argmax())]

        moved = new_centroids - centroids
        max_disp2 = float((moved * moved).sum(axis=1).max())
        centroids = new_centroids

        if max_disp2 <= tol2:
            converged = True
            break

    return centroids, labels, iterations, converged
