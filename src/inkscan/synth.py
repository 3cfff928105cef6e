"""Synthetic multi-ink documents with ground truth, and segmentation scoring.

A synthetic page is laid out as K horizontal sections, one ink each, and
every section is written as rows of axis-aligned strokes 1-3 px thick,
like lines of text. Each ink pixel's spectrum is that ink's signature
plus per-band Gaussian noise; background pixels get the same noise model
around `background_level`. The realized ink pixel count is exact, so the
truth map doubles as a pixel-precise oracle.

All randomness derives from SynthSpec.seed through three child streams
drawn in a fixed order (signatures, layout, noise). The noise is drawn in
tiles of one band by 65,536 pixels, on one thread per CPU; each tile
reads its own window of the band's counter-based stream, so the page's
bytes do not depend on the thread count.
"""

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, TooManyClusters
from .hsi_cube import HyperCube
from .rng import SplitMix64, normal_block
from .segment import SegmentationMap

# Auto-generated signatures keep this floor even at zero noise, so that
# rounding to 8 bits can never collapse two inks onto one spectrum.
MIN_SIGNATURE_SEPARATION = 2.0

_MAX_EXHAUSTIVE_K = 8

# pixels per noise task; a whole 512x512 band per task raised synth's peak RSS
_TILE = 65_536


@dataclass(frozen=True, eq=False)
class SynthSpec:
    """Parameters of one synthetic document."""

    width: int
    height: int
    bands: int
    ink_count: int
    ink_signatures: np.ndarray | None = None
    noise_sigma: float = 0.0
    coverage: float = 0.15
    background_level: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.bands < 1:
            raise InvalidSpec("width, height, and bands must all be >= 1")
        if not 1 <= self.ink_count <= 255:  # truth labels are 8-bit
            raise InvalidSpec(f"ink_count must lie in 1..255, got {self.ink_count}")
        if not 0.0 < self.coverage < 1.0:
            raise InvalidSpec("coverage must lie strictly between 0 and 1")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise InvalidSpec("noise_sigma must be finite and >= 0")
        if not 0 <= self.background_level <= 255:
            raise InvalidSpec("background_level must lie in 0..255")
        if self.ink_signatures is not None:
            sig = np.asarray(self.ink_signatures, dtype=np.float64)
            if sig.shape != (self.ink_count, self.bands):
                raise InvalidSpec(
                    f"signatures must be {self.ink_count}x{self.bands}, got {sig.shape}"
                )
            if sig.min() < 0 or sig.max() > 255:
                raise InvalidSpec("signatures must lie in [0, 255]")
            object.__setattr__(self, "ink_signatures", sig)
        if round(self.width * self.height * self.coverage) < self.ink_count:
            raise InvalidSpec("page too small for every ink to appear")
        if self.height < self.ink_count:
            raise InvalidSpec("row layout needs height >= ink_count")

    @property
    def separation(self) -> float:
        """Minimum pairwise mean absolute difference for auto signatures."""
        return max(8.0 * self.noise_sigma, MIN_SIGNATURE_SEPARATION)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Best-bijection scoring of a predicted map against ground truth."""

    accuracy: float
    mapping: dict
    confusion: np.ndarray


def _bump_curve(bands: int, rng: SplitMix64) -> np.ndarray | None:
    """One smooth signature: 1-3 signed Gaussian bumps, scaled into [60, 255]."""
    xs = np.arange(bands, dtype=np.float64)
    curve = np.zeros(bands)
    for _ in range(1 + rng.below(3)):
        center = rng.next_double() * max(bands - 1, 1)
        width = (0.05 + 0.25 * rng.next_double()) * bands
        amplitude = (0.25 + 0.75 * rng.next_double()) * (1.0 if rng.below(2) else -1.0)
        curve += amplitude * np.exp(-0.5 * ((xs - center) / width) ** 2)
    lo = 60.0 + rng.next_double() * 40.0
    hi = 255.0 - rng.next_double() * 40.0
    if bands == 1:
        return np.array([lo + (hi - lo) * rng.next_double()])
    span = curve.max() - curve.min()
    if span < 1e-9:
        return None  # flat proposal; caller redraws
    return lo + (curve - curve.min()) * ((hi - lo) / span)


_POOL_BATCH = 128
_POOL_GROWTH_ROUNDS = 6
# elements of one (rows, pool, bands) difference block in _mean_abs_distances
_DIST_BLOCK = 1 << 18


def _mean_abs_distances(pool: np.ndarray) -> np.ndarray:
    """(n, n) mean absolute differences of the pool's rows, in row blocks.

    Each row is the same reduction as np.abs(pool[:, None] - pool[None]).mean(axis=2),
    bit for bit, without that (n, n, bands) temporary.
    """
    n, bands = pool.shape
    dist = np.empty((n, n))
    rows = max(1, _DIST_BLOCK // (n * bands))
    for lo in range(0, n, rows):
        diff = pool[lo:lo + rows, None, :] - pool[None, :, :]
        np.abs(diff, out=diff)
        dist[lo:lo + rows] = diff.mean(axis=2)
    return dist


def _select_spread(pool: np.ndarray, k: int) -> tuple[list[int], float]:
    """Indices of k pool curves spreading out the min pairwise separation, and that separation.

    Greedy farthest-point on mean-absolute-difference distances, seeded by
    the farthest pair, then hill-climbed with single swaps. Argmax ties
    resolve to the lowest index, so selection is deterministic. The
    separation of a single curve is infinite.
    """
    dist = _mean_abs_distances(pool)
    if k == 1:
        return [0], np.inf
    i, j = np.unravel_index(int(dist.argmax()), dist.shape)
    chosen = [int(min(i, j)), int(max(i, j))]
    while len(chosen) < k:
        nearest = dist[:, chosen].min(axis=1)
        nearest[chosen] = -1.0
        chosen.append(int(nearest.argmax()))
    improved = True
    while improved:
        improved = False
        for slot in range(k):
            rest = chosen[:slot] + chosen[slot + 1:]
            current = dist[chosen[slot], rest].min()
            candidate_sep = dist[:, rest].min(axis=1)
            candidate_sep[chosen] = -1.0
            best = int(candidate_sep.argmax())
            if candidate_sep[best] > current + 1e-12:
                chosen[slot] = best
                improved = True
    return chosen, min(dist[c, chosen[i + 1:]].min() for i, c in enumerate(chosen[:-1]))


def generate_signatures(spec: SynthSpec, rng: SplitMix64) -> np.ndarray:
    """K signature curves with pairwise mean |difference| >= spec.separation.

    Draws a seeded pool of bump curves and picks the most mutually spread
    K of them, growing the pool until the separation target holds.
    """
    k = spec.ink_count
    pool: list[np.ndarray] = []
    for round_ in range(1, _POOL_GROWTH_ROUNDS + 1):
        attempts = 0
        while len(pool) < _POOL_BATCH * round_ and attempts < 10 * _POOL_BATCH:
            attempts += 1
            cand = _bump_curve(spec.bands, rng)
            if cand is not None:
                pool.append(cand)
        if len(pool) < k:
            continue
        arr = np.asarray(pool)
        chosen, separation = _select_spread(arr, k)
        if separation >= spec.separation:
            return arr[chosen]
    raise InvalidSpec(
        f"could not generate {k} signatures with pairwise mean "
        f"separation >= {spec.separation:.1f} (noise_sigma too large?)"
    )


def _split_budgets(total: int, heights: list[int], width: int) -> list[int]:
    """Per-section ink budgets: proportional to height, >= 1, <= area."""
    page_h = sum(heights)
    budgets = [total * h // page_h for h in heights]
    areas = [h * width for h in heights]
    # hand out the rounding remainder where room is left
    spare = total - sum(budgets)
    i = 0
    while spare > 0:
        if budgets[i % len(budgets)] < areas[i % len(budgets)]:
            budgets[i % len(budgets)] += 1
            spare -= 1
        i += 1
    # every ink must appear at least once; with total >= K the largest
    # budget is >= 2 whenever a zero exists, so donors never hit zero
    while min(budgets) == 0:
        taker = budgets.index(0)
        donor = max(range(len(budgets)), key=lambda j: budgets[j])
        budgets[donor] -= 1
        budgets[taker] += 1
    return budgets


def _draw_section(truth, y0, y1, width, ink, budget, rng):
    """Fill `budget` pixels of `ink` as stroke rows inside rows [y0, y1)."""
    remaining = budget
    y = y0
    while remaining > 0 and y < y1:
        thickness = min(1 + rng.below(3), y1 - y)
        x = rng.below(4)
        while remaining > 0 and x < width:
            length = min(4 + rng.below(9), width - x)
            area = thickness * length
            if area <= remaining:
                truth[y:y + thickness, x:x + length] = ink
                remaining -= area
            else:
                full_rows = remaining // length
                if full_rows:
                    truth[y:y + full_rows, x:x + length] = ink
                leftover = remaining - full_rows * length
                if leftover:
                    truth[y + full_rows, x:x + leftover] = ink
                remaining = 0
            x += length + 1 + rng.below(3)
        y += thickness + 1 + rng.below(2)
    if remaining > 0:
        # dense request: run a gap-free sweep over whatever is still blank
        for yy in range(y0, y1):
            if remaining == 0:
                break
            row = truth[yy, :width]
            blanks = np.nonzero(row == 0)[0]
            take = blanks[:remaining]
            row[take] = ink
            remaining -= take.size
    if remaining > 0:
        raise InvalidSpec("section cannot hold its ink budget")


def _layout_truth(spec: SynthSpec, rng: SplitMix64) -> np.ndarray:
    w, h, k = spec.width, spec.height, spec.ink_count
    total_ink = round(spec.coverage * w * h)
    heights = [h // k + (1 if i < h % k else 0) for i in range(k)]
    budgets = _split_budgets(total_ink, heights, w)
    truth = np.zeros((h, w), dtype=np.int32)
    y = 0
    for ink, (section_h, budget) in enumerate(zip(heights, budgets), start=1):
        _draw_section(truth, y, y + section_h, w, ink, budget, rng)
        y += section_h
    return truth


def synth_document(spec: SynthSpec) -> tuple[HyperCube, SegmentationMap]:
    """Generate (cube, truth map), fully determined by spec.seed.

    Returns
    -------
    cube : HyperCube
        (bands, height, width) intensities: per-ink signature (or
        background_level) plus N(0, noise_sigma) per band, rounded
        half-up and clamped to [0, 255].
    truth : SegmentationMap
        Ink labels 1..K at stroke pixels, 0 elsewhere.
    """
    master = SplitMix64(spec.seed)
    sig_rng = SplitMix64(master.spawn_seed())
    layout_rng = SplitMix64(master.spawn_seed())
    noise_seed = master.spawn_seed()

    if spec.ink_signatures is not None:
        signatures = spec.ink_signatures
    else:
        signatures = generate_signatures(spec, sig_rng)

    truth = _layout_truth(spec, layout_rng)

    # row b holds band b of the background and of each ink
    lut = np.vstack([np.full(spec.bands, float(spec.background_level)), signatures]).T.copy()
    labels = truth.ravel()
    pixels = labels.size
    cube = np.empty((spec.bands, pixels), dtype=np.uint8)
    tasks = [(b, lo, min(lo + _TILE, pixels))
             for b in range(spec.bands) for lo in range(0, pixels, _TILE)]

    def fill(task):
        b, lo, hi = task
        plane = lut[b].take(labels[lo:hi])
        if spec.noise_sigma > 0.0:
            plane += spec.noise_sigma * normal_block(noise_seed, 2 * pixels * b, pixels, lo, hi)
        cube[b, lo:hi] = np.clip(np.floor(plane + 0.5), 0.0, 255.0)

    workers = min(os.cpu_count() or 1, len(tasks))
    if workers == 1:
        for task in tasks:
            fill(task)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, tasks))
    cube = cube.reshape(spec.bands, spec.height, spec.width)
    return HyperCube(cube), SegmentationMap(truth, spec.ink_count)


def confusion_matrix(pred: SegmentationMap, truth: SegmentationMap) -> np.ndarray:
    """(K+1)x(K+1) counts; entry (i, j) = pixels with truth i, predicted j."""
    if (pred.height, pred.width) != (truth.height, truth.width):
        raise DimensionMismatch(
            f"prediction is {pred.width}x{pred.height}, "
            f"truth is {truth.width}x{truth.height}"
        )
    k = max(pred.k, truth.k)
    side = k + 1
    flat = truth.labels.ravel().astype(np.int64) * side + pred.labels.ravel()
    return np.bincount(flat, minlength=side * side).reshape(side, side)


def best_permutation_accuracy(pred: SegmentationMap, truth: SegmentationMap) -> EvalReport:
    """Score `pred` against `truth` over all label bijections.

    Searches every bijection between nonzero predicted and nonzero truth
    labels (the smaller side padded with "unmatched"), maximizing matched
    ink pixels; accuracy is over truth ink pixels only. Ties pick the
    lexicographically smallest mapping tuple (unmatched sorts first).
    With no truth ink pixels the accuracy is defined as 1.0.
    """
    if pred.k > _MAX_EXHAUSTIVE_K or truth.k > _MAX_EXHAUSTIVE_K:
        raise TooManyClusters(
            f"exhaustive search handles k <= {_MAX_EXHAUSTIVE_K}"
        )
    counts = confusion_matrix(pred, truth)
    kp, kt = pred.k, truth.k
    truth_ink = int(counts[1:, :].sum())

    # candidate truth assignments for pred labels 1..kp; 0 = unmatched
    padded = list(range(1, kt + 1)) + [0] * max(0, kp - kt)
    best_tuple = None
    best_matched = -1
    for mapping in sorted(set(itertools.permutations(padded, kp))):
        matched = sum(int(counts[t, p + 1]) for p, t in enumerate(mapping) if t)
        if matched > best_matched:
            best_matched = matched
            best_tuple = mapping

    accuracy = best_matched / truth_ink if truth_ink else 1.0
    mapping = {p + 1: t for p, t in enumerate(best_tuple or ()) if t}
    return EvalReport(accuracy=accuracy, mapping=mapping, confusion=counts)


def format_confusion(counts: np.ndarray) -> str:
    """Plain-text confusion table, truth rows by predicted columns."""
    side = counts.shape[0]
    width = max(5, len(str(int(counts.max(initial=0)))) + 1)
    header = "truth\\pred" + "".join(f"{j:>{width}}" for j in range(side))
    lines = [header]
    for i in range(side):
        lines.append(f"{i:>10}" + "".join(f"{int(v):>{width}}" for v in counts[i]))
    return "\n".join(lines)
