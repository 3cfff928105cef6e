"""Label-map scoring in plain Python: pair counts, the best bijection, the table.

`eval` scores with this module, `netpbm.read_raster` and `errors` alone, so
it never loads numpy. `segment.confusion_matrix`,
`segment.best_permutation_accuracy` and `segment.format_confusion` run these
same functions and hand their counts back as ndarrays.

A map here is anything with `width`, `height`, `k` and `labels`, a
C-contiguous buffer of row-major 8-bit labels in 0..k: a
`segment.SegmentationMap`, or the `LabelRaster` that `read_label_raster`
reads.
"""

import itertools
import sys
from collections import Counter
from typing import NamedTuple

from . import netpbm
from .errors import DimensionMismatch, TooManyClusters

MAX_EXHAUSTIVE_K = 8  # clusters best_bijection scores


class LabelRaster(NamedTuple):
    """A label PGM's row-major labels as bytes; k is the highest label present."""

    labels: bytes
    width: int
    height: int
    k: int


def read_label_raster(path) -> LabelRaster:
    """Read a label PGM without numpy, as `segment.read_label_pgm` reads it."""
    width, height, raster = netpbm.read_raster(path, b"P5")
    labels = bytes(raster)
    # one C scan per absent level from the top, not a Python step per pixel
    k = next((level for level in range(255, 0, -1) if labels.find(level) >= 0), 0)
    return LabelRaster(labels, width, height, k)


def confusion_counts(pred, truth) -> list[list[int]]:
    """(K+1) x (K+1) counts, K the larger k; entry [i][j] = pixels with truth i, predicted j.

    Each pixel's two labels are packed into one 16-bit code and the codes
    counted, so the counts are exact for any 8-bit labels.
    """
    if (pred.height, pred.width) != (truth.height, truth.width):
        raise DimensionMismatch(
            f"prediction is {pred.width}x{pred.height}, "
            f"truth is {truth.width}x{truth.height}"
        )
    side = max(pred.k, truth.k) + 1
    codes = bytearray(2 * pred.width * pred.height)
    codes[0::2] = memoryview(truth.labels).cast("B")
    codes[1::2] = memoryview(pred.labels).cast("B")
    counts = [[0] * side for _ in range(side)]
    for code, n in Counter(memoryview(codes).cast("H")).items():
        t, p = code.to_bytes(2, sys.byteorder)  # the code's two bytes in memory order
        counts[t][p] = n
    return counts


def best_bijection(pred, truth) -> tuple[float, dict, list[list[int]]]:
    """Score `pred` against `truth` over all label bijections.

    Searches every bijection between nonzero predicted and nonzero truth
    labels (the smaller side padded with "unmatched"), maximizing matched
    ink pixels; accuracy is over truth ink pixels only. Ties pick the
    lexicographically smallest mapping tuple (unmatched sorts first).
    With no truth ink pixels the accuracy is defined as 1.0. Returns the
    accuracy, the {pred: truth} mapping and `confusion_counts`.
    """
    if pred.k > MAX_EXHAUSTIVE_K or truth.k > MAX_EXHAUSTIVE_K:
        raise TooManyClusters(f"exhaustive search handles k <= {MAX_EXHAUSTIVE_K}")
    counts = confusion_counts(pred, truth)
    kp, kt = pred.k, truth.k
    truth_ink = sum(map(sum, counts[1:]))

    # candidate truth assignments for pred labels 1..kp; 0 = unmatched
    padded = list(range(1, kt + 1)) + [0] * max(0, kp - kt)
    best_tuple = None
    best_matched = -1
    for mapping in sorted(set(itertools.permutations(padded, kp))):
        matched = sum(counts[t][p + 1] for p, t in enumerate(mapping) if t)
        if matched > best_matched:
            best_matched = matched
            best_tuple = mapping

    accuracy = best_matched / truth_ink if truth_ink else 1.0
    mapping = {p + 1: t for p, t in enumerate(best_tuple or ()) if t}
    return accuracy, mapping, counts


def format_confusion(counts) -> str:
    """Plain-text confusion table, truth rows by predicted columns."""
    side = len(counts)
    width = max(5, len(str(int(max(map(max, counts), default=0)))) + 1)
    header = "truth\\pred" + "".join(f"{j:>{width}}" for j in range(side))
    lines = [header]
    for i in range(side):
        lines.append(f"{i:>10}" + "".join(f"{int(v):>{width}}" for v in counts[i]))
    return "\n".join(lines)
