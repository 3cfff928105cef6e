"""Label-map scoring in plain Python: pair counts, the best bijection, the table.

The best bijection is one Kuhn-Munkres solve over the pair counts, in exact
integers, so maps of any 8-bit label count score in O(k^3).

The pair counter first drops, in one C pass over the two maps, every pixel
both maps call background, then counts the (truth, pred) pairs of the rest
with a `Counter`. So its cost follows the ink pixels; a page with no
background pixel gains nothing from the pass and costs about as much as
counting every pixel.

`eval` scores with this module, `netpbm.read_raster` and `errors` alone, so
it never loads numpy. `segment.confusion_matrix` and
`segment.best_permutation_accuracy` run these same functions and hand
their counts back as ndarrays, so library callers share the counter too.

A map here is anything with `width`, `height`, `k` and `labels`, a
C-contiguous buffer of row-major 8-bit labels in 0..k: a
`segment.SegmentationMap`, or the `LabelRaster` that `read_label_raster`
reads.
"""

import sys
from collections import Counter
from typing import NamedTuple

from . import netpbm
from .errors import DimensionMismatch


class LabelRaster(NamedTuple):
    """A label PGM's row-major labels as bytes; k is the highest label present."""

    labels: bytes
    width: int
    height: int
    k: int


def read_label_raster(path) -> LabelRaster:
    """Read a label PGM without numpy; `segment.read_label_pgm` wraps it."""
    width, height, raster = netpbm.read_raster(path, b"P5")
    labels = bytes(raster)
    # one C scan per absent level from the top, not a Python step per pixel;
    # a map with no level above 15, which deleting 0..15 shows, starts at 15
    top = 255 if labels.translate(None, bytes(range(16))) else 15
    k = next((level for level in range(top, 0, -1) if labels.find(level) >= 0), 0)
    return LabelRaster(labels, width, height, k)


def confusion_counts(pred, truth) -> list[list[int]]:
    """(K+1) x (K+1) counts, K the larger k; entry [i][j] = pixels with truth i, predicted j.

    Each pixel becomes a 3-byte lane (truth, pred, 1), and one C pass deletes
    the background/background lanes: the marker byte is never 0, so the
    pattern 00 00 01 matches whole lanes only. The lanes left are packed
    into 16-bit (truth, pred) codes and counted, so the counts are exact
    for any 8-bit labels; entry [0][0] is the number of lanes deleted.
    """
    if (pred.height, pred.width) != (truth.height, truth.width):
        raise DimensionMismatch(
            f"prediction is {pred.width}x{pred.height}, "
            f"truth is {truth.width}x{truth.height}"
        )
    side = max(pred.k, truth.k) + 1
    n = pred.width * pred.height
    lanes = bytearray(b"\x01") * (3 * n)
    lanes[0::3] = memoryview(truth.labels).cast("B")
    lanes[1::3] = memoryview(pred.labels).cast("B")
    ink = lanes.replace(b"\0\0\x01", b"")
    del lanes  # so the lanes and the codes are never alive together
    m = len(ink) // 3
    codes = bytearray(2 * m)
    codes[0::2] = ink[0::3]
    codes[1::2] = ink[1::3]
    counts = [[0] * side for _ in range(side)]
    for code, count in Counter(memoryview(codes).cast("H")).items():
        t, p = code.to_bytes(2, sys.byteorder)  # the code's two bytes in memory order
        counts[t][p] = count
    counts[0][0] = n - m
    return counts


def best_bijection(pred, truth) -> tuple[float, dict, list[list[int]]]:
    """Score `pred` against `truth` under the best bijection of their labels.

    Nonzero predicted labels are matched to nonzero truth labels (the
    smaller side padded with "unmatched") so that the most ink pixels
    match; accuracy is over truth ink pixels only. Ties pick the
    lexicographically smallest mapping tuple (unmatched sorts first).
    With no truth ink pixels the accuracy is defined as 1.0. Returns the
    accuracy, the {pred: truth} mapping and `confusion_counts`.

    One Kuhn-Munkres solve finds it, in exact integers: pred p -> truth t
    costs t * base**(kp - p) - pixels * base**kp with base = kt + 1, so one
    pixel outweighs all tie terms together, and an unmatched pred costs 0.
    """
    counts = confusion_counts(pred, truth)
    kp, kt = pred.k, truth.k
    base = kt + 1
    pixel = base**kp
    ties = [base ** (kp - p) for p in range(1, kp + 1)]
    cost = [[t * ties[p - 1] - counts[t][p] * pixel for t in range(1, kt + 1)]
            for p in range(1, kp + 1)]
    if kp <= kt:  # every pred takes a truth
        pairs = _min_cost_assignment(cost)
    else:  # every truth takes a pred; the other preds stay unmatched
        pairs = {p: t for t, p in _min_cost_assignment(list(zip(*cost))).items()}
    mapping = {p + 1: pairs[p] + 1 for p in sorted(pairs)}
    matched = sum(counts[t][p] for p, t in mapping.items())
    truth_ink = sum(map(sum, counts[1:]))
    accuracy = matched / truth_ink if truth_ink else 1.0
    return accuracy, mapping, counts


def _min_cost_assignment(cost) -> dict[int, int]:
    """{row: column} at least total cost; rows <= columns, exact ints.

    Kuhn-Munkres with row and column potentials, O(rows^2 columns): rows
    join one at a time, each along a shortest augmenting path.
    """
    n, m = len(cost), len(cost[0]) if cost else 0
    u = [0] * (n + 1)  # row potentials; index 0 unused
    v = [0] * (m + 1)  # column potentials; column 0 is the joining row's start
    row_of = [0] * (m + 1)  # row (1-based) holding each column; 0 = free
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        slack = [None] * (m + 1)  # least reduced cost into each column so far
        came_from = [0] * (m + 1)
        tree, off_tree = [0], list(range(1, m + 1))
        while row_of[j0]:
            i0 = row_of[j0]
            row, u0 = cost[i0 - 1], u[i0]
            delta = None
            for j in off_tree:
                reduced = row[j - 1] - u0 - v[j]
                if slack[j] is None or reduced < slack[j]:
                    slack[j], came_from[j] = reduced, j0
                if delta is None or slack[j] < delta:
                    delta, j1 = slack[j], j
            for j in tree:
                u[row_of[j]] += delta
                v[j] -= delta
            for j in off_tree:
                slack[j] -= delta
            tree.append(j1)
            off_tree.remove(j1)
            j0 = j1
        while j0:  # shift each column on the path to the row it came from
            row_of[j0] = row_of[came_from[j0]]
            j0 = came_from[j0]
    return {row_of[j] - 1: j - 1 for j in range(1, m + 1) if row_of[j]}


def format_confusion(counts) -> str:
    """Plain-text confusion table, truth rows by predicted columns."""
    side = len(counts)
    width = max(5, len(str(int(max(map(max, counts), default=0)))) + 1)
    header = "truth\\pred" + "".join(f"{j:>{width}}" for j in range(side))
    lines = [header]
    for i in range(side):
        lines.append(f"{i:>10}" + "".join(f"{int(v):>{width}}" for v in counts[i]))
    return "\n".join(lines)
