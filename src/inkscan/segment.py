"""Label maps: their PGM form, scoring, color rendering, and spectra export.

Map labels use 0 for background and 1..k for cluster id + 1, held as
uint8 with k <= 255, so a single 8-bit PGM channel carries the whole
segmentation losslessly. Maps are scored against a truth map by the best
label bijection, which `scoring` computes without numpy. It also reads
label maps back, so one rule gives a read map its k. It is imported only
when a map is scored or read, so `segment`, `spectra` and `synth` never
load it.
"""

from dataclasses import dataclass

import numpy as np

from . import netpbm
from .binarize import ForegroundMask, SpectrumSet
from .errors import DimensionMismatch, TooManyClusters
from .hsi_cube import freeze_array
from .rng import SplitMix64

# row 0 is the background, row c the color of cluster c; byte-stable across runs
_COLORS = np.array([
    (0, 0, 0),        # black
    (255, 0, 0),      # red
    (0, 255, 0),      # green
    (0, 0, 255),      # blue
    (255, 255, 0),    # yellow
    (255, 0, 255),    # magenta
    (0, 255, 255),    # cyan
    (255, 165, 0),    # orange
    (128, 0, 128),    # purple
], dtype=np.uint8)
_COLORS.flags.writeable = False
MAX_CLUSTERS = len(_COLORS) - 1  # clusters the default palette can color


@dataclass(frozen=True, eq=False)
class SegmentationMap:
    """Per-pixel uint8 labels in [0, k]; 0 = background, 1..k = ink clusters; k <= 255."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        if self.k > 255:
            raise TooManyClusters(f"k={self.k} labels do not fit in 8 bits")
        labels = np.asarray(self.labels)  # checked before the cast, so no label wraps
        if labels.size and (labels.min() < 0 or labels.max() > self.k):
            raise ValueError(f"labels must lie in 0..{self.k}")
        freeze_array(self, "labels", np.uint8, 2)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


def default_palette(k: int) -> np.ndarray:
    """The fixed (k + 1, 3) uint8 color table: black background, first k cluster colors."""
    if k > MAX_CLUSTERS:
        raise TooManyClusters(f"default palette has {MAX_CLUSTERS} cluster colors, need {k}")
    return _COLORS[: k + 1]


def build_label_map(mask: ForegroundMask, labels: np.ndarray, k: int) -> SegmentationMap:
    """Scatter cluster labels back onto the page.

    `labels` must follow the same row-major scan order extract_spectra
    used; foreground pixel i receives labels[i] + 1.
    """
    labels = np.asarray(labels)
    if labels.shape != (mask.count,):
        raise DimensionMismatch(
            f"{labels.shape[0] if labels.ndim else 0} labels for "
            f"{mask.count} foreground pixels"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"cluster labels must lie in 0..{k - 1}")
    out = np.zeros((mask.height, mask.width), dtype=np.uint8)
    out[mask.flags] = labels + 1  # row-major fill order
    return SegmentationMap(out, k)


def render_segmentation(segmap: SegmentationMap, palette: np.ndarray) -> np.ndarray:
    """Color each pixel by its label: (height, width, 3) uint8.

    `palette` is a (rows, 3) table of 0..255 colors, row 0 the background;
    its first k + 1 rows must be pairwise distinct.
    """
    table = netpbm.cast_exact(palette, np.uint8)
    if table is None or table.ndim != 2 or table.shape[1] != 3:
        raise ValueError(f"palette must be a (rows, 3) table of 0..255, got {np.shape(palette)}")
    if len(table) <= segmap.k:
        raise TooManyClusters(
            f"palette has {len(table) - 1} cluster colors, map needs {segmap.k}"
        )
    lut = table[: segmap.k + 1]
    if len({tuple(c) for c in lut.tolist()}) != len(lut):  # np.unique would import numpy.ma
        raise ValueError("palette colors must be pairwise distinct")
    # one 3-byte item per color: the gather copies whole pixels, and unlike
    # np.take it does not first copy the labels into an intp index array
    colors = lut.view("V3")[:, 0]
    return colors[segmap.labels].view(np.uint8).reshape(*segmap.labels.shape, 3)


def write_rgb_ppm(image: np.ndarray, path) -> None:
    """Write an RGB render as binary PPM (P6, maxval 255)."""
    netpbm.write_ppm(image, path)


def write_label_pgm(segmap: SegmentationMap, path) -> None:
    """Write raw labels 0..k as a binary PGM."""
    netpbm.write_pgm(segmap.labels, path)


def read_label_pgm(path) -> SegmentationMap:
    """Read a label PGM back; k is the highest label present, as `scoring` reads it."""
    from . import scoring

    raster = scoring.read_label_raster(path)
    labels = np.frombuffer(raster.labels, np.uint8).reshape(raster.height, raster.width)
    return SegmentationMap(labels, raster.k)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Best-bijection scoring of a predicted map against ground truth."""

    accuracy: float
    mapping: dict
    confusion: np.ndarray


def confusion_matrix(pred: SegmentationMap, truth: SegmentationMap) -> np.ndarray:
    """(K+1)x(K+1) int64 counts; entry (i, j) = pixels with truth i, predicted j."""
    from . import scoring

    return np.array(scoring.confusion_counts(pred, truth), dtype=np.int64)


def best_permutation_accuracy(pred: SegmentationMap, truth: SegmentationMap) -> EvalReport:
    """Score `pred` against `truth` over all label bijections.

    The solver and its tie rule are `scoring.best_bijection`'s; the report
    holds its confusion counts as an int64 array.
    """
    from . import scoring

    accuracy, mapping, counts = scoring.best_bijection(pred, truth)
    return EvalReport(accuracy=accuracy, mapping=mapping,
                      confusion=np.array(counts, dtype=np.int64))


# rows per block of the CSV writer: each block's index, gather and bytes
# stay a few hundred kB, so the export touches few new pages
_BLOCK_ROWS = 1024


def _level_table(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The NUL-padded token table of 8-bit rows and each coordinate's token.

    Token i is value i with a comma, 256 + i ends a row, and 512 + j is
    the j-th distinct coordinate with a comma; each possible token is
    formatted once. Returns the table and the (N, 2) token of `coords`.
    """
    xy, xy_token = np.unique(coords, return_inverse=True)
    tokens = ([f"{float(i)!r}," for i in range(256)] + [f"{float(i)!r}\n" for i in range(256)]
              + [f"{c}," for c in xy.tolist()])
    # a multiple of 8 bytes per token: 6-byte items gather about 2.5x slower
    width = -(-max(map(len, tokens)) // 8) * 8
    table = np.array([t.encode() for t in tokens], dtype=f"S{width}")
    return table, xy_token.reshape(coords.shape) + 512


def _csv_blocks(spectra: SpectrumSet, rows: np.ndarray | None):
    """Yield the header line, then the bytes of the `x,y,b1,...,bB` rows,
    _BLOCK_ROWS rows at a time.

    `rows` holds the ascending indices of the rows to write, or is None
    for all of them; each block's rows are gathered as it is written. A
    set built from uint8 (`eight_bit`) has its blocks gathered from
    _level_table's tokens and the padding deleted; any other set's, float
    input of 8-bit levels too, are formatted value by value with repr,
    more slowly. Both give the bytes of the per-value repr rows.
    """
    yield ",".join(["x", "y"] + [f"b{j}" for j in range(1, spectra.bands + 1)]).encode() + b"\n"
    if spectra.eight_bit:
        table, xy_token = _level_table(spectra.coords)
    for start in range(0, spectra.count if rows is None else len(rows), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        if rows is not None:
            block = rows[block]
        vectors = spectra.vectors[block]
        if not spectra.eight_bit:
            yield "".join(f"{x},{y},{','.join(map(repr, values))}\n" for (x, y), values
                          in zip(spectra.coords[block].tolist(), vectors.tolist())).encode()
            continue
        index = np.empty((len(vectors), spectra.bands + 2), dtype=np.intp)
        index[:, :2] = xy_token[block]
        index[:, 2:] = vectors  # 8-bit levels, so the cast is exact
        index[:, -1] += 256
        yield table[index].tobytes().translate(None, b"\0")


def export_spectra_csv(
    spectra: SpectrumSet,
    path,
    sample_limit: int | None = None,
    seed: int = 0,
) -> int:
    """Write `x,y,b1,...,bB` rows; returns the number of rows written.

    With sample_limit below N, a seeded uniform subset is taken and the
    original row order is preserved. Floats are rendered with Python's
    shortest round-trip repr, so re-parsing recovers them exactly. The
    header and then blocks of rows are written in turn, so the file's
    bytes never sit in memory whole; they are the same bytes as one
    per-value repr pass would write.
    """
    n = spectra.count
    if sample_limit is not None and sample_limit < 0:
        raise ValueError("sample_limit must be >= 0")
    if sample_limit is None or sample_limit >= n:
        rows = None
    else:
        rows = np.sort(SplitMix64(seed).sample_indices(n, sample_limit))
    netpbm.write_file(path, _csv_blocks(spectra, rows))
    return n if rows is None else len(rows)
