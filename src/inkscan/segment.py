"""Label maps, color-rendered segmentations, and plot-ready spectra export.

Map labels use 0 for background and 1..k for cluster id + 1, so a single
8-bit PGM channel carries the whole segmentation losslessly.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netpbm
from .binarize import ForegroundMask, SpectrumSet
from .errors import DimensionMismatch, IoFailure, TooManyClusters
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
    """Per-pixel labels in [0, k]; 0 = background, 1..k = ink clusters."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = freeze_array(self, "labels", np.int32, 2)
        if labels.size and (labels.min() < 0 or labels.max() > self.k):
            raise ValueError(f"labels must lie in 0..{self.k}")

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
    out = np.zeros((mask.height, mask.width), dtype=np.int32)
    out[mask.flags] = labels.astype(np.int32) + 1  # row-major fill order
    return SegmentationMap(out, k)


def render_segmentation(segmap: SegmentationMap, palette: np.ndarray) -> np.ndarray:
    """Color each pixel by its label: (height, width, 3) uint8.

    `palette` is a (rows, 3) table of 0..255 colors, row 0 the background;
    its first k + 1 rows must be pairwise distinct.
    """
    palette = np.asarray(palette)
    if palette.ndim != 2 or palette.shape[1] != 3 or not ((palette >= 0) & (palette <= 255)).all():
        raise ValueError(f"palette must be a (rows, 3) table of 0..255, got {palette.shape}")
    if len(palette) <= segmap.k:
        raise TooManyClusters(
            f"palette has {len(palette) - 1} cluster colors, map needs {segmap.k}"
        )
    lut = palette[: segmap.k + 1].astype(np.uint8)
    if len({tuple(c) for c in lut.tolist()}) != len(lut):  # np.unique would import numpy.ma
        raise ValueError("palette colors must be pairwise distinct")
    return lut[segmap.labels]


def write_rgb_ppm(image: np.ndarray, path) -> None:
    """Write an RGB render as binary PPM (P6, maxval 255)."""
    netpbm.write_ppm(image, path)


def write_label_pgm(segmap: SegmentationMap, path) -> None:
    """Write raw labels 0..k as a binary PGM; k must fit in 8 bits."""
    if segmap.k > 255:
        raise TooManyClusters(f"k={segmap.k} labels do not fit an 8-bit PGM")
    netpbm.write_pgm(segmap.labels.astype(np.uint8), path)


def read_label_pgm(path) -> SegmentationMap:
    """Read a label PGM back; k is the highest label present."""
    labels = netpbm.read_pgm(path).astype(np.int32)
    return SegmentationMap(labels, int(labels.max(initial=0)))


def _byte_rows(coords: np.ndarray, vectors: np.ndarray) -> bytes | None:
    """The `x,y,b1,...,bB` rows of 8-bit spectra, or None for any other values.

    Every value must be an integer in 0..255 with a clear sign bit (repr
    prints -0.0 as '-0.0'), as extract_spectra gives for an 8-bit cube.
    Each possible token is then formatted once, with its separator; the
    rows are gathered from a NUL-padded table of them and the padding
    deleted, which gives the bytes of the per-value repr rows.
    """
    n, bands = vectors.shape
    # compare before casting: NaN, inf and out-of-range floats fail here
    if bands == 0 or not ((vectors >= 0) & (vectors <= 255)).all():
        return None
    levels = vectors.astype(np.uint8)
    if not (levels == vectors).all() or np.signbit(vectors).any():
        return None
    xy, xy_token = np.unique(coords, return_inverse=True)
    # token i is value i with a comma, 256 + i ends a row, 512 + j is coordinate xy[j]
    tokens = ([f"{float(i)!r}," for i in range(256)] + [f"{float(i)!r}\n" for i in range(256)]
              + [f"{c}," for c in xy.tolist()])
    # a multiple of 8 bytes per token: 6-byte items gather about 2.5x slower
    width = -(-max(map(len, tokens)) // 8) * 8
    table = np.array([t.encode() for t in tokens], dtype=f"S{width}")
    index = np.empty((n, bands + 2), dtype=np.intp)
    index[:, :2] = xy_token.reshape(n, 2) + 512
    index[:, 2:] = levels
    index[:, -1] += 256
    return table[index].tobytes().translate(None, b"\0")


def export_spectra_csv(
    spectra: SpectrumSet,
    path,
    sample_limit: int | None = None,
    seed: int = 0,
) -> int:
    """Write `x,y,b1,...,bB` rows; returns the number of rows written.

    With sample_limit below N, a seeded uniform subset is taken and the
    original row order is preserved. Floats are rendered with Python's
    shortest round-trip repr, so re-parsing recovers them exactly.
    """
    n = spectra.count
    if sample_limit is not None and sample_limit < 0:
        raise ValueError("sample_limit must be >= 0")
    if sample_limit is None or sample_limit >= n:
        rows = slice(None)
    else:
        rows = sorted(SplitMix64(seed).sample_indices(n, sample_limit))

    coords, vectors = spectra.coords[rows], spectra.vectors[rows]
    header = ",".join(["x", "y"] + [f"b{j}" for j in range(1, spectra.bands + 1)])
    body = _byte_rows(coords, vectors)
    if body is None:
        body = "".join(f"{x},{y},{','.join(map(repr, values))}\n"
                       for (x, y), values in zip(coords.tolist(), vectors.tolist())).encode()
    try:
        Path(path).write_bytes(header.encode() + b"\n" + body)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return len(coords)
