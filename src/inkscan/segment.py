"""Label maps, color-rendered segmentations, and plot-ready spectra export.

Map labels use 0 for background and 1..k for cluster id + 1, so a single
8-bit PGM channel carries the whole segmentation losslessly.
"""

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netpbm
from .binarize import ForegroundMask, SpectrumSet
from .errors import CountMismatch, IoFailure, PaletteTooSmall, TooManyClusters
from .rng import SplitMix64

# background first, then clusters in id order; byte-stable across runs
_BACKGROUND = (0, 0, 0)
_CLUSTER_COLORS = (
    (255, 0, 0),      # red
    (0, 255, 0),      # green
    (0, 0, 255),      # blue
    (255, 255, 0),    # yellow
    (255, 0, 255),    # magenta
    (0, 255, 255),    # cyan
    (255, 165, 0),    # orange
    (128, 0, 128),    # purple
)
MAX_CLUSTERS = len(_CLUSTER_COLORS)  # clusters the default palette can color


@dataclass(frozen=True, eq=False)
class SegmentationMap:
    """Per-pixel labels in [0, k]; 0 = background, 1..k = ink clusters."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int32))
        if labels.ndim != 2:
            raise ValueError(f"label map needs a 2-d array, got shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() > self.k):
            raise ValueError(f"labels must lie in 0..{self.k}")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class Palette:
    """Background color plus ordered per-cluster colors, all distinct."""

    background: tuple
    cluster_colors: tuple

    def __post_init__(self):
        colors = [tuple(self.background)] + [tuple(c) for c in self.cluster_colors]
        for color in colors:
            if len(color) != 3 or any(not 0 <= v <= 255 for v in color):
                raise ValueError(f"bad RGB triple {color}")
        if len(set(colors)) != len(colors):
            raise ValueError("palette colors must be pairwise distinct")
        object.__setattr__(self, "background", tuple(self.background))
        object.__setattr__(self, "cluster_colors", tuple(tuple(c) for c in self.cluster_colors))


def default_palette(k: int) -> Palette:
    """The fixed default palette: black background, first k cluster colors."""
    if k > MAX_CLUSTERS:
        raise PaletteTooSmall(f"default palette has {MAX_CLUSTERS} cluster colors, need {k}")
    return Palette(_BACKGROUND, _CLUSTER_COLORS[:k])


def build_label_map(mask: ForegroundMask, labels: np.ndarray, k: int) -> SegmentationMap:
    """Scatter cluster labels back onto the page.

    `labels` must follow the same row-major scan order extract_spectra
    used; foreground pixel i receives labels[i] + 1.
    """
    labels = np.asarray(labels)
    if labels.shape != (mask.count,):
        raise CountMismatch(
            f"{labels.shape[0] if labels.ndim else 0} labels for "
            f"{mask.count} foreground pixels"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"cluster labels must lie in 0..{k - 1}")
    out = np.zeros((mask.height, mask.width), dtype=np.int32)
    out[mask.flags] = labels.astype(np.int32) + 1  # row-major fill order
    return SegmentationMap(out, k)


def render_segmentation(segmap: SegmentationMap, palette: Palette) -> np.ndarray:
    """Color each pixel by its label: (height, width, 3) uint8."""
    if len(palette.cluster_colors) < segmap.k:
        raise PaletteTooSmall(
            f"palette has {len(palette.cluster_colors)} cluster colors, "
            f"map needs {segmap.k}"
        )
    lut = np.array(
        [palette.background] + list(palette.cluster_colors[: segmap.k]),
        dtype=np.uint8,
    )
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
        rows = range(n)
    else:
        rng = SplitMix64(seed)
        rows = sorted(rng.sample_indices(n, sample_limit))

    buf = io.StringIO()
    header = ["x", "y"] + [f"b{j}" for j in range(1, spectra.bands + 1)]
    buf.write(",".join(header) + "\n")
    count = 0
    for i in rows:
        x, y = spectra.coords[i]
        values = ",".join(repr(float(v)) for v in spectra.vectors[i])
        buf.write(f"{int(x)},{int(y)},{values}\n")
        count += 1
    try:
        Path(path).write_text(buf.getvalue(), encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return count
