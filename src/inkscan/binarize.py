"""Foreground/background separation and spectral extraction.

The default contract follows the bright-ink-on-dark-background convention:
a pixel at or above the threshold is foreground, everything below is
background. The opposite polarity handles conventional dark-ink scans.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateHistogram,
    DimensionMismatch,
    EmptyForeground,
    InvalidSpec,
    ZeroSpectrum,
)
from .hsi_cube import GrayImage, HyperCube, freeze_array

KEEP_AT_OR_ABOVE = "keep-at-or-above"
KEEP_BELOW = "keep-below"

DEFAULT_THRESHOLD = 40


@dataclass(frozen=True)
class ThresholdConfig:
    """Binary threshold: intensity cutoff plus which side is foreground."""

    value: int = DEFAULT_THRESHOLD
    polarity: str = KEEP_AT_OR_ABOVE

    def __post_init__(self):
        if not 0 <= self.value <= 255:
            raise InvalidSpec(f"threshold {self.value} not in 0..255")
        if self.polarity not in (KEEP_AT_OR_ABOVE, KEEP_BELOW):
            raise InvalidSpec(f"unknown polarity {self.polarity!r}")


@dataclass(frozen=True, eq=False)
class ForegroundMask:
    """Boolean image; True marks ink pixels. `flags` is (height, width)."""

    flags: np.ndarray

    def __post_init__(self):
        freeze_array(self, "flags", bool, 2)

    @property
    def width(self) -> int:
        return self.flags.shape[1]

    @property
    def height(self) -> int:
        return self.flags.shape[0]

    @property
    def count(self) -> int:
        """Number of foreground pixels."""
        return int(self.flags.sum())


@dataclass(frozen=True, eq=False)
class SpectrumSet:
    """Foreground pixel spectra: (N, B) float64 rows plus (N, 2) x,y coords.

    Stored band-major like the cube: `vectors` is an F-contiguous (N, B)
    array, so `vectors.T` is the C-contiguous (B, N) array clustering reads.
    Rows are in row-major scan order of the source mask (y, then x), which
    makes every downstream output deterministic. Built from the (B, N)
    uint8 rows of `gather_foreground`, `SpectrumSet(rows.T, coords)` is the
    one promotion to float64: the cast writes the F-ordered array directly.

    `eight_bit`, derived here and never passed, says whether the set was
    built from uint8 rows and has bands. Clustering and the CSV export read
    it for their 8-bit fast paths; float input, whatever values it holds,
    takes their general paths, which give the same bits, only slower.
    """

    vectors: np.ndarray
    coords: np.ndarray
    eight_bit: bool = field(init=False)

    def __post_init__(self):
        uint8 = getattr(self.vectors, "dtype", None) == np.uint8
        vectors = freeze_array(self, "vectors", np.float64, 2, order="F")
        coords = freeze_array(self, "coords", np.int32, 2)
        if coords.shape[1] != 2:
            raise ValueError("SpectrumSet needs (N, B) vectors and (N, 2) coords")
        if vectors.shape[0] != coords.shape[0]:
            raise ValueError(
                f"{vectors.shape[0]} spectra but {coords.shape[0]} coordinates"
            )
        object.__setattr__(self, "eight_bit", uint8 and vectors.shape[1] > 0)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def bands(self) -> int:
        return self.vectors.shape[1]


def threshold_binary(image: GrayImage, config: ThresholdConfig) -> ForegroundMask:
    """Binarize: foreground is pixel >= t (or pixel < t for keep-below).

    A pixel exactly at the threshold is foreground under keep-at-or-above,
    so the two polarities at the same t partition the image.
    """
    if config.polarity == KEEP_AT_OR_ABOVE:
        flags = image.pixels >= config.value
    else:
        flags = image.pixels < config.value
    return ForegroundMask(flags)


def otsu_threshold(image: GrayImage) -> int:
    """Threshold maximizing between-class variance, ties to the lowest t.

    The returned t is meant for keep-at-or-above thresholding: class
    boundaries are {pixel < t} vs {pixel >= t}. The scan runs in exact
    integer arithmetic, so ranking and tie-breaking are free of float
    rounding: for each t the score w_b*w_f*(mu_b - mu_f)^2 is compared as
    the exact rational (S_b*w_f - S_f*w_b)^2 / (w_b*w_f).
    """
    hist = np.bincount(image.pixels.ravel(), minlength=256)
    total = int(hist.sum())
    if int((hist > 0).sum()) < 2:
        raise DegenerateHistogram("all pixels share one value")

    weighted = hist * np.arange(256, dtype=np.int64)
    grand_sum = int(weighted.sum())

    best_t = None
    best_num = 0  # (S_b*w_f - S_f*w_b)^2
    best_den = 1  # w_b*w_f
    w_b = 0
    s_b = 0
    for t in range(1, 256):
        w_b += int(hist[t - 1])
        s_b += int(weighted[t - 1])
        w_f = total - w_b
        if w_b == 0 or w_f == 0:
            continue
        num = (s_b * w_f - (grand_sum - s_b) * w_b) ** 2
        den = w_b * w_f
        # num/den > best_num/best_den, cross-multiplied
        if best_t is None or num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


def gather_foreground(cube: HyperCube, mask: ForegroundMask) -> tuple[np.ndarray, np.ndarray]:
    """The foreground's 8-bit band rows (B, N) and its (N, 2) int32 x,y coords.

    Pixels are in row-major scan order. Neither array shares the cube's
    buffer, so the cube can be freed before `SpectrumSet(rows.T, coords)`
    promotes the rows to float64.
    """
    if (mask.height, mask.width) != (cube.height, cube.width):
        raise DimensionMismatch(
            f"mask is {mask.width}x{mask.height}, cube is {cube.width}x{cube.height}"
        )
    pixels = np.flatnonzero(mask.flags)  # row-major: y ascending, then x
    if pixels.size == 0:
        raise EmptyForeground("mask has no foreground pixels")
    rows = np.take(cube.data.reshape(cube.bands, -1), pixels, axis=1)
    ys, xs = np.divmod(pixels, mask.width)
    return rows, np.column_stack([xs, ys]).astype(np.int32)


def extract_spectra(cube: HyperCube, mask: ForegroundMask) -> SpectrumSet:
    """One spectral row per foreground pixel, in row-major scan order.

    The caller's cube stays alive while the float64 rows are built; the CLI
    instead calls `gather_foreground`, lets the cube go, and only then
    promotes the 8-bit rows through `SpectrumSet`.
    """
    rows, coords = gather_foreground(cube, mask)
    return SpectrumSet(rows.T, coords)


def normalize_spectra(spectra: SpectrumSet, mode: str = "none") -> SpectrumSet:
    """Optionally rescale each row to unit Euclidean norm, in a new set."""
    if mode == "none":
        return spectra
    if mode != "unit-length":
        raise ValueError(f"unknown normalization {mode!r}; use 'none' or 'unit-length'")
    return SpectrumSet(scale_to_unit_length(np.array(spectra.vectors, order="F")),
                       spectra.coords)


def scale_to_unit_length(vectors: np.ndarray) -> np.ndarray:
    """Divide each row of a writable float64 (N, B) array by its Euclidean
    norm, in place, and return the array; a zero row raises ZeroSpectrum."""
    norms = np.empty(len(vectors))
    for s in range(0, len(vectors), 4096):
        # einsum rounds by memory layout: each row's norm has the bits of a
        # row-major row, in blocks of any size
        rows = np.ascontiguousarray(vectors[s : s + 4096])
        norms[s : s + 4096] = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        del rows  # so the next block's copy replaces this one instead of joining it
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroSpectrum(int(zero[0]))
    vectors /= norms[:, None]
    return vectors
