"""Hyperspectral document cube: data model and per-band PGM I/O.

A cube is W x H x B reflectance intensities stored band-major as a
(bands, height, width) uint8 array. Band index 0 internally is "band 1"
at the CLI; all public band arguments are 1-based. Intensities stay
8-bit here and are promoted to float64 only inside clustering.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netpbm
from .errors import (
    BandOutOfRange,
    DimensionMismatch,
    EmptyCube,
    MissingBandFile,
    UnsupportedFormat,
)


def freeze_array(record, name: str, dtype, ndim: int) -> np.ndarray:
    """Store field `name` of a frozen record as a read-only C-contiguous array.

    The value is converted to `dtype`; a result that is not `ndim`-d
    raises ValueError. Returns the stored array.
    """
    arr = np.asarray(getattr(record, name), dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(
            f"{type(record).__name__}.{name} needs a {ndim}-d array, got shape {arr.shape}"
        )
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single-channel 8-bit image; `pixels` is (height, width) uint8."""

    pixels: np.ndarray

    def __post_init__(self):
        freeze_array(self, "pixels", np.uint8, 2)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class HyperCube:
    """Immutable document cube; `data` is (bands, height, width) uint8."""

    data: np.ndarray

    def __post_init__(self):
        if freeze_array(self, "data", np.uint8, 3).size == 0:
            raise ValueError("HyperCube dimensions must all be >= 1")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def pixel_spectrum(self, x: int, y: int) -> np.ndarray:
        """The B-vector of intensities at pixel (x, y), as float64."""
        return self.data[:, y, x].astype(np.float64)


def read_manifest(path) -> list[tuple[int, str]]:
    """Parse a manifest file: one `<band_index><TAB><relative path>` per line.

    Returns the (band_index, path) entries sorted by index; the indices
    must be exactly 1..B and the paths distinct.
    """
    entries = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise UnsupportedFormat(f"{path}: manifest is not a text file") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        index_text, sep, rel = line.partition("\t")
        if not sep or not rel.strip():
            raise UnsupportedFormat(f"{path}:{lineno}: expected '<index><TAB><path>'")
        try:
            index = int(index_text)
        except ValueError:
            raise UnsupportedFormat(f"{path}:{lineno}: bad band index {index_text!r}") from None
        entries.append((index, rel.strip()))
    indices = sorted(i for i, _ in entries)
    if indices != list(range(1, len(indices) + 1)):
        raise UnsupportedFormat(
            f"manifest band indices must be exactly 1..{len(indices)}, got {indices}"
        )
    if len({p for _, p in entries}) != len(entries):
        raise UnsupportedFormat("manifest paths must be distinct")
    return sorted(entries)


_DIGITS = re.compile(r"(\d+)")


def natural_key(name: str):
    """Sort key placing band2 before band10."""
    return tuple(
        (1, int(tok)) if tok.isdigit() else (0, tok.lower())
        for tok in _DIGITS.split(name)
    )


def _band_paths(source: Path) -> list[tuple[int, Path]]:
    if source.is_dir():
        files = sorted((p for p in source.iterdir() if p.suffix.lower() == ".pgm"),
                       key=lambda p: natural_key(p.name))
        return [(i, p) for i, p in enumerate(files, start=1)]
    return [(i, source.parent / rel) for i, rel in read_manifest(source)]


def load_cube(source) -> HyperCube:
    """Load a cube from a directory of band PGMs or from a manifest file.

    Directory mode orders *.pgm files by natural numeric filename order;
    manifest mode uses the declared 1..B indices. Intensities are
    preserved exactly.
    """
    source = Path(source)
    if not source.exists():
        raise MissingBandFile(f"cube source {source} does not exist")
    paths = _band_paths(source)
    if not paths:
        raise EmptyCube(f"{source} holds no band files")

    planes = []
    expected = None
    for band_index, path in paths:
        try:
            plane = netpbm.read_pgm(path)
        except FileNotFoundError:
            raise MissingBandFile(f"band {band_index}: {path} does not exist") from None
        if expected is None:
            expected = plane.shape
        elif plane.shape != expected:
            raise DimensionMismatch(
                f"band {band_index} is {plane.shape[1]}x{plane.shape[0]}, "
                f"expected {expected[1]}x{expected[0]}",
                band_index=band_index,
                expected=(expected[1], expected[0]),
                found=(plane.shape[1], plane.shape[0]),
            )
        planes.append(plane)
    return HyperCube(np.stack(planes, axis=0))


def band_image(cube: HyperCube, band_index: int) -> GrayImage:
    """The exact W x H slice for a 1-based band index; no rescaling."""
    if not 1 <= band_index <= cube.bands:
        raise BandOutOfRange(f"band {band_index} not in 1..{cube.bands}")
    return GrayImage(cube.data[band_index - 1])


def reference_image(cube: HyperCube, mode: str = "mean") -> GrayImage:
    """Collapse the cube to one grayscale image for thresholding.

    mode="mean": per-pixel arithmetic mean across bands, rounded half-up
    (computed in exact integer arithmetic, so band order cannot matter).
    mode="band:<i>": the single 1-based band i.
    """
    if mode == "mean":
        sums = cube.data.sum(axis=0, dtype=np.int64)
        b = cube.bands
        mean = (2 * sums + b) // (2 * b)  # round-half-up of sums/b
        return GrayImage(mean.astype(np.uint8))
    if mode.startswith("band:"):
        try:
            index = int(mode[5:])
        except ValueError:
            raise ValueError(f"bad reference mode {mode!r}") from None
        return band_image(cube, index)
    raise ValueError(f"bad reference mode {mode!r}; use 'mean' or 'band:<i>'")


def write_gray_pgm(image: GrayImage, path) -> None:
    """Write a GrayImage as binary PGM (P5, maxval 255)."""
    netpbm.write_pgm(image.pixels, path)
