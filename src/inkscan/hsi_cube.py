"""Hyperspectral document cube: data model and per-band PGM I/O.

A cube is W x H x B reflectance intensities stored band-major as a
(bands, height, width) uint8 array. Band index 0 internally is "band 1"
at the CLI; all public band arguments are 1-based. Intensities stay
8-bit here; `binarize.SpectrumSet` promotes the foreground's to float64.
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
from .limits import reference_band


def freeze_array(record, name: str, dtype, ndim: int, order: str = "C") -> np.ndarray:
    """Store field `name` of a frozen record as a read-only contiguous array.

    The value is converted to `dtype` and laid out in `order` ("C" or
    "F"); a value the cast loses or a result that is not `ndim`-d raises
    ValueError. The record keeps a read-only view, so a caller's array is
    never frozen (nor copied, if no conversion is needed). Returns it.
    """
    field = f"{type(record).__name__}.{name}"
    arr = netpbm.cast_exact(getattr(record, name), dtype, order)
    if arr is None:
        raise ValueError(f"{field} cannot hold every value as {np.dtype(dtype)}")
    if arr.ndim != ndim:
        raise ValueError(f"{field} needs a {ndim}-d array, got shape {arr.shape}")
    arr = arr.view()
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single-channel 8-bit image; `pixels` is (height, width) uint8."""

    pixels: np.ndarray

    def __post_init__(self):
        freeze_array(self, "pixels", np.uint8, 2)


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


def read_manifest(path) -> list[tuple[int, str]]:
    """Parse a manifest file: one `<band_index><TAB><relative path>` per line.

    Returns the (band_index, path) entries sorted by index; the indices
    must be exactly 1..B and the paths distinct.
    """
    entries = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise UnsupportedFormat(f"{path}: manifest is not a text file") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        index_text, sep, rel = line.partition("\t")
        if not sep or not rel.strip():
            raise UnsupportedFormat(f"{path}:{lineno}: expected '<index><TAB><path>'")
        if "\0" in rel:
            raise UnsupportedFormat(f"{path}:{lineno}: NUL byte in band path")
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
        (1, int(tok)) if tok.isdecimal() else (0, tok.lower())
        for tok in _DIGITS.split(name)
    )


def _band_paths(source: Path) -> list[tuple[int, Path]]:
    if source.is_dir():
        files = sorted((p for p in source.iterdir() if p.suffix.lower() == ".pgm"),
                       key=lambda p: natural_key(p.name))
        return [(i, p) for i, p in enumerate(files, start=1)]
    return [(i, source.parent / rel) for i, rel in read_manifest(source)]


def _check_band(band_index: int, bands: int) -> None:
    if not 1 <= band_index <= bands:
        raise BandOutOfRange(f"band {band_index} not in 1..{bands}")


def _band_files(source, indices=None) -> list[tuple[int, Path]]:
    """The (1-based index, path) of the bands `indices` (all if None), checked in range."""
    source = Path(source)
    if not source.exists():
        raise MissingBandFile(f"cube source {source} does not exist")
    paths = _band_paths(source)
    if not paths:
        raise EmptyCube(f"{source} holds no band files")
    if indices is None:
        return paths
    for band_index in indices:
        _check_band(band_index, len(paths))
    return [paths[i - 1] for i in indices]


def _read_planes(paths):
    """Yield each band file's plane in turn, checked to share the first one's shape."""
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
        yield plane


def load_cube(source) -> HyperCube:
    """Load a cube from a directory of band PGMs or from a manifest file.

    Directory mode orders *.pgm files by natural numeric filename order;
    manifest mode uses the declared 1..B indices. Intensities are
    preserved exactly. Each band is copied into the cube's one
    (B, H, W) array as it is read, so no band file's bytes outlive it.
    """
    paths = _band_files(source)
    data = None
    for b, plane in enumerate(_read_planes(paths)):
        if data is None:
            data = np.empty((len(paths), *plane.shape), dtype=np.uint8)
        data[b] = plane
    return HyperCube(data)


def load_bands(source, indices) -> list[GrayImage]:
    """The 1-based bands `indices` of a cube source, reading no other band file.

    B, the number of bands, comes from the directory listing or manifest
    as in load_cube, and every index must lie in 1..B before any band is
    read. The bands read must share one shape.
    """
    return [GrayImage(plane) for plane in _read_planes(_band_files(source, indices))]


def band_image(cube: HyperCube, band_index: int) -> GrayImage:
    """The exact W x H slice for a 1-based band index; no rescaling."""
    _check_band(band_index, cube.bands)
    return GrayImage(cube.data[band_index - 1])


def reference_image(cube: HyperCube, mode: str = "mean") -> GrayImage:
    """Collapse the cube to one grayscale image for thresholding.

    mode="mean": per-pixel arithmetic mean across bands, rounded half-up
    as (2 * sum + B) // (2 * B). The sum and the rounding run in place in
    the narrowest unsigned dtype that holds 511 * B, the largest value
    they reach (uint16 up to B = 128); every step is exact integer
    arithmetic, so band order cannot matter.
    mode="band:<i>": the single 1-based band i.
    """
    band = reference_band(mode)
    if band:
        return band_image(cube, band)
    b = cube.bands
    mean = cube.data.sum(axis=0, dtype=np.min_scalar_type(511 * b))
    mean *= 2
    mean += b
    mean //= 2 * b  # round-half-up of sum/b
    return GrayImage(mean.astype(np.uint8))


def write_gray_pgm(image: GrayImage, path) -> None:
    """Write a GrayImage as binary PGM (P5, maxval 255)."""
    netpbm.write_pgm(image.pixels, path)
