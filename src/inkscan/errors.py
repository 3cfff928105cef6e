"""Exception hierarchy for the inkscan toolkit.

Every failure surfaced by the library derives from InkscanError so callers
(notably the CLI) can separate data/runtime failures from programming bugs.
"""


class InkscanError(Exception):
    """Base class for all inkscan failures."""


# --- cube loading / image I/O ---------------------------------------------

class MissingBandFile(InkscanError):
    """A band file named by a manifest or directory scan does not exist."""


class DimensionMismatch(InkscanError):
    """Two inputs that must agree in shape or count do not."""

    def __init__(self, message, band_index=None, expected=None, found=None):
        super().__init__(message)
        self.band_index = band_index
        self.expected = expected
        self.found = found


class UnsupportedFormat(InkscanError):
    """Input bytes are not the binary PGM/PPM subset this toolkit accepts."""


class EmptyCube(InkscanError):
    """A cube source yielded zero band files."""


class BandOutOfRange(InkscanError):
    """A 1-based band index falls outside 1..B."""


class IoFailure(InkscanError):
    """Reading or writing an image/CSV file failed."""


# --- binarization / spectra -------------------------------------------------

class DegenerateHistogram(InkscanError):
    """All pixels share one value; no threshold separates two classes."""


class EmptyForeground(InkscanError):
    """Thresholding left no foreground pixels to work with."""


class ZeroSpectrum(InkscanError):
    """Unit-length normalization hit an all-zero spectral row."""

    def __init__(self, row):
        super().__init__(f"spectrum row {row} has zero norm")
        self.row = row


# --- clustering --------------------------------------------------------------

class TooFewSamples(InkscanError):
    """Fewer samples than requested clusters."""


# --- segmentation / evaluation ----------------------------------------------

class TooManyClusters(InkscanError):
    """More clusters than a palette or an 8-bit label map takes."""


class InvalidSpec(InkscanError, ValueError):
    """A configuration record (spec, parameters, threshold) violates its invariants."""
