"""Rules the CLI checks while it parses flags, kept free of numpy so that
parsing loads none: the reference-mode grammar, and the default palette,
whose size caps the cluster count. `hsi_cube`, `binarize` and `segment`
take them from here.
"""

# row 0 is the background, row c the color of cluster c; byte-stable across runs
PALETTE = (
    (0, 0, 0),        # black
    (255, 0, 0),      # red
    (0, 255, 0),      # green
    (0, 0, 255),      # blue
    (255, 255, 0),    # yellow
    (255, 0, 255),    # magenta
    (0, 255, 255),    # cyan
    (255, 165, 0),    # orange
    (128, 0, 128),    # purple
)
MAX_CLUSTERS = len(PALETTE) - 1  # clusters the default palette can color


def reference_band(mode: str) -> int:
    """The 1-based band a reference mode names: i for "band:<i>", 0 for "mean"."""
    if mode == "mean":
        return 0
    if mode.startswith("band:") and mode[5:].isdecimal() and int(mode[5:]) >= 1:
        return int(mode[5:])
    raise ValueError(f"bad reference mode {mode!r}; use 'mean' or 'band:<i>' with i >= 1")
