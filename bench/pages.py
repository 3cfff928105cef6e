"""Benchmark input pages: the easy acceptance document and close-ink pages.

The easy page is what `inkscan synth` makes with the acceptance flags.
A close-ink page keeps the same layout and noise but replaces the
auto-generated signatures with five inks that sit at an exactly fixed
distance from one smooth base curve:

    signature_i = base + delta * sqrt(B) * q_i

where q_1..q_5 are orthonormal vectors in R^B. Every ink is then offset
from the base by a per-band RMS of `delta`, and every pair of inks is
exactly delta * sqrt(2B) apart, which is the expected distance of the
`base + delta * N(0, 1)` recipe without its seed-to-seed scatter. Fixing
the geometry keeps accuracy and Lloyd behaviour steady from seed to seed.

Signatures come from NumPy's generator seeded by the workload seed, not
from inkscan's own stream, so a change to `inkscan.rng` cannot change
which inks a close-ink page uses.

Run as a script it writes one close-ink page the way `inkscan synth`
writes a document (band PGMs, truth.pgm, manifest.txt):

    PYTHONPATH=src python3 bench/pages.py --out-dir DIR --size 512 --seed 1

with delta = CLOSE_DELTA.
"""

import argparse
import contextlib
from pathlib import Path

import numpy as np

from inkscan import hsi_cube, segment, synth

BANDS = 33
INKS = 5
NOISE_SIGMA = 8.0
CLOSE_DELTA = 3.0   # close-inks workload: delta / sigma = 0.375

# flags every workload passes to `segment` and `spectra --sample`
RESTARTS = 5
SAMPLE = 10000


def easy_spec(seed: int, size: int) -> synth.SynthSpec:
    """The spec `inkscan synth` builds from the acceptance flags."""
    return synth.SynthSpec(width=size, height=size, bands=BANDS, ink_count=INKS,
                           noise_sigma=NOISE_SIGMA, seed=seed)


def close_signatures(seed: int, delta: float) -> np.ndarray:
    """Five signatures at per-band RMS `delta` around one smooth base curve."""
    gen = np.random.default_rng(seed)
    xs = np.arange(BANDS, dtype=np.float64)
    base = np.zeros(BANDS)
    for _ in range(3):
        center = gen.uniform(0.0, BANDS - 1)
        width = gen.uniform(0.1, 0.3) * BANDS
        base += gen.uniform(-1.0, 1.0) * np.exp(-0.5 * ((xs - center) / width) ** 2)
    base = 90.0 + (base - base.min()) * (100.0 / max(float(np.ptp(base)), 1e-9))
    q, _ = np.linalg.qr(gen.standard_normal((BANDS, INKS)))
    signatures = base + delta * np.sqrt(BANDS) * q.T
    # rounding absorbs last-bit differences between LAPACK builds
    return np.round(np.clip(signatures, 0.0, 255.0), 3)


def close_spec(seed: int, size: int, delta: float) -> synth.SynthSpec:
    return synth.SynthSpec(width=size, height=size, bands=BANDS, ink_count=INKS,
                           ink_signatures=close_signatures(seed, delta),
                           noise_sigma=NOISE_SIGMA, seed=seed)


def write_page(cube, truth, out_dir: Path, span=contextlib.nullcontext) -> None:
    """Write bands, truth and manifest with the calls `inkscan synth` makes.

    `span(name)` wraps each library call, so the traced replay can time
    the same writes.
    """
    bands_dir = out_dir / "bands"
    bands_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for b in range(1, cube.bands + 1):
        image = hsi_cube.band_image(cube, b)
        with span("hsi_cube.write_gray_pgm"):
            hsi_cube.write_gray_pgm(image, bands_dir / f"band_{b}.pgm")
        lines.append(f"{b}\tbands/band_{b}.pgm")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with span("segment.write_label_pgm"):
        segment.write_label_pgm(truth, out_dir / "truth.pgm")


def main() -> int:
    parser = argparse.ArgumentParser(description="write one close-ink page")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cube, truth = synth.synth_document(close_spec(args.seed, args.size, CLOSE_DELTA))
    write_page(cube, truth, Path(args.out_dir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
