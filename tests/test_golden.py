"""Golden digests: `segment` outputs pinned across builds, not just reruns.

Determinism tests elsewhere compare two runs of the same build; a rewrite
of the clustering arithmetic could change every output and still pass
them. These digests were captured once and must never be re-pinned
silently: if one changes on purpose, the change log says why.

Two pages are pinned:

- easy: `inkscan synth` 128x128x33, 5 inks, sigma 8, seed 1, segmented
  with `--restarts 3` (about 2,500 foreground pixels, one chunk);
- close: the same geometry with five signatures at an exact offset
  3*sqrt(33) along unit basis vectors from one ramp (no LAPACK, so no
  last-bit drift between builds), coverage 0.6 so the ~9,800 foreground
  pixels span three chunks, segmented with `--max-iter 12`.

Each is run at `--workers 1` and `--workers 2`, which must give the same
bytes. The k-means++ initial centroids are pinned on their own.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from inkscan import binarize, hsi_cube, segment, synth
from inkscan.cli import main
from inkscan.cluster import KMeansParams, kmeans_init

BANDS = 33


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _page_digest(doc):
    parts = [(doc / "truth.pgm").read_bytes()]
    parts += [(doc / "bands" / f"band_{b}.pgm").read_bytes()
              for b in range(1, BANDS + 1)]
    return _sha(b"".join(parts))


def _close_spec() -> synth.SynthSpec:
    base = 120.0 + 2.0 * (np.arange(BANDS) % 11)
    offsets = 3.0 * np.sqrt(BANDS) * np.eye(5, BANDS)
    return synth.SynthSpec(width=128, height=128, bands=BANDS, ink_count=5,
                           ink_signatures=base + offsets, noise_sigma=8.0,
                           coverage=0.6, seed=1)


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    easy = root / "easy"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out-dir", str(easy), "--width", "128", "--height", "128",
                     "--bands", "33", "--inks", "5", "--noise-sigma", "8",
                     "--seed", "1"]) == 0
    close = root / "close"
    cube, truth = synth.synth_document(_close_spec())
    (close / "bands").mkdir(parents=True)
    for b in range(1, cube.bands + 1):
        hsi_cube.write_gray_pgm(hsi_cube.band_image(cube, b), close / "bands" / f"band_{b}.pgm")
    segment.write_label_pgm(truth, close / "truth.pgm")
    return {"easy": easy, "close": close}


# page digest, render sha256, labels sha256, repr(inertia), iterations
GOLDEN_SEGMENT = {
    "easy": (
        "b477c74f404e905e6679b6124396ec43b0a7a451e73137f03ea9ae7b46e8d4ec",
        "346f17398694e0e1898faf071886a721342fd751f7b23ca713201c4e7570ae4c",
        "4a824bc060d52165547af26093ba6d3f78b25e9845d78e5a0b8a4fb6117eec70",
        "4583896.143205076",
        2,
    ),
    "close": (
        "236e0a5743a6267431f6fab2a436f9c464c2d08c0ee85b6e09e4343fe3b16329",
        "925a45df85a7c183e36360ea5f3225753587767104229025fc38b9bb82b8983e",
        "ab9ddcbcac7fb7b0d54ebb9f549de8830c61d8cef0fb1365526d458763f9fd2f",
        "20508020.145333618",
        12,
    ),
}

SEGMENT_FLAGS = {
    "easy": ["--restarts", "3"],
    "close": ["--max-iter", "12"],
}

# sha256 of kmeans_init centroid bytes for seeds 0, 1, 2, concatenated
GOLDEN_INIT = {
    "easy": "c948cba88a804f15f8ad2d0576fe3fda13022cb2680b9b3139accd7f3735628e",
    "close": "9dbb7ff4437e209233c4042fc579cb9bb2021b92754b75f391554f881b1d6080",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("page", ["easy", "close"])
def test_segment_outputs_pinned(pages, tmp_path, page, workers):
    doc = pages[page]
    render, labels = tmp_path / "r.ppm", tmp_path / "l.pgm"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["segment", str(doc / "bands"), "--k", "5", "--seed", "0",
                     *SEGMENT_FLAGS[page], "--workers", workers, "--json",
                     "--out-render", str(render), "--out-labels", str(labels)])
    assert code == 0
    payload = json.loads(out.getvalue())
    got = (
        _page_digest(doc),
        _sha(render.read_bytes()),
        _sha(labels.read_bytes()),
        repr(payload["inertia"]),
        payload["iterations"],
    )
    assert got == GOLDEN_SEGMENT[page]


@pytest.mark.parametrize("page", ["easy", "close"])
def test_kmeanspp_init_pinned(pages, page):
    cube = hsi_cube.load_cube(pages[page] / "bands")
    ref = hsi_cube.reference_image(cube, "mean")
    mask = binarize.threshold_binary(ref, binarize.ThresholdConfig(binarize.DEFAULT_THRESHOLD))
    spectra = binarize.extract_spectra(cube, mask)
    blob = b"".join(kmeans_init(spectra, KMeansParams(k=5, seed=s)).tobytes()
                    for s in range(3))
    assert _sha(blob) == GOLDEN_INIT[page]
