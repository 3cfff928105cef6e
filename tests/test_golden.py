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
bytes. The k-means++ initial centroids are pinned on their own, as are
the `spectra` CSV of the easy page (full, `--otsu --sample 500 --seed 5`,
`--normalize unit-length`, and the header line alone that `--sample 0`
writes), the full `spectra` CSV of the close page (9,830 rows), the
`segment --normalize unit-length` outputs of the easy page,
the page bytes of the easy page made at sigma 0, the page bytes of a
300x257 page (77,100 pixels: more than one 65,536-pixel noise tile, where
every other pinned page fits in one), the easy page's
`synth_spec.txt` sidecar, the `synth --json` and `segment --json` stdout
(output paths replaced by a fixed token), the `eval` stdout, text and
`--json`, of each page's segment labels against its truth, the first
eight outputs of `u64_block` and `normal_block` for seed 1, and the
Box-Muller uniforms behind the latter.
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
from inkscan.rng import normal_block, u64_block

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
    for name, sigma in (("easy", "8"), ("clean", "0")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out-dir", str(root / name), "--width", "128",
                         "--height", "128", "--bands", "33", "--inks", "5",
                         "--noise-sigma", sigma, "--seed", "1"]) == 0
    close = root / "close"
    cube, truth = synth.synth_document(_close_spec())
    (close / "bands").mkdir(parents=True)
    for b in range(1, cube.bands + 1):
        hsi_cube.write_gray_pgm(hsi_cube.band_image(cube, b), close / "bands" / f"band_{b}.pgm")
    segment.write_label_pgm(truth, close / "truth.pgm")
    return {"easy": root / "easy", "clean": root / "clean", "close": close}


# page digest, render sha256, labels sha256, repr(inertia), iterations,
# sha256 of the `--json` stdout with the output directory written as OUT
GOLDEN_SEGMENT = {
    "easy": (
        "b477c74f404e905e6679b6124396ec43b0a7a451e73137f03ea9ae7b46e8d4ec",
        "346f17398694e0e1898faf071886a721342fd751f7b23ca713201c4e7570ae4c",
        "4a824bc060d52165547af26093ba6d3f78b25e9845d78e5a0b8a4fb6117eec70",
        "4583896.143205076",
        2,
        "9f9a441db3a5f652c98be115754e0bcdaac5aeddbffc7d0d9efab943e25aafae",
    ),
    "close": (
        "236e0a5743a6267431f6fab2a436f9c464c2d08c0ee85b6e09e4343fe3b16329",
        "925a45df85a7c183e36360ea5f3225753587767104229025fc38b9bb82b8983e",
        "ab9ddcbcac7fb7b0d54ebb9f549de8830c61d8cef0fb1365526d458763f9fd2f",
        "20508020.145333618",
        12,
        "f841c77d8e61f57cd84ec48052fc1d7ae1dd405286479fb0b24f9f17e43a0a2a",
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
        _sha(out.getvalue().replace(str(tmp_path), "OUT").encode()),
    )
    assert got == GOLDEN_SEGMENT[page]


# sha256 of the `eval` stdout, text then `--json`, scoring the labels of the
# page's pinned `segment` run against its truth
GOLDEN_EVAL = {
    "easy": ("a88342525e1499c8ff774acc8ed2b439c94f33003b6270157cf1175c4a4638cf",
             "37eeab4c78ea6fe2c648716ebe507fe64c241dca5a82182d5d3d88d9abdcd1a9"),
    "close": ("494630468c7551304a9e5e05b4dbff434dc3ecbf42be83c5be7c5d63e1e80f95",
              "af76f940b93e2c3d3cc703dc936b0125929367d730ac8a36a299065f8eb03f9d"),
}


@pytest.mark.parametrize("page", ["easy", "close"])
def test_eval_stdout_pinned(pages, tmp_path, page):
    doc, labels = pages[page], tmp_path / "l.pgm"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["segment", str(doc / "bands"), "--k", "5", "--seed", "0",
                     *SEGMENT_FLAGS[page], "--out-render", str(tmp_path / "r.ppm"),
                     "--out-labels", str(labels)]) == 0
    got = []
    for flags in ([], ["--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["eval", str(labels), str(doc / "truth.pgm"), *flags]) == 0
        got.append(_sha(out.getvalue().encode()))
    assert tuple(got) == GOLDEN_EVAL[page]


@pytest.mark.parametrize("page", ["easy", "close"])
def test_kmeanspp_init_pinned(pages, page):
    cube = hsi_cube.load_cube(pages[page] / "bands")
    ref = hsi_cube.reference_image(cube, "mean")
    mask = binarize.threshold_binary(ref, binarize.ThresholdConfig(binarize.DEFAULT_THRESHOLD))
    spectra = binarize.extract_spectra(cube, mask)
    blob = b"".join(kmeans_init(spectra, KMeansParams(k=5, seed=s)).tobytes()
                    for s in range(3))
    assert _sha(blob) == GOLDEN_INIT[page]


# sha256 of the `spectra` CSV; every export but "close" is of the easy page
GOLDEN_SPECTRA = {
    "full": "db03f5fc1149897d4ac0c8abc1e4ef9b47eb40a8879495b9b022229598b1587a",
    "sample": "915b7ab30afd8afc698167062cf1c87215bccd78810479a368493df83401edd1",
    "unit-length": "4d4a4af5c5a69a4c6c8a6d1b6f6bbca8f92223196f129372b72d947742c9ba6c",
    "close": "de7ef367cfaee1387cc63b4a3bf03fd8e4abeb949186f3c8358b5d64faef0430",
    "header-only": "ddc946e802240f97f63f24f38498ef676bceb78432c50b1ca61bf4493b102fff",
}

# page and flags of each pinned export
SPECTRA_RUNS = {
    "full": ("easy", []),
    "sample": ("easy", ["--otsu", "--sample", "500", "--seed", "5"]),
    "unit-length": ("easy", ["--normalize", "unit-length"]),
    "close": ("close", []),
    "header-only": ("easy", ["--sample", "0"]),
}


@pytest.mark.parametrize("export", list(SPECTRA_RUNS))
def test_spectra_csv_pinned(pages, tmp_path, export):
    page, flags = SPECTRA_RUNS[export]
    csv = tmp_path / "s.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["spectra", str(pages[page] / "bands"), *flags, "--out", str(csv)]) == 0
    assert _sha(csv.read_bytes()) == GOLDEN_SPECTRA[export]


# render sha256, labels sha256 and repr(inertia) of the easy page segmented
# with `--normalize unit-length`
GOLDEN_UNIT_LENGTH_SEGMENT = (
    "df3c5feb1d69de146a88ee3c76d3918935b4da944484346ed52463510cd34095",
    "bb3652001d461121e3ad195f9c9145076ab0677da2da84dbdeea93efe3b79652",
    "35.740510537770795",
)


def test_unit_length_segment_pinned(pages, tmp_path):
    render, labels = tmp_path / "r.ppm", tmp_path / "l.pgm"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["segment", str(pages["easy"] / "bands"), "--k", "5", "--seed", "0",
                     "--normalize", "unit-length", "--json",
                     "--out-render", str(render), "--out-labels", str(labels)]) == 0
    got = (
        _sha(render.read_bytes()),
        _sha(labels.read_bytes()),
        repr(json.loads(out.getvalue())["inertia"]),
    )
    assert got == GOLDEN_UNIT_LENGTH_SEGMENT


def test_noise_free_page_pinned(pages):
    assert _page_digest(pages["clean"]) == (
        "5d64888e20ab6a7d52e617aaf1da2ffe363acd4318a3cdabedc9edd2ff0037fd"
    )


def test_multi_tile_page_pinned(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out-dir", str(tmp_path), "--width", "300",
                     "--height", "257", "--bands", "33", "--inks", "5",
                     "--noise-sigma", "8", "--seed", "1"]) == 0
    assert _page_digest(tmp_path) == (
        "d306fa8226028fca493e85d8181e42f12fd4d215e0c7518a0dd8cd0b26d55d19"
    )


# sha256 of the easy page's synth_spec.txt, and of its `synth --json`
# stdout with the output directory written as OUT
GOLDEN_SYNTH = {
    "sidecar": "6ca47aa89e96d86a7b1e9c9bf8f5d9b360401e572f2dcc432a9c920610570b01",
    "json": "a1dd2722dc3f521756e2ada116224f631247ef3cf097f8bac64e1d96be15a112",
}


def test_synth_sidecar_and_json_pinned(pages, tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["synth", "--out-dir", str(tmp_path / "easy"), "--width", "128",
                     "--height", "128", "--bands", "33", "--inks", "5",
                     "--noise-sigma", "8", "--seed", "1", "--json"]) == 0
    sidecar = (pages["easy"] / "synth_spec.txt").read_bytes()
    assert (tmp_path / "easy" / "synth_spec.txt").read_bytes() == sidecar
    got = {
        "sidecar": _sha(sidecar),
        "json": _sha(out.getvalue().replace(str(tmp_path), "OUT").encode()),
    }
    assert got == GOLDEN_SYNTH


def test_stream_blocks_pinned():
    """The u64 pin is exact integer arithmetic and holds on any host.

    The normal_block pin was taken on an AVX-512 host. NumPy's np.log
    dispatches on the CPU's SIMD support, and its AVX-512 loop rounds
    some inputs differently from the AVX2 baseline; this pin and the whole
    suite also passed with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
    AVX512_SPR", and `test_bytes_do_not_depend_on_simd_dispatch` compares
    every output byte under both. That covers NumPy's AVX2 baseline only,
    not a host without AVX2 or another architecture.
    `test_box_muller_uniforms_pinned` pins its inputs exactly, which tells
    a host difference from a code change.
    """
    assert u64_block(1, 0, 8).astype("<u8").tobytes().hex() == (
        "c15c0289ec2d0a9167ec8e65a18debbe5e5532fbeea293f80bc942ee9086c171"
        "b9b501d1d854bb7180021590ff0b4dc3a53c36d76cec99e0758527120fbbe785"
    )
    assert normal_block(1, 0, 8).astype("<f8").tobytes().hex() == (
        "b2eca97dc030cebf3e9f1cab01c2ca3f59d79a318e96c9bff57c8f95c011f0bf"
        "25326b8fe891f3bfca837b12a21fe7bf7aefb1d13b20debfe8053a656d24e23f"
    )


def test_box_muller_uniforms_pinned():
    # normal_block(1, 0, 8) maps u64_block(1, 0, 16) to u1 in (0, 1] and u2 in
    # [0, 1) by a shift, an int-to-double conversion and a power-of-two scale:
    # exact on any host
    u = u64_block(1, 0, 16) >> np.uint64(11)
    u1 = (u[:8].astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = u[8:].astype(np.float64) * 2.0 ** -53
    assert u1.astype("<f8").tobytes().hex() == (
        "4c2091bd4521e23fdeb12cb471dde73f4b66df5d7412ef3fb4903ba46170dc3f"
        "6e403436d56edc3fa102f27fa169e83fc8e69a8d3d13ec3ff144e261f7bce03f"
    )
    assert u2.astype("<f8").tobytes().hex() == (
        "8e5f8d37c645d23f2c8cce916b68e93f9255c01d77ddd93ff199a2899a5fe33f"
        "96ea92e2b31ddd3ff41ad23a68f6e03f14d39b6bdbe6db3fa4bcd20b6761c53f"
    )
    # these are the uniforms normal_block consumes
    box_muller = np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * np.pi) * u2)
    assert box_muller.tobytes() == normal_block(1, 0, 8).tobytes()
