"""Acceptance gate: every release-blocking criterion with its tolerance.

Each test is one criterion; the conftest summary hook prints a PASS/FAIL
line per criterion at the end of the run. Heavier pipeline criteria drive
the real CLI end to end on generated documents.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from inkscan import netpbm
from inkscan.binarize import ThresholdConfig, threshold_binary, otsu_threshold
from inkscan.cli import main
from inkscan.cluster import INIT_KMEANSPP, INIT_RANDOM, KMeansParams, assign, kmeans_fit
from inkscan.hsi_cube import GrayImage
from inkscan.segment import SegmentationMap, export_spectra_csv
from inkscan.synth import best_permutation_accuracy

from conftest import make_spectrum_set
from test_binarize import exhaustive_otsu
from test_cluster import best_two_partition, brute_force_assign, lloyd_trace
from test_synth import independent_best_accuracy


def run_cli(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_pipeline(tmp_path, tag, noise_sigma, seed, segment_extra=()):
    doc = tmp_path / f"doc_{tag}"
    code, _ = run_cli([
        "synth", "--out-dir", str(doc), "--bands", "33", "--inks", "5",
        "--noise-sigma", str(noise_sigma), "--seed", str(seed),
    ])
    assert code == 0
    render = tmp_path / f"render_{tag}.ppm"
    labels = tmp_path / f"labels_{tag}.pgm"
    started = time.perf_counter()
    code, _ = run_cli([
        "segment", str(doc / "bands"), "--threshold", "40", "--k", "5",
        "--seed", "0", "--restarts", "5",
        "--out-render", str(render), "--out-labels", str(labels), *segment_extra,
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    code, out = run_cli(["eval", str(labels), str(doc / "truth.pgm"), "--json"])
    assert code == 0
    accuracy = json.loads(out)["accuracy"]
    return accuracy, elapsed, render, labels, doc


def test_criterion_1_pipeline_reenactment(tmp_path):
    # 512x512x33, 5 inks, noise sigma 8: accuracy >= 0.95, segment < 10 s
    accuracy, elapsed, _, _, _ = run_pipeline(tmp_path, "c1", noise_sigma=8, seed=7)
    assert accuracy >= 0.95
    assert elapsed < 10.0


def test_criterion_2_noise_free_exactness(tmp_path):
    for seed in range(1, 11):
        accuracy, _, _, _, _ = run_pipeline(tmp_path, f"c2_{seed}", noise_sigma=0, seed=seed)
        assert accuracy == 1.0, f"seed {seed}"


def test_criterion_3_inertia_trace_monotone(monkeypatch):
    generator = np.random.default_rng(33)
    fits = 0
    while fits < 100:
        n = int(generator.integers(10, 2001))
        b = int(generator.integers(1, 34))
        k = int(generator.integers(1, 9))
        if n < k:
            continue
        points = generator.normal(size=(n, b)) * generator.uniform(0.5, 30.0)
        init = INIT_RANDOM if fits % 2 else INIT_KMEANSPP
        _, trace = lloyd_trace(
            make_spectrum_set(points),
            KMeansParams(k=k, seed=fits, init=init, max_iterations=80),
            monkeypatch,
        )
        assert len(trace) >= 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier * (1 + 1e-9), (fits, n, b, k)
        fits += 1


def test_criterion_4_small_instance_optimality():
    generator = np.random.default_rng(44)
    exact = 0
    for trial in range(100):
        n = int(generator.integers(2, 9))
        b = int(generator.integers(1, 4))
        points = generator.uniform(-10, 10, size=(n, b))
        model = kmeans_fit(
            make_spectrum_set(points),
            KMeansParams(k=2, seed=trial, restarts=10),
        )
        optimum = best_two_partition([tuple(p) for p in points.tolist()])
        assert model.inertia >= optimum - 1e-9 * max(optimum, 1.0), trial
        if model.inertia <= optimum * (1 + 1e-9) + 1e-12:
            exact += 1
    assert exact >= 95, f"only {exact}/100 matched the exhaustive optimum"


def test_criterion_5_determinism(tmp_path):
    doc = tmp_path / "doc"
    code, _ = run_cli([
        "synth", "--out-dir", str(doc), "--width", "200", "--height", "150",
        "--bands", "20", "--inks", "4", "--noise-sigma", "6", "--coverage", "0.2",
        "--seed", "21",
    ])
    assert code == 0

    outputs = {}
    for run, extra in (("a", []), ("b", []), ("w4", ["--workers", "4"])):
        render = tmp_path / f"r_{run}.ppm"
        labels = tmp_path / f"l_{run}.pgm"
        code, _ = run_cli([
            "segment", str(doc / "bands"), "--k", "4", "--seed", "3",
            "--restarts", "2", "--out-render", str(render),
            "--out-labels", str(labels), *extra,
        ])
        assert code == 0
        outputs[run] = (render.read_bytes(), labels.read_bytes())
    assert outputs["a"] == outputs["b"]
    assert outputs["a"] == outputs["w4"]

    csvs = []
    for run in ("a", "b"):
        out = tmp_path / f"s_{run}.csv"
        code, _ = run_cli([
            "spectra", str(doc / "bands"), "--sample", "500", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_criterion_6_threshold_boundary():
    image = GrayImage(np.array([[0, 39, 40, 41]], dtype=np.uint8))
    mask = threshold_binary(image, ThresholdConfig(40))
    assert mask.flags.tolist() == [[False, False, True, True]]


def test_criterion_7_render_cardinality(tmp_path):
    accuracy, _, render, _, _ = run_pipeline(tmp_path, "c7", noise_sigma=8, seed=7)
    pixels = netpbm.read_ppm(render)
    distinct = {tuple(px) for px in pixels.reshape(-1, 3)}
    assert len(distinct) == 6  # 5 inks + background


def test_criterion_8_oracle_agreement():
    generator = np.random.default_rng(88)

    for _ in range(50):
        n, b, k = (int(generator.integers(1, 80)), int(generator.integers(1, 12)),
                   int(generator.integers(1, 8)))
        points = generator.normal(size=(n, b))
        centroids = generator.normal(size=(k, b))
        got = assign(centroids, make_spectrum_set(points))
        assert got.tolist() == brute_force_assign(points.tolist(), centroids.tolist())

    for _ in range(50):
        h, w = int(generator.integers(2, 8)), int(generator.integers(2, 8))
        kp, kt = int(generator.integers(1, 6)), int(generator.integers(1, 6))
        pred = SegmentationMap(generator.integers(0, kp + 1, size=(h, w)), kp)
        truth = SegmentationMap(generator.integers(0, kt + 1, size=(h, w)), kt)
        report = best_permutation_accuracy(pred, truth)
        assert report.accuracy == independent_best_accuracy(pred, truth)

    checked = 0
    while checked < 50:
        shape = (int(generator.integers(2, 12)), int(generator.integers(2, 12)))
        pixels = generator.integers(0, 256, size=shape).astype(np.uint8)
        if len(np.unique(pixels)) < 2:
            continue
        image = GrayImage(pixels)
        assert otsu_threshold(image) == exhaustive_otsu(pixels)
        checked += 1


def test_criterion_9_format_round_trips(tmp_path):
    generator = np.random.default_rng(99)
    for trial in range(10):
        h, w = int(generator.integers(1, 30)), int(generator.integers(1, 30))
        gray = generator.integers(0, 256, size=(h, w)).astype(np.uint8)
        color = generator.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        gp = tmp_path / f"g{trial}.pgm"
        cp = tmp_path / f"c{trial}.ppm"
        netpbm.write_pgm(gray, gp)
        netpbm.write_ppm(color, cp)
        assert np.array_equal(netpbm.read_pgm(gp), gray)
        assert np.array_equal(netpbm.read_ppm(cp), color)

    vectors = generator.normal(size=(40, 12)) * 100
    spectra = make_spectrum_set(vectors)
    path = tmp_path / "spectra.csv"
    export_spectra_csv(spectra, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    parsed = np.array([[float(v) for v in row[2:]] for row in rows])
    assert parsed.tobytes() == spectra.vectors.tobytes()
