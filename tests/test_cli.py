"""End-to-end CLI behavior: exit-code families, determinism, composition."""

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import tracemalloc
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    X86_V3_TARGETS,
    avx512_off_env,
    cpu_features_off_env,
    openblas_core_env,
    subprocess_env,
)
from inkscan import binarize, cluster, hsi_cube, netpbm, segment, synth
from inkscan.cli import _foreground, build_parser, main
from inkscan.errors import IoFailure
from inkscan.segment import read_label_pgm


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "doc"
    code = main([
        "synth", "--out-dir", str(out), "--width", "60", "--height", "48",
        "--bands", "8", "--inks", "3", "--noise-sigma", "4", "--coverage", "0.2",
        "--seed", "11",
    ])
    assert code == 0
    return out


class TestBands:
    def test_exports_requested_bands(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "views"
        code = main(["bands", str(synth_dir / "bands"), "--bands", "1,3,8",
                     "--out-dir", str(out)])
        assert code == 0
        for i in (1, 3, 8):
            assert (out / f"band_{i}.pgm").exists()
        assert np.array_equal(
            netpbm.read_pgm(out / "band_3.pgm"),
            netpbm.read_pgm(synth_dir / "bands" / "band_3.pgm"),
        )

    def test_out_of_range_band_exits_1(self, synth_dir, tmp_path, capsys):
        code = main(["bands", str(synth_dir / "bands"), "--bands", "9",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "band" in capsys.readouterr().err.lower()

    def test_empty_band_list_exits_2(self, synth_dir, capsys):
        assert main(["bands", str(synth_dir / "bands"), "--bands", ","]) == 2

    def test_unparsable_band_list_exits_2_without_output(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "views"
        code = main(["bands", str(synth_dir / "bands"), "--bands", "1,x",
                     "--out-dir", str(out)])
        assert code == 2
        assert "bad band list '1,x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bands", ["0", "0,-2", "3,-1"])
    def test_band_below_1_exits_2_before_loading(self, tmp_path, capsys, bands):
        out = tmp_path / "views"
        code = main(["bands", str(tmp_path / "missing"), "--bands", bands,
                     "--out-dir", str(out)])
        assert code == 2
        assert "band indices start at 1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_band_writes_nothing(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "views"
        code = main(["bands", str(synth_dir / "bands"), "--bands", "2,9",
                     "--out-dir", str(out)])
        assert code == 1
        assert "band 9" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert main(["bands", str(tmp_path / "nope"), "--bands", "1"]) == 1

    def test_reads_only_the_named_bands(self, synth_dir, tmp_path, capsys):
        bands = synth_dir / "bands"
        (bands / "band_2.pgm").write_bytes(b"not a pgm\n")
        out = tmp_path / "views"
        assert main(["bands", str(bands), "--bands", "1", "--out-dir", str(out)]) == 0
        assert (out / "band_1.pgm").read_bytes() == (bands / "band_1.pgm").read_bytes()
        capsys.readouterr()
        assert main(["bands", str(bands), "--bands", "2", "--out-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("inkscan bands: ") and err.count("\n") == 1


class TestSpectra:
    def test_default_threshold_summary(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["spectra", str(synth_dir / "bands"), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        n = round(0.2 * 60 * 48)
        assert f"pixels={n} bands=8" in stdout
        assert len(out.read_text().splitlines()) == n + 1

    def test_threshold_above_everything_exits_1(self, synth_dir, tmp_path, capsys):
        code = main(["spectra", str(synth_dir / "bands"), "--threshold", "255",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "foreground" in capsys.readouterr().err.lower()

    def test_sampling_reruns_identical(self, synth_dir, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["spectra", str(synth_dir / "bands"), "--sample", "100",
                         "--seed", "1", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_sample_exits_2_without_output(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["spectra", str(synth_dir / "bands"), "--sample", "-1",
                     "--out", str(out)])
        assert code == 2
        assert "expected a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_json_summary(self, synth_dir, tmp_path, capsys):
        code = main(["spectra", str(synth_dir / "bands"), "--json",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "spectra"
        assert payload["bands"] == 8

    def test_manifest_input_equivalent(self, synth_dir, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["spectra", str(synth_dir / "bands"), "--out", str(a)]) == 0
        assert main(["spectra", str(synth_dir / "manifest.txt"), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_band_reference_mode(self, synth_dir, tmp_path, capsys):
        code = main(["spectra", str(synth_dir / "bands"), "--reference", "band:2",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert main(["spectra", str(synth_dir / "bands"), "--reference", "band(2)",
                     "--out", str(tmp_path / "t.csv")]) == 2

    @pytest.mark.parametrize("mode", ["band:\u00b2", "band:-1", "band: 2"])
    def test_reference_mode_int_cannot_parse_exits_2(self, tmp_path, capsys, mode):
        # "\u00b2" (superscript two) is a digit to str.isdigit() but not to int()
        code = main(["spectra", str(tmp_path / "missing"), "--reference", mode,
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "reference mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectra", "segment"])
    @pytest.mark.parametrize("mode", ["band:0", "band:00"])
    def test_reference_band_0_exits_2_before_loading(self, tmp_path, capsys, command, mode):
        code = main([command, str(tmp_path / "missing"), "--reference", mode])
        assert code == 2
        assert "reference mode" in capsys.readouterr().err

    def test_otsu_picks_threshold(self, synth_dir, tmp_path, capsys):
        code = main(["spectra", str(synth_dir / "bands"), "--otsu",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        n = round(0.2 * 60 * 48)
        assert f"pixels={n} " in capsys.readouterr().out  # same split as t=40

    def test_otsu_falls_back_on_constant_image(self, tmp_path, capsys):
        band_dir = tmp_path / "flat"
        band_dir.mkdir()
        netpbm.write_pgm(np.full((6, 6), 90, dtype=np.uint8), band_dir / "band_1.pgm")
        code = main(["spectra", str(band_dir), "--otsu", "--threshold", "40",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        captured = capsys.readouterr()
        assert "falling back" in captured.err
        assert "pixels=36 bands=1" in captured.out  # constant 90 >= 40


@pytest.fixture(scope="module")
def page_bands(tmp_path_factory):
    out = tmp_path_factory.mktemp("page")
    assert main(["synth", "--out-dir", str(out), "--width", "256", "--height", "256",
                 "--bands", "33", "--inks", "5", "--noise-sigma", "8", "--seed", "5"]) == 0
    return out / "bands"


FOREGROUND_FLAGS = pytest.mark.parametrize(
    "flags", [["--reference", "mean"], ["--reference", "band:3"], ["--otsu"]],
    ids=["mean", "band3", "otsu"])


class TestForeground:
    """`spectra` and `segment` gather the 8-bit rows, drop the cube, then promote."""

    @FOREGROUND_FLAGS
    def test_cube_and_float_spectra_never_coexist(self, page_bands, flags, capsys):
        """The traced peak stays below the cube plus the float64 spectra, so
        neither the cube nor a band reference viewing it outlives the gather."""
        args = build_parser().parse_args(["spectra", str(page_bands), *flags])
        tracemalloc.start()
        try:
            _, spectra = _foreground(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cube = hsi_cube.load_cube(page_bands)
        assert peak < cube.data.nbytes + spectra.vectors.nbytes

    @FOREGROUND_FLAGS
    def test_spectra_equal_extract_spectra(self, page_bands, flags, capsys):
        mask, spectra = _foreground(build_parser().parse_args(["spectra", str(page_bands),
                                                               *flags]))
        want = binarize.extract_spectra(hsi_cube.load_cube(page_bands), mask)
        for got in (spectra, want):
            assert got.vectors.dtype == np.float64 and got.vectors.flags.f_contiguous
            assert not got.vectors.flags.writeable
            assert got.coords.dtype == np.int32
        assert spectra.vectors.shape == want.vectors.shape
        assert spectra.vectors.tobytes("A") == want.vectors.tobytes("A")
        assert spectra.coords.tobytes() == want.coords.tobytes()


    def test_unit_length_spectra_hold_one_float_copy(self, page_bands, capsys):
        """The 8-bit rows go before the one float64 copy is divided in place,
        so the traced peak stays below two float64 copies of the spectra."""
        args = build_parser().parse_args(["spectra", str(page_bands),
                                          "--normalize", "unit-length"])
        tracemalloc.start()
        try:
            mask, spectra = _foreground(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * spectra.vectors.nbytes
        cube = hsi_cube.load_cube(page_bands)
        want = binarize.normalize_spectra(binarize.extract_spectra(cube, mask), "unit-length")
        assert spectra.vectors.tobytes("A") == want.vectors.tobytes("A")
        assert spectra.vectors.flags.f_contiguous and not spectra.vectors.flags.writeable


class TestSegment:
    def run_segment(self, synth_dir, tmp_path, tag, extra=()):
        render = tmp_path / f"r{tag}.ppm"
        labels = tmp_path / f"l{tag}.pgm"
        code = main(["segment", str(synth_dir / "bands"), "--k", "3", "--seed", "0",
                     "--restarts", "2", "--out-render", str(render),
                     "--out-labels", str(labels), *extra])
        return code, render, labels

    def test_full_run_and_eval_compose(self, synth_dir, tmp_path, capsys):
        code, render, labels = self.run_segment(synth_dir, tmp_path, "a")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pixels=" in stdout and "inertia=" in stdout
        assert "cluster_1=" in stdout

        code = main(["eval", str(labels), str(synth_dir / "truth.pgm")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        accuracy = float(out.splitlines()[0].split("=")[1])
        assert accuracy >= 0.95

    def test_rerun_byte_identical(self, synth_dir, tmp_path, capsys):
        _, render_a, labels_a = self.run_segment(synth_dir, tmp_path, "a")
        _, render_b, labels_b = self.run_segment(synth_dir, tmp_path, "b")
        assert render_a.read_bytes() == render_b.read_bytes()
        assert labels_a.read_bytes() == labels_b.read_bytes()

    def test_workers_do_not_change_bytes(self, synth_dir, tmp_path, capsys):
        _, render_a, labels_a = self.run_segment(synth_dir, tmp_path, "w1", ["--workers", "1"])
        _, render_b, labels_b = self.run_segment(synth_dir, tmp_path, "w4", ["--workers", "4"])
        assert render_a.read_bytes() == render_b.read_bytes()
        assert labels_a.read_bytes() == labels_b.read_bytes()

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, capsys):
        """BLAS scores only choose which samples the exact kernel labels, and
        the restarts' winner is picked in restart order, so neither OpenBLAS's
        thread count (unset, so the CLI's default at two workers, or set) nor
        the number of fit processes moves an output byte, on 8-bit and on
        unit-length samples. The page's foreground spans more than one
        4096-sample chunk."""
        doc = tmp_path / "doc"
        assert main(["synth", "--out-dir", str(doc), "--width", "96", "--height", "96",
                     "--bands", "33", "--inks", "5", "--noise-sigma", "8",
                     "--coverage", "0.6", "--seed", "5"]) == 0
        render, labels = tmp_path / "r.ppm", tmp_path / "l.pgm"  # --json prints the paths
        runs = []
        for threads in (None, "1", "2"):
            for workers in ("1", "2"):
                outputs = []
                for normalize in ("none", "unit-length"):  # 8-bit and real-valued samples
                    result = subprocess.run(
                        [sys.executable, "-m", "inkscan", "segment", str(doc / "bands"),
                         "--threshold", "40", "--k", "5", "--seed", "0", "--restarts", "2",
                         "--workers", workers, "--normalize", normalize,
                         "--out-render", str(render), "--out-labels", str(labels), "--json"],
                        capture_output=True, env=env_with_blas_threads(threads),
                    )
                    assert result.returncode == 0, result.stderr
                    outputs.append((result.stdout, render.read_bytes(), labels.read_bytes()))
                runs.append(outputs)
        assert json.loads(runs[0][0][0])["pixels"] > 4096
        assert all(run == runs[0] for run in runs[1:])

    def test_bytes_do_not_depend_on_simd_dispatch(self, tmp_path):
        """NumPy picks its SIMD loops at run time, and np.log's AVX-512 loop
        rounds differently from its AVX2 baseline in some last bits; a
        DYNAMIC_ARCH OpenBLAS picks its kernels at run time too. `synth`, and
        `segment` at one and two workers, 8-bit and unit-length, write the
        same bytes under NumPy's default loops, its AVX2 loops (AVX-512 off),
        its x86-64-v2 (SSE4.2) baseline loops (every dispatch target off),
        and OpenBLAS's Prescott kernels. This covers those NumPy loops and
        OpenBLAS kernels on one x86-64 host, not another architecture such
        as aarch64."""
        doc = tmp_path / "doc"
        commands = [["synth", "--out-dir", str(doc), "--width", "64", "--height", "64",
                     "--bands", "33", "--inks", "5", "--noise-sigma", "8",
                     "--coverage", "0.6", "--seed", "5", "--json"]]
        for workers in ("1", "2"):
            for normalize in ("none", "unit-length"):
                tag = f"{workers}-{normalize}"
                commands.append(["segment", str(doc / "bands"), "--threshold", "40", "--k", "5",
                                 "--seed", "0", "--restarts", "2", "--workers", workers,
                                 "--normalize", normalize,
                                 "--out-render", str(tmp_path / f"r{tag}.ppm"),
                                 "--out-labels", str(tmp_path / f"l{tag}.pgm"), "--json"])
        runs = []
        for env in (subprocess_env(NPY_DISABLE_CPU_FEATURES=""), avx512_off_env(),
                    cpu_features_off_env(X86_V3_TARGETS), openblas_core_env("Prescott")):
            outputs = []
            for args in commands:
                result = subprocess.run([sys.executable, "-m", "inkscan", *args],
                                        capture_output=True, env=env)
                assert result.returncode == 0, result.stderr
                outputs.append(result.stdout)
            files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
            runs.append((outputs, {p: p.read_bytes() for p in files}))
        assert len(runs[0][1]) == 33 + 3 + 4 * 2  # bands, manifest, truth, sidecar, renders, labels
        assert all(run == runs[0] for run in runs[1:])

    def test_k1_single_ink_color(self, synth_dir, tmp_path, capsys):
        render = tmp_path / "k1.ppm"
        code = main(["segment", str(synth_dir / "bands"), "--k", "1",
                     "--out-render", str(render),
                     "--out-labels", str(tmp_path / "k1.pgm")])
        assert code == 0
        pixels = netpbm.read_ppm(render)
        colors = {tuple(px) for px in pixels.reshape(-1, 3)}
        assert colors == {(0, 0, 0), (255, 0, 0)}

    def test_k_above_sample_count_exits_1(self, tmp_path, capsys):
        doc = tmp_path / "tiny"
        assert main(["synth", "--out-dir", str(doc), "--width", "12", "--height", "10",
                     "--bands", "3", "--inks", "1", "--coverage", "0.05",
                     "--seed", "2"]) == 0
        code = main(["segment", str(doc / "bands"), "--k", "7",  # 6 foreground pixels
                     "--out-render", str(tmp_path / "r.ppm"),
                     "--out-labels", str(tmp_path / "l.pgm")])
        assert code == 1
        assert "samples" in capsys.readouterr().err.lower()

    def test_k_above_palette_exits_2_before_loading(self, tmp_path, capsys):
        # the input does not exist: a check after loading would exit 1
        code = main(["segment", str(tmp_path / "missing"), "--k", "9",
                     "--out-render", str(tmp_path / "r.ppm"),
                     "--out-labels", str(tmp_path / "l.pgm")])
        assert code == 2
        assert "palette" in capsys.readouterr().err
        assert not (tmp_path / "r.ppm").exists()

    def test_json_summary(self, synth_dir, tmp_path, capsys):
        code, render, labels = self.run_segment(synth_dir, tmp_path, "j", ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "segment"
        assert payload["k"] == 3
        assert sum(payload["counts"]) == payload["pixels"]
        assert payload["converged"] is True

    def test_unit_normalization_path(self, synth_dir, tmp_path, capsys):
        code, render, labels = self.run_segment(
            synth_dir, tmp_path, "n", ["--normalize", "unit-length"])
        assert code == 0
        assert render.exists() and labels.exists()

    def test_bad_flag_values_exit_2(self, synth_dir, tmp_path):
        assert main(["segment", str(synth_dir / "bands"), "--k", "0",
                     "--out-render", "r.ppm", "--out-labels", "l.pgm"]) == 2
        assert main(["segment", str(synth_dir / "bands"), "--threshold", "300",
                     "--out-render", "r.ppm", "--out-labels", "l.pgm"]) == 2
        assert main(["segment", str(synth_dir / "bands"), "--tol", "-1",
                     "--out-render", "r.ppm", "--out-labels", "l.pgm"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2_without_output(self, synth_dir, tmp_path, capsys,
                                                          tol):
        code, render, labels = self.run_segment(synth_dir, tmp_path, "t", ["--tol", tol])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not render.exists() and not labels.exists()


class TestRecordsValidateFlags:
    """Flags held by a configuration record are checked by that record,
    which each command builds before it loads anything."""

    @pytest.mark.parametrize("argv, rule", [
        (["segment", "--threshold", "300"], "threshold"),
        (["segment", "--max-iter", "0"], "max_iterations"),
        (["segment", "--restarts", "0"], "restarts"),
        (["spectra", "--threshold", "-1"], "threshold"),
        (["segment", "--init", "bogus"], "init"),
        (["segment", "--polarity", "sideways"], "polarity"),
    ])
    def test_exits_2_before_loading(self, tmp_path, capsys, argv, rule):
        # the input does not exist: a check after loading would exit 1
        outputs = ["--out-render", str(tmp_path / "r.ppm"),
                   "--out-labels", str(tmp_path / "l.pgm")]
        if argv[0] == "spectra":
            outputs = ["--out", str(tmp_path / "s.csv")]
        code = main([argv[0], str(tmp_path / "missing"), *argv[1:], *outputs])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert rule in err and "does not exist" not in err
        assert list(tmp_path.iterdir()) == []

    def test_help_names_the_values_records_accept(self, capsys, monkeypatch):
        """Records, not argparse, check --init and --polarity; the help names their values,
        and the parser's defaults are the records' own."""
        monkeypatch.setenv("COLUMNS", "400")  # no line breaks inside a hyphenated value
        assert main(["segment", "--help"]) == 0
        out = capsys.readouterr().out
        for value in (cluster.INIT_KMEANSPP, cluster.INIT_RANDOM,
                      binarize.KEEP_AT_OR_ABOVE, binarize.KEEP_BELOW):
            assert value in out
        args = build_parser().parse_args(["segment", "doc"])
        assert args.init == cluster.KMeansParams(k=1).init
        assert args.polarity == binarize.ThresholdConfig().polarity

    def test_parser_literals_are_the_records_values(self, capsys, monkeypatch):
        """The parser imports no numpy-backed module, so it spells out the default
        threshold and the palette's cluster bound; they must stay the modules' own."""
        monkeypatch.setenv("COLUMNS", "400")
        assert main(["segment", "--help"]) == 0
        assert f"1..{segment.MAX_CLUSTERS} (default 5)" in capsys.readouterr().out
        args = build_parser().parse_args(["segment", "doc"])
        assert args.threshold == binarize.ThresholdConfig().value == binarize.DEFAULT_THRESHOLD

    def test_synth_inks_above_8_bit_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["synth", "--out-dir", str(out), "--inks", "256"]) == 2
        assert "ink_count" in capsys.readouterr().err
        assert not out.exists()


class TestSynth:
    def test_outputs_complete_and_loadable(self, synth_dir):
        assert (synth_dir / "truth.pgm").exists()
        assert (synth_dir / "manifest.txt").exists()
        assert (synth_dir / "synth_spec.txt").exists()
        bands = sorted((synth_dir / "bands").glob("*.pgm"))
        assert len(bands) == 8
        sidecar = dict(
            line.split("=", 1) for line in
            (synth_dir / "synth_spec.txt").read_text().splitlines()
        )
        assert sidecar["seed"] == "11"
        assert sidecar["ink_count"] == "3"
        truth = read_label_pgm(synth_dir / "truth.pgm")
        assert int(sidecar["ink_pixels"]) == int((truth.labels > 0).sum())

    def test_rerun_byte_identical(self, tmp_path):
        flags = ["--width", "30", "--height", "20", "--bands", "4", "--inks", "2",
                 "--noise-sigma", "2", "--coverage", "0.3", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out-dir", str(a), *flags]) == 0
        assert main(["synth", "--out-dir", str(b), *flags]) == 0
        for rel in ["truth.pgm", "synth_spec.txt", "manifest.txt",
                    "bands/band_1.pgm", "bands/band_4.pgm"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_zero_inks_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path / "x"), "--inks", "0"]) == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_noise_exits_2_without_output(self, tmp_path, capsys, sigma):
        out = tmp_path / "x"
        assert main(["synth", "--out-dir", str(out), f"--noise-sigma={sigma}"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_separation_message_is_short(self, tmp_path, capsys):
        """The target separation, 8 sigma, is printed compactly, not as 301 digits."""
        out = tmp_path / "x"
        assert main(["synth", "--out-dir", str(out), "--width", "32", "--height", "32",
                     "--bands", "4", "--inks", "2", "--noise-sigma", "1e300"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 160, err
        assert "separation >= 8e+300" in err

    @pytest.mark.parametrize("message", [
        "Unable to allocate 32.7 TiB for an array with shape (3000000, 3000000)", ""])
    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                 message):
        def exhausted(spec, take):
            raise MemoryError(message)

        monkeypatch.setattr(synth, "synth_bands", exhausted)
        out = tmp_path / "x"
        assert main(["synth", "--out-dir", str(out), "--width", "3000000",
                     "--height", "3000000", "--bands", "2", "--inks", "2"]) == 1
        err = capsys.readouterr().err
        assert err == f"inkscan synth: {message or 'out of memory'}\n"
        assert not out.exists()

    def test_out_of_memory_drawing_the_first_band_leaves_no_out_dir(self, tmp_path, capsys,
                                                                     monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(synth, "_floor_noisy", exhausted)
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 3)
        threads = threading.active_count()
        out = tmp_path / "x"
        assert main(["synth", "--out-dir", str(out), "--width", "300", "--height", "257",
                     "--bands", "4", "--inks", "3", "--noise-sigma", "3"]) == 1
        assert capsys.readouterr().err == "inkscan synth: out of memory\n"
        assert threading.active_count() == threads
        assert not out.exists()

    def test_unattainable_spec_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--out-dir", str(tmp_path / "x"), "--width", "4",
                     "--height", "4", "--bands", "2", "--inks", "5",
                     "--coverage", "0.1", "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--noise-sigma", "1e300"],  # signatures: separation out of reach
        ["--width", "4", "--height", "4", "--inks", "5", "--coverage", "0.1"],  # page
    ], ids=["separation", "page"])
    def test_spec_failures_exit_2_before_the_out_dir_exists(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert main(["synth", "--out-dir", str(out), "--bands", "4", *flags]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    # 300 x 257 = 77,100 pixels: a whole tile, then a partial one
    @pytest.mark.parametrize("bands", [1, 2, 3, 7])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_streamed_bands_equal_the_document_cube(self, tmp_path, capsys, monkeypatch,
                                                    bands, cpus):
        monkeypatch.setattr(synth.os, "cpu_count", lambda: cpus)
        out = tmp_path / "doc"
        assert main(["synth", "--out-dir", str(out), "--width", "300", "--height", "257",
                     "--bands", str(bands), "--inks", "3", "--noise-sigma", "3",
                     "--coverage", "0.3", "--seed", "7"]) == 0
        cube, truth = synth.synth_document(synth.SynthSpec(
            width=300, height=257, bands=bands, ink_count=3, noise_sigma=3.0,
            coverage=0.3, seed=7))
        written = hsi_cube.load_cube(out / "manifest.txt")
        assert written.data.tobytes() == cube.data.tobytes()
        assert read_label_pgm(out / "truth.pgm").labels.tobytes() == truth.labels.tobytes()

    def test_failed_band_write_exits_1_and_stops_the_pool(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 3)
        write = hsi_cube.write_gray_pgm

        def full_at_band_3(image, path):
            if path.name == "band_3.pgm":
                raise IoFailure(f"cannot write {path}: disk full")
            write(image, path)

        monkeypatch.setattr(hsi_cube, "write_gray_pgm", full_at_band_3)
        threads = threading.active_count()
        out = tmp_path / "doc"
        assert main(["synth", "--out-dir", str(out), "--width", "300", "--height", "257",
                     "--bands", "9", "--inks", "3", "--noise-sigma", "3", "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert err == f"inkscan synth: cannot write {out / 'bands' / 'band_3.pgm'}: disk full\n"
        assert threading.active_count() == threads
        assert sorted(p.name for p in (out / "bands").iterdir()) == ["band_1.pgm", "band_2.pgm"]
        assert not (out / "manifest.txt").exists()

    def test_peak_rss_does_not_grow_with_the_band_count(self, tmp_path):
        """Holding a 256 x 256 x 128 cube would add about 8 MB over 8 bands.

        A child's ru_maxrss also counts the process it was started from, so a
        small Python process without numpy starts `synth` and reaps it."""
        reap = ("import os, subprocess, sys; "
                "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
                "_, status, usage = os.wait4(proc.pid, 0); "
                "proc.returncode = os.waitstatus_to_exitcode(status); "
                "print(proc.returncode, usage.ru_maxrss)")

        def peak_mb(bands):
            result = subprocess.run(
                [sys.executable, "-c", reap, sys.executable, "-m", "inkscan", "synth",
                 "--out-dir", str(tmp_path / str(bands)), "--width", "256", "--height", "256",
                 "--bands", str(bands), "--inks", "3", "--noise-sigma", "3", "--seed", "1"],
                capture_output=True, text=True, env=subprocess_env(), check=True)
            code, kilobytes = map(int, result.stdout.split())
            assert code == 0
            return kilobytes / 1024.0

        assert peak_mb(128) - peak_mb(8) < 2.0


class TestEval:
    def test_identical_maps(self, synth_dir, capsys):
        code = main(["eval", str(synth_dir / "truth.pgm"), str(synth_dir / "truth.pgm")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "accuracy=1.000000"

    def test_permuted_labels_score_one(self, synth_dir, tmp_path, capsys):
        truth = read_label_pgm(synth_dir / "truth.pgm")
        permuted = np.where(truth.labels > 0, truth.labels % truth.k + 1, 0)
        from inkscan.segment import SegmentationMap, write_label_pgm
        write_label_pgm(SegmentationMap(permuted, truth.k), tmp_path / "perm.pgm")
        code = main(["eval", str(tmp_path / "perm.pgm"), str(synth_dir / "truth.pgm")])
        assert code == 0
        assert "accuracy=1.000000" in capsys.readouterr().out

    def test_overlong_header_field_exits_1_with_one_line(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n" + b"7" * 5000 + b" 1\n255\n\x00")
        code = main(["eval", str(bad), str(synth_dir / "truth.pgm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "header field too long" in err

    def test_dimension_mismatch_exits_1(self, synth_dir, tmp_path, capsys):
        netpbm.write_pgm(np.zeros((2, 2), dtype=np.uint8), tmp_path / "small.pgm")
        code = main(["eval", str(tmp_path / "small.pgm"), str(synth_dir / "truth.pgm")])
        assert code == 1
        truth = read_label_pgm(synth_dir / "truth.pgm")
        assert capsys.readouterr() == (
            "", f"inkscan eval: prediction is 2x2, truth is {truth.width}x{truth.height}\n")

    @pytest.mark.parametrize("case", ["missing", "directory", "P6", "truncated", "maxval"])
    def test_unreadable_map_exits_1_with_one_line(self, synth_dir, tmp_path, capsys, case):
        pred, truth = tmp_path / "pred.pgm", synth_dir / "truth.pgm"
        contents = {
            "P6": b"P6\n2 2\n255\n" + bytes(12),
            "truncated": b"P5\n4 3\n255\n" + bytes(11),
            "maxval": b"P5\n2 2\n65535\n" + bytes(8),
        }
        messages = {
            "missing": f"[Errno 2] No such file or directory: '{pred}'",
            "directory": f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'",
            "P6": f"{pred}: expected P5 magic",
            "truncated": f"{pred}: raster shorter than 4x3x1",
            "maxval": f"{pred}: only maxval 255 is supported, got 65535",
        }
        if case == "directory":
            pred, truth = truth, tmp_path
        elif case in contents:
            pred.write_bytes(contents[case])
        code = main(["eval", str(pred), str(truth)])
        assert code == 1
        assert capsys.readouterr() == ("", f"inkscan eval: {messages[case]}\n")

    def test_bytes_after_the_raster_are_ignored(self, synth_dir, tmp_path, capsys):
        truth = synth_dir / "truth.pgm"
        padded = tmp_path / "padded.pgm"
        padded.write_bytes(truth.read_bytes() + b"\n# trailing\n\xff")
        assert main(["eval", str(truth), str(truth)]) == 0
        expected = capsys.readouterr()
        assert main(["eval", str(padded), str(truth)]) == 0
        assert capsys.readouterr() == expected

    def test_nine_labels_score_one_against_themselves(self, tmp_path, capsys):
        doc = tmp_path / "doc"
        assert main(["synth", "--out-dir", str(doc), "--width", "60", "--height", "48",
                     "--bands", "4", "--inks", "9", "--coverage", "0.5", "--seed", "3"]) == 0
        assert read_label_pgm(doc / "truth.pgm").k == 9
        capsys.readouterr()
        code = main(["eval", str(doc / "truth.pgm"), str(doc / "truth.pgm")])
        assert code == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == ""
        assert lines[:2] == ["accuracy=1.000000",
                             "mapping: " + " ".join(f"{p}->{p}" for p in range(1, 10))]
        table = [row.split() for row in lines[2:]]
        assert len(table) == 11 and table[0] == ["truth\\pred", *map(str, range(10))]
        for i, row in enumerate(table[1:]):  # every pixel on the diagonal
            assert row[0] == str(i) and [v != "0" for v in row[1:]] == [j == i for j in range(10)]

    def test_json_summary(self, synth_dir, capsys):
        code = main(["eval", str(synth_dir / "truth.pgm"), str(synth_dir / "truth.pgm"),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0


@pytest.fixture(scope="module")
def small_page(tmp_path_factory):
    doc = tmp_path_factory.mktemp("failures") / "doc"
    assert main(["synth", "--out-dir", str(doc), "--width", "40", "--height", "32",
                 "--bands", "4", "--inks", "3", "--noise-sigma", "3", "--coverage", "0.3",
                 "--seed", "2"]) == 0
    return doc


def command_args(command, doc, tmp):
    """argv for `command` on `doc`, and the first file it writes (None for eval)."""
    return {
        "bands": (["bands", str(doc / "bands"), "--bands", "1", "--out-dir", str(tmp / "v")],
                  tmp / "v" / "band_1.pgm"),
        "spectra": (["spectra", str(doc / "bands"), "--out", str(tmp / "s.csv")],
                    tmp / "s.csv"),
        "segment": (["segment", str(doc / "bands"), "--k", "3", "--out-render",
                     str(tmp / "r.ppm"), "--out-labels", str(tmp / "l.pgm")], tmp / "r.ppm"),
        "synth": (["synth", "--out-dir", str(tmp / "d"), "--width", "40", "--height", "32",
                   "--bands", "4", "--inks", "3", "--seed", "2"],
                  tmp / "d" / "bands" / "band_1.pgm"),
        "eval": (["eval", str(doc / "truth.pgm"), str(doc / "truth.pgm")], None),
    }[command]


FAILED_OUTPUTS = [(command, case) for command in ("bands", "spectra", "segment", "synth")
                  for case in ("file is a directory", "file is /dev/full")] + [
    (command, case) for command in ("bands", "spectra", "segment", "synth", "eval")
    for case in ("stdout is /dev/full", "stdout is a closed pipe")]


class TestFailedOutput:
    @pytest.mark.parametrize("command, case", FAILED_OUTPUTS)
    def test_exits_1_with_one_line(self, small_page, tmp_path, command, case):
        """A failed write exits 1 with one `inkscan <command>:` line and no
        traceback, whether stdout is block-buffered or unbuffered."""
        if "/dev/full" in case and not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        argv, first_file = command_args(command, small_page, tmp_path)
        if case == "file is a directory":
            first_file.mkdir(parents=True)
        elif case == "file is /dev/full":
            first_file.parent.mkdir(parents=True, exist_ok=True)
            first_file.symlink_to("/dev/full")
        for unbuffered in (False, True) if case.startswith("stdout") else (False,):
            env = subprocess_env()
            env.pop("PYTHONUNBUFFERED", None)  # block-buffered, Python's default
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            if case == "stdout is a closed pipe":
                read_end, stdout = os.pipe()
                os.close(read_end)
            else:
                stdout = os.open("/dev/full" if case == "stdout is /dev/full" else os.devnull,
                                 os.O_WRONLY)
            try:
                result = subprocess.run([sys.executable, "-m", "inkscan", *argv],
                                        stdout=stdout, stderr=subprocess.PIPE, text=True,
                                        env=env)
            finally:
                os.close(stdout)
            assert result.returncode == 1, (unbuffered, result.stderr)
            assert result.stderr.startswith(f"inkscan {command}: "), result.stderr
            assert result.stderr.count("\n") == 1, result.stderr
            assert "Traceback" not in result.stderr
            if case.startswith("file"):
                assert f"cannot write {first_file}: " in result.stderr, result.stderr

    @pytest.mark.parametrize("name", ["manifest.txt", "synth_spec.txt"])
    def test_synth_names_the_text_file_it_cannot_write(self, small_page, tmp_path, capsys,
                                                       name):
        """The manifest and sidecar fail as every other output file does."""
        argv, _ = command_args("synth", small_page, tmp_path)
        bad = tmp_path / "d" / name
        bad.mkdir(parents=True)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"inkscan synth: cannot write {bad}: "), err
        assert err.count("\n") == 1, err


FAILED_INPUTS = [(command, case) for command in ("bands", "spectra", "segment")
                 for case in ("band is truncated", "band is a directory", "manifest is not text")]


class TestFailedInput:
    @pytest.mark.parametrize("command, case", FAILED_INPUTS)
    def test_exits_1_with_one_line(self, small_page, tmp_path, command, case):
        """A page with a bad input file exits 1 with one `inkscan <command>:` line
        that names the file, and no traceback."""
        doc = tmp_path / "doc"
        shutil.copytree(small_page, doc)
        argv, _ = command_args(command, doc, tmp_path)
        if command == "bands":
            argv[argv.index("--bands") + 1] = "1,2"
        bad = doc / "bands" / "band_2.pgm"
        if case == "band is truncated":
            bad.write_bytes(bad.read_bytes()[:-1])
        elif case == "band is a directory":
            bad.unlink()
            bad.mkdir()
        else:
            bad = doc / "manifest.txt"
            bad.write_bytes(b"\xff\xfe\x00" + bad.read_bytes())
            argv[1] = str(bad)
        result = subprocess.run([sys.executable, "-m", "inkscan", *argv],
                                capture_output=True, text=True, env=subprocess_env())
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith(f"inkscan {command}: "), result.stderr
        assert result.stderr.count("\n") == 1, result.stderr
        assert str(bad) in result.stderr
        assert "Traceback" not in result.stderr


# a command process run through `entrypoint`, with an exit handler that reports
# whether the collector was frozen by the time the interpreter exits
EXIT_CHECK = ("import atexit, gc; "
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
              "from inkscan.cli import entrypoint; entrypoint()")


class TestExit:
    """`entrypoint` freezes the collector after `main()` and exits with its code;
    `main()` itself freezes nothing."""

    @pytest.mark.parametrize("case, code", [("scored", 0), ("missing map", 1), ("bad flag", 2)])
    def test_entrypoint_exits_with_main_code_after_freezing(self, small_page, tmp_path,
                                                            capsys, case, code):
        truth = str(small_page / "truth.pgm")
        argv = {"scored": ["eval", truth, truth, "--json"],
                "missing map": ["eval", str(tmp_path / "none.pgm"), truth, "--json"],
                "bad flag": ["eval", truth, truth, "--no-such-flag"]}[case]
        assert main(argv) == code
        expected = capsys.readouterr()
        result = subprocess.run([sys.executable, "-c", EXIT_CHECK, *argv],
                                capture_output=True, text=True, env=subprocess_env())
        assert result.returncode == code, result.stderr
        # the exit handler ran after the whole of main's output went through the pipe
        assert result.stdout == expected.out + "frozen True\n"
        assert result.stderr == expected.err
        if code == 0:
            assert json.loads(expected.out)["accuracy"] == 1.0
        if code == 1:
            assert result.stderr.startswith("inkscan eval: ") and result.stderr.count("\n") == 1
        if code == 2:
            assert "unrecognized arguments: --no-such-flag" in result.stderr

    def test_main_in_process_freezes_nothing(self, small_page, capsys):
        before = gc.get_freeze_count()
        assert main(["eval", str(small_page / "truth.pgm"), str(small_page / "truth.pgm")]) == 0
        assert gc.get_freeze_count() == before


SYNTH_FLAGS = ["--width", "40", "--height", "32", "--bands", "4", "--inks", "3",
               "--noise-sigma", "3", "--coverage", "0.3", "--seed", "2"]


def env_with_blas_threads(threads):
    """`subprocess_env` with OPENBLAS_NUM_THREADS set to `threads`, or unset for None."""
    env = subprocess_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


class TestSynthBlasDefault:
    """A `synth` process asks OpenBLAS for no worker thread unless told
    otherwise; nothing else about the command changes."""

    def test_parsing_synth_flags_loads_no_numpy(self, tmp_path):
        """The default is set in the command body, so it takes effect only
        while parsing the flags has not loaded numpy."""
        script = ("import sys; from inkscan import cli; "
                  "cli.build_parser().parse_args(['synth', '--out-dir', sys.argv[1]]); "
                  "print('numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "d")],
                                capture_output=True, text=True, env=subprocess_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    @pytest.mark.parametrize("threads, seen", [(None, "1"), ("2", "2")])
    def test_process_defaults_to_one_thread(self, tmp_path, threads, seen):
        check = ("import atexit, os; "
                 "atexit.register(lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'))); "
                 "from inkscan.cli import entrypoint; entrypoint()")
        result = subprocess.run(
            [sys.executable, "-c", check, "synth", "--out-dir", str(tmp_path / "d"),
             *SYNTH_FLAGS], capture_output=True, text=True, env=env_with_blas_threads(threads))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == seen

    def test_main_in_process_leaves_the_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert main(["synth", "--out-dir", str(tmp_path / "d"), *SYNTH_FLAGS]) == 0
        assert dict(os.environ) == before

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        pages = []
        for threads in (None, "1", "2"):
            out = tmp_path / str(threads)
            result = subprocess.run(
                [sys.executable, "-m", "inkscan", "synth", "--out-dir", str(out), *SYNTH_FLAGS],
                capture_output=True, env=env_with_blas_threads(threads))
            assert result.returncode == 0, result.stderr
            pages.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(pages[0]) == 4 + 3  # bands, manifest, truth, sidecar
        assert pages[0] == pages[1] == pages[2]


class TestSegmentBlasDefault:
    """A `segment` process whose fit forks asks OpenBLAS for no worker
    thread unless told otherwise, as `synth` does; a one-process fit keeps
    BLAS's default."""

    def test_parsing_segment_flags_loads_no_numpy(self):
        """The --k and --reference checks read `limits`, which loads no numpy."""
        script = ("import sys; from inkscan import cli; "
                  "cli.build_parser().parse_args(['segment', 'doc', '--k', '5', "
                  "'--reference', 'band:2', '--workers', '2']); "
                  "print('numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=subprocess_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    @pytest.mark.parametrize("flags, threads, seen", [
        (["--workers", "2", "--restarts", "2"], None, "1"),
        (["--workers", "2", "--restarts", "2"], "2", "2"),
        (["--workers", "1", "--restarts", "2"], None, "None"),
        (["--workers", "2", "--restarts", "1"], None, "None"),
    ], ids=["forks", "caller-wins", "one-worker", "one-restart"])
    def test_forked_fit_defaults_to_one_thread(self, synth_dir, tmp_path, flags, threads,
                                               seen):
        check = ("import atexit, os; "
                 "atexit.register(lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'))); "
                 "from inkscan.cli import entrypoint; entrypoint()")
        result = subprocess.run(
            [sys.executable, "-c", check, "segment", str(synth_dir / "bands"), "--k", "3",
             *flags, "--out-render", str(tmp_path / "r.ppm"),
             "--out-labels", str(tmp_path / "l.pgm"), "--json"],
            capture_output=True, text=True, env=env_with_blas_threads(threads))
        assert result.returncode == 0, result.stderr
        summary, value = result.stdout.splitlines()  # no child ran the atexit handler
        assert json.loads(summary)["k"] == 3
        assert value == seen

    def test_main_in_process_leaves_the_environment(self, synth_dir, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert main(["segment", str(synth_dir / "bands"), "--k", "3", "--workers", "2",
                     "--restarts", "2", "--out-render", str(tmp_path / "r.ppm"),
                     "--out-labels", str(tmp_path / "l.pgm")]) == 0
        assert dict(os.environ) == before

    def test_lost_worker_exits_1_with_one_line(self, synth_dir, tmp_path, capsys,
                                               monkeypatch):
        fit_once = cluster._fit_once

        def killed_at_seed_1(kern, params, seed):
            if seed == 1:  # the second restart, in the forked worker
                os.kill(os.getpid(), signal.SIGKILL)
            return fit_once(kern, params, seed)

        monkeypatch.setattr(cluster, "_fit_once", killed_at_seed_1)
        render = tmp_path / "r.ppm"
        assert main(["segment", str(synth_dir / "bands"), "--k", "3", "--workers", "2",
                     "--restarts", "2", "--out-render", str(render),
                     "--out-labels", str(tmp_path / "l.pgm")]) == 1
        assert capsys.readouterr().err == ("inkscan segment: the process fitting restarts 1 "
                                           "ended without a result (signal 9)\n")
        assert not render.exists()


# modules a fresh process must not hold after each command ("import": a bare
# `import inkscan`; "help": `inkscan --help`); np.unique imports numpy.ma,
# 15-18 ms a run segment has no use for; numpy's import is about half of eval's time
UNWANTED = {
    "import": ["inkscan.*"],
    "help": ["numpy"],
    "bands": ["inkscan.cluster", "inkscan.synth", "inkscan.scoring", "concurrent.futures",
              "logging"],
    "spectra": ["inkscan.cluster", "inkscan.synth", "inkscan.scoring", "concurrent.futures",
                "logging"],
    "eval": ["inkscan.cluster", "inkscan.synth", "concurrent.futures", "logging", "numpy"],
    "segment": ["inkscan.synth", "inkscan.scoring", "concurrent.futures", "multiprocessing",
                "logging", "numpy.ma"],
    "synth": ["inkscan.cluster", "inkscan.scoring"],
}


@pytest.fixture(scope="module")
def modules_after(tmp_path_factory):
    """The modules loaded by a fresh process after each command runs on a small
    page, and after a bare `import inkscan`."""
    tmp = tmp_path_factory.mktemp("modules")
    doc = tmp / "doc"
    runs = {  # in this order: the page first, eval after segment
        "synth": ["synth", "--out-dir", str(doc), "--width", "40", "--height", "32",
                  "--bands", "6", "--inks", "3", "--noise-sigma", "3", "--coverage", "0.3",
                  "--seed", "2"],
        "bands": ["bands", str(doc / "bands"), "--bands", "1,6", "--out-dir", str(tmp / "v")],
        "spectra": ["spectra", str(doc / "bands"), "--out", str(tmp / "s.csv")],
        "segment": ["segment", str(doc / "bands"), "--k", "3", "--out-render",
                    str(tmp / "r.ppm"), "--out-labels", str(tmp / "l.pgm")],
        "eval": ["eval", str(tmp / "l.pgm"), str(doc / "truth.pgm")],
        "help": ["--help"],
    }
    check = ("import sys; from inkscan.cli import main; "
             "assert main(sys.argv[1:]) == 0; print(*sys.modules)")
    scripts = {command: [check, *argv] for command, argv in runs.items()}
    scripts["import"] = ["import sys, inkscan; print(*sys.modules)"]
    loaded = {}
    for command, script in scripts.items():
        result = subprocess.run([sys.executable, "-c", *script],
                                capture_output=True, text=True, env=subprocess_env())
        assert result.returncode == 0, result.stderr
        loaded[command] = set(result.stdout.splitlines()[-1].split())
    return loaded


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["polish"]) == 2

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_cli_loads_no_undeclared_dependency(self, modules_after):
        # numpy is the only declared runtime dependency; eval scores without it
        for command in ("bands", "spectra", "segment", "synth", "eval"):
            loaded = {name.split(".")[0] for name in modules_after[command]}
            if command != "eval":
                assert "numpy" in loaded, command
            assert not loaded & {"scipy", "hypothesis", "pytest_benchmark"}, command

    @pytest.mark.parametrize("command", UNWANTED)
    def test_command_leaves_modules_unimported(self, modules_after, command):
        """Each command imports only the modules it runs."""
        hits = sorted(name for name in modules_after[command]
                      if any(fnmatchcase(name, pattern) for pattern in UNWANTED[command]))
        assert hits == []

    def test_console_entrypoint_smoke(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "inkscan", "synth", "--out-dir",
             str(tmp_path / "d"), "--width", "16", "--height", "12", "--bands", "2",
             "--inks", "2", "--coverage", "0.25", "--seed", "3"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert result.returncode == 0
        assert (tmp_path / "d" / "truth.pgm").exists()
