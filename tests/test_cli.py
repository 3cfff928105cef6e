"""End-to-end CLI behavior: exit-code families, determinism, composition."""

import json
import subprocess
import sys

import numpy as np
import pytest

from inkscan import netpbm, synth
from inkscan.cli import main
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
        assert rule in err and "does not exist" not in err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("message", [
        "Unable to allocate 32.7 TiB for an array with shape (3000000, 3000000)", ""])
    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                 message):
        def exhausted(spec):
            raise MemoryError(message)

        monkeypatch.setattr(synth, "synth_document", exhausted)
        out = tmp_path / "x"
        assert main(["synth", "--out-dir", str(out), "--width", "3000000",
                     "--height", "3000000", "--bands", "2", "--inks", "2"]) == 1
        err = capsys.readouterr().err
        assert err == f"inkscan synth: {message or 'out of memory'}\n"
        assert not out.exists()

    def test_unattainable_spec_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--out-dir", str(tmp_path / "x"), "--width", "4",
                     "--height", "4", "--bands", "2", "--inks", "5",
                     "--coverage", "0.1", "--seed", "1"])
        assert code == 2


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

    def test_json_summary(self, synth_dir, capsys):
        code = main(["eval", str(synth_dir / "truth.pgm"), str(synth_dir / "truth.pgm"),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["polish"]) == 2

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_cli_loads_no_undeclared_dependency(self):
        # numpy is the only declared runtime dependency
        result = subprocess.run(
            [sys.executable, "-c", "import sys, inkscan.cli; print(*sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        loaded = {name.split(".")[0] for name in result.stdout.split()}
        assert "numpy" in loaded
        assert not loaded & {"scipy", "hypothesis", "pytest_benchmark"}

    def test_console_entrypoint_smoke(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "inkscan", "synth", "--out-dir",
             str(tmp_path / "d"), "--width", "16", "--height", "12", "--bands", "2",
             "--inks", "2", "--coverage", "0.25", "--seed", "3"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "d" / "truth.pgm").exists()
