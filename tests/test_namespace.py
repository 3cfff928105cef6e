"""`import inkscan` resolves its 32 public names lazily, each to the very
object its submodule defines, and still exposes the submodules themselves."""

import importlib
import subprocess
import sys

import pytest

import inkscan
from conftest import subprocess_env

# the names `inkscan/__init__.py` imported eagerly before it resolved them on first use
EXPORTS = {
    "binarize": ["ForegroundMask", "SpectrumSet", "ThresholdConfig", "extract_spectra",
                 "foreground", "otsu_threshold", "threshold_binary"],
    "cluster": ["ClusterModel", "KMeansParams", "assign", "inertia", "kmeans_fit",
                "kmeans_init"],
    "hsi_cube": ["GrayImage", "HyperCube", "band_image", "load_cube", "reference_image",
                 "write_gray_pgm"],
    "segment": ["EvalReport", "SegmentationMap", "best_permutation_accuracy",
                "build_label_map", "confusion_matrix", "default_palette",
                "export_spectra_csv", "read_label_pgm", "render_segmentation",
                "write_label_pgm", "write_rgb_ppm"],
    "synth": ["SynthSpec", "synth_document"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_32_names():
    assert len(NAMES) == 32
    assert sorted(inkscan.__all__) == sorted(NAMES)


def test_each_name_is_its_submodules_object():
    wrong = [f"{module}.{name}" for module, names in EXPORTS.items() for name in names
             if getattr(inkscan, name) is not getattr(
                 importlib.import_module(f"inkscan.{module}"), name)]
    assert wrong == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'kmeans'"):
        inkscan.kmeans
    assert not hasattr(inkscan, "cli_main")


def test_star_import_binds_every_name():
    scope = {}
    exec("from inkscan import *", scope)
    assert {name: scope.get(name) for name in NAMES} == {
        name: getattr(inkscan, name) for name in NAMES}


def test_submodules_import_on_first_use():
    """In a fresh process, each before anything else loads it: a submodule no
    name comes from, `from inkscan import synth` (as bench/ does), and a
    submodule as an attribute."""
    script = (
        "import sys, inkscan\n"
        "assert inkscan.errors.InvalidSpec.__module__ == 'inkscan.errors'\n"
        "from inkscan import synth\n"
        "assert synth is sys.modules['inkscan.synth'] is inkscan.synth\n"
        "assert 'inkscan.cluster' not in sys.modules\n"
        "assert inkscan.cluster.kmeans_fit is inkscan.kmeans_fit\n"
        "assert 'segment' in dir(inkscan) and 'load_cube' in dir(inkscan)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=subprocess_env())
    assert result.returncode == 0, result.stderr


def test_scoring_names_resolve_without_synth():
    """Scoring lives beside the label maps; a fresh process that scores never loads synth."""
    script = (
        "import sys, numpy as np, inkscan\n"
        "m = inkscan.SegmentationMap(np.array([[0, 1], [2, 1]]), 2)\n"
        "assert inkscan.confusion_matrix(m, m).trace() == 4\n"
        "assert isinstance(inkscan.best_permutation_accuracy(m, m), inkscan.EvalReport)\n"
        "assert 'inkscan.synth' not in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=subprocess_env())
    assert result.returncode == 0, result.stderr
