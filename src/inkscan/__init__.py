"""Ink-mismatch detection for hyperspectral document images.

Pipeline: load a band cube, collapse it to a reference image, threshold
ink from paper, cluster the foreground spectra with deterministic
K-means, and render / score the segmentation. The synth module generates
ground-truth documents so the whole chain is quantitatively checkable.

`import inkscan` loads no submodule: each name below, and each submodule
as an attribute, is imported on first use (PEP 562), so a command pays
only for the modules it runs.
"""

_EXPORTS = {
    "binarize": ("ForegroundMask", "SpectrumSet", "ThresholdConfig", "extract_spectra",
                 "normalize_spectra", "otsu_threshold", "threshold_binary"),
    "cluster": ("ClusterModel", "KMeansParams", "assign", "inertia", "kmeans_fit",
                "kmeans_init"),
    "hsi_cube": ("GrayImage", "HyperCube", "band_image", "load_cube", "reference_image",
                 "write_gray_pgm"),
    "segment": ("EvalReport", "SegmentationMap", "best_permutation_accuracy",
                "build_label_map", "confusion_matrix", "default_palette",
                "export_spectra_csv", "read_label_pgm", "render_segmentation",
                "write_label_pgm", "write_rgb_ppm"),
    "synth": ("SynthSpec", "synth_document"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "errors", "netpbm", "rng", "scoring"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # the import statement's path, which `python -X importtime` reports and
        # importlib.import_module bypasses; it binds the submodule here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_HOME[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
