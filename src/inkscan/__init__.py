"""Ink-mismatch detection for hyperspectral document images.

Pipeline: load a band cube, collapse it to a reference image, threshold
ink from paper, cluster the foreground spectra with deterministic
K-means, and render / score the segmentation. The synth module generates
ground-truth documents so the whole chain is quantitatively checkable.
"""

from .binarize import (
    ForegroundMask,
    SpectrumSet,
    ThresholdConfig,
    extract_spectra,
    normalize_spectra,
    otsu_threshold,
    threshold_binary,
)
from .cluster import (
    ClusterModel,
    KMeansParams,
    assign,
    inertia,
    kmeans_fit,
    kmeans_init,
)
from .hsi_cube import (
    GrayImage,
    HyperCube,
    band_image,
    load_cube,
    reference_image,
    write_gray_pgm,
)
from .segment import (
    SegmentationMap,
    build_label_map,
    default_palette,
    export_spectra_csv,
    read_label_pgm,
    render_segmentation,
    write_label_pgm,
    write_rgb_ppm,
)
from .synth import (
    EvalReport,
    SynthSpec,
    best_permutation_accuracy,
    confusion_matrix,
    synth_document,
)

__version__ = "0.1.0"
