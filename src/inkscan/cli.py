"""inkscan command-line interface.

Subcommands wire the pipeline end to end: `bands` exports band views,
`spectra` exports foreground spectra as CSV, `segment` clusters ink
pixels and renders the result, `synth` generates a ground-truth document,
and `eval` scores a predicted label map against truth.

The parsed argparse namespace is the run configuration; every flag is
validated up front so a bad invocation exits 2 before any work starts.
Runtime/data failures exit 1 with a message on stderr; success exits 0.
All outputs are deterministic functions of the flags, seeds included.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from . import binarize, cluster, hsi_cube, segment, synth
from .errors import DegenerateHistogram, InkscanError, InvalidSpec


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _cluster_count(text):
    value = _positive_int(text)
    if value > segment.MAX_CLUSTERS:
        raise argparse.ArgumentTypeError(
            f"the default palette colors at most {segment.MAX_CLUSTERS} clusters, got {value}"
        )
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _nonnegative_float(text):
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {value}")
    return value


def _intensity(text):
    value = int(text)
    if not 0 <= value <= 255:
        raise argparse.ArgumentTypeError(f"expected an intensity in 0..255, got {value}")
    return value


def _coverage(text):
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"coverage must lie strictly in (0, 1), got {value}")
    return value


def _seed(text):
    return int(text) & ((1 << 64) - 1)


def _band_list(text):
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("band list is empty")
    try:
        return [int(part) for part in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad band list {text!r}") from None


def _reference_mode(text):
    if text == "mean" or (text.startswith("band:") and text[5:].isdigit()):
        return text
    raise argparse.ArgumentTypeError(
        f"reference mode must be 'mean' or 'band:<i>', got {text!r}"
    )


def _add_threshold_flags(parser):
    parser.add_argument("--threshold", type=_intensity, default=binarize.DEFAULT_THRESHOLD,
                        help="binary threshold t in 0..255 (default 40)")
    parser.add_argument("--polarity", choices=[binarize.KEEP_AT_OR_ABOVE, binarize.KEEP_BELOW],
                        default=binarize.KEEP_AT_OR_ABOVE,
                        help="which side of t is foreground (default keep-at-or-above)")
    parser.add_argument("--otsu", action="store_true",
                        help="pick t automatically (between-class variance); falls back "
                             "to --threshold on constant images")
    parser.add_argument("--reference", type=_reference_mode, default="mean",
                        help="image to threshold: 'mean' or 'band:<i>' (default mean)")


def _add_cluster_flags(parser):
    parser.add_argument("--k", type=_cluster_count, default=5,
                        help=f"number of ink clusters, 1..{segment.MAX_CLUSTERS} (default 5)")
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    parser.add_argument("--init", choices=[cluster.INIT_KMEANSPP, cluster.INIT_RANDOM],
                        default=cluster.INIT_KMEANSPP,
                        help="centroid initialization (default kmeanspp)")
    parser.add_argument("--max-iter", type=_positive_int, default=300,
                        help="Lloyd iteration cap (default 300)")
    parser.add_argument("--tol", type=_nonnegative_float, default=1e-6,
                        help="max centroid displacement declaring convergence (default 1e-6)")
    parser.add_argument("--restarts", type=_positive_int, default=1,
                        help="seeded restarts, best inertia wins (default 1)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="assignment threads; results are identical for any count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inkscan",
        description="Ink-mismatch detection in hyperspectral document images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="export selected bands as PGM files")
    p.add_argument("input", help="band directory or manifest file")
    p.add_argument("--bands", type=_band_list, required=True,
                   help="comma-separated 1-based band indices, e.g. 1,10,30")
    p.add_argument("--out-dir", default=".", help="output directory (default .)")

    p = sub.add_parser("spectra", help="export foreground pixel spectra as CSV")
    p.add_argument("input", help="band directory or manifest file")
    _add_threshold_flags(p)
    p.add_argument("--normalize", choices=["none", "unit-length"], default="none",
                   help="per-row spectrum normalization (default none)")
    p.add_argument("--out", default="spectra.csv", help="output CSV path")
    p.add_argument("--sample", type=_nonnegative_int, default=None,
                   help="export at most this many seeded-uniformly sampled rows")
    p.add_argument("--seed", type=_seed, default=0, help="sampling seed (default 0)")
    p.add_argument("--json", action="store_true", help="print a one-line JSON summary")

    p = sub.add_parser("segment", help="cluster ink pixels and render the segmentation")
    p.add_argument("input", help="band directory or manifest file")
    _add_threshold_flags(p)
    p.add_argument("--normalize", choices=["none", "unit-length"], default="none",
                   help="per-row spectrum normalization before clustering (default none)")
    _add_cluster_flags(p)
    p.add_argument("--out-render", default="segmentation.ppm", help="rendered PPM path")
    p.add_argument("--out-labels", default="labels.pgm", help="label PGM path")
    p.add_argument("--json", action="store_true", help="print a one-line JSON summary")

    p = sub.add_parser("synth", help="generate a synthetic multi-ink document")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--width", type=_positive_int, default=512)
    p.add_argument("--height", type=_positive_int, default=512)
    p.add_argument("--bands", type=_positive_int, default=33)
    p.add_argument("--inks", type=_positive_int, default=5)
    p.add_argument("--noise-sigma", type=_nonnegative_float, default=0.0)
    p.add_argument("--coverage", type=_coverage, default=0.15)
    p.add_argument("--background-level", type=_intensity, default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true", help="print a one-line JSON summary")

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("pred", help="predicted label PGM")
    p.add_argument("truth", help="ground-truth label PGM")
    p.add_argument("--json", action="store_true", help="print a one-line JSON summary")

    return parser


def _reference(args):
    cube = hsi_cube.load_cube(args.input)
    ref = hsi_cube.reference_image(cube, args.reference)
    threshold = args.threshold
    if args.otsu:
        try:
            threshold = binarize.otsu_threshold(ref)
        except DegenerateHistogram:
            print(f"otsu degenerate; falling back to t={threshold}", file=sys.stderr)
    config = binarize.ThresholdConfig(threshold, args.polarity)
    mask = binarize.threshold_binary(ref, config)
    return cube, mask


def cmd_bands(args) -> int:
    cube = hsi_cube.load_cube(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in args.bands:
        image = hsi_cube.band_image(cube, index)
        hsi_cube.write_gray_pgm(image, out_dir / f"band_{index}.pgm")
    print(f"wrote {len(args.bands)} band images to {out_dir}")
    return 0


def cmd_spectra(args) -> int:
    cube, mask = _reference(args)
    spectra = binarize.extract_spectra(cube, mask)
    spectra = binarize.normalize_spectra(spectra, args.normalize)
    rows = segment.export_spectra_csv(spectra, args.out, args.sample, args.seed)
    if args.json:
        print(json.dumps({
            "command": "spectra",
            "pixels": spectra.count,
            "bands": spectra.bands,
            "rows": rows,
            "csv": str(args.out),
        }, sort_keys=True))
    else:
        print(f"pixels={spectra.count} bands={spectra.bands}")
        print(f"wrote {rows} rows to {args.out}")
    return 0


def cmd_segment(args) -> int:
    cube, mask = _reference(args)
    spectra = binarize.extract_spectra(cube, mask)
    spectra = binarize.normalize_spectra(spectra, args.normalize)
    params = cluster.KMeansParams(
        k=args.k,
        init=args.init,
        seed=args.seed,
        max_iterations=args.max_iter,
        tolerance=args.tol,
        restarts=args.restarts,
    )
    model = cluster.kmeans_fit(spectra, params, workers=args.workers)
    segmap = segment.build_label_map(mask, model.labels, args.k)
    palette = segment.default_palette(args.k)
    render = segment.render_segmentation(segmap, palette)
    segment.write_rgb_ppm(render, args.out_render)
    segment.write_label_pgm(segmap, args.out_labels)

    counts = [int((model.labels == c).sum()) for c in range(args.k)]
    if args.json:
        print(json.dumps({
            "command": "segment",
            "pixels": spectra.count,
            "bands": spectra.bands,
            "k": args.k,
            "counts": counts,
            "inertia": model.inertia,
            "iterations": model.iterations,
            "converged": model.converged,
            "render": str(args.out_render),
            "labels": str(args.out_labels),
        }, sort_keys=True))
    else:
        print(f"pixels={spectra.count} bands={spectra.bands} k={args.k}")
        for c, count in enumerate(counts, start=1):
            print(f"cluster_{c}={count}")
        print(f"inertia={model.inertia!r}")
        print(f"iterations={model.iterations} converged={str(model.converged).lower()}")
    return 0


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        width=args.width,
        height=args.height,
        bands=args.bands,
        ink_count=args.inks,
        noise_sigma=args.noise_sigma,
        coverage=args.coverage,
        background_level=args.background_level,
        seed=args.seed,
    )
    cube, truth = synth.synth_document(spec)

    out_dir = Path(args.out_dir)
    bands_dir = out_dir / "bands"
    bands_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for b in range(1, cube.bands + 1):
        name = f"band_{b}.pgm"
        hsi_cube.write_gray_pgm(hsi_cube.band_image(cube, b), bands_dir / name)
        manifest_lines.append(f"{b}\tbands/{name}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    segment.write_label_pgm(truth, out_dir / "truth.pgm")

    ink_pixels = int((truth.labels > 0).sum())
    realized = ink_pixels / (spec.width * spec.height)
    sidecar = {
        "width": spec.width,
        "height": spec.height,
        "bands": spec.bands,
        "ink_count": spec.ink_count,
        "noise_sigma": spec.noise_sigma,
        "coverage": spec.coverage,
        "background_level": spec.background_level,
        "seed": spec.seed,
        "ink_pixels": ink_pixels,
        "realized_coverage": realized,
    }
    (out_dir / "synth_spec.txt").write_text(
        "".join(f"{key}={value}\n" for key, value in sidecar.items()), encoding="utf-8"
    )

    if args.json:
        print(json.dumps({"command": "synth", "out_dir": str(out_dir), **sidecar},
                         sort_keys=True))
    else:
        print(f"wrote {spec.bands} bands, truth.pgm, manifest.txt, synth_spec.txt to {out_dir}")
        print(f"ink_pixels={ink_pixels} realized_coverage={realized:.6f}")
    return 0


def cmd_eval(args) -> int:
    pred = segment.read_label_pgm(args.pred)
    truth = segment.read_label_pgm(args.truth)
    report = synth.best_permutation_accuracy(pred, truth)
    if args.json:
        print(json.dumps({
            "command": "eval",
            "accuracy": report.accuracy,
            "mapping": {str(p): t for p, t in sorted(report.mapping.items())},
            "confusion": report.confusion.tolist(),
        }, sort_keys=True))
    else:
        print(f"accuracy={report.accuracy:.6f}")
        pairs = " ".join(f"{p}->{t}" for p, t in sorted(report.mapping.items()))
        print(f"mapping: {pairs if pairs else '(none)'}")
        print(synth.format_confusion(report.confusion))
    return 0


_COMMANDS = {
    "bands": cmd_bands,
    "spectra": cmd_spectra,
    "segment": cmd_segment,
    "synth": cmd_synth,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InvalidSpec as exc:
        print(f"inkscan {args.command}: {exc}", file=sys.stderr)
        return 2
    except InkscanError as exc:
        print(f"inkscan {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"inkscan {args.command}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
