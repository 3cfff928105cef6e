"""inkscan command-line interface.

Subcommands wire the pipeline end to end: `bands` exports band views,
`spectra` exports foreground spectra as CSV, `segment` clusters ink
pixels and renders the result, `synth` generates a ground-truth document,
and `eval` scores a predicted label map against truth.

Each command builds its configuration records (`ThresholdConfig`,
`KMeansParams`, `SynthSpec`) from the parsed flags before any I/O; the
records are the only validators of the flags they hold, and argparse
checks the rest. So a bad invocation exits 2 before any work starts.
Each command imports only the modules it runs, and building the parser
imports none: `bands` loads `hsi_cube`; `spectra` adds `binarize` and
`segment`; `segment` adds `cluster`; `synth` loads `synth`, `hsi_cube` and
`segment`; and `eval` loads only `scoring` and `netpbm`, whose reader
needs no numpy, so it (like `--help`) runs without numpy. The flag type
checks of `--reference` and `--k` import `limits` when argparse calls
them, which it does only for the chosen command; `limits` loads no numpy,
so parsing the flags of any command loads none.
`spectra` and `segment` gather the foreground's 8-bit band rows, let the
cube go, and only then promote the rows to float64, so the cube and the
float64 spectra are never alive together; under `--normalize unit-length`
the rows go too, and that one float64 copy is divided in place. `synth`
writes each band as `synth.synth_bands` hands it over, with at most two
bands drawn ahead of the one being written, so it never holds the whole
cube; truth, manifest and sidecar follow the last band.
Every command but `bands` prints its summary through `_report`: one
sorted JSON line under `--json`, text lines otherwise, formatted only when
printed. Every output file is written through `netpbm.write_file`, so a
failed write raises IoFailure naming the file.
Runtime/data failures, running out of memory and a stdout that cannot be
written included, exit 1 with a one-line message on stderr; success exits 0.
All outputs are deterministic functions of the flags, seeds included.

A command process ends in `entrypoint`, which the console script and
`python -m inkscan` both run: once `main()` has returned, it freezes the
garbage collector (`gc.freeze()`) and exits with main's code. The
interpreter's collections at exit then skip every object that already
exists, NumPy's included, instead of walking them all after the work is
done; atexit handlers, stream flushes and exit codes run as before. The
freeze is there and not in `main()`, so tests and library callers that
run `main()` in process keep their collector as it was.

A `synth` process defaults `OPENBLAS_NUM_THREADS` to 1 before it loads
numpy: synth calls no BLAS routine, and OpenBLAS's worker would otherwise
spin from numpy's import on, beside synth's noise threads on the same
CPUs. A `segment` process whose fit forks (`--workers` and `--restarts`
both above 1, where `os.fork` exists) takes the same default: each forked
process would otherwise restart OpenBLAS's pool, and their threads would
outnumber the CPUs. A value the caller set wins, and a process that has
numpy loaded already (an in-process caller of `main()`) keeps its
environment as it is. Otherwise the variable is left alone, since a
one-process fit's matrix products use the second BLAS thread.

`segment --workers N` runs the seeded restarts in min(N, restarts)
processes (`cluster.kmeans_fit`). Its output bytes are the same for any
N; each extra process adds its private pages to the memory in use; and
where `os.fork` does not exist, every restart runs in one process.
"""

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .errors import DegenerateHistogram, InkscanError, InvalidSpec


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _cluster_count(text):
    from .limits import MAX_CLUSTERS

    value = _positive_int(text)
    if value > MAX_CLUSTERS:
        raise argparse.ArgumentTypeError(
            f"the default palette colors at most {MAX_CLUSTERS} clusters, got {value}"
        )
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _seed(text):
    return int(text) & ((1 << 64) - 1)


def _band_list(text):
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("band list is empty")
    try:
        bands = [int(part) for part in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad band list {text!r}") from None
    if min(bands) < 1:
        raise argparse.ArgumentTypeError(f"band indices start at 1, got {min(bands)}")
    return bands


def _reference_mode(text):
    from .limits import reference_band

    try:
        reference_band(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_threshold_flags(parser):
    # literal defaults: building the parser imports no numpy-backed module
    parser.add_argument("--threshold", type=int, default=40,
                        help="binary threshold t in 0..255 (default 40)")
    parser.add_argument("--polarity", default="keep-at-or-above",
                        help="which side of t is foreground: keep-at-or-above or keep-below "
                             "(default keep-at-or-above)")
    parser.add_argument("--otsu", action="store_true",
                        help="pick t automatically (between-class variance); falls back "
                             "to --threshold on constant images")
    parser.add_argument("--reference", type=_reference_mode, default="mean",
                        help="image to threshold: 'mean' or 'band:<i>' (default mean)")


def _add_cluster_flags(parser):
    parser.add_argument("--k", type=_cluster_count, default=5,
                        help="number of ink clusters, 1..8 (default 5)")
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    parser.add_argument("--init", default="kmeanspp",
                        help="centroid initialization: kmeanspp or random (default kmeanspp)")
    parser.add_argument("--max-iter", type=int, default=300,
                        help="Lloyd iteration cap (default 300)")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="max centroid displacement declaring convergence (default 1e-6)")
    parser.add_argument("--restarts", type=int, default=1,
                        help="seeded restarts, best inertia wins (default 1)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="processes that share the seeded restarts (default 1); "
                             "output bytes are the same for any count")


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
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=512)
    p.add_argument("--bands", type=int, default=33)
    p.add_argument("--inks", type=int, default=5)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--coverage", type=float, default=0.15)
    p.add_argument("--background-level", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true", help="print a one-line JSON summary")

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("pred", help="predicted label PGM")
    p.add_argument("truth", help="ground-truth label PGM")
    p.add_argument("--json", action="store_true", help="print a one-line JSON summary")

    return parser


def _foreground(args):
    """The ink mask and its (normalized) spectra, as `spectra` and `segment` use them."""
    import dataclasses

    import numpy as np

    from . import binarize, hsi_cube

    config = binarize.ThresholdConfig(args.threshold, args.polarity)
    cube = hsi_cube.load_cube(args.input)
    ref = hsi_cube.reference_image(cube, args.reference)
    if args.otsu:
        try:
            config = dataclasses.replace(config, value=binarize.otsu_threshold(ref))
        except DegenerateHistogram:
            print(f"otsu degenerate; falling back to t={config.value}", file=sys.stderr)
    mask = binarize.threshold_binary(ref, config)
    rows, coords = binarize.gather_foreground(cube, mask)
    del cube, ref  # under band:<i>, ref is a view that keeps the whole cube alive
    if args.normalize == "none":
        return mask, binarize.SpectrumSet(rows.T, coords)
    vectors = rows.T.astype(np.float64, order="F")
    del rows  # the rows go before the float64 copy is divided in place
    return mask, binarize.SpectrumSet(binarize.scale_to_unit_length(vectors), coords)


def _report(args, summary: dict, text) -> None:
    """Print a command's summary: under `--json` one line holding `summary`
    and the command's name, otherwise the lines that `text()` returns. Only
    text mode calls `text`, so `--json` formats nothing it does not print."""
    if args.json:
        print(json.dumps({"command": args.command, **summary}, sort_keys=True))
    else:
        print(*text(), sep="\n")


def cmd_bands(args) -> int:
    from . import hsi_cube

    images = hsi_cube.load_bands(args.input, args.bands)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, image in zip(args.bands, images):
        hsi_cube.write_gray_pgm(image, out_dir / f"band_{index}.pgm")
    print(f"wrote {len(args.bands)} band images to {out_dir}")
    return 0


def cmd_spectra(args) -> int:
    from . import segment

    _, spectra = _foreground(args)
    rows = segment.export_spectra_csv(spectra, args.out, args.sample, args.seed)
    _report(args, {"pixels": spectra.count, "bands": spectra.bands, "rows": rows,
                   "csv": str(args.out)},
            lambda: [f"pixels={spectra.count} bands={spectra.bands}",
                     f"wrote {rows} rows to {args.out}"])
    return 0


def cmd_segment(args) -> int:
    if args.workers > 1 and args.restarts > 1 and hasattr(os, "fork"):  # the fit forks
        _default_one_blas_thread()
    import numpy as np

    from . import cluster, segment

    params = cluster.KMeansParams(
        k=args.k,
        init=args.init,
        seed=args.seed,
        max_iterations=args.max_iter,
        tolerance=args.tol,
        restarts=args.restarts,
    )
    mask, spectra = _foreground(args)
    model = cluster.kmeans_fit(spectra, params, args.workers)
    segmap = segment.build_label_map(mask, model.labels, args.k)
    palette = segment.default_palette(args.k)
    render = segment.render_segmentation(segmap, palette)
    segment.write_rgb_ppm(render, args.out_render)
    segment.write_label_pgm(segmap, args.out_labels)

    counts = np.bincount(model.labels, minlength=args.k).tolist()
    _report(args, {"pixels": spectra.count, "bands": spectra.bands, "k": args.k,
                   "counts": counts, "inertia": model.inertia,
                   "iterations": model.iterations, "converged": model.converged,
                   "render": str(args.out_render), "labels": str(args.out_labels)},
            lambda: [f"pixels={spectra.count} bands={spectra.bands} k={args.k}",
                     *(f"cluster_{c}={count}" for c, count in enumerate(counts, start=1)),
                     f"inertia={model.inertia!r}",
                     f"iterations={model.iterations} converged={str(model.converged).lower()}"])
    return 0


def _default_one_blas_thread() -> None:
    if "numpy" not in sys.modules:  # OpenBLAS reads it once, as numpy loads
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def cmd_synth(args) -> int:
    import dataclasses

    _default_one_blas_thread()
    from . import hsi_cube, netpbm, segment, synth

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
    out_dir = Path(args.out_dir)
    manifest_lines = []

    def write_band(b, plane):
        name = f"bands/band_{b + 1}.pgm"
        if b == 0:  # made here, so a spec failure leaves no out_dir
            (out_dir / "bands").mkdir(parents=True, exist_ok=True)
        hsi_cube.write_gray_pgm(hsi_cube.GrayImage(plane), out_dir / name)
        manifest_lines.append(f"{b + 1}\t{name}\n".encode())

    truth = synth.synth_bands(spec, write_band)
    netpbm.write_file(out_dir / "manifest.txt", manifest_lines)
    segment.write_label_pgm(truth, out_dir / "truth.pgm")

    ink_pixels = int((truth.labels > 0).sum())
    realized = ink_pixels / (spec.width * spec.height)
    sidecar = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)
               if f.name != "ink_signatures"}
    sidecar.update(ink_pixels=ink_pixels, realized_coverage=realized)
    netpbm.write_file(out_dir / "synth_spec.txt",
                      (f"{key}={value}\n".encode() for key, value in sidecar.items()))
    _report(args, {"out_dir": str(out_dir), **sidecar},
            lambda: [f"wrote {spec.bands} bands, truth.pgm, manifest.txt, synth_spec.txt "
                     f"to {out_dir}",
                     f"ink_pixels={ink_pixels} realized_coverage={realized:.6f}"])
    return 0


def cmd_eval(args) -> int:
    from . import scoring

    pred = scoring.read_label_raster(args.pred)
    truth = scoring.read_label_raster(args.truth)
    accuracy, mapping, counts = scoring.best_bijection(pred, truth)
    pairs = sorted(mapping.items())
    _report(args, {"accuracy": accuracy, "mapping": {str(p): t for p, t in pairs},
                   "confusion": counts},
            lambda: [f"accuracy={accuracy:.6f}",
                     "mapping: " + (" ".join(f"{p}->{t}" for p, t in pairs) or "(none)"),
                     scoring.format_confusion(counts)])
    return 0


_COMMANDS = {
    "bands": cmd_bands,
    "spectra": cmd_spectra,
    "segment": cmd_segment,
    "synth": cmd_synth,
    "eval": cmd_eval,
}


def _drop_unwritable_stdout() -> None:
    """Point stdout at the null device if it cannot take what it holds, so
    the interpreter's own flush at exit does not fail a second time."""
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a full disk or a closed pipe fails here, not at exit
        return code
    except (InkscanError, OSError, MemoryError) as exc:
        _drop_unwritable_stdout()
        print(f"inkscan {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidSpec) else 1


def entrypoint() -> None:
    """Run `main()` as this process's command and exit with its code.

    The process ends here, so the objects alive at this point need no
    collecting: `gc.freeze()` keeps the exit's collections from walking
    them. It is here and not in `main()`, so in-process callers of `main()`
    keep their collector as it was.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
