"""Traced in-process replay of a workload, layer by layer.

The replay calls the public functions of each inkscan module in the
order `inkscan.cli` calls them for the workload's commands, and wraps
every call in a span. Spans stay in memory until the run ends. After the
commands it runs probes: direct calls that isolate a layer the command
sequence cannot time on its own (the 33 noise windows of `synth`, the
CSV sampler, k-means++ init per restart, one assign pass per worker
count, one inertia pass).

The replay writes the same files as the CLI, so its digests prove that
it measured the same program.
"""

import itertools
import time
from contextlib import contextmanager
from pathlib import Path

from inkscan import binarize, cluster, hsi_cube, rng, segment, synth

import pages


class Tracer:
    """Spans (name, start, end, parent) of one replay, kept in memory."""

    def __init__(self, request: int):
        self.request = request
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def total(self, name: str, within: str | None = None) -> float:
        """Summed duration of spans called `name`, optionally under `within`."""
        return sum(end - start for i, (n, start, end, _) in enumerate(self.spans)
                   if n == name and (within is None or self._under(i, within)))

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def records(self) -> list[dict]:
        return [{"request": self.request, "id": i, "name": n, "start": s, "end": e,
                 "parent": p} for i, (n, s, e, p) in enumerate(self.spans)]


def _load_and_threshold(t: Tracer, bands: Path, otsu: bool):
    """`cli._reference` followed by extract, as `spectra` and `segment` run it."""
    with t.span("hsi_cube.load_cube"):
        cube = hsi_cube.load_cube(bands)
    with t.span("hsi_cube.reference_image"):
        ref = hsi_cube.reference_image(cube, "mean")
    threshold = binarize.DEFAULT_THRESHOLD
    if otsu:
        with t.span("binarize.otsu_threshold"):
            threshold = binarize.otsu_threshold(ref)
    with t.span("binarize.threshold_binary"):
        mask = binarize.threshold_binary(ref, binarize.ThresholdConfig(threshold))
    with t.span("binarize.extract_spectra"):
        spectra = binarize.extract_spectra(cube, mask)
    return mask, spectra


def replay(wl, seed: int, size: int, out: Path, t: Tracer) -> dict:
    """Run every step of workload `wl` in process; return layer figures."""
    doc, render, labels = out / "doc", out / "render.ppm", out / "labels.pgm"
    csv_full, csv_sample = out / "spectra.csv", out / "sample.csv"
    spec = pages.easy_spec(seed, size) if wl.page == "easy" else \
        pages.close_spec(seed, size, pages.CLOSE_DELTA)

    with t.span("cli.synth"):
        with t.span("synth.synth_document"):
            cube, truth = synth.synth_document(spec)
        pages.write_page(cube, truth, doc, t.span)

    with t.span("cli.segment"):
        mask, spectra = _load_and_threshold(t, doc / "bands", otsu=False)
        fits = []
        for r in range(pages.RESTARTS):
            params = cluster.KMeansParams(k=pages.INKS, seed=r, max_iterations=wl.max_iter)
            with t.span("cluster.kmeans_fit"):
                fits.append(cluster.kmeans_fit(spectra, params, workers=wl.workers))
        winner = min(range(len(fits)), key=lambda r: fits[r].inertia)  # ties: lowest r
        model = fits[winner]
        with t.span("segment.build_label_map"):
            segmap = segment.build_label_map(mask, model.labels, pages.INKS)
        with t.span("segment.render_segmentation"):
            image = segment.render_segmentation(segmap, segment.default_palette(pages.INKS))
        with t.span("segment.write_rgb_ppm"):
            segment.write_rgb_ppm(image, render)
        with t.span("segment.write_label_pgm"):
            segment.write_label_pgm(segmap, labels)

    with t.span("cli.eval"):
        with t.span("segment.read_label_pgm"):
            pred = segment.read_label_pgm(labels)
            truth_map = segment.read_label_pgm(doc / "truth.pgm")
        with t.span("synth.best_permutation_accuracy"):
            report = synth.best_permutation_accuracy(pred, truth_map)

    with t.span("cli.spectra"):
        _, full = _load_and_threshold(t, doc / "bands", otsu=False)
        with t.span("segment.export_spectra_csv"):
            rows = segment.export_spectra_csv(full, csv_full)

    with t.span("cli.spectra_sample"):
        _, otsu_set = _load_and_threshold(t, doc / "bands", otsu=True)
        with t.span("segment.export_spectra_csv"):
            segment.export_spectra_csv(otsu_set, csv_sample, pages.SAMPLE, 0)

    band_bytes = sum(p.stat().st_size for p in (doc / "bands").iterdir())
    label_bytes = labels.stat().st_size + (doc / "truth.pgm").stat().st_size
    padded = list(range(1, truth_map.k + 1)) + [0] * max(0, pred.k - truth_map.k)
    return {
        "spec": spec,
        "spectra": full,
        "model": model,
        "otsu_count": otsu_set.count,
        "winner": winner,
        "accuracy": report.accuracy,
        "iterations": [f.iterations for f in fits],
        "inertias": [f.inertia for f in fits],
        "foreground": spectra.count,
        "csv_rows": rows,
        "csv_bytes": csv_full.stat().st_size,
        "bytes_written": band_bytes + label_bytes + render.stat().st_size,
        "bytes_read": 3 * band_bytes + label_bytes,  # three cube loads, two label maps
        "normal_draws": pages.BANDS * size * size,
        # the search space of eval's exhaustive bijection scorer
        "eval_mappings": len(set(itertools.permutations(padded, pred.k))),
    }


def probe(wl, fig: dict, t: Tracer) -> None:
    """Time the layers the command sequence cannot isolate on its own."""
    spectra, model = fig["spectra"], fig["model"]
    with t.span("probes"):
        master = rng.SplitMix64(fig["spec"].seed)
        master.spawn_seed()
        master.spawn_seed()
        noise_seed = master.spawn_seed()  # the third child stream feeds synth's noise
        pixels = fig["spec"].width * fig["spec"].height
        for b in range(pages.BANDS):
            with t.span("rng.normal_block"):
                rng.normal_block(noise_seed, 2 * pixels * b, pixels)
        with t.span("rng.sample_indices"):
            rng.SplitMix64(0).sample_indices(fig["otsu_count"],
                                             min(pages.SAMPLE, fig["otsu_count"]))
        for r in range(pages.RESTARTS):
            with t.span("cluster.kmeans_init"):
                cluster.kmeans_init(spectra, cluster.KMeansParams(k=pages.INKS, seed=r))
        for workers in (1, 2):
            with t.span(f"cluster.assign.w{workers}"):
                cluster.assign(model.centroids, spectra, workers=workers)
        with t.span("cluster.inertia"):
            cluster.inertia(model.centroids, spectra, model.labels)


def exact_counts(fig: dict) -> dict:
    """Counts that must repeat exactly from run to run."""
    return {
        "cluster.iterations": sum(fig["iterations"]),
        "cluster.iterations_per_restart": fig["iterations"],
        "binarize.foreground_px": fig["foreground"],
        "segment.csv_rows": fig["csv_rows"],
        "segment.csv_bytes": fig["csv_bytes"],
        "synth.eval_mappings": fig["eval_mappings"],
    }


def layer_metrics(t: Tracer, fig: dict) -> dict:
    """Per-layer figures of one replay, keyed by benchmark metric name."""
    n, b = fig["spectra"].count, fig["spectra"].bands
    k = pages.INKS
    init_s = t.total("cluster.kmeans_init")
    fit_s = t.total("cluster.kmeans_fit")
    iterations = sum(fig["iterations"])
    w1, w2 = t.total("cluster.assign.w1"), t.total("cluster.assign.w2")
    normal_s = t.total("rng.normal_block")
    best = min(fig["inertias"])
    flops = 3 * n * k * b  # subtract, square, add per element
    return {
        "rng.normal_block_s": normal_s,
        "rng.u64_per_s": 2 * fig["normal_draws"] / normal_s,
        "rng.sample_indices_s": t.total("rng.sample_indices"),
        "netpbm.write_s": sum(t.total(name) for name in (
            "hsi_cube.write_gray_pgm", "segment.write_label_pgm", "segment.write_rgb_ppm")),
        "netpbm.bytes_written": fig["bytes_written"],
        "netpbm.bytes_read": fig["bytes_read"],
        "hsi_cube.load_cube_s": t.total("hsi_cube.load_cube"),
        "hsi_cube.reference_s": t.total("hsi_cube.reference_image"),
        "binarize.otsu_s": t.total("binarize.otsu_threshold"),
        "binarize.threshold_s": t.total("binarize.threshold_binary"),
        "binarize.extract_s": t.total("binarize.extract_spectra"),
        "binarize.foreground_px": fig["foreground"],
        "cluster.init_s": init_s,
        "cluster.fit_s": fit_s,
        "cluster.lloyd_s": fit_s - init_s,
        "cluster.iterations": iterations,
        "cluster.iterations_max": max(fig["iterations"]),
        "cluster.lloyd_s_per_iter": (fit_s - init_s) / iterations,
        "cluster.assign_pass_s.w1": w1,
        "cluster.assign_pass_s.w2": w2,
        "cluster.parallel_efficiency": w1 / (2 * w2),
        "cluster.inertia_pass_s": t.total("cluster.inertia"),
        "cluster.assign_flops": flops,
        # compulsory traffic: rows and centroids in, int32 labels out
        "cluster.assign_bytes": 8 * n * b + 8 * k * b + 4 * n,
        "cluster.assign_gflops": flops / w1 / 1e9,
        "cluster.restarts_at_best": sum(i <= best * (1 + 1e-12) for i in fig["inertias"])
        / len(fig["inertias"]),
        "segment.label_map_s": t.total("segment.build_label_map"),
        "segment.render_s": t.total("segment.render_segmentation"),
        "segment.write_s": t.total("segment.write_rgb_ppm", within="cli.segment")
        + t.total("segment.write_label_pgm", within="cli.segment"),
        "segment.csv_s": t.total("segment.export_spectra_csv", within="cli.spectra"),
        "segment.csv_rows": fig["csv_rows"],
        "segment.csv_bytes": fig["csv_bytes"],
        "synth.document_s": t.total("synth.synth_document"),
        "synth.eval_s": t.total("synth.best_permutation_accuracy"),
        "synth.eval_mappings": fig["eval_mappings"],
    }
