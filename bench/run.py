"""inkscan benchmark: end-to-end CLI timings and a traced per-layer replay.

Run from the repository root:

    python3 bench/run.py --workload easy-doc --seed 1 --seconds 45 --trace 0

Every invocation sets up the workload's inputs seven times, runs the CLI
commands as separate processes one at a time (each after a run of
bench/reference.py, whose time scales the end-to-end timings to cancel
the host's speed drift), replays the same steps in
process with spans around every library call, checks the outputs and
scores the close-ink quality sweep. `--trace 0` spends `--seconds` on
repeated CLI runs and reports the end-to-end metrics; `--trace 1` spends
it on repeated replays and reports the per-layer metrics. The last line
of stdout is one JSON object; a full record of the run, and its spans,
go to `.bench_work/results/`. See bench/README.md for the workloads and
for which layer metric should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "inkscan" / "cli.py").is_file():
    sys.exit(f"bench: no inkscan sources under {SRC}")
sys.path.insert(0, str(SRC))

from inkscan import binarize, cluster, hsi_cube, segment, synth  # noqa: E402

import pages  # noqa: E402
import replay  # noqa: E402

SETUPS = 7
MIN_REPS = 2
# A short command runs again within a repetition until it has used this
# much time (at most COMMAND_RUNS times), so its figure rests on more samples.
COMMAND_SECONDS = 1.0
COMMAND_RUNS = 3
IMPORT_PROBES = 5
# A shared host's speed drifts by half or more within minutes, so every
# end-to-end timing is scaled by REFERENCE_SECONDS / (the trimmed mean time
# of bench/reference.py, run before each command in the same run). 0.2 s
# is about that script's time on the 2-vCPU Xeon VM the benchmark was
# tuned on, so the scaled figures read close to seconds there.
REFERENCE_SECONDS = 0.2
# On such a host each vCPU switches between a fast and a slow state, and a
# process keeps the state of the vCPU it lands on, so one command's times
# are bimodal. Their median jumps between the modes from run to run; the
# mean without the fastest and slowest TRIM share moves smoothly with the
# share of slow samples. Command timings and the reference use it;
# setup_s stays the median of the set-ups.
TRIM = 0.1
EASY_MIN_ACCURACY = 0.95
SWEEP_RATIOS = (0.5, 1, 2, 4, 8)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; see bench/README.md for why each exists."""

    page: str                # "easy": the acceptance document; "close": close inks
    page_in_setup: bool      # set-up writes the page; repetitions rewrite it
    chain: tuple             # commands whose times add up to total_s
    workers: int = 1
    max_iter: int = 300


WORKLOADS = {
    "easy-doc": Workload("easy", False, ("synth", "segment", "eval")),
    # --max-iter 12 sits below the fewest iterations any restart needs on
    # these pages, so every restart runs exactly 12 Lloyd iterations and
    # the work does not depend on the seed; a check fails the run if not.
    "close-inks": Workload("close", True, ("segment", "eval"), workers=2, max_iter=12),
}

COMMANDS = ("synth", "segment", "eval", "spectra", "spectra_sample")

END_TO_END = {
    "setup_s": "s", "total_s": "s", "synth_s": "s", "segment_s": "s", "eval_s": "s",
    "spectra_s": "s", "spectra_sample_s": "s", "accuracy": "share",
    "sweep_accuracy_mean": "share", "peak_rss_mb": "MB", "ops_ok_share": "share",
}

PER_LAYER = {
    "rng.normal_block_s": "s", "rng.u64_per_s": "1/s", "rng.sample_indices_s": "s",
    "netpbm.write_s": "s", "netpbm.bytes_written": "bytes", "netpbm.bytes_read": "bytes",
    "hsi_cube.load_cube_s": "s", "hsi_cube.reference_s": "s",
    "binarize.otsu_s": "s", "binarize.threshold_s": "s", "binarize.extract_s": "s",
    "binarize.foreground_px": "count",
    "cluster.init_s": "s", "cluster.fit_s": "s", "cluster.lloyd_s": "s",
    "cluster.iterations": "count", "cluster.iterations_max": "count",
    "cluster.lloyd_s_per_iter": "s", "cluster.assign_pass_s.w1": "s",
    "cluster.assign_pass_s.w2": "s", "cluster.parallel_efficiency": "ratio",
    "cluster.inertia_pass_s": "s", "cluster.assign_flops": "flop",
    "cluster.assign_bytes": "bytes", "cluster.assign_gflops": "GFLOP/s",
    "cluster.restarts_at_best": "share",
    "segment.label_map_s": "s", "segment.render_s": "s", "segment.write_s": "s",
    "segment.csv_s": "s", "segment.csv_rows": "count", "segment.csv_bytes": "bytes",
    "synth.document_s": "s", "synth.eval_s": "s", "synth.eval_mappings": "count",
    **{f"synth.sweep_accuracy.r{r:g}": "share" for r in SWEEP_RATIOS},
    "cli.import_s": "s",
}


class Checks:
    """Commands and output checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


class CommandFailed(Exception):
    pass


def trimmed_mean(values) -> float:
    """Mean of `values` without the lowest and the highest TRIM share."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def run_process(argv, log_dir: Path, tag: str):
    """Run one command to completion; return (seconds, max RSS in MB, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise CommandFailed(f"{tag}: exit {proc.returncode}: "
                            f"{err_path.read_text(errors='replace').strip()[-500:]}")
    return elapsed, usage.ru_maxrss / 1024.0, out_path.read_text()


def command_argv(name: str, wl: Workload, seed: int, size: int, d: Path) -> list:
    inkscan = [sys.executable, "-m", "inkscan"]
    bands = str(d / "doc" / "bands")
    if name == "synth" and wl.page == "close":
        return [sys.executable, str(HERE / "pages.py"), "--out-dir", str(d / "doc"),
                "--size", str(size), "--seed", str(seed)]
    if name == "synth":
        return inkscan + ["synth", "--out-dir", str(d / "doc"), "--width", str(size),
                          "--height", str(size), "--bands", "33", "--inks", "5",
                          "--noise-sigma", "8", "--seed", str(seed), "--json"]
    if name == "segment":
        return inkscan + ["segment", bands, "--threshold", "40", "--k", "5", "--seed", "0",
                          "--restarts", str(pages.RESTARTS), "--max-iter", str(wl.max_iter),
                          "--workers", str(wl.workers), "--out-render", str(d / "render.ppm"),
                          "--out-labels", str(d / "labels.pgm"), "--json"]
    if name == "eval":
        return inkscan + ["eval", str(d / "labels.pgm"), str(d / "doc" / "truth.pgm"), "--json"]
    if name == "spectra":
        return inkscan + ["spectra", bands, "--out", str(d / "spectra.csv"), "--json"]
    return inkscan + ["spectra", bands, "--otsu", "--sample", str(pages.SAMPLE), "--seed", "0",
                      "--out", str(d / "sample.csv"), "--json"]


def digests(root: Path) -> dict:
    """sha256 of every file under `root`, by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def clear_outputs(d: Path) -> None:
    for name in ("render.ppm", "labels.pgm", "spectra.csv", "sample.csv"):
        (d / name).unlink(missing_ok=True)
    shutil.rmtree(d / "doc", ignore_errors=True)


def cli_rep(wl, seed, size, d, logs, rep, checks, record) -> None:
    """One repetition of all CLI commands, in pipeline order."""
    clear_outputs(d)
    summary = {}
    chain_s = 0.0
    for name in COMMANDS:
        record["reference"].append(run_process(
            [sys.executable, str(HERE / "reference.py")], logs, f"rep{rep}-{name}-ref")[0])
        spent, runs = 0.0, 0
        while spent < COMMAND_SECONDS and runs < COMMAND_RUNS:
            seconds, rss, stdout = run_process(command_argv(name, wl, seed, size, d), logs,
                                               f"rep{rep}-{name}-{runs}")
            record["times"].setdefault(name, []).append(seconds)
            record["rss_mb"].setdefault(name, []).append(rss)
            if runs == 0 and name in wl.chain:
                chain_s += seconds
            spent, runs = spent + seconds, runs + 1
        if name != "synth":
            summary[name] = json.loads(stdout)
    record["totals"].append(chain_s)
    accuracy = summary["eval"]["accuracy"]
    record["accuracy"].append(accuracy)
    record["cli"] = summary
    if wl.page == "easy":
        checks.expect(accuracy >= EASY_MIN_ACCURACY,
                      f"rep {rep}: accuracy {accuracy} >= {EASY_MIN_ACCURACY}")
    if record["page"]:
        checks.expect(digests(d / "doc") == record["page"],
                      f"rep {rep}: page digests equal the set-up's")
    outputs = digests(d)
    first = record.setdefault("digests", outputs)
    checks.expect(outputs == first, f"rep {rep}: output digests equal the first run's")


def repeat(step, least: int, seconds: float) -> None:
    """Call step(0), step(1), ... at least `least` times, then while the next
    call is expected to end within `seconds` of the first one's start."""
    started, i, last = time.perf_counter(), 0, 0.0
    while i < least or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        step(i)
        last = time.perf_counter() - began
        i += 1


def setup(wl, seed, size, d, logs, checks, record) -> None:
    """Make the workload's inputs SETUPS times; keep each setup's time."""
    first = None
    for i in range(SETUPS):
        started = time.perf_counter()
        clear_outputs(d)
        d.mkdir(parents=True, exist_ok=True)
        if wl.page_in_setup:
            run_process(command_argv("synth", wl, seed, size, d), logs, f"setup{i}-synth")
        else:
            # warm the interpreter and file cache before the first timed command
            run_process([sys.executable, "-c", "import inkscan.cli"], logs, f"setup{i}-warm")
        record["setup"].append(time.perf_counter() - started)
        if wl.page_in_setup:
            page = digests(d / "doc")
            first = first or page
            checks.expect(page == first, f"setup {i}: page digests equal the first setup's")
    record["page"] = first


def check_csv(path: Path, spectra, checks: Checks) -> None:
    """The full spectra CSV parses back to exactly the extracted spectra."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    coords = np.array([[int(r[0]), int(r[1])] for r in rows], dtype=np.int32)
    values = np.array([[float(v) for v in r[2:]] for r in rows], dtype=np.float64)
    expected = ["x", "y"] + [f"b{j}" for j in range(1, spectra.bands + 1)]
    checks.expect(lines[0].split(",") == expected
                  and coords.tobytes() == spectra.coords.tobytes()
                  and values.tobytes() == spectra.vectors.tobytes(),
                  "full spectra CSV parses back to the extracted spectra")


def check_replay(fig, cli_dir, replay_dir, record, checks) -> None:
    """The replay measured the same program the CLI ran."""
    cli = digests(cli_dir)
    for rel, digest in digests(replay_dir).items():
        checks.expect(cli.get(rel) == digest, f"replay {rel} digest equals the CLI's")
    summary = record["cli"]
    checks.expect(summary["segment"]["pixels"] == fig["foreground"],
                  "segment --json pixels equal the replay's foreground count")
    checks.expect(summary["segment"]["iterations"] == fig["iterations"][fig["winner"]],
                  "segment --json iterations equal the replay's winning restart")
    checks.expect(summary["spectra"]["rows"] == fig["csv_rows"],
                  "spectra --json rows equal the replay's CSV rows")
    checks.expect(summary["eval"]["accuracy"] == fig["accuracy"],
                  "eval accuracy equals the replay's")


def sweep(seed: int, size: int) -> dict:
    """Accuracy of `segment --restarts 5` on a close-ink page per delta/sigma."""
    scores = {}
    for ratio in SWEEP_RATIOS:
        cube, truth = synth.synth_document(
            pages.close_spec(seed, size, ratio * pages.NOISE_SIGMA))
        ref = hsi_cube.reference_image(cube, "mean")
        mask = binarize.threshold_binary(ref, binarize.ThresholdConfig())
        spectra = binarize.extract_spectra(cube, mask)
        params = cluster.KMeansParams(k=pages.INKS, restarts=pages.RESTARTS)
        model = cluster.kmeans_fit(spectra, params, workers=2)
        segmap = segment.build_label_map(mask, model.labels, pages.INKS)
        scores[f"r{ratio:g}"] = synth.best_permutation_accuracy(segmap, truth).accuracy
    return scores


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": commit, "seed": seed}


def measure(args, wl, d: Path, checks: Checks):
    """Set up, run the CLI and the replay, sweep; return (samples, summary, spans)."""
    logs = d / "logs"
    cli_dir, replay_root = d / "cli", d / "replay"
    logs.mkdir(parents=True)
    record = {"setup": [], "times": {}, "rss_mb": {}, "totals": [], "accuracy": [],
              "reference": []}
    started = time.perf_counter()
    setup(wl, args.seed, args.size, cli_dir, logs, checks, record)

    phases = {"setup": time.perf_counter()}
    repeat(lambda rep: cli_rep(wl, args.seed, args.size, cli_dir, logs, rep, checks, record),
           MIN_REPS if args.trace == 0 else 1, args.seconds if args.trace == 0 else 0)
    phases["cli"] = time.perf_counter()

    tracers, layers, counts = [], [], []

    def traced(request):
        tracer = replay.Tracer(request)
        out = replay_root / str(request)
        fig = replay.replay(wl, args.seed, args.size, out, tracer)
        check_replay(fig, cli_dir, out, record, checks)
        if wl.page == "close":
            checks.expect(fig["iterations"] == [wl.max_iter] * pages.RESTARTS
                          and not record["cli"]["segment"]["converged"],
                          f"every restart runs --max-iter {wl.max_iter} without converging, "
                          f"got {fig['iterations']}")
        if request == 0:
            check_csv(cli_dir / "spectra.csv", fig["spectra"], checks)
        if args.trace == 1:
            replay.probe(wl, fig, tracer)
            layers.append(replay.layer_metrics(tracer, fig))
        tracers.append(tracer)
        counts.append(replay.exact_counts(fig))
        shutil.rmtree(out)

    repeat(traced, MIN_REPS if args.trace == 1 else 1, args.seconds if args.trace == 1 else 0)
    for i, c in enumerate(counts[1:], start=1):
        checks.expect(c == counts[0], f"unsteady: replay {i} counts {c} differ from {counts[0]}")
    phases["replay"] = time.perf_counter()

    scores = sweep(args.seed, args.size // 2)
    phases["sweep"] = time.perf_counter()

    chain_cmds = [f"cli.{name}" for name in wl.chain]
    traced_totals = [sum(t.total(n) for n in chain_cmds) for t in tracers]
    raw = {"setup_s": record["setup"], "total_s": record["totals"],
           **{f"{n}_s": record["times"][n] for n in COMMANDS}}
    scale = REFERENCE_SECONDS / trimmed_mean(record["reference"])
    samples = {
        **{name: [t * scale for t in times] for name, times in raw.items()},
        "accuracy": record["accuracy"],
        "peak_rss_mb": [max(max(record["rss_mb"][n]) for n in wl.chain)],
        "sweep_accuracy_mean": [statistics.fmean(scores.values())],
    }
    if args.trace == 1:
        imports = [run_process([sys.executable, "-c", "import inkscan.cli"], logs, f"import{i}")[0]
                   for i in range(IMPORT_PROBES)]
        samples.update({name: [layer[name] for layer in layers] for name in layers[0]})
        samples.update({f"synth.sweep_accuracy.{r}": [v] for r, v in scores.items()})
        samples["cli.import_s"] = imports
    marks = [started, *phases.values()]
    phase_s = {name: b - a for name, a, b in zip(phases, marks, marks[1:])}
    summary = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "size": args.size, "machine": machine_record(args.seed),
        "untraced_total_s": statistics.median(record["totals"]),
        "traced_total_s": statistics.median(traced_totals),
        "traced_chain_commands": list(wl.chain),
        "exact_counts": counts,
        "sweep": scores,
        "phase_s": phase_s,
        "reference_s": record["reference"],
        "scale": scale,
        "raw_samples": raw,
        "samples": samples,
    }
    return samples, summary, [s for t in tracers for s in t.records()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", type=int, default=512,
                        help="page side in pixels (default 512; the sweep uses half)")
    args = parser.parse_args()
    args.seed &= (1 << 64) - 1

    wl = WORKLOADS[args.workload]
    d = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    checks = Checks()
    try:
        samples, summary, spans = measure(args, wl, d, checks)
    except CommandFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(d, ignore_errors=True)

    samples["ops_ok_share"] = [(checks.attempted - len(checks.failures)) / checks.attempted]
    units = PER_LAYER if args.trace else END_TO_END
    trimmed = {"total_s", *(f"{n}_s" for n in COMMANDS)}
    metrics = {name: {"value": (trimmed_mean if name in trimmed else statistics.median)(
        samples[name]), "unit": unit} for name, unit in units.items()}
    summary.update(attempted=checks.attempted, failures=checks.failures, metrics={
        name: dict(m, samples=len(samples[name])) for name, m in metrics.items()})

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(summary, indent=1, default=str) + "\n")
    (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>16.6g} {m['unit']:8} n={len(samples[name])}")
    print(f"traced chain {summary['traced_total_s']:.4f} s vs untraced total_s "
          f"{summary['untraced_total_s']:.4f} s; record in {results / stem}.json")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
