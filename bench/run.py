"""Benchmark of the seqstat package: one workload per run.

Usage, from the repository root::

    python3 bench/run.py --workload seq-long --seed 7 --seconds 20 --trace 0

The package is imported from ``src/`` beside this directory; nothing is
installed and nothing under ``src/`` is changed.  The run prints one line per
metric and, as its last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken from a
traced window that follows an untraced one.  Run metadata, per-pass timings
and the spans go to ``.bench_build/bench/`` under the repository root.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"

# Set-up (import, inputs, warm-up) is repeated this many times; the median counts.
SETUP_REPEATS = 5
# Trials per class driven through seq_binary_step for classifiers.step_us.
STEP_PROBE_TRIALS = 20
# Philox streams per reference loop (1.5 to 2.5 ms on the bench box).
REF_STREAMS = 20

END_TO_END = (
    ("work_per_ref", "1/ref"),
    ("row_ref_p50", "ref"),
    ("row_ref_p90", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("probability.streams_keyed", "count"),
    ("probability.bit_generator_us", "us"),
    ("probability.sample_indices_us", "us"),
    ("probability.self_ms", "ms"),
    ("classifiers.score_evals", "count"),
    ("classifiers.step_us", "us"),
    ("classifiers.gutman_us", "us"),
    ("classifiers.self_ms", "ms"),
    ("divergence.gjs_calls", "count"),
    ("divergence.gjs_us", "us"),
    ("divergence.chernoff_us", "us"),
    ("divergence.self_ms", "ms"),
    ("fixedpoint.solves", "count"),
    ("fixedpoint.solve_ms", "ms"),
    ("fixedpoint.iterations_mean", "count"),
    ("fixedpoint.residual_max", "nat"),
    ("fixedpoint.self_ms", "ms"),
    ("exponents.crossings", "count"),
    ("exponents.crossing_ms_p50", "ms"),
    ("exponents.crossing_ms_p90", "ms"),
    ("exponents.self_ms", "ms"),
    ("simulator.symbol_steps", "count"),
    ("simulator.self_ms", "ms"),
    ("simulator.pools_started", "count"),
    ("simulator.speedup_w2", "x"),
    ("cli.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("seq-long", "seq-short", "exponent-table", "cli-mixed"))
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; 7 is the default, 20191203 the held-out seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# metadata


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def machine() -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        size = _read(f"{base}/{entry}/size")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def source() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


# ----------------------------------------------------------------------
# set-up


def import_seconds() -> float:
    """Time ``import seqstat.cli`` (numpy included) in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import seqstat.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def set_up(cls, seed: int):
    """Build the workload's inputs and make one untimed warm-up call."""
    workload = cls(seed, str(OUT_DIR / "work"))
    workload.jobs[0].run()
    return workload


# ----------------------------------------------------------------------
# timed passes


def reference_loop() -> float:
    """Seconds taken by a fixed loop that never touches seqstat: one ``ref``.

    It mixes what the package spends its time on (Philox keying, small numpy
    calls, scalar ``math.log`` in Python loops), so host contention slows it
    about as much as it slows a pass.  The loop runs three times and the
    fastest counts, which drops transient stalls such as the tear-down of a
    worker pool.  Each pass is reported in units of the loops run just
    before and just after it.
    """
    import numpy as np

    cdf = np.cumsum([0.1, 0.7, 0.2])
    fastest = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(REF_STREAMS):
            rng = np.random.Generator(np.random.Philox(key=np.array([7, k], dtype=np.uint64)))
            counts = np.bincount(np.searchsorted(cdf, rng.random(400), side="right"), minlength=3)
            for n in range(1, 60):
                for c in counts.tolist():
                    acc += c * math.log((c + n) / (n + 400.0))
        fastest = min(fastest, time.perf_counter() - t0)
    return fastest


class Window:
    """Passes of one timed window: per-job timings, results and failures."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.seconds: list[list[float]] = [[] for _ in jobs]
        self.refs: list[list[float]] = [[] for _ in jobs]
        self.results: list[object] = [None] * len(jobs)
        self.passes: list[tuple[int, float, float]] = []
        self.cycles = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.failures.extend(messages)

    def cost(self, first: int | None = None) -> list[float | None]:
        """Median cost of each job in ``ref``, over all passes or the first ``first``."""
        return [
            statistics.median(s / r for s, r in zip(sec[:first], ref[:first])) if sec else None
            for sec, ref in zip(self.seconds, self.refs)
        ]

    def median_seconds(self) -> list[float | None]:
        return [statistics.median(sec) if sec else None for sec in self.seconds]


def run_window(workload, jobs, seconds: float, min_cycles: int, max_cycles: int | None = None,
               tracer=None, pass_ids: list | None = None) -> Window:
    """Run ``jobs`` round-robin until ``seconds`` pass and ``min_cycles`` are done.

    Each job is checked on every pass; after each full cycle the pooled
    stopping laws are checked on the cycle's results.  An exception or a
    failed check counts the operation as failed and the run goes on.
    """
    window = Window(jobs)
    start = time.perf_counter()
    ref_before = reference_loop()
    while True:
        for j, job in enumerate(jobs):
            window.attempted += 1
            if tracer is not None:
                tracer.pass_id = len(pass_ids)
                pass_ids.append(j)
            t0 = time.perf_counter()
            try:
                result = job.run()
            except Exception as exc:  # the benchmark must keep running and count it
                window.results[j] = None
                window.fail([f"{job.label}: raised {type(exc).__name__}: {exc}"])
                continue
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.pass_id = -1
            ref_after = reference_loop()
            ref = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            window.seconds[j].append(elapsed)
            window.refs[j].append(ref)
            window.passes.append((j, elapsed, ref))
            window.results[j] = result
            try:
                problems = workload.check(j, result)
            except Exception as exc:
                problems = [f"{job.label}: check raised {type(exc).__name__}: {exc}"]
            if problems:
                window.fail(problems)
            if window.cycles >= min_cycles and time.perf_counter() - start >= seconds:
                return window
        window.cycles += 1
        window.attempted += 1
        if any(r is None for r in window.results):
            window.fail([f"cycle {window.cycles}: pooled checks skipped, a pass raised"])
        else:
            try:
                problems = workload.check_cycle(window.results)
            except Exception as exc:
                problems = [f"cycle {window.cycles}: check raised {type(exc).__name__}: {exc}"]
            if problems:
                window.fail(problems)
        if max_cycles is not None and window.cycles >= max_cycles:
            return window
        if window.cycles >= min_cycles and time.perf_counter() - start >= seconds:
            return window


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, window: Window, setup_s: float) -> tuple[dict, dict]:
    """Gate metrics in ``ref`` units, plus the wall-clock figures printed beside them."""
    cost = window.cost()
    wall = window.median_seconds()
    done = [j for j, c in enumerate(cost) if c is not None and window.results[j] is not None]
    if not done:
        raise RuntimeError("no pass of any job completed")
    rows = [window.jobs[j].rows for j in done]
    steps = sum(workload.steps(j, window.results[j]) for j in done)
    trials = sum(workload.trials(j, window.results[j]) for j in done)
    work = steps if workload.kind == "simulation" else sum(rows)
    row_cost = [cost[j] / n for j, n in zip(done, rows)]
    row_ms = [wall[j] / n * 1e3 for j, n in zip(done, rows)]
    wall_s = sum(wall[j] for j in done)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "work_per_ref": work / sum(cost[j] for j in done),
        "row_ref_p50": statistics.median(row_cost),
        "row_ref_p90": quantile(row_cost, 90),
        "setup_s": setup_s,
        "peak_rss_mb": (usage + children) / 1024.0,
    }
    refs = [r for _, _, r in window.passes]
    printed = {
        "trials_per_s": trials / wall_s,
        "symbol_steps_per_s": steps / wall_s,
        "rows_per_s": sum(rows) / wall_s,
        "row_ms_p50": statistics.median(row_ms),
        "row_ms_p90": quantile(row_ms, 90),
        "row_samples": len(done),
        "passes": len(window.passes),
        "ref_ms_p50": statistics.median(refs) * 1e3,
        "ref_ms_p10": quantile(refs, 10) * 1e3,
        "ref_ms_p90": quantile(refs, 90) * 1e3,
        "failed_frac": window.failed / window.attempted,
    }
    return metrics, printed


# ----------------------------------------------------------------------
# traced window


def per_layer(workload, window: Window, traced: Window, tracer, split: set[int], split_rows: int,
              parent: set[int], parent_cycles: int, speedup: float, step_us: float) -> dict:
    """Per-layer figures from the spans of the traced window.

    ``split`` holds the traced passes of the workload's own jobs, which give
    the self-time split and the per-call costs.  ``parent`` holds the passes
    that give the pool and command-line figures: on ``cli-mixed`` the same
    invocations with a 2-worker pool, elsewhere the same passes as ``split``.
    """
    split_cycles = workload.cycles

    def durations(name: str, passes: set[int] = split) -> list[float]:
        return tracer.durations(name, passes)

    def ms_per_row(layer: str) -> float:
        return self_s[layer] * 1e3 / split_rows

    self_s = tracer.self_times(split)
    gjs = durations("divergence.gjs")
    solves = tracer.solves(split)
    crossings = durations("exponents.gutman_bayes_exponent")
    gutman = durations("classifiers.gutman_binary") + durations("classifiers.gutman_multiclass")
    parent_spans = tracer.spans(parent)
    cli_self = [
        (tracer.end[i] - tracer.start[i])
        - sum(tracer.end[c] - tracer.start[c] for c in parent_spans if tracer.parent[c] == i)
        for i in parent_spans
        if tracer.names[tracer.name[i]] == "cli.main"
    ]
    untraced = sum(c for c in window.cost(workload.cycles) if c is not None)
    with_spans = sum(c for c in traced.cost() if c is not None)
    jobs = range(len(workload.jobs))
    return {
        "probability.streams_keyed": len(durations("probability.bit_generator")) / split_cycles,
        "probability.bit_generator_us": mean_us(durations("probability.bit_generator")),
        "probability.sample_indices_us": mean_us(durations("probability.sample_indices")),
        "probability.self_ms": ms_per_row("probability"),
        "classifiers.score_evals": sum(workload.score_evals(j, window.results[j]) for j in jobs),
        "classifiers.step_us": step_us,
        "classifiers.gutman_us": mean_us(gutman),
        "classifiers.self_ms": ms_per_row("classifiers"),
        "divergence.gjs_calls": len(gjs) / split_cycles,
        "divergence.gjs_us": mean_us(gjs),
        "divergence.chernoff_us": mean_us(durations("divergence.chernoff")),
        "divergence.self_ms": ms_per_row("divergence"),
        "fixedpoint.solves": len(solves) / split_cycles,
        "fixedpoint.solve_ms": mean_us(durations("fixedpoint.solve_fixed_point")) / 1e3,
        "fixedpoint.iterations_mean": statistics.fmean(s[0] for s in solves) if solves else 0.0,
        "fixedpoint.residual_max": max((s[1] for s in solves), default=0.0),
        "fixedpoint.self_ms": ms_per_row("fixedpoint"),
        "exponents.crossings": len(crossings) / split_cycles,
        "exponents.crossing_ms_p50": statistics.median(crossings) * 1e3 if crossings else 0.0,
        "exponents.crossing_ms_p90": quantile(crossings, 90) * 1e3 if crossings else 0.0,
        "exponents.self_ms": ms_per_row("exponents"),
        "simulator.symbol_steps": sum(workload.steps(j, window.results[j]) for j in jobs),
        "simulator.self_ms": ms_per_row("simulator"),
        "simulator.pools_started": len(durations("simulator.pool", parent)) / parent_cycles,
        "simulator.speedup_w2": speedup,
        "cli.overhead_ms": statistics.fmean(cli_self) * 1e3 if cli_self else 0.0,
        "trace.overhead_pct": (with_spans / untraced - 1.0) * 100.0,
    }


def mean_us(values: list[float]) -> float:
    return statistics.fmean(values) * 1e6 if values else 0.0


def traced_run(workload, window: Window) -> tuple[dict, list[Window], dict]:
    """Re-run the jobs with spans on; derive the per-layer figures."""
    from spans import Tracer

    tracer = Tracer()
    pass_ids: list[int] = []
    tracer.install()
    try:
        traced = run_window(workload, workload.jobs, 0.0, workload.cycles, workload.cycles, tracer, pass_ids)
        windows = [traced]
        split_passes = set(range(len(pass_ids)))
        parent_passes, parent_cycles = split_passes, workload.cycles
        if workload.pool_workers > 1:
            # the same invocations with a worker pool, traced from the parent
            # side only: spans inside worker processes are not recorded
            start = len(pass_ids)
            windows.append(run_window(workload, workload.pool_jobs(), 0.0, 1, 1, tracer, pass_ids))
            parent_passes, parent_cycles = set(range(start, len(pass_ids))), 1
    finally:
        tracer.uninstall()
    speedup = 0.0
    if workload.pool_workers > 1:
        pooled = run_window(workload, workload.pool_jobs(), 0.0, workload.cycles, workload.cycles)
        windows.append(pooled)
        speedup = sum(c for c in window.cost(workload.cycles) if c is not None) / sum(
            c for c in pooled.cost() if c is not None
        )
    step_us = 0.0
    if workload.kind == "simulation":
        step_seconds, steps = workload.step_probe(STEP_PROBE_TRIALS)
        step_us = step_seconds / steps * 1e6
    split_rows = sum(j.rows for j in workload.jobs) * workload.cycles
    metrics = per_layer(workload, window, traced, tracer, split_passes, split_rows,
                        parent_passes, parent_cycles, speedup, step_us)
    spans = tracer.dump()
    spans["pass_job"] = pass_ids
    return metrics, windows, spans


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqstat" / "__init__.py").is_file():
        print(f"error: no seqstat package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    import seqstat

    if Path(seqstat.__file__).resolve().parent != SRC / "seqstat":
        print(f"error: seqstat imported from {seqstat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    setups = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = set_up(cls, args.seed)
        setups.append(time.perf_counter() - t0)
        if inputs is not None and workload.inputs() != inputs:
            raise RuntimeError("the same seed produced different inputs")
        inputs = workload.inputs()
    setup_s = statistics.median(imports) + statistics.median(setups)
    workload.prepare()

    window = run_window(workload, workload.jobs, args.seconds, workload.cycles)
    metrics, extra = end_to_end(workload, window, setup_s)
    windows = [window]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "source": source(),
        "setup": {"import_s": imports, "inputs_and_warm_up_s": setups},
        "end_to_end": metrics,
        "printed": extra,
    }
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in report["machine"].items()))
    print("source " + " ".join(f"{k}={v}" for k, v in report["source"].items()))
    print(f"  {'setup_s':<22}{metrics['setup_s']:.4f} s  (median of {SETUP_REPEATS})")
    print(f"  {'peak_rss_mb':<22}{metrics['peak_rss_mb']:.1f} MB")
    if workload.kind == "simulation":
        print(f"  {'trials_per_s':<22}{extra['trials_per_s']:.1f} 1/s")
        print(f"  {'symbol_steps_per_s':<22}{extra['symbol_steps_per_s']:.1f} 1/s")
    else:
        print(f"  {'rows_per_s':<22}{extra['rows_per_s']:.3f} 1/s")
    print(f"  {'row_ms_p50':<22}{extra['row_ms_p50']:.3f} ms  ({extra['row_samples']} jobs, "
          f"{extra['passes']} passes, {sum(j.rows for j in workload.jobs)} rows a cycle)")
    print(f"  {'row_ms_p90':<22}{extra['row_ms_p90']:.3f} ms")
    print(f"  gated, in ref units (1 ref = {extra['ref_ms_p50']:.3f} ms median in this run, "
          f"p10 {extra['ref_ms_p10']:.3f}, p90 {extra['ref_ms_p90']:.3f}):")
    for name in ("work_per_ref", "row_ref_p50", "row_ref_p90"):
        print(f"  {name:<22}{metrics[name]:.6g} {dict(END_TO_END)[name]}")

    if args.trace:
        layer, traced_windows, spans = traced_run(workload, window)
        windows.extend(traced_windows)
        report["per_layer"] = layer
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        with open(spans_path, "w") as handle:
            json.dump(spans, handle)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        print("  per-layer (self_ms is self time per report row in the traced window):")
        for name, unit in PER_LAYER:
            print(f"    {name:<32}{layer[name]:.6g} {unit}")

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    failures = [m for w in windows for m in w.failures]
    print(f"  {'failed_frac':<22}{failed / attempted:.4g}  ({failed} of {attempted} operations)")
    for message in failures[:20]:
        print(f"  FAILED {message}")
    report["attempted"] = attempted
    report["failed"] = failed
    report["failures"] = failures
    report["passes"] = [
        {"window": k, "columns": ["job", "seconds", "ref_seconds"],
         "passes": [[w.jobs[j].label, s, ref] for j, s, ref in w.passes]}
        for k, w in enumerate(windows)
    ]
    results_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"results {results_path.relative_to(ROOT)}")

    names = PER_LAYER if args.trace else END_TO_END
    values = report["per_layer"] if args.trace else metrics
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
