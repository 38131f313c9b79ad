"""End-to-end benchmark of the archival stack: four seeded closed-loop workloads.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 ulebench/run.py                       # all four workloads, one process each
    python3 ulebench/run.py --workload paper-batch --seed 3 --seconds 25
    python3 ulebench/run.py --workload service-mix --trace 1   # per-layer breakdown

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every other
op of each kind and prints the per-layer metrics plus the tracing overhead
(traced against untraced ops of the same run, interleaved).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--ops N`` times exactly ``N`` ops instead of a time budget (used by
``repeatability_check.py``); ``--scale`` shrinks the payloads.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_ROOT = ROOT / ".ulebench-work"

E2E_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "write_p50_ms": "ms",
    "stored_bytes_per_payload_byte": "B/B",
    "frames_per_payload_mb": "frames/MB",
    "peak_rss_mb": "MB",
}


def percentile_ms(samples: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if len(samples) == 1:
        return samples[0] * 1000.0
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1] * 1000.0


def measure(name: str, args: argparse.Namespace, *, traced: bool) -> dict[str, Any]:
    """Set up (several times), warm up, then run the timed closed loop."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = cls(args.seed, workdir, args.scale, traced)
    tracer = None
    try:
        workload.prepare()
        setup_times = []
        # Set-up is timed several times (median reported); a traced run
        # reports no end-to-end metric and sets up once.
        for attempt in range(1 if traced else cls.setup_repeats):
            if attempt:
                workload.undo_setup()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        stored, frames, payload_bytes = workload.footprint()

        if traced and name != "service-mix":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

        problems: list[str] = []
        sequence = 0
        # Warm-up: every workload's sequence starts with one write then one
        # read, so the first op of each kind (executor pools, lazily built
        # tables, first reader open) is run and checked but not timed.
        for _ in range(2):
            op = workload.op(sequence)
            sequence += 1
            if not op.check(op.run()):
                problems.append(f"warm-up {op.kind} op returned wrong output")
        cache_before = workload.cache_counters()

        # Samples per (kind, traced); an untraced run only fills traced=False.
        samples: dict[tuple[str, bool], list[float]] = {
            (kind, on): [] for kind in ("read", "write") for on in (False, True)}
        payload_done = {"read": 0, "write": 0}
        read_windows: list[tuple[float, float]] = []
        attempted = failed = 0
        wall = 0.0
        loop_start = time.perf_counter()
        deadline = loop_start + args.seconds
        while (attempted < args.ops) if args.ops else (time.perf_counter() < deadline):
            kind = workload.kind(sequence)
            trace_op = traced and len(samples[kind, True]) <= len(samples[kind, False])
            op = workload.op(sequence, trace_op)
            if tracer is not None and trace_op:
                tracer.enabled = True
                tracer.begin_op(sequence, op.kind)
            sequence += 1
            attempted += 1
            error = None
            started = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            ended = time.perf_counter()
            if tracer is not None and trace_op:
                tracer.end_op()
                tracer.enabled = False
            if error is None and not op.check(result):
                error = "wrong output"
            if error is not None:
                failed += 1
                if failed <= 5:
                    print(f"  op {sequence - 1} ({op.kind}) failed: {error}", file=sys.stderr)
                continue
            samples[op.kind, trace_op].append(ended - started)
            if trace_op or not traced:
                wall += ended - started
                payload_done[op.kind] += op.payload_bytes
                if op.kind == "read":
                    read_windows.append((started, ended))
        loop_end = time.perf_counter()

        cache_after = workload.cache_counters()
        peak_rss = workload.peak_rss_mb()
        problems += workload.finish()
        spans = workload.program_spans() if traced else []
        if tracer is not None:
            tracer.uninstall()
            spans += tracer.spans
        return {
            "setup_times": setup_times,
            "stored": stored,
            "frames": frames,
            "payload_bytes": payload_bytes,
            "peak_rss_mb": peak_rss,
            "samples": samples,
            "payload_done": payload_done,
            "read_windows": read_windows,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "wall": wall,
            "window": (loop_start, loop_end),
            "cache": {key: cache_after[key] - cache_before[key] for key in cache_after},
            "spans": spans,
            "input_digest": workload.rng_digest.hexdigest(),
            "emulator_steps": workload.emulator_steps,
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            WORK_ROOT.rmdir()


def end_to_end(run: dict[str, Any]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count)."""
    reads, writes = run["samples"]["read", False], run["samples"]["write", False]
    payload_mb = run["payload_bytes"] / 1e6
    return {
        "setup_s": (statistics.median(run["setup_times"]), len(run["setup_times"])),
        "read_p50_ms": (statistics.median(reads) * 1000.0, len(reads)),
        "read_p90_ms": (percentile_ms(reads, 0.9), len(reads)),
        "write_p50_ms": (statistics.median(writes) * 1000.0, len(writes)),
        "stored_bytes_per_payload_byte": (run["stored"] / run["payload_bytes"], 1),
        "frames_per_payload_mb": (run["frames"] / payload_mb, 1),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
    }


def per_layer(run: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced ops; overhead against the untraced ones."""
    from tracing import LAYER_METRICS, layer_metrics

    samples = run["samples"]
    ops = {
        "wall_s": run["wall"],
        "ops": len(samples["read", True]) + len(samples["write", True]),
        "reads": len(samples["read", True]),
        "writes": len(samples["write", True]),
        "read_payload_bytes": run["payload_done"]["read"],
        "write_payload_bytes": run["payload_done"]["write"],
        "read_windows": run["read_windows"],
    }
    metrics = layer_metrics(run["spans"], window=run["window"], ops=ops, cache=run["cache"])
    for kind in ("read", "write"):
        plain, traced = samples[kind, False], samples[kind, True]
        metrics[f"trace.{kind}_overhead_share"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
            if plain and traced else 0.0)
    return {name: (metrics[name], unit) for name, (unit, _) in LAYER_METRICS.items()}


def exact_counts(run: dict[str, Any], layers: dict[str, Any] | None) -> dict[str, Any]:
    """Counts that must repeat exactly for one seed and op count."""
    counts = {
        "input_digest": run["input_digest"],
        "stored_bytes": run["stored"],
        "frames": run["frames"],
        "payload_bytes": run["payload_bytes"],
        "emulator_steps": run["emulator_steps"],
        "cache": run["cache"],
    }
    if layers is not None:
        counts["outer_reconstructions"] = round(
            layers["mocoder.outer_reconstructions_per_read"][0]
            * len(run["samples"]["read", True]))
        counts["rs_corrections"] = int(layers["mocoder.rs_corrections"][0])
    return counts


def run_one(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    name = args.workload
    print(f"workload {name} (seed {args.seed}, {args.seconds} s, trace {args.trace}): "
          f"{WORKLOADS[name].why}")
    if args.trace:
        run = measure(name, args, traced=True)
        layers = per_layer(run)
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in layers.items()}
        for key, (value, unit) in layers.items():
            print(f"  {key:<42} {value:>14.6g} {unit}")
        counts = exact_counts(run, layers)
    else:
        run = measure(name, args, traced=False)
        e2e = end_to_end(run)
        metrics = {key: {"value": value, "unit": E2E_UNITS[key]}
                   for key, (value, _) in e2e.items()}
        for key, (value, count) in e2e.items():
            print(f"  {key:<32} {value:>14.6g} {E2E_UNITS[key]:<10} n={count}")
        for kind in ("read", "write"):
            done = run["samples"][kind, False]
            if done:
                mb = run["payload_done"][kind] / 1e6
                print(f"  ({kind}: {len(done)} ops, p90 {percentile_ms(done, 0.9):.4g} ms, "
                      f"{mb / sum(done):.4g} MB/s of payload)")
        counts = exact_counts(run, None)
    attempted, failed, problems = run["attempted"], run["failed"], run["problems"]
    for problem in problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(f"  failed_op_share {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} ops)")
    print("counts: " + json.dumps(counts, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so peak RSS cannot leak between them."""
    from workloads import WORKLOADS

    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", str(args.scale)]
        if args.ops:
            command += ["--ops", str(args.ops)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"workload {name} exited with code {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="paper-batch, degraded-volumes, service-mix, "
                             "emulated-restore or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed loop (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="time exactly this many ops instead of --seconds")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="payload size factor (the repeatability check uses 0.05)")
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC_DIR / 'repro'}); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    # A terminated run still unwinds: the server child is stopped and the
    # work directory removed by the ``finally`` clauses.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
