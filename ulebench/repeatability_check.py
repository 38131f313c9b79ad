"""The benchmark's own test: counts repeat exactly for a seed, inputs follow it.

Runs every workload at a tiny size (``--scale 0.05``) for a fixed number of
ops, twice with one seed and once with another, each in a fresh process, and
asserts that

* every op and every output check passed;
* the counts a seed fixes are identical across the two same-seed runs:
  bytes stored, frames, payload bytes (hence ``stored_bytes_per_payload_byte``
  and ``frames_per_payload_mb``), cache hits/misses/evictions, outer-code
  reconstructions, RS corrections, emulator steps and the digest of every
  generated input;
* another seed changes the generated inputs;
* ``BENCHMARK.json`` names exactly the metrics the benchmark prints.

Run from the root of a checkout (about a minute)::

    python3 ulebench/repeatability_check.py
    python3 -m pytest ulebench/repeatability_check.py   # same checks
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import cache
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-batch", "degraded-volumes", "service-mix", "emulated-restore")
OPS = 12


@cache
def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """(counts line, result line) of one tiny fixed-op traced run."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--ops", str(OPS), "--scale", "0.05", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    counts = next(line for line in lines if line.startswith("counts: "))
    return json.loads(counts[len("counts: "):]), json.loads(lines[-1])


def check_workload(workload: str) -> None:
    first_counts, first = traced_run(workload, 11)
    second_counts, second = traced_run(workload, 11)
    other_counts, _ = traced_run(workload, 12)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0, (workload, result)
        assert result["attempted"] == OPS, (workload, result["attempted"])
    assert first_counts == second_counts, (workload, first_counts, second_counts)
    assert first_counts["input_digest"] != other_counts["input_digest"], workload
    if workload == "degraded-volumes":
        assert first_counts["outer_reconstructions"] > 0, first_counts
    if workload == "service-mix":
        assert first_counts["cache"]["hits"] + first_counts["cache"]["misses"] > 0
    if workload == "emulated-restore":
        assert first_counts["emulator_steps"] > 0, first_counts


def test_paper_batch() -> None:
    check_workload("paper-batch")


def test_degraded_volumes() -> None:
    check_workload("degraded-volumes")


def test_service_mix() -> None:
    check_workload("service-mix")


def test_emulated_restore() -> None:
    check_workload("emulated-restore")


def test_benchmark_json_matches_printed_metrics() -> None:
    sys.path[:0] = [str(BENCH_DIR)]
    from run import E2E_UNITS
    from tracing import LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    _, result = traced_run("emulated-restore", 11)
    assert set(result["metrics"]) == set(LAYER_METRICS)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
