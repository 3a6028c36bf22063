"""Helpers shared by the benchmark modules."""

import json
import time
from pathlib import Path

import numpy as np


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer and return its result.

    The experiments are minutes-scale training runs, not microbenchmarks, so a
    single round is both sufficient and necessary to keep the suite's runtime
    reasonable.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
                              warmup_rounds=0)


def record(benchmark, **info):
    """Attach reproduced numbers to ``benchmark.extra_info`` (floats/strings only)."""
    for key, value in info.items():
        if isinstance(value, (np.floating, np.integer)):
            value = float(value)
        benchmark.extra_info[key] = value


def record_bench(name: str, payload: dict) -> Path:
    """Write a perf-trajectory file ``benchmarks/BENCH_<name>.json``.

    One JSON per workload; future perf PRs extend the trajectory by rewriting
    the same file (see ``benchmarks/README.md``), so keys should stay stable.
    """
    path = Path(__file__).parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def record_bench_entry(name: str, workload: str, payload: dict) -> Path:
    """Update one workload's entry in ``benchmarks/BENCH_<name>.json``.

    Used when one trajectory file tracks several related workloads (e.g. the
    render engine's evaluation *and* training paths): the file maps
    ``workload -> payload`` and each gate rewrites only its own entry.  A
    legacy flat single-workload layout (top-level ``"workload"`` key, as the
    original ``BENCH_render.json`` used) is migrated in place on first
    update.
    """
    path = Path(__file__).parent / f"BENCH_{name}.json"
    entries = {}
    if path.exists():
        data = json.loads(path.read_text())
        if "workload" in data:  # legacy flat layout
            entries[data.pop("workload")] = data
        else:
            entries = data
    entries[workload] = payload
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return path


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def interleaved_rounds(baseline, candidate, rounds: int = 5):
    """Time ``baseline`` and ``candidate`` alternately for ``rounds`` rounds.

    Returns ``(speedup, baseline_seconds, candidate_seconds)``: the median of
    the per-round ``baseline / candidate`` ratios, and the median time of
    each side.  Alternating the two makes machine-load drift hit both sides
    equally instead of landing on one side only.
    """
    baseline_times, candidate_times = [], []
    for _ in range(rounds):
        baseline_times.append(_time(baseline))
        candidate_times.append(_time(candidate))
    speedup = float(np.median([b / c for b, c in zip(baseline_times, candidate_times)]))
    return speedup, float(np.median(baseline_times)), float(np.median(candidate_times))
