"""Tiny-size self-check of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It runs every workload once, traced, for a few seconds and asserts that

1. every end-to-end metric of ``layers.json`` is printed with its unit for
   the workloads it applies to, and every per-layer metric for all of them;
2. spans nest: each child lies inside its parent on the same thread, and
   every self time is at least 0;
3. ``BENCHMARK.json`` and ``layers.json`` agree: the same workloads with the
   same "why" sentence, and the same end-to-end and per-layer metric names.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SECONDS = "3"


def check_spec(bench: dict, layers: dict) -> list:
    errors = []
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    for name, spec in layers["workloads"].items():
        if whys.get(name) != spec["why"]:
            errors.append(f"BENCHMARK.json why of {name!r} differs from layers.json")
    if set(whys) != set(layers["workloads"]):
        errors.append("BENCHMARK.json and layers.json list different workloads")
    if [m["name"] for m in bench["end_to_end"]] != list(layers["end_to_end"]):
        errors.append("end_to_end metrics differ between BENCHMARK.json and layers.json")
    mapped = [m for layer in layers["layers"] for m in layer["metrics"]]
    if sorted(m["name"] for m in bench["per_layer"]) != sorted(mapped):
        errors.append("per_layer metrics differ between BENCHMARK.json and layers.json")
    for layer in layers["layers"]:
        unknown = set(layer["on_workload"]) - set(whys)
        if unknown:
            errors.append(f"layer {layer['layer']} names unknown workloads {unknown}")
    return errors


def check_run(workload: str, bench: dict, layers: dict) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", "1"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}"]
    printed = dict(re.findall(r"^\s+(\S+)\s+\S+\s+(\S+)$", proc.stdout, re.M))
    errors = []
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(layers["workloads"][workload]["metrics"])
    wanted = (list(layers["workloads"][workload]["metrics"])
              + list(layers["end_to_end"]) + [m["name"] for m in bench["per_layer"]])
    for name in wanted:
        if name not in printed:
            errors.append(f"{workload}: {name} not printed")
        elif name in units and printed[name] != units[name]:
            errors.append(f"{workload}: {name} printed in {printed[name]}, "
                          f"not {units[name]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"]:
        errors.append(f"{workload}: checks failed:\n{proc.stdout}")
    if set(result["metrics"]) != {m["name"] for m in bench["per_layer"]}:
        errors.append(f"{workload}: traced result lacks per-layer metrics")
    spans = np.load(HERE / "results" / f"{workload}.seed7.trace1.spans.npz")
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    child = np.flatnonzero(parent >= 0)
    inside = ((start[child] >= start[parent[child]])
              & (end[child] <= end[parent[child]])
              & (spans["thread"][child] == spans["thread"][parent[child]]))
    if not inside.all():
        errors.append(f"{workload}: {int((~inside).sum())} spans outside their parent")
    if (spans["self_time"] < 0).any():
        errors.append(f"{workload}: negative self time")
    if len(start) == 0:
        errors.append(f"{workload}: no spans recorded")
    record = json.loads((HERE / "results" / f"{workload}.seed7.trace1.json").read_text())
    for key in ("git_sha", "nproc", "python", "numpy", "blas", "pinned_env"):
        if key not in record["provenance"]:
            errors.append(f"{workload}: provenance lacks {key}")
    return errors


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    errors = check_spec(bench, layers)
    for workload in layers["workloads"]:
        errors += check_run(workload, bench, layers)
        print(f"selfcheck: {workload} done", flush=True)
    for error in errors:
        print(f"selfcheck FAILED: {error}")
    print("selfcheck: ok" if not errors else f"selfcheck: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
