"""The repository benchmark: SVI training, posterior prediction and serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mlp_svi --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/layers.json``):
``mlp_svi``, ``resnet_svi`` and ``serve_open_loop``.  Each run

* times set-up in several fresh processes (interpreter start to the first
  timed operation) and reports the median as ``setup_s``;
* runs the workload in one fresh process with a pinned environment for
  ``--seconds`` and checks its outputs;
* with ``--trace 1`` runs the workload twice, untraced and traced, checks
  the two produce identical outputs, and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full record,
with provenance and the per-run samples, is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mlp_svi", "resnet_svi", "serve_open_loop")
#: fresh processes timed for ``setup_s`` besides the measured run itself
SETUP_PROBES = 3
#: milliseconds of each ``worker.HostClock`` reference computation on the
#: host the bounds were set on (2-vCPU VM, numpy 2.4 with one OpenBLAS
#: thread).  Gated times are scaled by this over the reference time measured
#: in the same process, rates by its inverse, so the host's drift cancels.
REF_UNIT_MS = {"interp": 0.45, "conv": 1.3}
WORKER_TIMEOUT_S = 150

#: what every workload process runs with, whatever the caller's environment
PINNED_ENV = {
    "REPRO_LAZY": "1",
    "REPRO_BACKEND": "numpy",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(root: Path, args: list) -> dict:
    """Run ``worker.py`` once and return its JSON record, with ``setup_s``
    and ``import_s``: seconds from spawning it to the end of its set-up and
    of its imports.  Raises ``RuntimeError`` when it fails.
    """
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=worker_env(root),
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_setup_done"] - t_spawn
    record["import_s"] = record["t_imported"] - t_spawn
    return record


def provenance(root: Path) -> dict:
    import numpy as np

    sha = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    tree = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        tree.update(str(path.relative_to(root)).encode())
        tree.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "src_sha256": tree.hexdigest(),
            "nproc": os.cpu_count(),
            "nproc_available": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
            "pinned_env": dict(PINNED_ENV)}


def spread(values) -> dict:
    """Median, quartiles and the quartile spread as a share of the median."""
    values = [float(v) for v in values]
    med = statistics.median(values)
    if len(values) < 2:
        return {"samples": values, "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"samples": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None}


def end_to_end(record: dict, setups: list) -> dict:
    """The workload's end-to-end metrics as measured, under their own names."""
    out = {"setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
           "peak_rss_mb": (record["peak_rss_mb"], "MB"),
           "fail_frac": (record["failed"] / max(record["attempted"], 1), "ratio")}
    out.update((k, tuple(v)) for k, v in record["metrics"].items())
    return out


def gated(workload: str, record: dict, measured: dict, roles: dict) -> dict:
    """The ``BENCHMARK.json`` end-to-end metrics, each filled by the measured
    metric ``layers.json`` names for the workload; ``norm_*`` ones are
    host-normalised (see ``REF_UNIT_MS``)."""
    result = record["result"]
    speed = REF_UNIT_MS[result["host_unit"]] / result["host_unit_ms"]
    out = {}
    for name, role in roles.items():
        value = measured[role[workload]][0]
        if name.startswith("norm_"):
            value = value * speed if role["unit"] == "ms" else value / speed
        out[name] = (value, role["unit"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no library sources at {root / 'src' / 'repro'}; run from "
                    "the root of a checkout")
    bench = json.loads((root / "BENCHMARK.json").read_text())

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    out_dir = HERE / "results"
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    try:
        setups = [run_worker(root, common + ["--setup-only"])
                  for _ in range(SETUP_PROBES)]
        untraced = run_worker(root, common + ["--trace", "0"])
        setups.append(untraced)
        traced = None
        if args.trace:
            traced = run_worker(root, common + ["--trace", "1", "--spans-out",
                                                str(out_dir / f"{stem}.spans.npz")])
            setups.append(traced)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(f"workload process failed: {exc}")

    e2e = end_to_end(untraced, setups)
    roles = json.loads((HERE / "layers.json").read_text())["end_to_end"]
    gate = gated(args.workload, untraced, e2e, roles)
    record = {"benchmark": "perfbench", "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(root),
              "setup_s": spread(r["setup_s"] for r in setups),
              "import_s": spread(r["import_s"] for r in setups),
              "host_unit": {"kind": untraced["result"]["host_unit"],
                            "reference_ms": REF_UNIT_MS[untraced["result"]["host_unit"]],
                            "run_ms": untraced["result"]["host_unit_ms"]},
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "gated": {k: {"value": v, "unit": u} for k, (v, u) in gate.items()},
              "untraced": untraced}
    checks = list(untraced["checks"])
    attempted, failed = untraced["attempted"], untraced["failed"]
    if traced is not None:
        checks += [dict(c, name="traced: " + c["name"]) for c in traced["checks"]]
        attempted += traced["attempted"]
        failed += traced["failed"]
        identical = traced["result"]["digest"] == untraced["result"]["digest"]
        nesting = traced["nesting_errors"]
        for name, ok, detail in (
                ("traced outputs identical to untraced", identical, ""),
                ("spans nest", not nesting, "; ".join(nesting))):
            checks.append({"name": name, "ok": ok, "detail": detail})
            attempted += 1
            failed += 0 if ok else 1
        layers = dict(traced["layers"])
        t_m, u_m = traced["metrics"], untraced["metrics"]
        if args.workload == "serve_open_loop":
            overhead = t_m["serve_p50_ms.r1000"][0] / u_m["serve_p50_ms.r1000"][0]
        else:
            overhead = u_m["train_steps_per_s"][0] / t_m["train_steps_per_s"][0]
        layers["trace.overhead"] = (overhead, "x")
        import_s = statistics.median(r["import_s"] for r in setups)
        layers["setup.import_s"] = (import_s, "s")
        layers["setup.build_s"] = (e2e["setup_s"][0] - import_s, "s")
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["traced"] = traced

    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    # ----------------------------------------------------------- report
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    prov = record["provenance"]
    print("provenance: " + " ".join(f"{k}={prov[k]}" for k in (
        "git_sha", "nproc", "python", "numpy", "blas", "blas_threads")))
    print("pinned env: " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    print("setup_s samples: " + ", ".join(f"{r['setup_s']:.3f}" for r in setups))
    print("end-to-end, as measured:")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    result = untraced["result"]
    print(f"  {result['tail_note']}")
    for rung in result.get("ladder", []):
        print("  rung r{rate}: sent={sent} completed={completed} failed={failed} "
              "in_flight_at_end={in_flight_at_end} "
              "p50={p50_ms:.3f}ms p99={p99_ms:.3f}ms late_p99={late_ms_p99:.3f}ms "
              "meets_limit={meets_limit}".format(**rung))
    print(f"  attempted={attempted} failed={failed}")
    print(f"gated by BENCHMARK.json, host-normalised ({result['host_unit']} "
          f"reference {REF_UNIT_MS[result['host_unit']]} ms, this run "
          f"{result['host_unit_ms']:.4f} ms):")
    for name, (value, unit) in gate.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    bad = [c for c in checks if not c["ok"]]
    print(f"checks: {len(checks) - len(bad)}/{len(checks)} passed")
    for c in bad:
        print(f"  FAILED {c['name']} {c['detail']}")
    if traced is not None:
        print("per-layer (traced run):")
        for name, value in record["layers"].items():
            print(f"  {name:<32} {value['value']:.6g} {value['unit']}")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    source = record["layers"] if args.trace else record["gated"]
    metrics = {m["name"]: source[m["name"]] for m in wanted}
    print(json.dumps({"correct": not bad and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
