"""The ``repro`` console script: one command line for every paper artefact.

Usage::

    repro list                                  # table of registered experiments
    repro run fig1-regression --fast --seed 3   # run one artefact
    repro run fig4-vcl --fast --set epochs_per_task=2 --set suite=mnist
    repro run-all --fast                        # every artefact E1-E6
    repro sweep fig1-regression --set lr=0.1,0.01 --set seed=0..4 --workers 4
    repro results sweeps/fig1-regression        # metric table over the grid
    repro lint src tests                        # static analysis (rules R001-R008)
    repro check-model fig1-regression --fast    # static model/guide validation
    repro snapshot fig1-regression --out snaps/fig1 --fast
    repro serve fig1-regression --snapshot snaps/fig1 --port 8100

``repro run`` builds the experiment's config (``--fast`` selects the reduced
smoke-test configuration), applies typed ``--set key=value`` overrides,
executes the runner and writes the JSON artifact
(``<output-dir>/<experiment-id>.json``, default ``artifacts/``).  Exit codes:
0 on success, 1 when the runner fails (one-line diagnostic; ``--verbose``
keeps the full traceback), 2 on bad arguments / unknown experiment ids.

``repro sweep`` expands ``--set`` value lists (``a,b``) and integer ranges
(``0..4``) into a config grid and runs it through the fault-tolerant
execution engine in :mod:`repro.exec`: crash-isolated worker subprocesses
(``--workers``), per-run ``--timeout`` with terminate-then-kill escalation,
``--retries`` with exponential backoff, an atomic on-disk journal with
``--resume``, and ``--shard i/N`` splitting for CI.  ``repro run-all`` is
built on the same engine (in-process by default; pass ``--workers 1`` or
more for subprocess isolation) and keeps its summary/exit-code contract.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .base import parse_overrides
from .registry import all_experiments, get_experiment

__all__ = ["main", "build_parser"]

DEFAULT_OUTPUT_DIR = "artifacts"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments (E1-E6) through the unified registry.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--fast", action="store_true",
                         help="use the reduced smoke-test configuration")
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
        sub.add_argument("--output-dir", default=None,
                         help=f"artifact directory (default: {DEFAULT_OUTPUT_DIR!r})")
        sub.add_argument("--no-artifact", action="store_true",
                         help="do not write the JSON artifact")
        sub.add_argument("--verbose", action="store_true",
                         help="print the full traceback when `repro run` fails "
                              "(run-all reports each failure on one line)")

    run = subparsers.add_parser("run", help="run one experiment by id")
    run.add_argument("experiment_id", metavar="id",
                     help="experiment id (see `repro list`)")
    add_run_options(run)
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="key=value",
                     help="typed config override (repeatable), e.g. --set seed=3 "
                          "--set num_predictions=8")

    def add_engine_options(sub: argparse.ArgumentParser, default_workers: int) -> None:
        sub.add_argument("--workers", type=int, default=default_workers, metavar="N",
                         help="worker subprocesses (0 = trusted in-process serial "
                              f"execution; default {default_workers})")
        sub.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="per-run timeout: terminate the worker, then kill "
                              "it after a grace period (needs --workers >= 1)")
        sub.add_argument("--retries", type=int, default=None, metavar="R",
                         help="retry budget per cell for crashes, timeouts, "
                              "errors and torn artifacts (exponential backoff)")
        sub.add_argument("--backoff", type=float, default=0.5, metavar="SECONDS",
                         help="base retry backoff; attempt k waits "
                              "backoff * 2^(k-1) (+ jitter) (default 0.5)")
        sub.add_argument("--resume", action="store_true",
                         help="skip cells that already have a valid journal "
                              "entry; corrupt entries are deleted and re-run")
        sub.add_argument("--start-method", choices=["fork", "spawn"], default=None,
                         help="worker start method (default: fork where available)")

    run_all = subparsers.add_parser("run-all", help="run every registered experiment")
    add_run_options(run_all)
    run_all.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="key=value",
                         help="typed config override applied to every experiment "
                              "(repeatable); a key unknown to an experiment's "
                              "config makes that experiment fail")
    add_engine_options(run_all, default_workers=0)

    sweep = subparsers.add_parser(
        "sweep", help="expand --set lists/ranges into a config grid and run it "
                      "through the fault-tolerant execution engine")
    sweep.add_argument("experiment_id", metavar="id",
                       help="experiment id (see `repro list`)")
    sweep.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="key=v1,v2|a..b",
                       help="grid axis: a value list (lr=0.1,0.01), an inclusive "
                            "integer range (seed=0..4) or a single value; the "
                            "grid is the cartesian product of all axes")
    sweep.add_argument("--fast", action="store_true",
                       help="build every cell from the reduced smoke-test config")
    sweep.add_argument("--seed", type=int, default=None,
                       help="seed applied to every cell (unless seed is swept)")
    sweep.add_argument("--sweep-dir", default=None, metavar="DIR",
                       help="journal/report directory (default: sweeps/<id>)")
    sweep.add_argument("--shard", default=None, metavar="i/N",
                       help="run only this 1-based shard of the grid (CI splitting)")
    sweep.add_argument("--import", dest="extra_imports", action="append", default=[],
                       metavar="MODULE",
                       help="extra module to import (here and in every worker) so "
                            "out-of-tree @register experiments resolve")
    add_engine_options(sweep, default_workers=1)

    results = subparsers.add_parser(
        "results", help="summarize a sweep directory's journaled metrics")
    results.add_argument("sweep_dir", metavar="sweep-dir")
    results.add_argument("--metric", dest="metrics", action="append", default=[],
                         metavar="NAME", help="restrict the table to this metric "
                                              "(repeatable; default: all numeric)")
    results.add_argument("--json", action="store_true", dest="as_json",
                         help="print the machine-readable index instead of a table")

    lint = subparsers.add_parser(
        "lint", help="static analysis: RNG discipline, site names, hot-path "
                     "materialization, seeding, vectorized contexts, silent "
                     "exception swallowing, async blocking calls, backend-"
                     "bypassing kernel calls (R001-R008)")
    lint.add_argument("paths", nargs="*", default=["src"], metavar="path",
                      help="files or directories to lint (default: src)")

    snapshot = subparsers.add_parser(
        "snapshot", help="train an experiment's serve model and freeze it "
                         "(config echo + posterior weight stacks) into a "
                         "versioned artifact directory")
    snapshot.add_argument("experiment_id", metavar="id",
                          help="experiment id (see `repro list`)")
    snapshot.add_argument("--out", required=True, metavar="DIR",
                          help="snapshot directory to write")
    snapshot.add_argument("--fast", action="store_true",
                          help="build from the reduced smoke-test configuration")
    snapshot.add_argument("--set", dest="overrides", action="append", default=[],
                          metavar="key=value",
                          help="typed config override (repeatable)")
    snapshot.add_argument("--num-samples", type=int, default=32, metavar="S",
                          help="posterior weight samples to pre-draw (default 32)")
    snapshot.add_argument("--untrained", action="store_true",
                          help="skip training; snapshot the untrained skeleton "
                               "(smoke tests, latency benchmarks)")

    serve = subparsers.add_parser(
        "serve", help="serve a snapshot over HTTP: micro-batched /predict "
                      "with mean/std/calibrated-interval responses, plus "
                      "/healthz and /stats")
    serve.add_argument("experiment_id", metavar="id", nargs="?", default=None,
                       help="experiment id the snapshot must hold (optional check)")
    serve.add_argument("--snapshot", required=True, metavar="DIR",
                       help="snapshot directory (see `repro snapshot`)")
    serve.add_argument("--host", default="127.0.0.1", help="bind host")
    serve.add_argument("--port", type=int, default=8100,
                       help="bind port (0 = ephemeral; the bound port is "
                            "printed on the startup line)")
    serve.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="flush a micro-batch at N input rows (default 32)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0, metavar="MS",
                       help="flush a micro-batch after MS milliseconds "
                            "(default 2.0)")
    serve.add_argument("--cache-bytes", type=int, default=8 << 20, metavar="B",
                       help="response cache budget in bytes (0 disables; "
                            "default 8 MiB)")

    check_model = subparsers.add_parser(
        "check-model", help="statically validate an experiment's model/guide "
                            "pairs (coverage, shapes, vectorized axes) without "
                            "training")
    check_model.add_argument("experiment_ids", nargs="*", metavar="id",
                             help="experiment ids (see `repro list`)")
    check_model.add_argument("--all", action="store_true", dest="check_all",
                             help="check every registered experiment")
    check_model.add_argument("--fast", action="store_true",
                             help="build targets from the reduced smoke-test config")
    check_model.add_argument("--verbose", action="store_true",
                             help="print the per-site shape tables")

    return parser


def _collect_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    overrides: Dict[str, Any] = parse_overrides(getattr(args, "overrides", []))
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.no_artifact:
        overrides["output_dir"] = None
    elif args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    else:
        overrides.setdefault("output_dir", DEFAULT_OUTPUT_DIR)
    return overrides


def _print_result(spec, result, stream) -> None:
    print(f"[{spec.number}] {spec.experiment_id} ({spec.artefact}) "
          f"finished in {result.wall_clock_seconds:.1f}s", file=stream)
    for key in sorted(result.metrics):
        value = result.metrics[key]
        if isinstance(value, float):
            print(f"  {key:<40s} {value:.6g}", file=stream)
        else:
            print(f"  {key:<40s} {value}", file=stream)
    if result.config.get("output_dir"):
        print(f"  artifact: {result.config['output_dir']}/{spec.experiment_id}.json",
              file=stream)


def _cmd_list(stream) -> int:
    rows = [(spec.number, spec.experiment_id, spec.artefact, spec.title)
            for spec in all_experiments()]
    if not rows:
        print("repro: no experiments registered", file=stream)
        return 0
    id_width = max(len(row[1]) for row in rows)
    artefact_width = max(len(row[2]) for row in rows)
    print(f"{'#':<4} {'id':<{id_width}} {'artefact':<{artefact_width}} title", file=stream)
    for number, experiment_id, artefact, title in rows:
        print(f"{number:<4} {experiment_id:<{id_width}} {artefact:<{artefact_width}} "
              f"{title}", file=stream)
    return 0


def _cmd_run(args: argparse.Namespace, stream) -> int:
    try:
        spec = get_experiment(args.experiment_id)
    except KeyError as exc:
        print(f"repro: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        overrides = _collect_overrides(args)
        config = spec.make_config(fast=args.fast, overrides=overrides)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    try:
        result = spec.run(config)
    except Exception as exc:  # runner failure: one-line diagnostic, exit 1
        if args.verbose:
            traceback.print_exc()
        print(f"repro: {spec.experiment_id}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    _print_result(spec, result, stream)
    return 0


def _validate_engine_args(args: argparse.Namespace) -> Optional[str]:
    """Engine-flag sanity shared by run-all and sweep (message or None)."""
    if args.workers < 0:
        return "--workers must be >= 0"
    if args.workers == 0 and args.timeout is not None:
        return "--timeout needs subprocess isolation: pass --workers >= 1"
    if args.retries is not None and args.retries < 0:
        return "--retries must be >= 0"
    return None


def _cmd_run_all(args: argparse.Namespace, stream) -> int:
    from ...exec import (PASS, SKIPPED, TIMEOUT, GridCell, SweepJournal, execute,
                         exit_code)

    try:
        overrides = _collect_overrides(args)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    problem = _validate_engine_args(args)
    if problem:
        print(f"repro: {problem}", file=sys.stderr)
        return 2
    retries = args.retries if args.retries is not None else 0
    output_dir = overrides.get("output_dir")
    journal = SweepJournal(Path(output_dir) / ".run-all") if output_dir else None
    if args.resume and journal is None:
        print("repro: run-all --resume needs an artifact directory "
              "(drop --no-artifact)", file=sys.stderr)
        return 2

    specs = all_experiments()
    spec_map = {spec.experiment_id: spec for spec in specs}
    cells = [GridCell(index=index, experiment_id=spec.experiment_id,
                      overrides=dict(overrides), fast=args.fast,
                      cell_id=spec.experiment_id, key=spec.experiment_id)
             for index, spec in enumerate(specs)]

    def on_event(kind: str, cell, **info) -> None:
        if kind == "attempt-failed":
            note = (f" (attempt {info['attempt']}, retrying in {info['delay']:.1f}s)"
                    if info["will_retry"] else "")
            print(f"repro: {cell.experiment_id}: {info['error']}{note}",
                  file=sys.stderr)
        elif kind == "pass":
            _print_result(spec_map[cell.experiment_id], info["outcome"].result, stream)

    outcomes = execute(cells, journal=journal, workers=args.workers,
                       timeout=args.timeout, retries=retries, backoff=args.backoff,
                       resume=args.resume, start_method=args.start_method,
                       resolve=lambda experiment_id: spec_map[experiment_id],
                       on_event=on_event)

    skips = sum(1 for o in outcomes if o.status == SKIPPED)
    passed = sum(1 for o in outcomes if o.status in (PASS, SKIPPED))
    summary = f"run-all: {passed}/{len(outcomes)} experiments passed"
    if skips:
        summary += f" ({skips} journaled, skipped)"
    print(summary, file=stream)
    for outcome in outcomes:
        if outcome.status == SKIPPED:
            label = "SKIP"
        elif outcome.status == TIMEOUT:
            label = "TIMEOUT"
        else:
            label = "PASS" if outcome.status == PASS else "FAIL"
        line = f"  {label}  {outcome.cell.experiment_id}"
        if outcome.retried:
            line += f" (attempts={outcome.attempts})"
        print(line, file=stream)
    return exit_code(outcomes)


def _cmd_sweep(args: argparse.Namespace, stream) -> int:
    from ...exec import (SweepJournal, build_report, execute, exit_code, expand_grid,
                         load_manifest, render_report, shard_cells, write_manifest,
                         write_report)
    from ...exec.grid import parse_grid_axes
    from .registry import find_experiment

    for name in args.extra_imports:
        importlib.import_module(name)
    try:
        find_experiment(args.experiment_id)
    except KeyError as exc:
        print(f"repro: {exc.args[0]}", file=sys.stderr)
        return 2
    problem = _validate_engine_args(args)
    if problem:
        print(f"repro: {problem}", file=sys.stderr)
        return 2
    retries = args.retries if args.retries is not None else 2
    # cells never write their own artifact: the journal is the artifact store
    base_overrides = {"output_dir": "none"}
    if args.seed is not None:
        base_overrides["seed"] = str(args.seed)
    try:
        cells = expand_grid(args.experiment_id, args.overrides, fast=args.fast,
                            base_overrides=base_overrides)
        sharded = shard_cells(cells, args.shard)
        axes = parse_grid_axes(args.overrides)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2

    sweep_dir = Path(args.sweep_dir or Path("sweeps") / args.experiment_id)
    manifest = {
        "experiment_id": args.experiment_id,
        "fast": args.fast,
        "grid": {key: list(values) for key, values in axes.items()},
        "cells": [{"key": cell.key, "cell_id": cell.cell_id,
                   "overrides": dict(cell.overrides)} for cell in cells],
    }
    existing = load_manifest(sweep_dir)
    if existing is not None:
        old_keys = [cell["key"] for cell in existing.get("cells", [])]
        if old_keys != [cell.key for cell in cells]:
            print(f"repro: {sweep_dir} holds a different grid "
                  f"({existing.get('experiment_id')}, {len(old_keys)} cells); "
                  "use a fresh --sweep-dir", file=sys.stderr)
            return 2
    else:
        write_manifest(sweep_dir, manifest)

    def on_event(kind: str, cell, **info) -> None:
        if kind == "attempt-failed":
            note = (f"; retrying in {info['delay']:.1f}s"
                    if info["will_retry"] else "; giving up")
            print(f"repro sweep: {cell.cell_id}: {info['error']} "
                  f"(attempt {info['attempt']}{note})", file=sys.stderr)

    started = time.perf_counter()
    outcomes = execute(sharded, journal=SweepJournal(sweep_dir), workers=args.workers,
                       timeout=args.timeout, retries=retries, backoff=args.backoff,
                       resume=args.resume, start_method=args.start_method,
                       extra_imports=args.extra_imports, on_event=on_event)
    report = build_report(args.experiment_id, outcomes, retries=retries,
                          workers=args.workers,
                          wall_clock_seconds=time.perf_counter() - started)
    write_report(sweep_dir, report)
    render_report(report, stream)
    print(f"  journal: {sweep_dir}", file=stream)
    return exit_code(outcomes)


def _cmd_results(args: argparse.Namespace, stream) -> int:
    import json as json_module

    from ...exec import index_results, render_results

    sweep_dir = Path(args.sweep_dir)
    if not sweep_dir.is_dir():
        print(f"repro: no such sweep directory: {sweep_dir}", file=sys.stderr)
        return 2
    index = index_results(sweep_dir)
    if not index["rows"]:
        print(f"repro: {sweep_dir} holds no journaled results", file=sys.stderr)
        return 2
    unknown = [m for m in args.metrics if m not in index["metrics"]]
    if unknown:
        print(f"repro: unknown metrics {unknown}; journaled: {index['metrics']}",
              file=sys.stderr)
        return 2
    if args.as_json:
        print(json_module.dumps(index, indent=2, sort_keys=True), file=stream)
    else:
        render_results(index, stream, metrics=args.metrics or None)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    stream = sys.stdout
    if args.command == "list":
        return _cmd_list(stream)
    if args.command == "run":
        return _cmd_run(args, stream)
    if args.command == "run-all":
        return _cmd_run_all(args, stream)
    if args.command == "sweep":
        return _cmd_sweep(args, stream)
    if args.command == "results":
        return _cmd_results(args, stream)
    if args.command == "lint":
        from ...analysis.cli import run_lint  # lazy: keep plain runs import-light

        return run_lint(args.paths, stream=stream)
    if args.command == "snapshot":
        from ...serve.cli import run_snapshot  # lazy: keep plain runs import-light

        try:
            overrides = parse_overrides(args.overrides)
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2
        return run_snapshot(args.experiment_id, args.out, fast=args.fast,
                            overrides=overrides, num_samples=args.num_samples,
                            untrained=args.untrained, stream=stream)
    if args.command == "serve":
        from ...serve.cli import run_serve

        return run_serve(args.experiment_id, args.snapshot, host=args.host,
                         port=args.port, max_batch=args.max_batch,
                         max_wait_ms=args.max_wait_ms,
                         cache_bytes=args.cache_bytes, stream=stream)
    if args.command == "check-model":
        from ...analysis.cli import run_check_model

        return run_check_model(args.experiment_ids, check_all=args.check_all,
                               fast=args.fast, verbose=args.verbose, stream=stream)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
