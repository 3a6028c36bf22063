"""Versioned model snapshots: a trained ``GuidedBNN`` frozen for serving.

A snapshot is the on-disk unit the serving layer loads: the experiment's
config echo (enough to rebuild the deterministic network skeleton through the
experiment's :class:`ServeTarget`), a pre-drawn posterior weight stack
(``GuidedBNN.snapshot_weight_stacks``) and the non-Bayesian network state
(ML-fitted parameters, batch-norm moments).  Once written, serving is
RNG-free and deterministic: the same snapshot always produces byte-identical
predictions, in any process.

Layout (a directory)::

    <path>/manifest.json   # format version, experiment id, config echo,
                           # posterior kind, site names/shapes, snapshot id
    <path>/weights.npz     # "site.<name>" posterior stacks (S, ...) +
                           # "det.<name>" deterministic state arrays

The ``snapshot_id`` is a sha256 over the manifest core and the raw weight
bytes, so the loader detects tampered or torn artifacts, and response caches
can key on it.  MCMC-backed models are rejected with a clear diagnostic at
save *and* load time: their posteriors are stored sample chains, not a
guide, so the RNG-free stacked-forward serving contract cannot hold.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

__all__ = ["SNAPSHOT_FORMAT_VERSION", "SnapshotError", "ServeTarget", "Snapshot",
           "snapshot_from_bnn", "create_snapshot", "load_snapshot"]

#: version of the on-disk snapshot layout written by :meth:`Snapshot.save`
SNAPSHOT_FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_WEIGHTS_NAME = "weights.npz"


class SnapshotError(ValueError):
    """A snapshot cannot be created, read or served (clear one-line reason)."""


@dataclass
class ServeTarget:
    """An experiment's serving entry point, registered à la ``ValidationTarget``.

    Experiments expose one through the ``serve_target`` hook of
    ``@register`` — a ``config -> ServeTarget`` callable whose result binds
    the config.  ``build`` returns the *untrained* model skeleton with the
    exact architecture the config describes (used by the snapshot loader,
    which overwrites all weights anyway); ``fit`` optionally returns the
    trained model (used by ``repro snapshot`` without ``--untrained``);
    ``example_input`` is one valid network input batch, used to trace the
    guide when drawing the weight stacks and for serving smoke checks.
    """

    name: str
    build: Callable[[], Any]
    example_input: np.ndarray
    fit: Optional[Callable[[], Any]] = None


@dataclass
class Snapshot:
    """An in-memory snapshot: manifest fields plus the weight arrays."""

    experiment_id: str
    config: Dict[str, Any]
    num_samples: int
    sites: "OrderedDict[str, np.ndarray]"
    deterministic: "OrderedDict[str, np.ndarray]" = field(default_factory=OrderedDict)
    target_name: str = ""
    format_version: int = SNAPSHOT_FORMAT_VERSION
    posterior: str = "guide"

    @property
    def snapshot_id(self) -> str:
        """sha256 over the manifest core and the raw weight bytes (stable)."""
        digest = hashlib.sha256()
        core = {"format_version": self.format_version,
                "experiment_id": self.experiment_id,
                "target_name": self.target_name,
                "posterior": self.posterior,
                "num_samples": self.num_samples,
                "config": self.config}
        digest.update(json.dumps(core, sort_keys=True).encode())
        for group, arrays in (("site", self.sites), ("det", self.deterministic)):
            for name, array in arrays.items():
                digest.update(f"{group}.{name}:{array.dtype}:{array.shape}".encode())
                digest.update(np.ascontiguousarray(array))  # no bytes copy
        return digest.hexdigest()

    # ------------------------------------------------------------------- disk
    def save(self, path) -> Path:
        """Write the versioned artifact directory (atomic manifest write)."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        arrays = {f"site.{name}": array for name, array in self.sites.items()}
        arrays.update({f"det.{name}": array
                       for name, array in self.deterministic.items()})
        with open(root / _WEIGHTS_NAME, "wb") as fh:
            np.savez(fh, **arrays)
        manifest = {
            "format_version": self.format_version,
            "experiment_id": self.experiment_id,
            "target_name": self.target_name,
            "posterior": self.posterior,
            "num_samples": self.num_samples,
            "config": self.config,
            "sites": {name: list(array.shape) for name, array in self.sites.items()},
            "deterministic": sorted(self.deterministic),
            "snapshot_id": self.snapshot_id,
        }
        tmp = root / f"{_MANIFEST_NAME}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, root / _MANIFEST_NAME)
        return root


def snapshot_from_bnn(bnn, experiment_id: str, config: Mapping[str, Any],
                      num_samples: int, example_input,
                      target_name: str = "") -> Snapshot:
    """Freeze a trained guide-based BNN into an in-memory :class:`Snapshot`.

    Draws ``num_samples`` stacked posterior weight samples (the last RNG the
    model ever consumes on the serving path) and captures the non-Bayesian
    network state.  MCMC-backed models are rejected here — their posterior is
    a stored sample chain, not a guide.
    """
    from ..core.bnn import MCMC_BNN, _as_tuple

    if isinstance(bnn, MCMC_BNN):
        raise SnapshotError(
            f"cannot snapshot {experiment_id!r}: MCMC posteriors are stored "
            "sample chains, not a guide — the serving path needs guide-drawn "
            "weight stacks (GuidedBNN.posterior_weight_samples); refit with "
            "VariationalBNN (or another guide-based BNN) to serve this model")
    if num_samples < 1:
        raise SnapshotError(f"num_samples must be >= 1, got {num_samples}")
    sites = bnn.snapshot_weight_stacks(num_samples, *_as_tuple(example_input))
    if not sites:
        raise SnapshotError(
            f"cannot snapshot {experiment_id!r}: the model exposes no "
            "Bayesian sites to stack")
    deterministic = bnn.snapshot_deterministic_state()
    return Snapshot(experiment_id=experiment_id, config=dict(config),
                    num_samples=num_samples, sites=sites,
                    deterministic=deterministic, target_name=target_name)


def _resolve_serve_target(experiment_id: str, config=None, *, fast: bool = False,
                          overrides: Optional[Mapping[str, Any]] = None):
    """``(spec, config, ServeTarget)`` for a registered experiment (or raise)."""
    from ..experiments.api.registry import get_experiment

    spec = get_experiment(experiment_id)
    if spec.serve_target is None:
        raise SnapshotError(
            f"experiment {experiment_id!r} registers no ServeTarget; add a "
            "serve_target=... hook to its @register call to make it servable")
    if config is None:
        config = spec.make_config(fast=fast, overrides=overrides)
    target = spec.serve_target(config)
    return spec, config, target


def create_snapshot(experiment_id: str, *, fast: bool = False,
                    overrides: Optional[Mapping[str, Any]] = None,
                    num_samples: int = 32, trained: bool = True) -> Snapshot:
    """Build (and by default train) an experiment's serve model and freeze it.

    ``trained=False`` skips the ``fit`` step and snapshots the untrained
    skeleton's guide-initialized posterior — useless predictions, but the
    full serving contract (RNG-free, deterministic, correct shapes) holds,
    which is exactly what smoke tests and latency benchmarks need.
    """
    _, config, target = _resolve_serve_target(experiment_id, fast=fast,
                                              overrides=overrides)
    # snapshot creation is deterministic in the config seed: the guide draws
    # its weight stacks from the global stream this seeds (fit hooks re-seed
    # identically, so the trained path is covered either way)
    config.seed_all()
    if trained:
        if target.fit is None:
            raise SnapshotError(
                f"ServeTarget {target.name!r} of {experiment_id!r} has no fit "
                "hook; pass trained=False (CLI: --untrained) to snapshot the "
                "untrained skeleton")
        bnn = target.fit()
    else:
        bnn = target.build()
    return snapshot_from_bnn(bnn, experiment_id, config.to_dict(), num_samples,
                             target.example_input, target_name=target.name)


def load_snapshot(path) -> Snapshot:
    """Read a snapshot directory back, verifying integrity and servability."""
    root = Path(path)
    manifest_path = root / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotError(f"no snapshot at {root}: missing {_MANIFEST_NAME} "
                            "(create one with `repro snapshot <id> --out ...`)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"corrupted snapshot manifest {manifest_path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot format_version {version!r} "
                            f"(this build reads {SNAPSHOT_FORMAT_VERSION})")
    if manifest.get("posterior") != "guide":
        raise SnapshotError(
            f"snapshot {root} records a {manifest.get('posterior')!r} "
            "posterior: only guide-based snapshots are servable — MCMC "
            "posteriors are stored sample chains and cannot honor the "
            "RNG-free stacked-forward serving contract; refit with "
            "VariationalBNN and re-snapshot")
    with np.load(root / _WEIGHTS_NAME) as archive:
        sites: "OrderedDict[str, np.ndarray]" = OrderedDict()
        deterministic: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for key in archive.files:
            group, _, name = key.partition(".")
            if group == "site":
                sites[name] = archive[key]
            elif group == "det":
                deterministic[name] = archive[key]
    snapshot = Snapshot(experiment_id=manifest["experiment_id"],
                        config=manifest["config"],
                        num_samples=manifest["num_samples"],
                        sites=sites, deterministic=deterministic,
                        target_name=manifest.get("target_name", ""),
                        format_version=version)
    if snapshot.snapshot_id != manifest.get("snapshot_id"):
        raise SnapshotError(
            f"snapshot {root} fails its integrity check: weights or manifest "
            "were modified after save (recorded id "
            f"{manifest.get('snapshot_id', '?')[:12]}..., recomputed "
            f"{snapshot.snapshot_id[:12]}...)")
    return snapshot
