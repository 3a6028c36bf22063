"""Zero-valued op-graph counters, kept only for the frozen benchmark.

``repro.nn`` runs every tensor op eagerly; there is no deferred op graph and
nothing here counts.  ``perfbench/worker.py`` still imports this module on
every run and reads ``ops_recorded``, ``ops_fused`` and ``realizations``
from :func:`graph_stats`, so those keys stay and are always 0.  The module
is deleted together with those reads in the next change to the benchmark.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["graph_stats", "reset_stats"]


def graph_stats() -> Dict[str, int]:
    """The counters the benchmark reads, each always 0."""
    return {"ops_recorded": 0, "ops_fused": 0, "realizations": 0}


def reset_stats() -> None:
    """Nothing to reset; kept for the benchmark's call."""
