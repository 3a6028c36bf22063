"""The asyncio request broker: micro-batching over one stacked forward.

Concurrent ``predict`` requests are coalesced into a single
``vectorized_forward`` call — stacked inputs × stacked posterior samples —
amortizing Python/graph overhead across every request in the window.  A
batch flushes when it reaches ``max_batch`` input rows or when the oldest
pending request has waited ``max_wait_ms``, whichever comes first.  The
response statistics are computed once per batch too, with one coverage per
row, and each request gets its own copy of its rows.  Coalesced responses
are bit-identical to serial per-request predictions, because the engine runs
both the forward and the statistics on fixed-shape ``block_rows`` blocks.

The forward and the statistics run in a thread-pool executor (BLAS releases
the GIL), so the event loop keeps accepting requests while a batch computes.
Requests whose rows have a different shape are forwarded separately, so a
malformed request fails alone.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

import numpy as np

from .cache import ByteLRUCache, response_cache_key, response_nbytes
from .engine import DEFAULT_COVERAGE, PredictResponse, PredictionEngine

__all__ = ["MicroBatcher"]


@dataclass
class _Unit:
    """One pending request: its rows, coverage, and the future to resolve."""

    inputs: np.ndarray
    coverage: float
    future: "asyncio.Future[PredictResponse]"
    cache_key: Optional[str] = None


@dataclass
class _Counters:
    requests: int = 0
    rows: int = 0
    batches: int = 0
    batched_rows: int = 0
    max_batch_rows: int = 0
    size_flushes: int = 0
    timer_flushes: int = 0

    def as_dict(self) -> Dict[str, Any]:
        mean = self.batched_rows / self.batches if self.batches else 0.0
        return {"requests": self.requests, "rows": self.rows,
                "batches": self.batches, "batched_rows": self.batched_rows,
                "mean_batch_rows": mean, "max_batch_rows": self.max_batch_rows,
                "size_flushes": self.size_flushes,
                "timer_flushes": self.timer_flushes}


class MicroBatcher:
    """Coalesce concurrent predict requests into single stacked forwards.

    Must be used from one asyncio event loop (the broker keeps no locks —
    all queue mutation happens on the loop thread).  ``cache`` is optional;
    when present, responses are keyed on input bytes + coverage + snapshot
    id and served without touching the model.
    """

    def __init__(self, engine: PredictionEngine, *, max_batch: int = 32,
                 max_wait_ms: float = 2.0,
                 cache: Optional[ByteLRUCache] = None,
                 executor=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.cache = cache
        self.counters = _Counters()
        self._executor = executor
        self._pending: List[_Unit] = []
        self._pending_rows = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._closed = False
        self._batches: Set[asyncio.Task] = set()  # the loop holds tasks weakly

    # ----------------------------------------------------------------- submit
    async def submit(self, inputs, coverage: float = DEFAULT_COVERAGE
                     ) -> PredictResponse:
        """Enqueue one request (a batch of input rows) and await its response."""
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        inputs = np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))
        if inputs.ndim < 2 or inputs.shape[0] < 1:
            raise ValueError(
                f"inputs must be a non-empty batch (rows on axis 0), got "
                f"shape {inputs.shape}")
        try:
            coverage = float(coverage)
        except OverflowError:  # an int too large for a float
            raise ValueError(f"coverage must be in (0, 1), got {coverage}")
        if not 0.0 < coverage < 1.0:
            raise ValueError(f"coverage must be in (0, 1), got {coverage}")
        self.counters.requests += 1
        self.counters.rows += inputs.shape[0]
        cache_key = None
        if self.cache is not None:
            cache_key = response_cache_key(inputs, coverage,
                                           self.engine.snapshot_id)
            cached = self.cache.get(cache_key)
            if cached is not None:
                return cached
        loop = asyncio.get_running_loop()
        unit = _Unit(inputs=inputs, coverage=coverage,
                     future=loop.create_future(), cache_key=cache_key)
        self._pending.append(unit)
        self._pending_rows += inputs.shape[0]
        if self._pending_rows >= self.max_batch:
            self.counters.size_flushes += 1
            self._flush_now(loop)
        elif self._timer is None:
            self._timer = loop.call_later(self.max_wait_ms / 1000.0,
                                          self._on_timer, loop)
        return await unit.future

    async def close(self) -> None:
        """Flush anything pending, wait for batches in flight, and refuse
        further submissions."""
        self._closed = True
        if self._pending:
            loop = asyncio.get_running_loop()
            units = self._detach_pending()
            await self._run_batch(loop, units)
        if self._batches:
            await asyncio.gather(*self._batches)

    # ------------------------------------------------------------------ flush
    def _on_timer(self, loop: asyncio.AbstractEventLoop) -> None:
        self._timer = None
        if self._pending:
            self.counters.timer_flushes += 1
            self._flush_now(loop)

    def _flush_now(self, loop: asyncio.AbstractEventLoop) -> None:
        units = self._detach_pending()
        if units:
            task = loop.create_task(self._run_batch(loop, units))
            self._batches.add(task)
            task.add_done_callback(self._batches.discard)

    def _detach_pending(self) -> List[_Unit]:
        units, self._pending = self._pending, []
        self._pending_rows = 0
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        return units

    async def _run_batch(self, loop: asyncio.AbstractEventLoop,
                         units: List[_Unit]) -> None:
        """One forward and one statistics call per row shape in the batch."""
        groups: Dict[tuple, List[_Unit]] = {}
        for unit in units:
            groups.setdefault(unit.inputs.shape[1:], []).append(unit)
        for group in groups.values():
            await self._run_group(loop, group)

    async def _run_group(self, loop: asyncio.AbstractEventLoop,
                         units: List[_Unit]) -> None:
        try:
            rows = [unit.inputs.shape[0] for unit in units]
            batch = (units[0].inputs if len(units) == 1 else
                     np.concatenate([unit.inputs for unit in units], axis=0))
            coverages = np.repeat([unit.coverage for unit in units], rows)
            self.counters.batches += 1
            self.counters.batched_rows += batch.shape[0]
            self.counters.max_batch_rows = max(self.counters.max_batch_rows,
                                               batch.shape[0])
            stats = await loop.run_in_executor(self._executor, self._compute,
                                               batch, coverages)
        except Exception as exc:  # propagate to every awaiting request
            for unit in units:
                if not unit.future.done():
                    unit.future.set_exception(exc)
            return
        offset = 0
        for unit, n in zip(units, rows):
            part = slice(offset, offset + n)
            offset += n
            response = PredictResponse(
                mean=stats.mean[part].copy(), std=stats.std[part].copy(),
                lo=stats.lo[part].copy(), hi=stats.hi[part].copy(),
                coverage=unit.coverage)
            if self.cache is not None and unit.cache_key is not None:
                self.cache.put(unit.cache_key, response,
                               response_nbytes(response))
            if not unit.future.done():
                unit.future.set_result(response)

    def _compute(self, batch: np.ndarray, coverages: np.ndarray
                 ) -> PredictResponse:
        """Executor body: the batch's forward, then its statistics.  Both go
        through the engine's attributes, so wrappers installed on them see
        one call each per batch."""
        return self.engine.stats(self.engine.predict_stacked(batch), coverages)

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"batcher": self.counters.as_dict(),
                                   "max_batch": self.max_batch,
                                   "max_wait_ms": self.max_wait_ms}
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
        return payload
