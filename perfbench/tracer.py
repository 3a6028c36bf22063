"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the library: :func:`install` replaces a few
public functions of each layer (``Module.__call__``, ``Tensor.backward``,
``TraceHandler.get_trace``, ...) with timing wrappers, and a pass-through
:class:`TimingBackend` registered through ``repro.nn.backends`` times every
kernel.  Nothing under ``src/`` changes, and every wrapper only calls the
original, so a traced run computes exactly what an untraced one does.

A span is ``(name, start, end, parent)``; parents come from a per-thread
stack, so spans of the serving executor thread nest among themselves.  Self
time is a span's duration minus the time its child spans cover, accumulated
when each span closes.  Spans are kept in flat arrays and written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from array import array
from typing import Callable, Dict, List

import numpy as np

#: backend kernel kinds, in report order
KERNEL_KINDS = ("matmul", "im2col", "col2im", "pool", "reduce", "cumsum",
                "elementwise")


class Tracer:
    """Flat span store plus named counters; safe to call from two threads."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.start)
            self.name_id.append(self._intern(name))
            self.parent.append(stack[-1][0] if stack else -1)
            self.thread.append(threading.get_ident() & 0x7FFFFFFF)
            self.end.append(0.0)
            self.self_time.append(0.0)
            self.start.append(time.perf_counter())
        stack.append([idx, 0.0])
        return idx

    def close(self) -> float:
        now = time.perf_counter()
        stack = self._stack()
        idx, child_total = stack.pop()
        duration = now - self.start[idx]
        self.end[idx] = now
        self.self_time[idx] = duration - child_total
        if stack:
            stack[-1][1] += duration
        return duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # ------------------------------------------------------------- summaries
    def arrays(self) -> Dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "thread": np.frombuffer(self.thread, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "self_time": np.frombuffer(self.self_time, dtype=np.float64)}

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and total ``self_s``."""
        a = self.arrays()
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {"calls": int(mask.sum()),
                         "s": float((a["end"][mask] - a["start"][mask]).sum()),
                         "self_s": float(a["self_time"][mask].sum())}
        return out

    def coverage(self, begin: float, finish: float) -> float:
        """Share of ``[begin, finish]`` covered by top-level main-thread spans."""
        a = self.arrays()
        main = threading.main_thread().ident & 0x7FFFFFFF
        top = (a["parent"] == -1) & (a["thread"] == main)
        lo = np.clip(a["start"][top], begin, finish)
        hi = np.clip(a["end"][top], begin, finish)
        return float((hi - lo).sum() / (finish - begin))

    def nesting_errors(self) -> List[str]:
        """Violations of span nesting: a child outside its parent, or a
        negative self time.  Empty for a sound trace."""
        a = self.arrays()
        errors = []
        bad_self = np.flatnonzero(a["self_time"] < 0.0)
        if bad_self.size:
            errors.append(f"{bad_self.size} spans with negative self time")
        has_parent = np.flatnonzero(a["parent"] >= 0)
        parents = a["parent"][has_parent]
        outside = ((a["start"][has_parent] < a["start"][parents])
                   | (a["end"][has_parent] > a["end"][parents])
                   | (a["thread"][has_parent] != a["thread"][parents]))
        if outside.any():
            errors.append(f"{int(outside.sum())} spans outside their parent")
        if (a["end"] < a["start"]).any():
            errors.append("spans that end before they start (left open?)")
        return errors

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ------------------------------------------------------------ timing backend
def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 8))


def make_timing_backend(tracer: Tracer):
    """A ``Backend`` delegating every kernel to ``numpy``, timing each call.

    Bytes are computed from the sizes of the arrays read and written (inputs
    plus result), not measured; matmul also counts ``2 * M * K * N`` FLOPs
    per broadcast batch element.
    """
    from repro.nn import backends

    base = backends.NumpyBackend()

    def kernel(kind: str, fn: Callable, nbytes: Callable, flops=None):
        def timed(*args, **kwargs):
            tracer.open("backend." + kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            tracer.count(f"backend.{kind}.bytes", nbytes(args, out))
            if flops is not None:
                tracer.count(f"backend.{kind}.flops", flops(args, out))
            return out
        return timed

    def first_array_bytes(args, out):
        result = out[0] if isinstance(out, tuple) else out
        return _nbytes(args[0]) + _nbytes(result)

    def matmul_bytes(args, out):
        return _nbytes(args[0]) + _nbytes(args[1]) + _nbytes(out)

    def matmul_flops(args, out):
        return 2.0 * np.size(out) * np.shape(args[0])[-1]

    def elementwise_bytes(args, out):
        return sum(_nbytes(s) for s in args[0]) + _nbytes(out)

    class TimingBackend(backends.Backend):
        name = "perfbench-timing"
        elementwise = {op: kernel("elementwise", fn, elementwise_bytes)
                       for op, fn in base.elementwise.items()}
        matmul = staticmethod(kernel("matmul", base.matmul, matmul_bytes,
                                     matmul_flops))
        im2col = staticmethod(kernel("im2col", base.im2col, first_array_bytes))
        col2im = staticmethod(kernel("col2im", base.col2im, first_array_bytes))
        max_pool2d = staticmethod(kernel("pool", base.max_pool2d,
                                         first_array_bytes))
        avg_pool2d = staticmethod(kernel("pool", base.avg_pool2d,
                                         first_array_bytes))
        sum = staticmethod(kernel("reduce", base.sum, first_array_bytes))
        mean = staticmethod(kernel("reduce", base.mean, first_array_bytes))
        max = staticmethod(kernel("reduce", base.max, first_array_bytes))
        cumsum = staticmethod(kernel("cumsum", base.cumsum, first_array_bytes))

    return TimingBackend()


# ------------------------------------------------------------- installation
class _GCWatch:
    """Collections and pause time per generation, via ``gc.callbacks``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.max_pause = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        pause = time.perf_counter() - self._t0
        self.max_pause = max(self.max_pause, pause)
        self.tracer.count(f"py.gc.collections.gen{info['generation']}")
        self.tracer.count("py.gc.pause_s", pause)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's public entry points; returns the undo function.

    The caller selects the timing backend separately (``backend_mode``), so
    its scope is explicit at the call site.
    """
    from repro.core.bnn import VariationalBNN
    from repro.nn.modules import Module
    from repro.nn.tensor import Tensor
    from repro.ppl.infer.svi import TraceMeanField_ELBO
    from repro.ppl.optim import PyroOptim
    from repro.ppl.poutine.trace import Trace, TraceHandler
    from repro.serve.engine import PredictionEngine

    targets = [
        (Module, "__call__", "nn.forward"),
        (Tensor, "backward", "nn.backward"),
        (TraceMeanField_ELBO, "differentiable_loss", "ppl.elbo"),
        (TraceHandler, "get_trace", "ppl.trace"),
        (Trace, "compute_log_prob", "ppl.log_prob"),
        (PyroOptim, "__call__", "ppl.optim"),
        (VariationalBNN, "fit", "core.fit"),
        (VariationalBNN, "predict", "core.predict"),
        (PredictionEngine, "predict_stacked", "serve.engine.forward"),
        (PredictionEngine, "stats", "serve.engine.stats"),
    ]
    saved = []
    for owner, attr, name in targets:
        saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    watch = _GCWatch(tracer)
    gc.callbacks.append(watch)
    tracer.gc_watch = watch

    def undo() -> None:
        gc.callbacks.remove(watch)
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
    return undo
