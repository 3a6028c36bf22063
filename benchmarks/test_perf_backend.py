"""Perf gate for the backend dispatch seam.

Every kernel call in ``repro.nn`` goes through
``repro.nn.backends.get_backend()``.  Dispatch is one attribute lookup per
kernel call — it must be noise, not a tax.  The gate times a
matmul+elementwise chain through the Tensor layer against a raw-numpy
transcription of the exact same op sequence and requires the dispatched
path to stay within 10% (speedup floor 0.9x; ``REPRO_PERF_RELAX=1`` relaxes
it on noisy machines).

Dispatched and raw runs are timed in interleaved rounds and compared via the
median per-round ratio, so machine-load drift hits both paths equally
instead of landing on one side only.
"""

import time

import numpy as np

from repro import nn

from _harness import record, record_bench_entry, run_once

N, D_IN, D_HID, D_OUT = 512, 1024, 1024, 512
ROUNDS = 5


def _make_inputs(rng):
    x = rng.normal(size=(N, D_IN))
    w1 = rng.normal(size=(D_IN, D_HID)) / np.sqrt(D_IN)
    w2 = rng.normal(size=(D_HID, D_OUT)) / np.sqrt(D_HID)
    return x, w1, w2


def _dispatched(x, w1, w2) -> np.ndarray:
    """The workload through the Tensor layer (backend-dispatched kernels)."""
    h = (nn.tensor(x) @ nn.tensor(w1)).relu()
    out = ((h @ nn.tensor(w2)) * 0.5).tanh() + 1.0
    return out.sum(axis=1).numpy()


def _raw_numpy(x, w1, w2) -> np.ndarray:
    """The identical op sequence spelled out in numpy (the pre-seam code)."""
    h = np.maximum(x @ w1, 0.0)
    out = np.tanh((h @ w2) * 0.5) + 1.0
    return out.sum(axis=1)


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_perf_backend_dispatch_overhead(benchmark, speedup_gate):
    rng = np.random.default_rng(0)
    x, w1, w2 = _make_inputs(rng)

    got = run_once(benchmark, _dispatched, x, w1, w2)
    # the seam is bit-exact before it is fast
    np.testing.assert_array_equal(got, _raw_numpy(x, w1, w2))

    # interleaved wall-clock rounds; the median ratio damps load drift
    dispatched_times, raw_times = [], []
    for _ in range(ROUNDS):
        dispatched_times.append(_time(lambda: _dispatched(x, w1, w2)))
        raw_times.append(_time(lambda: _raw_numpy(x, w1, w2)))
    ratio = float(np.median([raw / disp for raw, disp
                             in zip(raw_times, dispatched_times)]))
    t_dispatched = float(np.median(dispatched_times))
    t_raw = float(np.median(raw_times))

    record(benchmark, backend="numpy", t_dispatched_ms=t_dispatched * 1e3,
           t_raw_ms=t_raw * 1e3, raw_over_dispatched=ratio)

    # gate first: the trajectory file must only hold gate-passing numbers
    speedup_gate(ratio, 0.9, "backend dispatch should be noise vs raw numpy")
    record_bench_entry("backend", "numpy", {
        "workload": f"({N}x{D_IN})@({D_IN}x{D_HID}) relu matmul tanh chain",
        "t_dispatched_ms": round(t_dispatched * 1e3, 3),
        "t_raw_numpy_ms": round(t_raw * 1e3, 3),
        "raw_over_dispatched": round(ratio, 3),
        # median of per-round ratios (interleaved rounds), NOT the quotient of
        # the median times above — the two can differ slightly under load
        "speedup_definition": "median_of_interleaved_round_ratios",
        "rounds": ROUNDS,
        "gate": "dispatched within 10% of raw numpy (>= 0.9x)",
    })
