"""One benchmark workload, run in one fresh process.

``run.py`` starts this script with a pinned environment.  It imports the
library from ``src/``, builds the workload from the public TyXe API and the
workload seed, then either stops there (``--setup-only``, used to time
set-up) or runs the timed phase for ``--seconds`` and prints one JSON record
as its last line of output.  With ``--trace`` the per-layer wrappers of
``tracer.py`` and the timing backend are switched on for the timed phase.

Every input is generated from ``--seed``: data, model initialisation, SVI
noise, the arrival schedule and the serving probes.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import resource
import sys
import threading
import time
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

import tracer as tracing

#: a tail is the highest percentile with at least this many samples above it
TAIL_BEYOND = 10

LADDER_RPS = (1000, 2000, 3000, 4000)
#: share of the rung time each rate gets; the two top rungs overload the
#: server on a 2-core machine, and a short rung is enough to show that
RUNG_SHARE = (0.4, 0.4, 0.1, 0.1)
SERVE_P99_LIMIT_MS = 20.0
SERVE_HOT_SHARE = 0.2
SERVE_HOT_ROWS = 16
SERVE_COVERAGES = (0.5, 0.9, 0.95)
SERVE_SAMPLES = 32
SERVE_BLOCK_ROWS = 32
SERVE_PROBES_PER_RUNG = 24
#: share of the run spent on the rate ladder; after each rung, a quarter of
#: the rest alternates saturating bursts and serial-engine windows
SERVE_LADDER_SHARE = 0.5
SERVE_BURST_REQUESTS = 512
SERVE_ENGINE_WINDOW_S = 0.1


def tail(samples_ms):
    """``(percentile, value, count)``: the largest sample with ``TAIL_BEYOND``
    samples above it, and the percentile that makes it.

    Anchoring the tail on a count rather than a fixed percentile keeps it on
    the same events (in the SVI loops, garbage-collector pauses) however many
    steps a run fits in its time budget.
    """
    ordered = np.sort(np.asarray(samples_ms, dtype=np.float64))
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / n, float(ordered[k]), n


class Checks:
    """Operation and check accounting: every failure is counted, none dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.results = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.op(ok)
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})


class HostClock:
    """Times a fixed reference computation between units of work.

    The computation calls nothing from the library, so a program change
    cannot move it; its median time says how fast the host ran during the
    run.  It resembles the workload's dominant work, because host slow-downs
    hit interpreter-bound and memory-bound code unequally: ``"interp"`` is
    small ufunc calls in a Python loop plus a 96x96 matmul (the SVI loop of
    a tiny MLP, the serving path), ``"conv"`` an im2col window copy, matmul
    and ReLU at the ResNet's first-stage shapes.
    """

    #: seconds between timings, and reference units timed each time
    EVERY_S = 0.1
    UNITS = 4

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.random((4, 4))
        self.square = rng.random((96, 96))
        self.image = rng.random((64, 8, 10, 10))
        self.kernel = rng.random((72, 8))
        self.kind = kind
        self._unit = {"interp": self._interp, "conv": self._conv}[kind]
        self.samples_ms = []
        self._due = 0.0

    def _interp(self) -> float:
        acc = self.small
        for _ in range(100):
            acc = np.tanh(acc * 0.5 + 0.1)
        return float((self.square @ self.square)[0, 0] + acc[0, 0])

    def _conv(self) -> float:
        s0, s1, s2, s3 = self.image.strides
        windows = np.lib.stride_tricks.as_strided(
            self.image, shape=(64, 8, 8, 8, 3, 3),
            strides=(s0, s1, s2, s3, s2, s3), writeable=False)
        cols = np.ascontiguousarray(
            windows.transpose(0, 2, 3, 1, 4, 5).reshape(4096, 72))
        return float(np.maximum(cols @ self.kernel, 0.0)[0, 0])

    def tick(self, force: bool = False) -> None:
        """Time ``UNITS`` reference units if ``EVERY_S`` has passed."""
        now = time.perf_counter()
        if not force and now < self._due:
            return
        for _ in range(self.UNITS):
            t0 = time.perf_counter()
            self._unit()
            self.samples_ms.append((time.perf_counter() - t0) * 1e3)
        self._due = time.perf_counter() + self.EVERY_S

    def unit_ms(self) -> float:
        return float(np.median(self.samples_ms))


@contextmanager
def span(trace, name):
    if trace is None:
        yield
        return
    trace.open(name)
    try:
        yield
    finally:
        trace.close()


# ------------------------------------------------------------------ training
def fig1_bnn(seed: int, n_train: int):
    """The Fig-1 model: a 1-50-1 tanh MLP, standard-normal prior, Gaussian
    likelihood of scale 0.1, AutoNormal guide; param store and RNG reset."""
    from repro import nn, ppl
    import repro.core as tyxe
    from repro.ppl import distributions as dist

    ppl.clear_param_store()
    ppl.set_rng_seed(seed)
    rng = np.random.default_rng(seed)
    net = nn.Sequential(nn.Linear(1, 50, rng=rng), nn.Tanh(),
                        nn.Linear(50, 1, rng=rng))
    guide = partial(tyxe.guides.AutoNormal, init_scale=0.05,
                    init_loc_fn=tyxe.guides.init_to_normal("radford"))
    return tyxe.VariationalBNN(
        net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
        tyxe.likelihoods.HomoskedasticGaussian(n_train, scale=0.1), guide)


class _Training:
    """A fixed-budget SVI round repeated until the time budget is spent.

    Every round rebuilds the model from the seed, runs ``steps`` one-step
    ``fit`` calls, then times vectorized posterior prediction and the
    held-out NLL.  Rounds are identical computations, so their losses must
    agree bit for bit; the first step of a round also initialises the guide
    and is kept out of the steady-state step times.
    """

    name = ""
    steps = 0
    num_predictions = 0
    predict_repeats = 1
    #: rows per vectorized ``predict`` call (0: the whole input at once)
    predict_chunk = 0
    #: ``HostClock`` reference computation
    host_unit = "interp"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        self.make_data()
        self.prior_nll = self.held_out_nll(self.build()[0])

    def run(self, trace, checks: Checks) -> dict:
        from repro.core import poutine

        step_ms, round_s = [], []
        predict_rows, predict_s = 0, 0.0
        clock = HostClock(self.host_unit)
        reference = None
        begin = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            with span(trace, "round.build"):
                bnn, optim = self.build()
            losses = []
            with poutine.local_reparameterization():
                for i in range(self.steps):
                    t0 = time.perf_counter()
                    try:
                        bnn.fit([self.batches[i % len(self.batches)]], optim, 1,
                                callback=lambda _bnn, _epoch, loss: losses.append(loss))
                    except Exception as exc:  # a failed step is counted, then the round ends
                        checks.check(f"{self.name}.step", False, repr(exc))
                        break
                    elapsed = time.perf_counter() - t0
                    checks.op(True)
                    if i > 0:
                        step_ms.append(elapsed * 1e3)
                    clock.tick()
            with self.predict_context(bnn):
                for _ in range(self.predict_repeats):
                    t0 = time.perf_counter()
                    out = self.predict(bnn, self.predict_inputs, aggregate=False)
                    predict_s += time.perf_counter() - t0
                    predict_rows += len(self.predict_inputs)
                    checks.op(bool(np.isfinite(out).all()))
                    clock.tick()
            with span(trace, "round.eval"):
                nll = self.held_out_nll(bnn)
            outputs = (np.asarray(losses, dtype=np.float64), nll, out)
            if reference is None:
                reference = outputs
                checks.check("losses finite", bool(np.isfinite(outputs[0]).all())
                             and len(losses) == self.steps)
                checks.check("eval_nll finite", math.isfinite(nll), f"{nll!r}")
                checks.check("eval_nll below the untrained model's",
                             nll < self.prior_nll,
                             f"{nll:.4f} vs untrained {self.prior_nll:.4f}")
            else:
                checks.check("round repeats round 0 bit for bit",
                             outputs[0].tobytes() == reference[0].tobytes()
                             and outputs[1] == reference[1]
                             and outputs[2].tobytes() == reference[2].tobytes())
            round_s.append(time.perf_counter() - t_round)
            if time.perf_counter() - begin + np.median(round_s) > self.seconds:
                break
        end = time.perf_counter()
        pct, tail_ms, n = tail(step_ms)
        digest = hashlib.sha256()
        for part in (reference[0].tobytes(), repr(reference[1]).encode(),
                     reference[2].tobytes()):
            digest.update(part)
        metrics = {
            "train_steps_per_s": (len(step_ms) / (sum(step_ms) / 1e3), "steps/s"),
            "train_step_ms_p50": (float(np.median(step_ms)), "ms"),
            "train_step_ms_tail": (tail_ms, "ms"),
            "predict_rows_per_s": (predict_rows / predict_s, "rows/s"),
            "eval_nll": (reference[1], "nats/point"),
        }
        return {"metrics": metrics,
                "tail_note": (f"train_step_ms_tail is p{pct:.2f} of {n} steps "
                              f"(the largest with {TAIL_BEYOND} beyond it)"),
                "samples": {"train_step_ms": step_ms,
                            "round_s": round_s},
                "rounds": len(round_s), "ops": len(step_ms),
                "timed": [begin, end], "digest": digest.hexdigest(),
                "untrained_nll": self.prior_nll,
                "host_unit": clock.kind, "host_unit_ms": clock.unit_ms(),
                "host_samples_ms": clock.samples_ms}

    def predict(self, bnn, inputs, aggregate: bool) -> np.ndarray:
        """Vectorized posterior prediction in chunks of ``predict_chunk`` rows."""
        chunk = self.predict_chunk or len(inputs)
        parts = [bnn.predict(inputs[i:i + chunk],
                             num_predictions=self.num_predictions,
                             aggregate=aggregate, vectorized=True).data
                 for i in range(0, len(inputs), chunk)]
        return np.concatenate(parts, axis=0 if aggregate else 1)

    def held_out_nll(self, bnn) -> float:
        from repro import nn

        with self.predict_context(bnn):
            agg = self.predict(bnn, self.test_x, aggregate=True)
        return -float(bnn.likelihood.log_likelihood(nn.Tensor(agg),
                                                    nn.Tensor(self.test_y)))


class MlpSvi(_Training):
    """Fig-1: 1-50-1 tanh MLP, Foong two-cluster data, full batch."""

    name = "mlp_svi"
    steps = 250
    num_predictions = 32
    predict_repeats = 4

    def make_data(self) -> None:
        from repro import datasets, nn

        x, y = datasets.foong_regression(40, 0.1, seed=self.seed)
        self.batches = [(nn.Tensor(x), nn.Tensor(y))]
        self.n_train = len(x)
        self.predict_inputs = datasets.regression_grid(num_points=1000)
        self.test_x, self.test_y = datasets.foong_regression(
            100, 0.1, seed=self.seed + 1)

    def build(self):
        from repro import ppl

        return fig1_bnn(self.seed, self.n_train), ppl.optim.Adam({"lr": 1e-2})

    def predict_context(self, bnn):
        """Fig-1 panel (a) predicts under local reparameterization too."""
        from repro.core import poutine

        return poutine.local_reparameterization()


class ResnetSvi(_Training):
    """Table-1/Fig-2: mean-field ResNet-8 (width 8) on 8x8x3 images."""

    name = "resnet_svi"
    steps = 32
    num_predictions = 16
    batch_size = predict_chunk = 64
    host_unit = "conv"

    def make_data(self) -> None:
        from repro import datasets, nn

        data = datasets.make_image_classification_data(
            10, 8, 3, train_per_class=64, test_per_class=20, noise_scale=1.0,
            seed=self.seed)
        order = np.random.default_rng(self.seed + 1).permutation(
            len(data.train_images))
        self.batches = [
            (nn.Tensor(data.train_images[order[i:i + self.batch_size]]),
             nn.Tensor(data.train_labels[order[i:i + self.batch_size]]))
            for i in range(0, len(order) - self.batch_size + 1, self.batch_size)]
        self.n_train = len(data.train_images)
        self.predict_inputs = self.test_x = data.test_images
        self.test_y = data.test_labels

    def build(self):
        from repro import nn, ppl
        import repro.core as tyxe
        from repro.ppl import distributions as dist

        ppl.clear_param_store()
        ppl.set_rng_seed(self.seed)
        rng = np.random.default_rng(self.seed)
        net = nn.models.make_resnet(8, num_classes=10, in_channels=3,
                                    base_width=8, rng=rng)
        prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), expose_all=True,
                                     hide_module_types=[nn.BatchNorm2d])
        guide = partial(tyxe.guides.AutoNormal,
                        init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net),
                        init_scale=1e-3, max_guide_scale=0.1)
        bnn = tyxe.VariationalBNN(net, prior,
                                  tyxe.likelihoods.Categorical(self.n_train),
                                  guide)
        return bnn, ppl.optim.Adam({"lr": 1e-3})

    @contextmanager
    def predict_context(self, bnn):
        """Predict in eval mode: batch norm uses its running moments."""
        bnn.net.train(False)
        try:
            yield
        finally:
            bnn.net.train(True)


# ------------------------------------------------------------------- serving
class QueueWait:
    """Submit-to-forward-start wait per request row (traced run only).

    ``MicroBatcher.submit`` registers each row with its submit time;
    ``PredictionEngine.predict_stacked`` pops the oldest registration of each
    row it computes.  Rows answered from the cache are unregistered when their
    ``submit`` returns.
    """

    class _Entry:
        __slots__ = ("t",)

        def __init__(self, t: float) -> None:
            self.t = t

    def __init__(self) -> None:
        self.pending = defaultdict(deque)
        self.waits = []  # (submit time, wait in ms)
        self.lock = threading.Lock()

    def install(self):
        from repro.serve.batcher import MicroBatcher
        from repro.serve.engine import PredictionEngine

        submit, forward = MicroBatcher.submit, PredictionEngine.predict_stacked
        watch = self

        async def traced_submit(batcher, inputs, *args, **kwargs):
            rows = np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))
            entries = [(row.tobytes(), watch._Entry(time.perf_counter()))
                       for row in rows]
            with watch.lock:
                for key, entry in entries:
                    watch.pending[key].append(entry)
            try:
                return await submit(batcher, inputs, *args, **kwargs)
            finally:
                with watch.lock:
                    for key, entry in entries:
                        try:
                            watch.pending[key].remove(entry)
                        except ValueError:  # a forward already took it
                            pass

        def traced_forward(engine, inputs):
            now = time.perf_counter()
            rows = np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))
            with watch.lock:
                for row in rows:
                    queue = watch.pending.get(row.tobytes())
                    if queue:
                        t = queue.popleft().t
                        watch.waits.append((t, (now - t) * 1e3))
            return forward(engine, inputs)

        MicroBatcher.submit = traced_submit
        PredictionEngine.predict_stacked = traced_forward

        def undo():
            MicroBatcher.submit = submit
            PredictionEngine.predict_stacked = forward
        return undo

    def rung_waits_ms(self, trace) -> list:
        """Waits of requests submitted during a rate-ladder rung: the burst
        requests queue behind each other by design."""
        a = trace.arrays()
        rung = a["name_id"] == trace.names.index("serve.rung")
        spans = list(zip(a["start"][rung], a["end"][rung]))
        return [w for t, w in self.waits if any(lo <= t <= hi for lo, hi in spans)]


class ServeOpenLoop:
    """Open-loop Poisson arrivals of single-row requests into ServeApp.predict."""

    name = "serve_open_loop"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        from repro import datasets
        from repro.serve import PredictionEngine, snapshot_from_bnn

        x, _ = datasets.foong_regression(40, 0.1, seed=self.seed)
        bnn = fig1_bnn(self.seed, len(x))
        snapshot = snapshot_from_bnn(
            bnn, "perfbench-fig1", {"workload": self.name, "seed": self.seed},
            SERVE_SAMPLES, x)
        self.engine = PredictionEngine(bnn, snapshot, block_rows=SERVE_BLOCK_ROWS)
        self.make_schedule(np.random.default_rng([self.seed, 1]))

    def make_schedule(self, rng) -> None:
        """The whole arrival schedule, fixed before the first rung runs."""
        rung_total = self.seconds * SERVE_LADDER_SHARE
        self.slice_s = (self.seconds - rung_total) / len(LADDER_RPS)
        hot = rng.uniform(-2.0, 2.0, size=(SERVE_HOT_ROWS, 1))
        covs = np.asarray(SERVE_COVERAGES)
        self.rungs = []
        for rate, share in zip(LADDER_RPS, RUNG_SHARE):
            n = int(rate * rung_total * share)
            due = np.cumsum(rng.exponential(1.0 / rate, size=n))
            is_hot = rng.random(n) < SERVE_HOT_SHARE
            rows = np.where(is_hot[:, None], hot[rng.integers(0, SERVE_HOT_ROWS, n)],
                            rng.uniform(-2.0, 2.0, size=(n, 1)))
            coverage = covs[rng.integers(0, len(covs), n)]
            probes = np.sort(rng.choice(n, SERVE_PROBES_PER_RUNG, replace=False))
            self.rungs.append({"rate": rate, "due": due, "rows": rows,
                               "coverage": coverage, "probes": probes})
        self.burst_rows = rng.uniform(-2.0, 2.0, size=(SERVE_BURST_REQUESTS, 1))
        self.burst_cov = covs[rng.integers(0, len(covs), SERVE_BURST_REQUESTS)]
        self.block = rng.uniform(-2.0, 2.0, size=(SERVE_BLOCK_ROWS, 1))

    def _app(self):
        from repro.serve.server import ServeApp

        return ServeApp(self.engine, max_batch=SERVE_BLOCK_ROWS, max_wait_ms=2.0)

    @staticmethod
    def _run(coro):
        """Run ``coro`` on a fresh loop whose executor has one thread."""
        async def main():
            asyncio.get_running_loop().set_default_executor(
                ThreadPoolExecutor(max_workers=1))
            return await coro
        return asyncio.run(main())

    async def _rung(self, app, rung, checks: Checks) -> dict:
        due, rows, coverage = rung["due"], rung["rows"], rung["coverage"]
        n = len(due)
        probes = set(rung["probes"].tolist())
        latency = np.full(n, np.nan)
        late = np.full(n, np.nan)
        payloads = {}
        state = {"done": 0, "failed": 0}

        async def one(i, t_due):
            try:
                out = await app.predict({"inputs": rows[i:i + 1].tolist(),
                                         "coverage": float(coverage[i])})
            except Exception:  # counted: a refused or failed request
                state["failed"] += 1
                return
            finally:
                state["done"] += 1
            latency[i] = time.perf_counter() - t_due
            if i in probes:
                payloads[i] = json.dumps(out, sort_keys=True)

        tasks = []
        t0 = time.perf_counter() + 0.002
        sent = 0
        while sent < n:
            now = time.perf_counter()
            while sent < n and t0 + due[sent] <= now:
                late[sent] = now - (t0 + due[sent])
                tasks.append(asyncio.ensure_future(one(sent, t0 + due[sent])))
                sent += 1
            if sent < n:
                await asyncio.sleep(max(0.0, t0 + due[sent] - time.perf_counter()))
        in_flight = sent - state["done"]
        await asyncio.gather(*tasks)
        ok = latency[np.isfinite(latency)] * 1e3
        checks.attempted += n
        checks.failed += state["failed"]
        return {"rate": rung["rate"], "sent": n, "completed": int(ok.size),
                "failed": state["failed"], "in_flight_at_end": in_flight,
                "latency_ms": ok, "late_ms": late * 1e3, "payloads": payloads}

    async def _burst(self, app) -> float:
        """Seconds to answer every burst request, all submitted at once."""
        t0 = time.perf_counter()
        await asyncio.gather(*(
            app.predict({"inputs": self.burst_rows[i:i + 1].tolist(),
                         "coverage": float(self.burst_cov[i])})
            for i in range(len(self.burst_rows))))
        return time.perf_counter() - t0

    def _engine_window(self, seconds: float, clock: HostClock) -> list:
        """Milliseconds of each serial ``PredictionEngine.predict`` call on a
        full block, for about ``seconds``."""
        calls_ms = []
        t_stop = time.perf_counter() + seconds
        while time.perf_counter() < t_stop:
            t0 = time.perf_counter()
            self.engine.predict(self.block, 0.9)
            calls_ms.append((time.perf_counter() - t0) * 1e3)
            clock.tick()
        return calls_ms

    def run(self, trace, checks: Checks) -> dict:
        """Each rung is followed by a slice of alternating saturating bursts
        and serial-engine windows, so those samples span the whole run."""
        begin = time.perf_counter()
        rungs, burst_s, engine_windows = [], [], []
        # batcher and cache counters of the open-loop rungs (bursts fill
        # every batch by design)
        counts = dict.fromkeys(("cache_hits", "cache_misses", "batches",
                                "batched_rows", "timer_flushes",
                                "size_flushes"), 0)
        clock = HostClock("interp")
        for rung in self.rungs:
            app = self._app()
            with span(trace, "serve.rung"):
                rungs.append(self._run(self._rung(app, rung, checks)))
            counts["cache_hits"] += app.batcher.cache.hits
            counts["cache_misses"] += app.batcher.cache.misses
            for key in ("batches", "batched_rows", "timer_flushes", "size_flushes"):
                counts[key] += getattr(app.batcher.counters, key)
            t_stop = time.perf_counter() + self.slice_s
            while time.perf_counter() < t_stop:
                clock.tick(force=True)
                app = self._app()
                with span(trace, "serve.burst"):
                    burst_s.append(self._run(self._burst(app)))
                checks.op(True)
                clock.tick(force=True)
                with span(trace, "serve.engine_serial"):
                    engine_windows.append(
                        self._engine_window(SERVE_ENGINE_WINDOW_S, clock))
        end = time.perf_counter()
        digest = hashlib.sha256(self.engine.snapshot_id.encode())
        with span(trace, "serve.probes"):
            for rung, result in zip(self.rungs, rungs):
                for i in rung["probes"]:
                    served = result["payloads"].get(int(i))
                    response = self.engine.predict(rung["rows"][i:i + 1],
                                                   float(rung["coverage"][i]))
                    serial = json.dumps(
                        {"snapshot_id": self.engine.snapshot_id,
                         "coverage": response.coverage,
                         "predictions": response.to_payload()}, sort_keys=True)
                    checks.check(f"probe r{rung['rate']}#{int(i)} served == serial",
                                 served == serial)
                    digest.update((served or "").encode())
        metrics = {}
        ladder = []
        max_rps = 0
        for result in rungs:
            rate = result["rate"]
            lat = result["latency_ms"]
            p50 = float(np.percentile(lat, 50)) if lat.size else math.inf
            p99 = float(np.percentile(lat, 99)) if lat.size else math.inf
            metrics[f"serve_p50_ms.r{rate}"] = (p50, "ms")
            metrics[f"serve_p99_ms.r{rate}"] = (p99, "ms")
            # Little's law: more than the limit's worth of offered load in
            # flight when the schedule ends means the backlog was growing
            keeps_pace = (result["in_flight_at_end"]
                          <= rate * SERVE_P99_LIMIT_MS / 1e3)
            meets = (p99 <= SERVE_P99_LIMIT_MS and result["failed"] == 0
                     and keeps_pace)
            if meets:
                max_rps = rate
            ladder.append({k: result[k] for k in (
                "rate", "sent", "completed", "failed", "in_flight_at_end")} | {
                "p50_ms": p50, "p99_ms": p99, "keeps_pace": keeps_pace,
                "meets_limit": meets,
                "late_ms_p99": float(np.percentile(result["late_ms"], 99))})
        metrics["serve_max_rps"] = (max_rps, "req/s")
        metrics["serve_capacity_rps"] = (
            SERVE_BURST_REQUESTS * len(burst_s) / sum(burst_s), "req/s")
        # The tail is each window's slowest call, median over windows: a
        # whole-run tail of sub-millisecond calls is set by the few host
        # stalls (5-30 ms) a run happens to contain, not by the program.
        engine_ms = [ms for window in engine_windows for ms in window]
        slowest = [max(window) for window in engine_windows]
        metrics["engine_rows_per_s"] = (
            SERVE_BLOCK_ROWS * len(engine_ms) / (sum(engine_ms) / 1e3), "rows/s")
        metrics["engine_call_ms_p50"] = (float(np.median(engine_ms)), "ms")
        metrics["engine_call_ms_tail"] = (float(np.median(slowest)), "ms")
        late_all = np.concatenate([r["late_ms"] for r in rungs])
        counts["late_ms_p99"] = float(np.percentile(late_all, 99))
        return {"metrics": metrics, "ladder": ladder,
                "tail_note": (f"engine_call_ms_tail is the median over "
                              f"{len(slowest)} windows of {SERVE_ENGINE_WINDOW_S} s "
                              f"of each window's slowest of {len(engine_ms)} calls"),
                "samples": {"burst_s": burst_s, "engine_call_ms": engine_ms,
                            "engine_window_slowest_ms": slowest,
                            "latency_ms_percentiles": {
                                f"r{r['rate']}": dict(zip(
                                    ("p10", "p25", "p50", "p75", "p90", "p99", "max"),
                                    np.percentile(r["latency_ms"],
                                                  [10, 25, 50, 75, 90, 99, 100]).tolist()))
                                for r in rungs}},
                "ops": int(sum(r["sent"] for r in rungs)),
                "timed": [begin, end], "digest": digest.hexdigest(),
                "serve": counts,
                "host_unit": clock.kind, "host_unit_ms": clock.unit_ms(),
                "host_samples_ms": clock.samples_ms}


WORKLOADS = {cls.name: cls for cls in (MlpSvi, ResnetSvi, ServeOpenLoop)}


# ---------------------------------------------------------------- per-layer
def layer_metrics(trace, result: dict, queue_wait) -> dict:
    """The per-layer metrics of one traced run (name -> (value, unit))."""
    from repro.nn import lazy

    totals = trace.totals()

    def get(name, field):
        return totals.get(name, {}).get(field, 0.0)

    counters = trace.counters
    out = {}
    for kind in tracing.KERNEL_KINDS:
        out[f"backend.{kind}.calls"] = (get(f"backend.{kind}", "calls"), "count")
        out[f"backend.{kind}.s"] = (get(f"backend.{kind}", "s"), "s")
        out[f"backend.{kind}.bytes"] = (counters.get(f"backend.{kind}.bytes", 0.0), "B")
    out["backend.matmul.flops"] = (counters.get("backend.matmul.flops", 0.0), "flop")
    stats = lazy.graph_stats()
    out.update({
        "nn.forward.calls": (get("nn.forward", "calls"), "count"),
        "nn.forward.self_s": (get("nn.forward", "self_s"), "s"),
        "nn.backward.s": (get("nn.backward", "s"), "s"),
        "nn.lazy.ops_recorded": (stats["ops_recorded"], "count"),
        "nn.lazy.ops_fused": (stats["ops_fused"], "count"),
        "nn.lazy.realizations": (stats["realizations"], "count"),
        "ppl.elbo.self_s": (get("ppl.elbo", "self_s"), "s"),
        "ppl.trace.calls": (get("ppl.trace", "calls"), "count"),
        "ppl.trace.s": (get("ppl.trace", "s"), "s"),
        "ppl.log_prob.s": (get("ppl.log_prob", "s"), "s"),
        "ppl.optim.s": (get("ppl.optim", "s"), "s"),
        "core.fit.self_s": (get("core.fit", "self_s"), "s"),
        "core.predict.calls": (get("core.predict", "calls"), "count"),
        "core.predict.s": (get("core.predict", "s"), "s"),
        "py.gc.collections.gen1": (counters.get("py.gc.collections.gen1", 0.0), "count"),
        "py.gc.collections.gen2": (counters.get("py.gc.collections.gen2", 0.0), "count"),
        "py.gc.pause_s": (counters.get("py.gc.pause_s", 0.0), "s"),
        "py.gc.pause_ms_max": (trace.gc_watch.max_pause * 1e3, "ms"),
    })
    serve = result.get("serve", {})
    waits = queue_wait.rung_waits_ms(trace) if queue_wait is not None else []
    lookups = serve.get("cache_hits", 0) + serve.get("cache_misses", 0)
    out.update({
        "serve.queue_wait_ms_p50": (float(np.percentile(waits, 50)) if waits else 0.0, "ms"),
        "serve.queue_wait_ms_p99": (float(np.percentile(waits, 99)) if waits else 0.0, "ms"),
        "serve.engine.forward.calls": (get("serve.engine.forward", "calls"), "count"),
        "serve.engine.forward.s": (get("serve.engine.forward", "s"), "s"),
        "serve.engine.stats.calls": (get("serve.engine.stats", "calls"), "count"),
        "serve.engine.stats.s": (get("serve.engine.stats", "s"), "s"),
        "serve.batcher.mean_batch_rows": (
            serve["batched_rows"] / serve["batches"] if serve.get("batches") else 0.0,
            "rows"),
        "serve.batcher.timer_flushes": (serve.get("timer_flushes", 0), "count"),
        "serve.batcher.size_flushes": (serve.get("size_flushes", 0), "count"),
        "serve.cache.hit_ratio": (serve.get("cache_hits", 0) / lookups if lookups else 0.0,
                                  "ratio"),
        "serve.cache.hits": (serve.get("cache_hits", 0), "count"),
        "serve.cache.misses": (serve.get("cache_misses", 0), "count"),
        "serve.gen.late_ms_p99": (serve.get("late_ms_p99", 0.0), "ms"),
        "trace.coverage": (trace.coverage(*result["timed"]), "ratio"),
    })
    return {k: (float(v), unit) for k, (v, unit) in out.items()}


# ---------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    import repro.core  # noqa: F401  (the imports a user pays for)
    import repro.serve  # noqa: F401
    t_imported = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    t_setup = time.perf_counter()
    record = {"t_imported": t_imported, "t_setup_done": t_setup}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    from repro.nn import backends, lazy

    checks = Checks()
    trace = queue_wait = None
    undo = []
    if args.trace:
        trace = tracing.Tracer()
        timing = tracing.make_timing_backend(trace)
        backends.register_backend(timing.name, lambda: timing)
        undo.append(tracing.install(trace))
        if isinstance(workload, ServeOpenLoop):
            queue_wait = QueueWait()
            undo.append(queue_wait.install())
        lazy.reset_stats()
        with backends.backend_mode(timing.name):
            result = workload.run(trace, checks)
        for fn in reversed(undo):
            fn()
    else:
        result = workload.run(None, checks)

    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": result.pop("metrics"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted, "failed": checks.failed,
        "checks": checks.results, "result": result,
    })
    if trace is not None:
        record["layers"] = layer_metrics(trace, result, queue_wait)
        record["nesting_errors"] = trace.nesting_errors()
        record["span_count"] = len(trace.start)
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            trace.save(args.spans_out)
    print(json.dumps(record, default=_jsonable))
    return 0


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
