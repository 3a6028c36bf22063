"""Micro-batching broker: bit-identity, flush triggers, stress determinism."""

import asyncio

import numpy as np
import pytest

from repro.serve import ByteLRUCache, MicroBatcher, PredictionEngine, create_snapshot


def _assert_bit_identical(left, right):
    assert left.mean.tobytes() == right.mean.tobytes()
    assert left.std.tobytes() == right.std.tobytes()
    assert left.lo.tobytes() == right.lo.tobytes()
    assert left.hi.tobytes() == right.hi.tobytes()


class TestBitIdentity:
    def test_coalesced_matches_serial_per_request(self, fig1_engine, request_rows):
        async def coalesced():
            batcher = MicroBatcher(fig1_engine, max_batch=64, max_wait_ms=5.0)
            responses = await asyncio.gather(
                *[batcher.submit(request_rows[i:i + 1])
                  for i in range(len(request_rows))])
            await batcher.close()
            return responses, batcher

        responses, batcher = asyncio.run(coalesced())
        assert batcher.counters.batches < len(request_rows)  # actually coalesced
        for i, response in enumerate(responses):
            _assert_bit_identical(response,
                                  fig1_engine.predict(request_rows[i:i + 1]))

    def test_multi_row_requests_slice_correctly(self, fig1_engine, request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=64, max_wait_ms=5.0)
            responses = await asyncio.gather(
                batcher.submit(request_rows[:3]),
                batcher.submit(request_rows[3:8]),
                batcher.submit(request_rows[8:9]))
            await batcher.close()
            return responses

        first, second, third = asyncio.run(go())
        _assert_bit_identical(first, fig1_engine.predict(request_rows[:3]))
        _assert_bit_identical(second, fig1_engine.predict(request_rows[3:8]))
        _assert_bit_identical(third, fig1_engine.predict(request_rows[8:9]))

    def test_per_request_coverage_honored_within_one_batch(self, fig1_engine,
                                                           request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=64, max_wait_ms=5.0)
            narrow, wide = await asyncio.gather(
                batcher.submit(request_rows[:1], coverage=0.5),
                batcher.submit(request_rows[:1], coverage=0.99))
            await batcher.close()
            return narrow, wide

        narrow, wide = asyncio.run(go())
        assert narrow.coverage == 0.5 and wide.coverage == 0.99
        assert ((wide.hi - wide.lo) > (narrow.hi - narrow.lo)).all()
        assert narrow.mean.tobytes() == wide.mean.tobytes()


    def test_one_batch_of_mixed_requests_matches_serial_at_s32(
            self, tiny_overrides):
        """One coalesced batch of 54 rows over two 32-row blocks, with every
        block position filled, mixed coverages and a 4-row request across
        the block boundary, matches serial ``predict`` byte for byte."""
        snapshot = create_snapshot("fig1-regression", fast=True,
                                   overrides=tiny_overrides, num_samples=32,
                                   trained=False)
        engine = PredictionEngine.from_snapshot(snapshot, block_rows=32)
        rows = np.linspace(-2.0, 2.0, 54).reshape(-1, 1)
        requests = ([rows[i:i + 1] for i in range(30)] + [rows[30:34]]
                    + [rows[i:i + 1] for i in range(34, 54)])
        coverages = [(0.5, 0.9, 0.95)[i % 3] for i in range(len(requests))]

        async def coalesced():
            batcher = MicroBatcher(engine, max_batch=64, max_wait_ms=50.0)
            responses = await asyncio.gather(
                *[batcher.submit(x, c) for x, c in zip(requests, coverages)])
            await batcher.close()
            return responses, batcher

        responses, batcher = asyncio.run(coalesced())
        assert batcher.counters.batches == 1
        assert batcher.counters.batched_rows == 54
        for x, coverage, response in zip(requests, coverages, responses):
            assert response.coverage == coverage
            _assert_bit_identical(response, engine.predict(x, coverage))
            for array in (response.mean, response.std, response.lo, response.hi):
                assert array.base is None  # owned, so cache byte counts hold


class TestFailureIsolation:
    """A bad request fails alone; its batchmates are still answered."""

    @staticmethod
    def _settle(batcher, submissions):
        async def go():
            results = await asyncio.wait_for(
                asyncio.gather(*submissions(), return_exceptions=True),
                timeout=10.0)
            await batcher.close()
            return results
        return asyncio.run(go())

    def test_mismatched_row_width_fails_alone(self, fig1_engine, request_rows):
        batcher = MicroBatcher(fig1_engine, max_batch=64, max_wait_ms=1.0)
        good, bad, other = self._settle(batcher, lambda: (
            batcher.submit(request_rows[:1]),
            batcher.submit(np.zeros((1, 3))),
            batcher.submit(request_rows[1:3])))
        assert isinstance(bad, Exception)
        _assert_bit_identical(good, fig1_engine.predict(request_rows[:1]))
        _assert_bit_identical(other, fig1_engine.predict(request_rows[1:3]))
        assert batcher.counters.batches == 2  # one forward per row shape

    def test_out_of_range_coverage_rejected_before_enqueue(
            self, fig1_engine, request_rows):
        batcher = MicroBatcher(fig1_engine, max_batch=64, max_wait_ms=1.0)
        good, bad, other = self._settle(batcher, lambda: (
            batcher.submit(request_rows[:1]),
            batcher.submit(request_rows[1:2], 1.5),
            batcher.submit(request_rows[2:3], 0.5)))
        assert isinstance(bad, ValueError) and "coverage" in str(bad)
        _assert_bit_identical(good, fig1_engine.predict(request_rows[:1]))
        _assert_bit_identical(other, fig1_engine.predict(request_rows[2:3], 0.5))
        assert batcher.counters.batched_rows == 2


class TestFlushTriggers:
    def test_size_flush_before_timer(self, fig1_engine, request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=4, max_wait_ms=60_000.0)
            responses = await asyncio.gather(
                *[batcher.submit(request_rows[i:i + 1]) for i in range(4)])
            return responses, batcher

        responses, batcher = asyncio.run(go())
        assert len(responses) == 4
        assert batcher.counters.size_flushes == 1
        assert batcher.counters.timer_flushes == 0

    def test_timer_flush_for_partial_batch(self, fig1_engine, request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=1000, max_wait_ms=1.0)
            response = await batcher.submit(request_rows[:1])
            return response, batcher

        response, batcher = asyncio.run(go())
        assert response.mean.shape == (1, 1)
        assert batcher.counters.timer_flushes == 1

    def test_close_flushes_pending(self, fig1_engine, request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=1000,
                                   max_wait_ms=60_000.0)
            pending = asyncio.ensure_future(batcher.submit(request_rows[:1]))
            await asyncio.sleep(0)  # let the submit enqueue
            await batcher.close()
            response = await pending
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(request_rows[:1])
            return response

        response = asyncio.run(go())
        assert response.mean.shape == (1, 1)

    def test_close_waits_for_batches_in_flight(self, fig1_engine, request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=1, max_wait_ms=1.0)
            pending = asyncio.ensure_future(batcher.submit(request_rows[:1]))
            await asyncio.sleep(0)  # the submit size-flushes into a batch task
            await batcher.close()
            return pending.done()

        assert asyncio.run(go())

    def test_invalid_inputs_rejected(self, fig1_engine):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=4, max_wait_ms=1.0)
            with pytest.raises(ValueError, match="non-empty batch"):
                await batcher.submit(np.zeros(3))
            with pytest.raises(ValueError, match="non-empty batch"):
                await batcher.submit(np.zeros((0, 1)))

        asyncio.run(go())


class TestThreadSafety:
    def test_concurrent_forwards_from_threads_stay_bit_identical(
            self, fig1_engine, request_rows):
        """The engine serializes forwards: parameter substitution mutates the
        one shared network, so unlocked concurrent forwards would read each
        other's substituted weight stacks."""
        from concurrent.futures import ThreadPoolExecutor

        expected = [fig1_engine.predict_stacked(request_rows[i:i + 2]).tobytes()
                    for i in range(16)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(5):
                got = list(pool.map(
                    lambda i: fig1_engine.predict_stacked(
                        request_rows[i:i + 2]).tobytes(), range(16)))
                assert got == expected


class TestStressDeterminism:
    def test_concurrent_waves_deterministic_and_cache_consistent(
            self, fig1_engine, request_rows):
        """Many interleaved clients, repeated runs, cache on: identical bytes."""

        async def wave(use_cache):
            cache = ByteLRUCache(1 << 20) if use_cache else None
            batcher = MicroBatcher(fig1_engine, max_batch=8, max_wait_ms=1.0,
                                   cache=cache)

            async def client(offset):
                rows = request_rows[offset % len(request_rows):][:2]
                await asyncio.sleep((offset % 5) / 2000.0)
                return await batcher.submit(rows)

            responses = await asyncio.gather(*[client(i) for i in range(40)])
            await batcher.close()
            return [r.mean.tobytes() + r.std.tobytes() for r in responses]

        first = asyncio.run(wave(use_cache=False))
        second = asyncio.run(wave(use_cache=False))
        cached = asyncio.run(wave(use_cache=True))
        assert first == second  # deterministic under scheduling jitter
        assert first == cached  # the cache never changes response bytes
