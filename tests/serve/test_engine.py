"""PredictionEngine contracts: the bound snapshot, and block-shaped statistics."""

import asyncio

import numpy as np
import pytest

from repro.serve import PredictionEngine, Snapshot, create_snapshot, load_snapshot
from repro.serve.server import ServeApp

BLOCK_ROWS = 32


@pytest.fixture(scope="module")
def engine_s32(tiny_overrides):
    """An S=32 engine over an untrained fig1 snapshot (serving is RNG-free,
    so training would not change what these tests check)."""
    snapshot = create_snapshot("fig1-regression", fast=True, overrides=tiny_overrides,
                               num_samples=32, trained=False)
    return PredictionEngine.from_snapshot(snapshot, block_rows=BLOCK_ROWS)


class TestBoundSnapshot:
    def test_in_place_write_to_snapshot_changes_nothing_served(
            self, fig1_snapshot_dir, request_rows):
        snapshot = load_snapshot(fig1_snapshot_dir)
        engine = PredictionEngine.from_snapshot(snapshot)
        bound_id = engine.snapshot_id
        before = engine.predict(request_rows)

        snapshot.sites["0.weight"][...] *= 2.0
        snapshot.sites["2.bias"][...] += 1.0

        assert snapshot.snapshot_id != bound_id  # the write really happened
        assert engine.snapshot_id == bound_id
        assert engine.snapshot.snapshot_id == bound_id
        after = engine.predict(request_rows)
        assert after.mean.tobytes() == before.mean.tobytes()
        assert after.std.tobytes() == before.std.tobytes()

    def test_bound_arrays_are_private_and_read_only(self, fig1_snapshot_dir):
        snapshot = load_snapshot(fig1_snapshot_dir)
        engine = PredictionEngine.from_snapshot(snapshot)
        for name, array in engine.snapshot.sites.items():
            assert not np.shares_memory(array, snapshot.sites[name])
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_snapshot_id_hashed_once_per_engine_not_per_request(
            self, fig1_snapshot_dir, request_rows, monkeypatch):
        snapshot = load_snapshot(fig1_snapshot_dir)
        reads = []
        original = Snapshot.snapshot_id

        def counted(self):
            reads.append(1)
            return original.fget(self)

        monkeypatch.setattr(Snapshot, "snapshot_id", property(counted))
        engine = PredictionEngine.from_snapshot(snapshot)
        assert len(reads) == 1

        async def serve():
            app = ServeApp(engine, max_batch=8, max_wait_ms=1.0)
            bodies = [{"inputs": request_rows[i % 6:i % 6 + 1].tolist()}
                      for i in range(12)]  # half of them are cache hits
            out = await asyncio.gather(*[app.predict(b) for b in bodies])
            await app.healthz()
            await app.batcher.close()
            return out

        responses = asyncio.run(serve())
        assert {r["snapshot_id"] for r in responses} == {engine.snapshot_id}
        assert len(reads) == 1


class TestBlockStatistics:
    @pytest.mark.parametrize("rows", [BLOCK_ROWS, 2 * BLOCK_ROWS + 5])
    def test_row_statistics_independent_of_batch_layout(self, engine_s32, rows):
        """Each row's statistics match those of its own one-row slice, byte
        for byte.  Reducing the whole ``(S, rows, 1)`` array and slicing does
        not: numpy sums a one-row and a many-row layout in different orders."""
        x = np.linspace(-2.0, 2.0, rows).reshape(-1, 1)
        raw = engine_s32.predict_stacked(x)
        batch = engine_s32.stats(raw, 0.9)
        for i in range(rows):
            alone = engine_s32.stats(raw[:, i:i + 1], 0.9)
            assert batch.mean[i:i + 1].tobytes() == alone.mean.tobytes(), i
            assert batch.std[i:i + 1].tobytes() == alone.std.tobytes(), i

    def test_per_row_coverage_matches_scalar_coverage(self, engine_s32):
        x = np.linspace(-2.0, 2.0, BLOCK_ROWS).reshape(-1, 1)
        raw = engine_s32.predict_stacked(x)
        coverages = np.resize([0.5, 0.9, 0.95], BLOCK_ROWS)
        mixed = engine_s32.stats(raw, coverages)
        np.testing.assert_array_equal(mixed.coverage, coverages)
        for coverage in (0.5, 0.9, 0.95):
            rows = coverages == coverage
            scalar = engine_s32.stats(raw, coverage)
            assert scalar.coverage == coverage
            assert mixed.lo[rows].tobytes() == scalar.lo[rows].tobytes()
            assert mixed.hi[rows].tobytes() == scalar.hi[rows].tobytes()

    @pytest.mark.parametrize("coverage", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_out_of_range_coverage_rejected(self, engine_s32, coverage):
        raw = engine_s32.predict_stacked(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="coverage"):
            engine_s32.stats(raw, coverage)
        with pytest.raises(ValueError, match="coverage"):
            engine_s32.stats(raw, np.array([0.9, coverage]))
