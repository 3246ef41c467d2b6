"""ExecutionContext: prepared registry, session counters, lifecycle."""

import numpy as np
import pytest

from repro.dataset import Dataset
from repro.engine import ExecutionContext, PreparedDataset, SkylineEngine
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter


class TestPreparedRegistry:
    def test_same_dataset_returns_same_prepared(self, ui_small):
        context = ExecutionContext()
        assert context.prepare(ui_small) is context.prepare(ui_small)
        assert context.prepared_count == 1

    def test_prepared_objects_pass_through(self, ui_small):
        context = ExecutionContext()
        prepared = PreparedDataset(ui_small)
        assert context.prepare(prepared) is prepared
        # Pass-through does not occupy a registry slot.
        assert context.prepared_count == 0

    def test_fifo_eviction(self):
        rng = np.random.default_rng(0)
        context = ExecutionContext(max_prepared=2)
        datasets = [Dataset(rng.random((20, 3))) for _ in range(3)]
        prepared = [context.prepare(dataset) for dataset in datasets]
        assert context.prepared_count == 2
        # The first entry was evicted: re-preparing builds a fresh object.
        assert context.prepare(datasets[0]) is not prepared[0]

    def test_raw_array_executes_do_not_fill_the_registry(self, ui_small):
        # A raw array is copied afresh on every call, so registering it
        # could never hit: it is prepared transiently instead.
        expected = SkylineEngine().execute(ui_small).indices.tolist()
        engine = SkylineEngine()
        for _ in range(4):
            assert engine.execute(ui_small.values).indices.tolist() == expected
        assert engine.context.prepared_count == 0

    def test_max_prepared_validated(self):
        with pytest.raises(InvalidParameterError):
            ExecutionContext(max_prepared=0)


class TestCounters:
    def test_run_counter_prefers_the_callers(self):
        context = ExecutionContext()
        mine = DominanceCounter()
        assert context.run_counter(mine) is mine
        fresh = context.run_counter()
        assert fresh is not mine
        assert fresh.tests == 0

    def test_record_absorbs_into_the_session_aggregate(self):
        context = ExecutionContext()
        run = DominanceCounter()
        run.add(7)
        run.add_prepared_hit()
        context.record(run)
        assert context.counter.tests == 7
        assert context.counter.prepared_cache_hits == 1
        assert context.runs_recorded == 1


class TestLifecycle:
    def test_close_clears_the_registry(self, ui_small):
        context = ExecutionContext()
        context.prepare(ui_small)
        context.close()
        assert context.prepared_count == 0

    def test_context_manager_closes(self, ui_small):
        with ExecutionContext() as context:
            context.prepare(ui_small)
        assert context.prepared_count == 0
