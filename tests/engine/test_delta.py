"""Delta-repair tests: ``apply_delta``, planner cost model, engine path."""

import dataclasses

import numpy as np
import pytest

from repro.dataset import Dataset
from repro.engine import ExecutionContext, SkylineEngine
from repro.engine.delta import remap_ids
from repro.engine.prepared import PreparedDataset
from repro.errors import InvalidParameterError
from tests.conftest import brute_skyline_ids


def _mutated_values(values, inserts, deletes):
    kept = np.delete(values, deletes, axis=0) if len(deletes) else values
    return np.vstack([kept, inserts]) if len(inserts) else kept


@pytest.fixture()
def seeded_delta(ui_small):
    rng = np.random.default_rng(5)
    deletes = np.sort(rng.choice(ui_small.cardinality, size=6, replace=False))
    inserts = rng.random((6, ui_small.dimensionality))
    return inserts, deletes


class TestApplyDelta:
    def test_noop_and_validation(self, ui_small):
        prepared = PreparedDataset(ui_small)
        version = prepared.version
        report = prepared.apply_delta(None, None)
        assert report.mode == "noop"
        assert prepared.version == version  # RPR008: no change, no bump
        with pytest.raises(InvalidParameterError):
            prepared.apply_delta(None, None, mode="sideways")
        with pytest.raises(InvalidParameterError):
            prepared.apply_delta(None, [ui_small.cardinality + 7])
        with pytest.raises(InvalidParameterError):
            prepared.apply_delta(None, np.arange(ui_small.cardinality))

    def test_repair_splices_values_and_bumps_version_once(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        prepared = PreparedDataset(ui_small)
        version = prepared.version
        report = prepared.apply_delta(inserts, deletes)
        assert report.mode == "repair"
        assert report.inserted == 6 and report.deleted == 6
        assert prepared.version == version + 1  # RPR008: exactly one bump
        expected = _mutated_values(ui_small.values, inserts, deletes)
        np.testing.assert_array_equal(prepared.dataset.values, expected)

    def test_large_delta_falls_back_to_recompute(self, ui_small):
        rng = np.random.default_rng(6)
        prepared = PreparedDataset(ui_small)
        big = rng.random((ui_small.cardinality // 2, ui_small.dimensionality))
        report = prepared.apply_delta(big, None)
        assert report.mode == "recompute"

    def test_forced_modes_override_the_threshold(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        forced = PreparedDataset(ui_small)
        assert forced.apply_delta(inserts, deletes, mode="recompute").mode == (
            "recompute"
        )
        rng = np.random.default_rng(7)
        big = rng.random((ui_small.cardinality, ui_small.dimensionality))
        repaired = PreparedDataset(ui_small)
        assert repaired.apply_delta(big, None, mode="repair").mode == "repair"

    def test_remap_ids_closes_ranks(self):
        survivors = np.asarray([0, 2, 3, 5])
        new_ids = remap_ids(survivors, np.asarray([1, 4]))
        # Rows 1 and 4 die; survivors close ranks in order.
        assert new_ids.tolist() == [0, 1, 2, 3]

    def test_merge_and_sort_caches_survive_a_small_delta(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small, "sfs-subset")  # warm merge + sort caches
        prepared = engine.prepare(ui_small)
        report = prepared.apply_delta(inserts, deletes)
        assert report.merge_repaired + report.merge_dropped >= 1
        assert report.sort_tagged + report.sort_dropped >= 1
        # The repaired caches must still produce the exact skyline.
        result = engine.execute(prepared, "sfs-subset")
        expected = brute_skyline_ids(prepared.dataset.values)
        assert sorted(result.indices.tolist()) == expected


class TestRepairSkyline:
    def test_requires_a_noted_base(self, ui_small):
        prepared = PreparedDataset(ui_small)
        prepared.apply_delta(np.ones((1, ui_small.dimensionality)), None)
        with pytest.raises(InvalidParameterError):
            prepared.repair_skyline()

    def test_repair_matches_brute_force_and_stays_warm(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        prepared = engine.prepare(ui_small)
        prepared.apply_delta(inserts, deletes)
        assert sorted(prepared.repair_skyline()) == brute_skyline_ids(
            prepared.dataset.values
        )
        # Second mutation reuses the bootstrapped stream.
        rng = np.random.default_rng(8)
        more = rng.random((4, ui_small.dimensionality))
        prepared.apply_delta(more, [0, 2])
        assert prepared.delta_state().stream_ready
        assert sorted(prepared.repair_skyline()) == brute_skyline_ids(
            prepared.dataset.values
        )


class TestPlannerIncremental:
    def _prepared_with_delta(self, engine, dataset, inserts, deletes):
        engine.execute(dataset)
        prepared = engine.prepare(dataset)
        prepared.apply_delta(inserts, deletes)
        return prepared

    def test_cost_model_selects_incremental(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        prepared = self._prepared_with_delta(engine, ui_small, inserts, deletes)
        plan = engine.planner.plan(prepared, None, None)
        assert plan.incremental
        assert plan.algorithm == "incremental-repair"
        assert plan.pending_mutations == 12
        assert plan.repair_cost < plan.recompute_cost
        text = plan.explain()
        assert "incremental delta-repair" in text
        assert "12 pending ops" in text
        assert "repair-vs-recompute" in text and "delta repair" in text

    def test_statistics_after_repair_match_a_fresh_prepare(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        prepared = engine.prepare(ui_small)
        before = prepared.statistics()
        assert prepared.apply_delta(inserts, deletes).mode == "repair"
        after = prepared.statistics()
        assert after is not before  # recomputed, not the pre-delta cache
        fresh = PreparedDataset(prepared.dataset).statistics()
        for field in dataclasses.fields(after):
            assert getattr(after, field.name) == getattr(fresh, field.name), (
                field.name
            )
        plan = engine.planner.plan(prepared, None, None)
        assert plan.incremental
        assert dict(plan.signals)["expected_skyline"] == after.expected_skyline

    def test_incremental_false_forces_full_plan(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        prepared = self._prepared_with_delta(engine, ui_small, inserts, deletes)
        plan = engine.planner.plan(prepared, None, None, incremental=False)
        assert not plan.incremental
        assert plan.pending_mutations == 12
        assert "full recompute" in plan.explain()

    def test_incremental_conflicts_with_pinned_algorithm(self, ui_small):
        engine = SkylineEngine()
        prepared = engine.prepare(ui_small)
        with pytest.raises(InvalidParameterError):
            engine.planner.plan(prepared, "sdi-subset", None, incremental=True)

    def test_incremental_without_delta_state_rejected(self, ui_small):
        engine = SkylineEngine()
        prepared = engine.prepare(ui_small)
        with pytest.raises(InvalidParameterError):
            engine.planner.plan(prepared, None, None, incremental=True)


class TestEnginePath:
    def test_incremental_execution_matches_recompute(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        engine.apply_delta(ui_small, inserts=inserts, deletes=deletes)
        assert engine.context.deltas_recorded == 1
        result = engine.execute(ui_small)  # original handle, via rebind alias
        assert result.plan.incremental
        mutated = _mutated_values(ui_small.values, inserts, deletes)
        assert sorted(result.indices.tolist()) == brute_skyline_ids(mutated)

    def test_repair_span_is_traced(self, ui_small, seeded_delta):
        from repro.obs import Tracer

        inserts, deletes = seeded_delta
        engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
        engine.execute(ui_small)
        engine.apply_delta(ui_small, inserts=inserts, deletes=deletes)
        result = engine.execute(ui_small)
        spans = result.trace.find("engine.repair")
        assert len(spans) == 1
        assert spans[0].attrs["pending"] == 12

    def test_rebind_keeps_old_handle_addressing_the_mutated_data(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        prepared = engine.prepare(ui_small)
        engine.apply_delta(ui_small, inserts=inserts, deletes=deletes)
        # Both the stale Dataset handle and the mutated array resolve to
        # the SAME prepared object — no silent re-prepare of old values.
        assert engine.prepare(ui_small) is prepared
        assert engine.prepare(prepared.dataset) is prepared

    def test_forced_recompute_through_the_engine(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        report = engine.apply_delta(
            ui_small, inserts=inserts, deletes=deletes, mode="recompute"
        )
        assert report.mode == "recompute"
        result = engine.execute(ui_small)
        assert not result.plan.incremental
        mutated = _mutated_values(ui_small.values, inserts, deletes)
        assert sorted(result.indices.tolist()) == brute_skyline_ids(mutated)

    def test_raw_array_rejected(self, ui_small):
        # execute(ndarray) prepares a fresh copy per call, so a delta on a
        # raw array would be unreachable: apply_delta refuses it up front.
        values = ui_small.values
        engine = SkylineEngine()
        before = engine.execute(values).indices.tolist()
        prepared_before = engine.context.prepared_count
        with pytest.raises(InvalidParameterError, match="Dataset"):
            engine.apply_delta(values, inserts=[[0.0] * values.shape[1]])
        assert engine.context.prepared_count == prepared_before
        assert engine.context.deltas_recorded == 0
        assert engine.execute(values).indices.tolist() == before
