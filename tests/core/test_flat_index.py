"""SkylineIndex: units, compaction edges, and the bridge to the Figure 3 tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boost import run_boosted_scan
from repro.core.subset_index import _COMPACT_MIN, SkylineIndex
from repro.data import generate
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.algorithms.sfs import SFS
from repro.stats.counters import DominanceCounter
from repro.structures import bitset
from tests.oracles.map_index import SkylineIndex as MapIndex
from tests.oracles.scalar_scan import boosted_scan as oracle_scan


def brute_query(stored: list[tuple[int, int]], subspace: int) -> list[int]:
    """Reference: ids whose mask ⊇ ``subspace``, in insertion order."""
    return [pid for pid, mask in stored if subspace & ~mask == 0]


def boosted_scan(dataset, host, on_map_oracle, **kwargs):
    """The production boosted scan, or its twin over the memoized map tree."""
    counter = DominanceCounter()
    if on_map_oracle:
        skyline = oracle_scan(dataset, host, counter, memoize=True, **kwargs)
    else:
        skyline = run_boosted_scan(dataset, host, counter, **kwargs)
    return skyline, counter


class TestPutQuery:
    def test_paper_example(self):
        """Figure 3's subspace family answered by the superset filter."""
        d = 8
        figure_reversed = [
            {1, 2},
            {1, 3, 5, 7},
            {1, 5},
            {1, 7},
            {3, 5},
            {3, 7},
            {5, 7},
        ]
        idx = SkylineIndex(d)
        for pid, reversed_dims in enumerate(figure_reversed):
            idx.put(pid, bitset.complement(bitset.from_dims(reversed_dims), d))
        query_mask = bitset.complement(bitset.from_dims({1, 3, 5}), d)
        assert set(idx.query(query_mask)) == {2, 4}

    def test_results_in_insertion_order(self):
        idx = SkylineIndex(d=4)
        for pid, mask in [(9, 0b1111), (2, 0b0011), (7, 0b1011), (1, 0b0011)]:
            idx.put(pid, mask)
        assert idx.query(0b0011) == [9, 2, 7, 1]
        assert idx.query(0b1011) == [9, 7]

    def test_empty_index_queries_clean(self):
        idx = SkylineIndex(d=3)
        counter = DominanceCounter()
        assert idx.query(0b101, counter) == []
        ids, rows = SkylineIndex(d=3, values=np.zeros((2, 3))).candidates(0b101)
        assert ids.tolist() == [] and rows.shape == (0, 3)
        assert len(idx) == 0
        assert idx.node_count() == 0

    def test_single_mask_group(self):
        idx = SkylineIndex(d=3)
        for pid in range(5):
            idx.put(pid, 0b110)
        assert idx.query(0b010) == list(range(5))
        assert idx.query(0b001) == []
        assert idx.node_count() == 1

    def test_duplicate_masks_keep_all_points(self):
        idx = SkylineIndex(d=4)
        stored = [(pid, 0b0110 if pid % 2 else 0b1111) for pid in range(12)]
        for pid, mask in stored:
            idx.put(pid, mask)
        for q in (0b0110, 0b0010, 0b1111, 0b0001):
            assert idx.query(q) == brute_query(stored, q)
        assert idx.node_count() == 2

    def test_invalid_dimensionality_rejected(self):
        with pytest.raises(InvalidParameterError):
            SkylineIndex(d=0)

    def test_out_of_range_mask_rejected(self):
        idx = SkylineIndex(d=3)
        with pytest.raises(DimensionMismatchError):
            idx.put(0, 0b1000)
        with pytest.raises(DimensionMismatchError):
            idx.query(0b1000)

    def test_candidates_requires_values(self):
        with pytest.raises(InvalidParameterError):
            SkylineIndex(d=3).candidates(0b001)

    def test_candidates_returns_gathered_rows(self):
        values = np.arange(12.0).reshape(4, 3)
        idx = SkylineIndex(d=3, values=values)
        idx.put(2, 0b111)
        idx.put(0, 0b011)
        ids, rows = idx.candidates(0b011)
        assert ids.tolist() == [2, 0]
        assert np.array_equal(rows, values[[2, 0]])
        # Repeated probe serves the same entry, repaired in place.
        idx.put(3, 0b111)
        ids, rows = idx.candidates(0b011)
        assert ids.tolist() == [2, 0, 3]
        assert np.array_equal(rows, values[[2, 0, 3]])


class TestCompaction:
    def test_tail_folds_after_threshold(self):
        idx = SkylineIndex(d=6)
        stored = [(pid, (pid % 7) + 1) for pid in range(_COMPACT_MIN * 3)]
        for pid, mask in stored:
            idx.put(pid, mask)
        # At least one compaction must have happened for this volume.
        assert idx._tail_n < len(stored)
        for q in (0b000001, 0b000011, 0b000111):
            assert idx.query(q) == brute_query(stored, q)

    def test_query_consistent_across_compaction_boundary(self):
        idx = SkylineIndex(d=4)
        stored = []
        for pid in range(2 * _COMPACT_MIN + 5):
            mask = 0b1111 if pid % 3 else 0b0101
            idx.put(pid, mask)
            stored.append((pid, mask))
            assert idx.query(0b0101) == brute_query(stored, 0b0101)

    def test_remove_and_clear(self):
        idx = SkylineIndex(d=3)
        idx.put(1, 0b011)
        idx.put(2, 0b011)
        epoch = idx.epoch
        idx.remove(1, 0b011)
        assert idx.query(0b001) == [2]
        assert idx.epoch == epoch + 1
        with pytest.raises(KeyError):
            idx.remove(1, 0b011)
        with pytest.raises(KeyError):
            idx.remove(2, 0b111)
        idx.clear()
        assert len(idx) == 0
        assert idx.query(0b001) == []

    def test_subspaces_and_occupancy_views(self):
        idx = SkylineIndex(d=3)
        idx.put(0, 0b011)
        idx.put(1, 0b011)
        idx.put(2, 0b111)
        assert idx.subspaces() == {0b011: [0, 1], 0b111: [2]}
        occ = idx.occupancy()
        assert occ["nodes"] == 2.0 and occ["max"] == 2.0


@st.composite
def put_query_sequences(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    full = (1 << d) - 1
    puts = draw(
        st.lists(st.integers(min_value=0, max_value=full), min_size=0, max_size=60)
    )
    queries = draw(
        st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=20)
    )
    return d, puts, queries


class TestFlatVsMapBridge:
    @given(put_query_sequences())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_puts_and_queries_match(self, seq):
        """Same put/query stream → same ids and same cache accounting."""
        d, puts, queries = seq
        flat, tree = SkylineIndex(d), MapIndex(d)
        flat_counter, tree_counter = DominanceCounter(), DominanceCounter()
        for pid, mask in enumerate(puts):
            flat.put(pid, mask)
            tree.put(pid, mask)
        for mask in queries:
            assert flat.query(mask, flat_counter) == tree.query(mask, tree_counter)
        flat_stats, tree_stats = flat.cache_stats(), tree.cache_stats()
        assert flat_stats["hits"] == tree_stats["hits"]
        assert flat_stats["misses"] == tree_stats["misses"]
        assert flat_counter.index_cache_hits == tree_counter.index_cache_hits
        assert flat_counter.index_cache_misses == tree_counter.index_cache_misses

    @pytest.mark.parametrize("host_factory", [SFS, SaLSa, SDI])
    @pytest.mark.parametrize("kind", ["UI", "CO", "AC"])
    def test_boosted_scan_bit_identical(self, host_factory, kind):
        """Full boosted scans charge identical tests on the map oracle."""
        dataset = generate(kind, n=600, d=5, seed=11)
        map_sky, map_counter = boosted_scan(dataset, host_factory(), True)
        flat_sky, flat_counter = boosted_scan(dataset, host_factory(), False)
        assert map_sky == flat_sky
        assert map_counter.tests == flat_counter.tests
        assert map_counter.index_cache_hits == flat_counter.index_cache_hits
        assert map_counter.index_cache_misses == flat_counter.index_cache_misses

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=6),
        st.sampled_from(["UI", "CO", "AC"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_datasets_and_sigmas_match(self, seed, sigma_d, kind):
        d = 6
        sigma = min(sigma_d, d)
        dataset = generate(kind, n=200, d=d, seed=seed % 1000)
        per_index = [
            boosted_scan(dataset, SFS(), on_map_oracle, sigma=sigma)
            for on_map_oracle in (True, False)
        ]
        (map_sky, map_counter), (flat_sky, flat_counter) = per_index
        assert map_sky == flat_sky
        assert map_counter.tests == flat_counter.tests
