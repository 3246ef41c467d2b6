"""Property tests: the memoized index is observationally identical to the
unmemoized Figure 3 tree under arbitrary interleavings of put / query /
remove.

This is the correctness contract of the result cache (generation/epoch
invalidation plus put-log repair): callers must not be able to tell the
cached index from the reference that walks the tree on every query,
except through ``index_nodes_visited`` and the cache counters.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subset_index import SkylineIndex
from repro.stats.counters import DominanceCounter
from tests.oracles.map_index import SkylineIndex as MapIndex

D = 4
FULL = (1 << D) - 1
MAX_OPS = 80
#: Row ``i`` is the value vector of point ``i`` for the fused candidates path.
VALUES = np.arange(MAX_OPS * D, dtype=np.float64).reshape(MAX_OPS, D)

# Interleaved op sequences.  Puts carry a non-empty subspace (as in a real
# boosted scan); removes carry an index into the currently stored points;
# repeated query masks exercise cache hits and log repair.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(1, FULL)),
        st.tuples(st.just("query"), st.integers(0, FULL)),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=MAX_OPS,
)


def _run_interleaved(op_list, check):
    """Drive the production index and the unmemoized tree through ``op_list``.

    ``check(memo, plain, memo_counter, plain_counter, mask)`` is invoked at
    every query op.
    """
    memo = SkylineIndex(D, values=VALUES)
    plain = MapIndex(D, memoize=False)
    memo_counter = DominanceCounter()
    plain_counter = DominanceCounter()
    stored: list[tuple[int, int]] = []
    next_id = 0
    for kind, arg in op_list:
        if kind == "put":
            memo.put(next_id, arg)
            plain.put(next_id, arg)
            stored.append((next_id, arg))
            next_id += 1
        elif kind == "query":
            check(memo, plain, memo_counter, plain_counter, arg)
        elif stored:  # remove
            point_id, subspace = stored.pop(arg % len(stored))
            memo.remove(point_id, subspace)
            plain.remove(point_id, subspace)
    return memo, plain, memo_counter, plain_counter


@settings(max_examples=120, deadline=None)
@given(ops)
def test_memoized_query_results_identical(op_list):
    def check(memo, plain, memo_counter, plain_counter, mask):
        assert memo.query(mask, memo_counter) == plain.query(
            mask, plain_counter
        )

    memo, plain, memo_counter, plain_counter = _run_interleaved(op_list, check)
    assert len(memo) == len(plain)
    # Index traversal charges node visits, never dominance tests, and both
    # indexes see the same query stream.
    assert memo_counter.tests == plain_counter.tests == 0
    assert memo_counter.index_queries == plain_counter.index_queries
    stats = memo.cache_stats()
    assert stats["hits"] + stats["misses"] == memo_counter.index_queries
    assert plain.cache_stats() == {
        "hits": 0,
        "misses": 0,
        "invalidations": 0,
        "entries": 0,
    }


@settings(max_examples=120, deadline=None)
@given(ops)
def test_candidate_ids_match_query(op_list):
    def check(memo, plain, memo_counter, plain_counter, mask):
        ids, rows = memo.candidates(mask)
        assert ids.dtype == np.intp
        assert not ids.flags.writeable
        assert ids.tolist() == plain.query(mask)
        assert np.array_equal(rows, VALUES[ids])
        # The cached arrays and the list view stay coherent.
        assert ids.tolist() == memo.query(mask)

    _run_interleaved(op_list, check)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_results_ordered_by_insertion_sequence(op_list):
    def check(memo, plain, memo_counter, plain_counter, mask):
        # Point ids are handed out in put order, so insertion rank == id.
        for result in (memo.query(mask), plain.query(mask)):
            assert result == sorted(result)

    _run_interleaved(op_list, check)
