"""The production boosted scan vs its scalar oracles: bit-identical results.

Production gathers candidates from the memoized subset index and runs
SDI's prefix test on incrementally repaired sorted views.  The oracles in
``tests/oracles/`` do neither: an unmemoized container over the Figure 3
map tree and SDI's filter-then-sort prefix test.  That is a pure
execution-strategy difference, so skylines *and* charged dominance-test
counts must match exactly on every distribution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.algorithms.sfs import SFS
from repro.core.boost import run_boosted_scan
from repro.data import generate
from repro.dataset import Dataset
from repro.dominance import first_dominator, first_dominator_prefix
from repro.stats.counters import DominanceCounter
from tests.oracles.scalar_scan import ScalarSDI, boosted_scan

KINDS = ("UI", "CO", "AC")


def _production(host, dataset):
    counter = DominanceCounter()
    return run_boosted_scan(dataset, host, counter), counter.tests


def _oracle(host, dataset):
    counter = DominanceCounter()
    return boosted_scan(dataset, host, counter), counter.tests


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_sdi_subset(self, kind, seed):
        dataset = generate(kind, n=400, d=5, seed=seed)
        assert _production(SDI(), dataset) == _oracle(ScalarSDI(), dataset)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("host", [SFS, SaLSa])
    def test_memoized_hosts(self, kind, host):
        dataset = generate(kind, n=400, d=5, seed=3)
        assert _production(host(), dataset) == _oracle(host(), dataset)

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 60), st.integers(2, 5)),
            elements=st.floats(0, 1, allow_nan=False, width=16),
        )
    )
    def test_sdi_subset_on_random_data(self, values):
        dataset = Dataset(values)
        assert _production(SDI(), dataset) == _oracle(ScalarSDI(), dataset)


class TestFirstDominatorPrefix:
    @settings(max_examples=80, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 30), st.integers(1, 4)),
            elements=st.floats(0, 1, allow_nan=False, width=16),
        ),
        st.integers(0, 3),
        st.floats(0, 1, allow_nan=False, width=16),
    )
    def test_matches_filter_then_scan(self, block, dim, bound_q):
        dim = dim % block.shape[1]
        # The kernel's contract: rows sorted ascending by ``col``.
        order = np.argsort(block[:, dim], kind="stable")
        block = block[order]
        col = block[:, dim]
        q = np.full(block.shape[1], bound_q)

        prefix_counter = DominanceCounter()
        got = first_dominator_prefix(block, col, q[dim], q, prefix_counter)

        # Scalar reference: boolean-filter then scan.  The filtered rows
        # form a prefix of the sorted block, so indices coincide.
        scalar_counter = DominanceCounter()
        eligible = block[col <= q[dim]]
        expected = first_dominator(eligible, q, scalar_counter)

        assert got == expected
        assert prefix_counter.tests == scalar_counter.tests
