"""Scalar references for the boosted scan: the container and SDI's prefix test.

Production runs one path each: the memoized struct-of-arrays subset index
(:class:`repro.core.subset_index.SkylineIndex`) and SDI's sorted-view
prefix test.  The suite checks both against the references here, which
must reproduce the same skyline ids *and* the same charged dominance
tests:

- :class:`MapContainer` — a subset container over the paper's Figure 3
  map tree (:mod:`tests.oracles.map_index`).  With ``memoize=False`` every
  query walks the tree and gathers its candidate rows afresh.
- :class:`ScalarSDI` — SDI whose per-point prefix test re-filters and
  stable-sorts the candidate block instead of repairing a sorted view.
- :func:`boosted_scan` — Merge followed by a host scan over a
  :class:`MapContainer`: the reference wiring of
  :func:`repro.core.boost.run_boosted_scan`.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.sdi import SDI
from repro.core.boost import BoostableHost
from repro.core.container import SubsetContainer
from repro.core.merge import merge
from repro.core.stability import default_threshold
from repro.dataset import Dataset
from repro.dominance import first_dominator
from repro.stats.counters import DominanceCounter
from tests.oracles.map_index import SkylineIndex as MapIndex


class MapContainer(SubsetContainer):
    """A subset container whose candidates come from the Figure 3 tree."""

    def __init__(
        self,
        values: np.ndarray,
        d: int,
        counter: DominanceCounter | None = None,
        *,
        memoize: bool,
    ) -> None:
        super().__init__(values, d, counter)
        self._index = MapIndex(d, memoize=memoize)

    def candidates(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        ids = self._index.query_array(mask, self._counter)
        return ids, self._values[ids]


class ScalarSDI(SDI):
    """SDI with the filter-then-stable-sort prefix test, per testing point."""

    def _prefix_undominated(self, views, key, block, point, dim, counter):
        prefix = block[block[:, dim] <= point[dim]]
        prefix = prefix[np.argsort(prefix[:, dim], kind="stable")]
        return first_dominator(prefix, point, counter) == -1


def boosted_scan(
    dataset: Dataset,
    host: BoostableHost,
    counter: DominanceCounter,
    *,
    sigma: int | None = None,
    memoize: bool = False,
) -> list[int]:
    """Merge, then ``host``'s scan over a :class:`MapContainer`.

    Returns the skyline in discovery order — Merge's initial skyline, then
    the scan's — exactly as ``run_boosted_scan`` does for ``d >= 2``.
    """
    d = dataset.dimensionality
    sigma = default_threshold(d) if sigma is None else sigma
    merged = merge(dataset, sigma, counter)
    skyline = list(merged.initial_skyline_ids)
    if merged.remaining_ids.size == 0:
        return skyline
    masks = np.zeros(dataset.cardinality, dtype=np.int64)
    masks[merged.remaining_ids] = merged.masks
    store = MapContainer(dataset.values, d, counter, memoize=memoize)
    return skyline + host.run_phase(
        dataset, merged.remaining_ids, masks, store, counter
    )
