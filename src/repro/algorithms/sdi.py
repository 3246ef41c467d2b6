"""SDI — Sorted Dimension Indexes skyline (Liu & Li, EDBT 2020).

SDI is the sort-and-scan algorithm the subset approach boosts best.  The
sort phase builds one sorted index of point ids per dimension; the scan
phase traverses dimensions breadth-first, always advancing the dimension
whose *dimension skyline* (the skyline points confirmed through it) is the
smallest.  Each visited point is tested only against skyline points whose
value in the current dimension does not exceed its own (the dimension
skyline prefix), ordered by that value — the cheapest plausible dominators
first.

Key properties preserved from the original design:

- a point already classified through another dimension is skipped;
- each per-dimension order breaks value ties with the strictly monotone
  coordinate sum, so a dominator precedes its dominated points in *every*
  dimension order — classification is always complete when a point is
  first visited (this is what makes duplicate-heavy data like WEATHER
  safe);
- the point with the minimum Euclidean distance serves as the *stop
  point*: once every dimension's cursor has passed it strictly, all
  unvisited points are strictly dominated by it and the scan terminates.

One dominance test is charged per compared skyline point, exactly as a
sequential early-exit loop would.

Sorted-view prefix test
-----------------------
Filtering and re-sorting the candidate block per testing point costs an
``O(k)`` boolean prefix filter plus an ``O(k log k)`` sort.  The scan
instead maintains one *sorted view* per ``(subspace, dimension)`` pair:
candidate blocks are stable-prefix (see
:class:`~repro.core.container.SkylineContainer`), so each view is repaired
by merging only the newly confirmed rows (a permutation merge over two 1-D
arrays), and the per-point test (:meth:`SDI._prefix_undominated`)
collapses to a binary search, a gather of the eligible prefix rows, and
one ``first_dominator`` kernel call (the sorted-block form is
:func:`~repro.dominance.first_dominator_prefix`).  The tested prefix is
element-for-element identical to the filter-then-stable-sort reference,
so skyline output and charged dominance tests are bit-identical; that
reference overrides the same method in ``tests/oracles/``.
"""

from __future__ import annotations

from collections.abc import MutableMapping

import numpy as np

from repro.algorithms.base import SkylineAlgorithm
from repro.core.container import ListContainer, SkylineContainer
from repro.dataset import Dataset
from repro.dominance import first_dominator
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter

__all__ = ["SDI"]

_UNKNOWN, _SKYLINE, _DOMINATED = 0, 1, 2


class _SortedView:
    """A candidate block's row order sorted by one dimension (ties: insertion).

    Stores the sorted column plus a *permutation* into the base block —
    never the rows themselves — so repairing after an append moves two 1-D
    arrays instead of a ``d``-wide block, and the per-point prefix gather
    only materialises the few rows the kernel actually tests.

    ``extend`` merges the rows appended to the base block since the last
    repair; because new rows carry strictly larger insertion sequence
    numbers than every old row, inserting them after their equal-valued
    predecessors (``side="right"``) preserves the (value, insertion-order)
    sort exactly as a stable re-sort of the whole block would.
    """

    __slots__ = ("n", "col", "perm")

    def __init__(self) -> None:
        self.n = 0
        self.col = np.empty(0, dtype=np.float64)
        self.perm = np.empty(0, dtype=np.intp)

    def extend(self, base: np.ndarray, dim: int) -> None:
        total = base.shape[0]
        new_col = base[self.n : total, dim]
        order = np.argsort(new_col, kind="stable")
        new_col = new_col[order]
        new_perm = order + self.n
        k = self.col.shape[0]
        if k == 0:
            self.col = new_col.copy()
            self.perm = new_perm
        else:
            m = new_col.shape[0]
            # Scatter-merge: equivalent to np.insert at the searchsorted
            # positions but without its per-call overhead.  Positions are
            # non-decreasing (new_col is sorted), so adding arange keeps
            # equal-valued new rows in insertion order.
            target = self.col.searchsorted(new_col, side="right")
            target = target + np.arange(m, dtype=np.intp)
            col = np.empty(k + m, dtype=np.float64)
            perm = np.empty(k + m, dtype=np.intp)
            old = np.ones(k + m, dtype=bool)
            old[target] = False
            col[target] = new_col
            col[old] = self.col
            perm[target] = new_perm
            perm[old] = self.perm
            self.col = col
            self.perm = perm
        self.n = total


class SDI(SkylineAlgorithm):
    """Sorted-dimension-index skyline with breadth-first dimension traversal."""

    name = "sdi"

    #: The sort phase (per-dimension indexes + stop point) is cacheable via
    #: the ``sort_cache`` parameter of :meth:`run_phase`.
    supports_sort_cache = True

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        ids = np.arange(dataset.cardinality, dtype=np.intp)
        masks = np.zeros(dataset.cardinality, dtype=np.int64)
        container = ListContainer(dataset.values)
        return self.run_phase(dataset, ids, masks, container, counter)

    def run_phase(
        self,
        dataset: Dataset,
        ids: np.ndarray,
        masks: np.ndarray,
        container: SkylineContainer,
        counter: DominanceCounter,
        sort_cache: MutableMapping[str, object] | None = None,
    ) -> list[int]:
        values = dataset.values
        d = dataset.dimensionality
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            return []

        cached = sort_cache.get("sdi_sort") if sort_cache is not None else None
        if cached is not None:
            orders, stop_point = cached  # type: ignore[misc]
        else:
            with current_tracer().span(
                "sort", host=self.name, points=int(ids.size), dims=d
            ):
                tiebreak = values.sum(axis=1)

                # Sort phase: one index per dimension over the active ids.
                orders = [
                    ids[np.lexsort((tiebreak[ids], values[ids, dim]))]
                    for dim in range(d)
                ]

                # Stop point: minimum Euclidean distance to the minimum
                # corner.
                corner = values[ids].min(axis=0)
                shifted = values[ids] - corner
                stop_id = int(
                    ids[np.argmin(np.einsum("ij,ij->i", shifted, shifted))]
                )
                stop_point = values[stop_id]
            if sort_cache is not None:
                sort_cache["sdi_sort"] = (orders, stop_point)

        # Plain-Python data structures for the per-point bookkeeping: the
        # scan loop runs once per remaining point, and bytearray/list
        # indexing with native ints is several times cheaper than numpy
        # scalar extraction at that call rate.
        status = bytearray(dataset.cardinality)
        masks_list = masks.tolist()
        order_lists = [order.tolist() for order in orders]
        stop_list = stop_point.tolist()
        cursors = [0] * d
        dim_sky_count = [0] * d
        open_dims = set(range(d))
        skyline: list[int] = []
        views: dict[tuple[int, int], _SortedView] = {}
        mask_sensitive = container.uses_masks
        prefix_undominated = self._prefix_undominated

        def select(k: int) -> tuple[int, int]:
            return (dim_sky_count[k], k)

        # The breadth-first choice min(open_dims, key=select) only changes
        # when a dimension's skyline count grows or a dimension closes, so
        # the selection is cached across the (majority of) iterations that
        # change neither — the choice sequence is identical.
        chosen = -1
        while open_dims:
            if chosen < 0:
                chosen = min(open_dims, key=select)
            dim = chosen
            order_list = order_lists[dim]
            length = len(order_list)
            cursor = cursors[dim]
            while cursor < length and status[order_list[cursor]] != _UNKNOWN:
                cursor += 1
            if cursor >= length:
                cursors[dim] = cursor
                open_dims.discard(dim)
                chosen = -1
                continue
            point_id = order_list[cursor]
            cursors[dim] = cursor + 1
            point = values[point_id]
            mask = masks_list[point_id]

            _, block = container.candidates(mask)
            if prefix_undominated(
                views, (mask if mask_sensitive else 0, dim), block, point, dim, counter
            ):
                status[point_id] = _SKYLINE
                skyline.append(point_id)
                container.add(point_id, mask)
                dim_sky_count[dim] += 1
                chosen = -1
            else:
                status[point_id] = _DOMINATED

            if point[dim] > stop_list[dim]:
                # The cursor passed the stop point in this dimension; once
                # that holds in every dimension, all unvisited points are
                # strictly worse than the stop point everywhere.
                open_dims.discard(dim)
                chosen = -1

        return skyline

    def _prefix_undominated(
        self,
        views: dict[tuple[int, int], _SortedView],
        key: tuple[int, int],
        block: np.ndarray,
        point: np.ndarray,
        dim: int,
        counter: DominanceCounter,
    ) -> bool:
        """Whether no row of ``block`` in the ``dim`` prefix dominates ``point``.

        The prefix is every candidate whose ``dim`` value does not exceed
        the point's, tested in (value, insertion) order with one test
        charged per compared row.  ``views[key]`` is the block's sorted
        view, repaired here by merging the rows appended since the last
        call.
        """
        view = views.get(key)
        if view is None:
            view = views[key] = _SortedView()
        if view.n != block.shape[0]:
            view.extend(block, dim)
        cut = int(view.col.searchsorted(point[dim], side="right"))
        return cut == 0 or first_dominator(block[view.perm[:cut]], point, counter) == -1
