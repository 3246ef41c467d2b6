"""The subset-query skyline index (Algorithms 2–4, Lemma 5.1).

Problem 1 of the paper: store each skyline point partitioned by its maximum
dominating subspace and, given a testing point's subspace ``D_q``, return
every stored point whose subspace is a **superset** of ``D_q`` — by
Lemma 5.1 the only skyline points that can possibly dominate the testing
point.

The paper answers it with a hash-map prefix tree over reversed subspaces
(Figure 3): a ``put`` walks ``O(d/2)`` nodes and a cold ``query`` visits
``O((d/2)^2)``, every hop a Python-level dict probe.  This index keeps the
same contract in a struct-of-arrays layout where Lemma 5.1's superset
filter is a single numpy expression over *all* stored subspaces:

``(q & ~masks) == 0``   —   equivalently ``masks & q == q``

- **CSR region** — compacted storage.  ``_csr_masks`` holds the distinct
  subspace masks sorted ascending; ``_csr_starts`` delimits, per mask, the
  slice of ``_csr_ids``/``_csr_seqs`` holding that group's point ids and
  insertion sequence numbers.  One vectorised superset pass over the
  distinct masks selects whole groups at once.
- **Tail region** — append-friendly parallel arrays (amortised doubling)
  that absorb ``put`` calls in O(1).  When the tail outgrows a quarter of
  the CSR region it is folded in by one vectorised rebuild (lexsort by
  ``(mask, seq)`` + ``np.unique``), keeping amortised maintenance linear.

Query results are ordered by **insertion sequence** (the order points were
``put``) — the natural candidate order for sorted scans: earlier-confirmed
skyline points have lower sort keys and are the strongest dominators.  The
Figure 3 tree returns the identical lists; the test suite keeps it as the
oracle this index is checked against, ids, order and charged dominance
tests alike.

Memoization
-----------
During a boosted scan the number of *distinct* query subspaces is far
smaller than the number of testing points, so repeated queries are the
common case.  The index therefore keeps a per-subspace result cache with
generation-based invalidation:

- every ``put``/``remove`` advances :attr:`generation`;
- a ``put`` is appended to an in-order log, and a stale cache entry is
  *repaired* by scanning only the log suffix it has not yet incorporated
  (a put can only ever append candidates to a superset query's result);
- a ``remove`` (or ``clear``) advances the *epoch*, discarding every
  cached entry wholesale — removals are rare (streaming only), appends
  are the hot path.

A cached query returns the list a fresh filter pass would, so every
dominance test charged downstream is identical; only
``index_nodes_visited`` differs (a cache hit examines nothing).  The
unmemoized reference this is checked against is the Figure 3 tree with
its cache off, ``tests/oracles/map_index.py``.

When constructed with the dataset's value matrix, each memoized entry also
carries the gathered candidate rows alongside the ids, repaired together
from the put-log suffix (:meth:`SkylineIndex.candidates`): one dict probe
per testing point serves both — the hot path of every boosted scan.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

import numpy as np

from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.obs.clock import timed
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter
from repro.structures import bitset

__all__ = ["SkylineIndex"]

#: Under an enabled tracer, one in this many index queries is timed and
#: recorded as an ``index.query`` span.  Sampling bounds tracing overhead:
#: a boosted scan issues one query per testing point, so tracing each one
#: would dominate the cost being measured.
_TRACE_SAMPLE = 64

#: The tail is folded into the CSR region when it exceeds
#: ``max(_COMPACT_MIN, csr_entries // 4)``.  The floor keeps tiny indexes
#: from compacting on every put; the ratio keeps the number of rebuilds
#: logarithmic in the final size, so total maintenance stays linearithmic.
_COMPACT_MIN = 64

_T = TypeVar("_T")


class _CacheEntry:
    """Memoized result of one query subspace.

    The id set is append-only within an epoch and lives in an
    amortised-doubling ``intp`` buffer; ``log_pos`` marks how much of the
    index's put-log it has incorporated.  Callers receive read-only views
    of the buffer prefix — appends only ever touch positions beyond every
    view handed out so far.
    """

    __slots__ = ("epoch", "log_pos", "buf", "size")

    def __init__(self, epoch: int, log_pos: int, ids: list[int]) -> None:
        self.epoch = epoch
        self.log_pos = log_pos
        arr = np.asarray(ids, dtype=np.intp)
        self.size = arr.shape[0]
        self.buf = np.empty(max(4, self.size), dtype=np.intp)
        self.buf[: self.size] = arr

    def extend(self, new_ids: np.ndarray) -> None:
        grown = self.size + new_ids.shape[0]
        if grown > self.buf.shape[0]:
            buf = np.empty(max(grown, 2 * self.buf.shape[0]), dtype=np.intp)
            buf[: self.size] = self.buf[: self.size]
            self.buf = buf
        self.buf[self.size : grown] = new_ids
        self.size = grown

    def ids_list(self) -> list[int]:
        return self.buf[: self.size].tolist()

    def array(self) -> np.ndarray:
        view = self.buf[: self.size]
        view.flags.writeable = False
        return view


class _FusedEntry(_CacheEntry):
    """A cache entry that carries the gathered candidate rows as well.

    The row block grows in lockstep with the id buffer, so a single
    put-log repair updates both and :meth:`SkylineIndex.candidates`
    serves ``(ids, rows)`` from one dict probe.  Rows handed out are
    views of a stable prefix — appends never touch published positions.
    """

    __slots__ = ("rows",)

    def __init__(
        self, epoch: int, log_pos: int, ids: list[int], values: np.ndarray
    ) -> None:
        super().__init__(epoch, log_pos, ids)
        self.rows = np.empty((max(4, self.size), values.shape[1]))
        self.rows[: self.size] = values[self.buf[: self.size]]

    def extend_fused(self, new_ids: np.ndarray, values: np.ndarray) -> None:
        grown = self.size + new_ids.shape[0]
        if grown > self.rows.shape[0]:
            rows = np.empty((max(grown, 2 * self.rows.shape[0]), self.rows.shape[1]))
            rows[: self.size] = self.rows[: self.size]
            self.rows = rows
        self.rows[self.size : grown] = values[new_ids]
        self.extend(new_ids)

    def rows_view(self) -> np.ndarray:
        return self.rows[: self.size]


class SkylineIndex:
    """Struct-of-arrays index answering superset queries over subspaces.

    Parameters
    ----------
    d:
        Dimensionality of the space, at most
        :data:`~repro.structures.bitset.MAX_MASK_DIMS`; subspace masks
        must fit in ``d`` bits.
    values:
        Optional ``(n, d)`` value matrix.  When given, the index offers
        the fused :meth:`candidates` path returning gathered rows.

    >>> idx = SkylineIndex(d=4)
    >>> idx.put(7, subspace=0b0011)   # D = {0, 1}
    >>> idx.put(9, subspace=0b0111)   # D = {0, 1, 2}
    >>> sorted(idx.query(0b0011))     # supersets of {0, 1}: both points
    [7, 9]
    >>> idx.query(0b0111)             # supersets of {0, 1, 2}: only point 9
    [9]
    """

    def __init__(self, d: int, values: np.ndarray | None = None) -> None:
        if d < 1:
            raise InvalidParameterError(f"dimensionality must be >= 1, got {d}")
        if d > bitset.MAX_MASK_DIMS:
            raise InvalidParameterError(
                f"dimensionality {d} exceeds the {bitset.MAX_MASK_DIMS} "
                "dimensions an int64 subspace mask holds"
            )
        self._d = d
        self._values = values
        # CSR region: distinct masks ascending; starts delimit each group's
        # (id, seq) slice.  Entries within a group ascend by seq because
        # every rebuild lexsorts by (mask, seq).
        self._csr_masks = np.empty(0, dtype=np.int64)
        self._csr_starts = np.zeros(1, dtype=np.intp)
        self._csr_ids = np.empty(0, dtype=np.intp)
        self._csr_seqs = np.empty(0, dtype=np.intp)
        # Tail region: append-only parallel arrays.
        self._tail_subs = np.empty(16, dtype=np.int64)
        self._tail_ids = np.empty(16, dtype=np.intp)
        self._tail_seqs = np.empty(16, dtype=np.intp)
        self._tail_n = 0
        self._size = 0
        self._seq = 0
        self._generation = 0
        self._epoch = 0
        # The put-log as parallel growing arrays, so stale cache entries
        # repair themselves with one vectorised superset test over the
        # unseen suffix instead of a Python loop.
        self._log_pids = np.empty(16, dtype=np.intp)
        self._log_subs = np.empty(16, dtype=np.int64)
        self._log_size = 0
        self._cache: dict[int, _CacheEntry] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        # The ambient tracer is captured once at construction: the index
        # lives inside one engine execution, and per-query ContextVar
        # lookups would tax the hot path.  ``_trace_every == 0`` (the
        # NullTracer default) short-circuits sampling to one int check.
        self._tracer = current_tracer()
        self._trace_every = _TRACE_SAMPLE if self._tracer.enabled else 0
        self._trace_seen = 0

    @property
    def dimensionality(self) -> int:
        return self._d

    @property
    def generation(self) -> int:
        """Monotone change counter: advances on every ``put``/``remove``."""
        return self._generation

    @property
    def epoch(self) -> int:
        """Advances on ``remove``/``clear`` — changes that can shrink or
        reorder query results, invalidating append-only derived views."""
        return self._epoch

    def __len__(self) -> int:
        """Number of stored points."""
        return self._size

    def _validate(self, subspace: int) -> None:
        try:
            bitset.complement(subspace, self._d)
        except ValueError as exc:
            raise DimensionMismatchError(str(exc)) from None

    def put(self, point_id: int, subspace: int) -> None:
        """Algorithm 2: store ``point_id`` under its maximum dominating subspace.

        O(1) append to the tail region; periodically folds the tail into
        the CSR region (see ``_COMPACT_MIN``).
        """
        self._validate(subspace)
        n = self._tail_n
        if n == self._tail_ids.shape[0]:
            self._tail_subs = np.concatenate(
                [self._tail_subs, np.empty_like(self._tail_subs)]
            )
            self._tail_ids = np.concatenate(
                [self._tail_ids, np.empty_like(self._tail_ids)]
            )
            self._tail_seqs = np.concatenate(
                [self._tail_seqs, np.empty_like(self._tail_seqs)]
            )
        self._tail_subs[n] = subspace
        self._tail_ids[n] = point_id
        self._tail_seqs[n] = self._seq
        self._tail_n = n + 1
        self._seq += 1
        self._size += 1
        self._generation += 1
        m = self._log_size
        if m == self._log_pids.shape[0]:
            self._log_pids = np.concatenate(
                [self._log_pids, np.empty_like(self._log_pids)]
            )
            self._log_subs = np.concatenate(
                [self._log_subs, np.empty_like(self._log_subs)]
            )
        self._log_pids[m] = point_id
        self._log_subs[m] = subspace
        self._log_size = m + 1
        if self._tail_n > max(_COMPACT_MIN, self._csr_ids.shape[0] // 4):
            self._compact()

    def _compact(self) -> None:
        """Fold the tail into the CSR region with one vectorised rebuild."""
        n = self._tail_n
        if n == 0:
            return
        entry_masks = np.concatenate(
            [
                np.repeat(self._csr_masks, np.diff(self._csr_starts)),
                self._tail_subs[:n],
            ]
        )
        entry_ids = np.concatenate([self._csr_ids, self._tail_ids[:n]])
        entry_seqs = np.concatenate([self._csr_seqs, self._tail_seqs[:n]])
        order = np.lexsort((entry_seqs, entry_masks))
        masks_sorted = entry_masks[order]
        self._csr_ids = entry_ids[order]
        self._csr_seqs = entry_seqs[order]
        distinct, starts = np.unique(masks_sorted, return_index=True)
        self._csr_masks = distinct
        self._csr_starts = np.append(starts, masks_sorted.size).astype(np.intp)
        self._tail_n = 0

    def query(self, subspace: int, counter: DominanceCounter | None = None) -> list[int]:
        """Algorithms 3–4: all points whose subspace ⊇ ``subspace``.

        Results are ordered by insertion sequence.  On a cache miss the
        superset filter runs and ``counter`` records the mask groups plus
        tail entries it examined as index accesses (*not* dominance
        tests); a cache hit records zero.
        """
        if self._trace_every and self._sample():
            return self._traced(
                subspace, lambda: self._entry(subspace, counter).ids_list(), len
            )
        return self._entry(subspace, counter).ids_list()

    def candidates(
        self, subspace: int, counter: DominanceCounter | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused query: ``(ids, rows)`` with the candidate rows gathered.

        Requires construction with ``values``.  Both arrays come from one
        cache probe; the ids are a read-only ``intp`` view equal to
        :meth:`query`, with identical accounting.
        """
        if self._values is None:
            raise InvalidParameterError(
                "candidates() requires a SkylineIndex built with values"
            )
        if self._trace_every and self._sample():
            return self._traced(
                subspace,
                lambda: self._candidates(subspace, counter),
                lambda pair: len(pair[0]),
            )
        return self._candidates(subspace, counter)

    def _candidates(
        self, subspace: int, counter: DominanceCounter | None
    ) -> tuple[np.ndarray, np.ndarray]:
        entry = self._entry(subspace, counter)
        assert isinstance(entry, _FusedEntry)
        return entry.array(), entry.rows_view()

    def _entry(self, subspace: int, counter: DominanceCounter | None) -> _CacheEntry:
        """The up-to-date cache entry for ``subspace``."""
        entry = self._cache.get(subspace)
        if entry is not None and entry.epoch == self._epoch:
            log_size = self._log_size
            pos = entry.log_pos
            if pos < log_size:
                match = bitset.subset_of_many(subspace, self._log_subs[pos:log_size])
                new_ids = self._log_pids[pos:log_size][match]
                if new_ids.shape[0]:
                    if isinstance(entry, _FusedEntry):
                        entry.extend_fused(new_ids, self._values)
                    else:
                        entry.extend(new_ids)
                entry.log_pos = log_size
            self._hits += 1
            if counter is not None:
                counter.add_query(0)
                counter.add_cache_hit()
            return entry
        invalidated = 0
        if entry is not None:
            invalidated = 1
            self._invalidations += 1
        self._validate(subspace)
        ids, visited = self._traverse(subspace)
        if self._values is not None:
            entry = _FusedEntry(self._epoch, self._log_size, ids, self._values)
        else:
            entry = _CacheEntry(self._epoch, self._log_size, ids)
        self._cache[subspace] = entry
        self._misses += 1
        if counter is not None:
            counter.add_query(visited)
            counter.add_cache_miss(invalidated)
        return entry

    def _sample(self) -> bool:
        """Down-counting sampler: True once every ``_trace_every`` calls."""
        self._trace_seen += 1
        if self._trace_seen >= self._trace_every:
            self._trace_seen = 0
            return True
        return False

    def _traced(
        self, subspace: int, run: Callable[[], _T], size: Callable[[_T], int]
    ) -> _T:
        """Run one sampled query under the clock and record its span."""
        out, elapsed = timed(run)
        self._tracer.record(
            "index.query",
            elapsed,
            subspace=subspace,
            results=size(out),
            sampled_1_in=self._trace_every,
        )
        return out

    def _traverse(self, subspace: int) -> tuple[list[int], int]:
        """Superset filter pass: insertion-ordered ids plus entries examined.

        "Visited" counts the distinct CSR mask groups plus the tail
        entries the filter evaluated — the analogue of tree nodes walked.
        """
        visited = int(self._csr_masks.shape[0]) + self._tail_n
        parts_ids: list[np.ndarray] = []
        parts_seqs: list[np.ndarray] = []
        if self._csr_masks.shape[0]:
            for group in np.flatnonzero(
                bitset.subset_of_many(subspace, self._csr_masks)
            ):
                lo, hi = self._csr_starts[group], self._csr_starts[group + 1]
                parts_ids.append(self._csr_ids[lo:hi])
                parts_seqs.append(self._csr_seqs[lo:hi])
        if self._tail_n:
            match = bitset.subset_of_many(subspace, self._tail_subs[: self._tail_n])
            parts_ids.append(self._tail_ids[: self._tail_n][match])
            parts_seqs.append(self._tail_seqs[: self._tail_n][match])
        if not parts_ids:
            return [], visited
        ids = np.concatenate(parts_ids)
        seqs = np.concatenate(parts_seqs)
        return ids[np.argsort(seqs, kind="stable")].tolist(), visited

    def remove(self, point_id: int, subspace: int) -> None:
        """Remove a point previously stored under ``subspace``.

        Needed by the streaming extension (Section 7's perspective (3));
        raises ``KeyError`` when the point is not stored under that
        subspace.  The tail is folded in first so the entry lives in
        exactly one place.  The whole result cache is invalidated (epoch
        advance): repairs only model appends.
        """
        self._validate(subspace)
        self._compact()
        group = int(np.searchsorted(self._csr_masks, subspace))
        if (
            group == self._csr_masks.shape[0]
            or int(self._csr_masks[group]) != subspace
        ):
            raise KeyError(
                f"point {point_id} not stored under subspace {subspace:#x}"
            )
        lo, hi = int(self._csr_starts[group]), int(self._csr_starts[group + 1])
        hits = np.flatnonzero(self._csr_ids[lo:hi] == point_id)
        if hits.shape[0] == 0:
            raise KeyError(
                f"point {point_id} not stored under subspace {subspace:#x}"
            )
        position = lo + int(hits[0])
        self._csr_ids = np.delete(self._csr_ids, position)
        self._csr_seqs = np.delete(self._csr_seqs, position)
        starts = self._csr_starts.copy()
        starts[group + 1 :] -= 1
        if starts[group] == starts[group + 1]:
            self._csr_masks = np.delete(self._csr_masks, group)
            starts = np.delete(starts, group + 1)
        self._csr_starts = starts
        self._size -= 1
        self._generation += 1
        self._invalidate_all()

    def _invalidate_all(self) -> None:
        self._invalidations += len(self._cache)
        self._cache.clear()
        self._log_size = 0
        self._epoch += 1

    def cache_stats(self) -> dict[str, int]:
        """Lifetime memoization statistics of this index instance."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "invalidations": self._invalidations,
            "entries": len(self._cache),
        }

    def node_count(self) -> int:
        """Distinct stored subspace masks: the groups the filter evaluates.

        The index-size statistic; the Figure 3 tree's analogue counts
        prefix-tree nodes instead.
        """
        return len(self.subspaces())

    def occupancy(self) -> dict[str, float]:
        """Group-occupancy statistics: how clumped the stored points are.

        Section 6.3 attributes WEATHER's muted gains to "a lot of skyline
        points in one single node" — duplicate-heavy dimensions collapse
        many points onto few subspaces.  ``max`` close to ``len(index)``
        means the index degenerates toward a plain list.
        """
        occupied = [len(points) for points in self.subspaces().values()]
        if not occupied:
            return {"nodes": 0.0, "occupied": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "nodes": float(len(occupied)),
            "occupied": float(len(occupied)),
            "max": float(max(occupied)),
            "mean": float(sum(occupied) / len(occupied)),
        }

    def subspaces(self) -> dict[int, list[int]]:
        """Mapping of stored subspace mask → point ids (diagnostics/tests)."""
        result: dict[int, list[int]] = {}
        for group in range(self._csr_masks.shape[0]):
            lo, hi = self._csr_starts[group], self._csr_starts[group + 1]
            result[int(self._csr_masks[group])] = self._csr_ids[lo:hi].tolist()
        for k in range(self._tail_n):
            result.setdefault(int(self._tail_subs[k]), []).append(
                int(self._tail_ids[k])
            )
        return result

    def clear(self) -> None:
        """Drop all stored points, groups and cached query results."""
        self._csr_masks = np.empty(0, dtype=np.int64)
        self._csr_starts = np.zeros(1, dtype=np.intp)
        self._csr_ids = np.empty(0, dtype=np.intp)
        self._csr_seqs = np.empty(0, dtype=np.intp)
        self._tail_n = 0
        self._size = 0
        self._generation += 1
        self._invalidate_all()
