"""``PreparedDataset`` — one-time normalization plus reusable query caches.

The ROADMAP's target workload is heavy repeated traffic over the same
datasets: many skyline queries, over varying subspaces and preference
directions, against data that changes rarely.  Every expensive artefact the
stack computes per query — the Merge pass (pivots + per-point maximum
dominating subspaces), the hosts' sort orders, projected subspace views and
the estimator statistics the planner keys on — is a pure function of
``(values, dims, directions, sigma)``, so a session that prepares the
dataset once can serve each subsequent query from cache.

Cache accounting is explicit: every lookup records a hit or a miss on the
caller's :class:`~repro.stats.counters.DominanceCounter`
(``prepared_cache_hits`` / ``prepared_cache_misses``), so the warm-path
saving is observable in the same place the paper's dominance-test metric
lives.  Invalidation is explicit too: :meth:`PreparedDataset.invalidate`
drops every artefact and bumps :attr:`PreparedDataset.version`.

Mutation is a first-class event: :meth:`PreparedDataset.apply_delta`
applies an insert/delete batch and — when the delta is small enough —
*suffix-repairs* the cached artefacts instead of dropping them: Merge
results keep their pivots and classify the inserts (see
:mod:`repro.engine.delta`), unflipped subspace views repair recursively,
and key-decomposable sort orders are tagged for a lazy bit-identical
repair at the next scan.  Every delta bumps :attr:`version` exactly once.
The skyline itself repairs lazily: after a full query the engine *notes*
the result (:meth:`note_skyline`); when the planner later chooses an
incremental plan, :meth:`repair_skyline` replays the logged delta batches
through a columnar :class:`~repro.extensions.streaming.StreamingSkyline`
bootstrapped from the noted skyline — no batch recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from repro.core.merge import MergeResult, merge
from repro.core.stability import default_threshold, validate_threshold
from repro.dataset import Dataset, as_dataset
from repro.engine.delta import (
    DeltaReport,
    DeltaState,
    absorb_since,
    normalize_delta,
    repair_merge_result,
)
from repro.errors import InvalidParameterError
from repro.obs.events import current_event_log
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter
from repro.stats.estimate import (
    correlation_signal,
    expected_skyline_size,
    expected_skyline_size_asymptotic,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.extensions.streaming import StreamingSkyline

__all__ = ["DatasetStatistics", "PreparedDataset"]

_T = TypeVar("_T")

#: Above this cardinality the exact harmonic-number dynamic program for the
#: expected skyline size is replaced by its closed-form asymptotic.  The
#: limit fixes which estimate every planner signal is built from, and it
#: bounds the O(d·n) cost each statistics miss (a fresh view, or the first
#: read after a delta) pays.
_EXACT_ESTIMATE_LIMIT = 50_000

#: Entries kept per artefact cache before FIFO eviction.  Each Merge result
#: or sort order is O(n), so the caps bound prepared memory at a small
#: multiple of the dataset itself.
_MAX_ENTRIES = 32

#: Default repair threshold: a delta touching more than this fraction of
#: the dataset falls back to a full invalidate-and-recompute — suffix
#: repair replays every operation through the streaming structure, so its
#: advantage over one batch run erodes as the delta grows.
_REPAIR_THRESHOLD = 0.05

#: Anchor count of the lazily built replay stream.  Matches the streaming
#: default: enough subspace partitioning to keep probe candidate sets
#: small without making per-arrival mask computation noticeable.
_STREAM_ANCHORS = 8

#: Sort-cache entry keys that permit lazy suffix repair.  Entries carrying
#: anything else (SaLSa's scan state, SDI's per-dimension orders, LESS's
#: helper-free order) hold derived state the repair cannot reproduce and
#: are dropped whole.
_REPAIRABLE_SORT_KEYS = frozenset({"order", "keys", "ties"})


@dataclass(frozen=True)
class DatasetStatistics:
    """Estimator signals the planner consumes, computed lazily per dataset.

    :meth:`PreparedDataset.statistics` computes them on first use and
    caches them.  Every ``apply_delta`` that changes the rows (repair or
    recompute) drops that cache, so the signals are recomputed lazily
    from the mutated values on the next plan.

    Attributes
    ----------
    cardinality, dimensionality:
        The dataset shape ``(n, d)``.
    correlation:
        Mean pairwise Pearson correlation between dimensions
        (:func:`~repro.stats.estimate.correlation_signal`): positive for
        correlated regimes, negative for anti-correlated.
    expected_skyline:
        Expected skyline size under uniform independence (exact harmonic
        number for small ``n``, closed-form asymptotic above
        ``50_000`` rows).
    """

    cardinality: int
    dimensionality: int
    correlation: float
    expected_skyline: float

    @property
    def skyline_fraction(self) -> float:
        """Expected skyline size as a fraction of the dataset."""
        return self.expected_skyline / self.cardinality


class _FifoCache(dict[object, object]):
    """A dict with FIFO eviction once ``max_entries`` is exceeded."""

    def __init__(self, max_entries: int = _MAX_ENTRIES) -> None:
        super().__init__()
        self.max_entries = max_entries

    def insert(self, key: object, value: object) -> None:
        while len(self) >= self.max_entries:
            del self[next(iter(self))]
        self[key] = value


class PreparedDataset:
    """A dataset normalized once, with caches for everything queries reuse.

    Parameters
    ----------
    data:
        The dataset (or raw array) to prepare.  The wrapped
        :class:`~repro.dataset.Dataset` is immutable; ``invalidate`` exists
        for callers that rebind :attr:`dataset` semantics externally (e.g.
        a registry slot reused for fresh data).

    Notes
    -----
    All cache lookups take an optional counter and record
    ``prepared_cache_hits`` / ``prepared_cache_misses`` on it.  A hit never
    performs dominance tests; a miss charges its computation's tests on the
    same counter, exactly as the cold, unprepared code path would.
    """

    def __init__(
        self,
        data: Dataset | np.ndarray,
        repair_threshold: float = _REPAIR_THRESHOLD,
    ) -> None:
        if not 0.0 <= repair_threshold <= 1.0:
            raise InvalidParameterError(
                f"repair_threshold must be in [0, 1], got {repair_threshold}"
            )
        self.dataset = as_dataset(data)
        self.version = 0
        self.repair_threshold = repair_threshold
        self._column_major: np.ndarray | None = None
        self._statistics: DatasetStatistics | None = None
        self._merge_cache = _FifoCache()
        self._sort_caches = _FifoCache()
        self._view_cache = _FifoCache()
        self._artefacts = _FifoCache()
        # Mutation state (see `apply_delta` / `note_skyline`): the noted
        # skyline is self-validating — it stores the Dataset it was
        # computed against, so it cannot silently outlive the data.
        self._base_dataset: Dataset | None = None
        self._base_skyline: np.ndarray | None = None
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_ops = 0
        self._row_map: np.ndarray | None = None
        self._next_stream_id = 0
        self._stream: "StreamingSkyline | None" = None

    # -- shape conveniences -------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of points ``N``."""
        return self.dataset.cardinality

    @property
    def dimensionality(self) -> int:
        """Number of dimensions ``d``."""
        return self.dataset.dimensionality

    @property
    def values(self) -> np.ndarray:
        """The row-major ``(n, d)`` coordinate array (read-only)."""
        return self.dataset.values

    @property
    def column_major(self) -> np.ndarray:
        """A Fortran-ordered (column-major) copy of the coordinates.

        Built lazily on first access: per-dimension consumers (SDI's sorted
        indexes, the estimator's column statistics) read whole columns, and
        a contiguous column avoids a strided gather per access.
        """
        if self._column_major is None:
            column_major = np.asfortranarray(self.dataset.values)
            column_major.setflags(write=False)
            self._column_major = column_major
        return self._column_major

    # -- cached artefacts ---------------------------------------------------

    def statistics(self, counter: DominanceCounter | None = None) -> DatasetStatistics:
        """The planner's estimator signals, cached until the next delta."""
        if self._statistics is not None:
            self._record(counter, hit=True)
            return self._statistics
        self._record(counter, hit=False)
        n, d = self.cardinality, self.dimensionality
        if n <= _EXACT_ESTIMATE_LIMIT:
            expected = expected_skyline_size(n, d)
        else:
            expected = expected_skyline_size_asymptotic(n, d)
        self._statistics = DatasetStatistics(
            cardinality=n,
            dimensionality=d,
            correlation=correlation_signal(self.column_major),
            expected_skyline=min(float(n), expected),
        )
        return self._statistics

    def merged(
        self,
        sigma: int | None = None,
        pivot_strategy: str = "euclidean",
        counter: DominanceCounter | None = None,
    ) -> MergeResult:
        """The Merge pass (Algorithm 1) for ``(sigma, pivot_strategy)``.

        A miss runs Merge with its dominance tests charged on ``counter``
        (identical accounting to the cold path); a hit returns the cached
        :class:`~repro.core.merge.MergeResult` and charges nothing.
        """
        d = self.dimensionality
        if sigma is None:
            sigma = default_threshold(d)
        validate_threshold(sigma, d)
        key = (sigma, pivot_strategy)
        cached = self._merge_cache.get(key)
        if cached is not None:
            self._record(counter, hit=True)
            tracer = current_tracer()
            if tracer.enabled:
                # The warm path skips Merge entirely; leave a zero-cost
                # marker so traces distinguish "Merge reused" from a run
                # that never needed Merge.
                tracer.record(
                    "merge.cached",
                    0.0,
                    sigma=sigma,
                    pivots=len(cached.pivot_ids),  # type: ignore[attr-defined]
                )
            return cached  # type: ignore[return-value]
        self._record(counter, hit=False)
        run_counter = counter if counter is not None else DominanceCounter()
        result = merge(self.dataset, sigma, run_counter, pivot_strategy=pivot_strategy)
        self._merge_cache.insert(key, result)
        return result

    def sort_cache(self, key: str) -> dict[str, object]:
        """The mutable sort-phase cache private to one scan configuration.

        ``key`` must identify the host configuration *and* the id set it
        scans (e.g. ``"sfs|boosted|σ2|euclidean"``) — hosts cache their
        computed scan order in the returned mapping, so two configurations
        sharing a mapping would replay each other's orders.
        """
        cached = self._sort_caches.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        fresh: dict[str, object] = {}
        self._sort_caches.insert(key, fresh)
        return fresh

    def view(
        self,
        dims: "Sequence[int]",
        maximize: "Sequence[int]" = (),
        counter: DominanceCounter | None = None,
    ) -> "PreparedDataset":
        """A prepared projection onto ``dims`` with ``maximize`` flipped.

        ``dims`` are original column indices in preference order;
        ``maximize`` lists the subset of ``dims`` whose direction is
        max-is-better (each flipped via the monotone ``max(col) - col``,
        matching :meth:`repro.dataset.Dataset.minimizing`).  The view is
        itself a :class:`PreparedDataset`, so per-subspace Merge results
        and sort orders are cached independently and reused across repeated
        queries over the same subspace.
        """
        dims_key = tuple(int(dim) for dim in dims)
        flip_key = tuple(sorted(int(dim) for dim in maximize))
        if not set(flip_key) <= set(dims_key):
            raise ValueError(f"maximize dims {flip_key} not all in dims {dims_key}")
        key = (dims_key, flip_key)
        cached = self._view_cache.get(key)
        if cached is not None:
            self._record(counter, hit=True)
            return cached  # type: ignore[return-value]
        self._record(counter, hit=False)
        projected = self.dataset.values[:, dims_key].copy()
        for local_dim, original_dim in enumerate(dims_key):
            if original_dim in flip_key:
                column = projected[:, local_dim]
                projected[:, local_dim] = column.max() - column
        view = PreparedDataset(
            Dataset(
                projected,
                name=f"{self.dataset.name}[view:{dims_key}]",
                kind=self.dataset.kind,
            ),
            repair_threshold=self.repair_threshold,
        )
        self._view_cache.insert(key, view)
        return view

    def artefact(
        self,
        key: object,
        compute: Callable[[], _T],
        counter: DominanceCounter | None = None,
    ) -> _T:
        """Generic cached artefact (e.g. the skyband anchor masks).

        ``compute`` runs on a miss with its cost charged wherever it
        charges it; the result is cached under ``key`` until
        :meth:`invalidate`.
        """
        cached = self._artefacts.get(key)
        if cached is not None:
            self._record(counter, hit=True)
            return cached  # type: ignore[return-value]
        self._record(counter, hit=False)
        value = compute()
        self._artefacts.insert(key, value)
        return value

    # -- mutation -----------------------------------------------------------

    def apply_delta(
        self,
        inserts: "np.ndarray | Sequence[Sequence[float]] | None" = None,
        deletes: "np.ndarray | Sequence[int] | None" = None,
        counter: DominanceCounter | None = None,
        mode: str | None = None,
    ) -> DeltaReport:
        """Apply an insert/delete batch, repairing caches when it is small.

        ``deletes`` are row ids of the *current* dataset; surviving rows
        close ranks in order and ``inserts`` append after them, so the new
        id of surviving row ``i`` is ``i - |{deleted < i}|`` and insert
        ``j`` becomes row ``n - |deletes| + j``.

        ``mode=None`` repairs when the delta fraction is at most
        :attr:`repair_threshold` and recomputes otherwise; ``"repair"`` and
        ``"recompute"`` force the path.  The repair path suffix-repairs
        cached Merge results and unflipped views, tags key-decomposable
        sort orders for lazy repair, drops everything else, logs the delta
        for :meth:`repair_skyline` and bumps :attr:`version` exactly once
        (the recompute path bumps through :meth:`invalidate`).  Repair
        dominance tests (insert-vs-pivot classification, view recursion)
        are charged on ``counter``.
        """
        if mode not in (None, "repair", "recompute"):
            raise InvalidParameterError(
                f"mode must be None, 'repair' or 'recompute', got {mode!r}"
            )
        old = self.dataset
        ins, dels = normalize_delta(old.values, inserts, deletes)
        inserted, deleted = int(ins.shape[0]), int(dels.size)
        if inserted == 0 and deleted == 0:
            return DeltaReport(
                mode="noop", inserted=0, deleted=0, fraction=0.0, version=self.version
            )
        if old.cardinality - deleted + inserted == 0:
            raise InvalidParameterError("delta would empty the dataset")
        fraction = (inserted + deleted) / old.cardinality
        kept = (
            np.delete(old.values, dels, axis=0) if deleted else old.values
        )
        new_values = np.vstack([kept, ins]) if inserted else np.array(kept, copy=True)
        new_dataset = Dataset(new_values, name=old.name, kind=old.kind)

        repair = mode == "repair" or (
            mode is None and fraction <= self.repair_threshold
        )
        if not repair:
            self.dataset = new_dataset
            self._forget_mutation_state()
            self.invalidate()
            return DeltaReport(
                mode="recompute",
                inserted=inserted,
                deleted=deleted,
                fraction=fraction,
                version=self.version,
            )

        run_counter = counter if counter is not None else DominanceCounter()
        tracer = current_tracer()
        with tracer.span(
            "prepared.delta",
            counter=run_counter,
            inserted=inserted,
            deleted=deleted,
            n=new_dataset.cardinality,
        ):
            merge_repaired, merge_dropped = self._repair_merge_entries(
                old.values, ins, dels, run_counter
            )
            sort_tagged, sort_dropped = self._tag_sort_caches(
                old.values, new_values, dels
            )
            views_repaired, views_dropped = self._repair_views(
                ins, dels, run_counter
            )
            self._artefacts.clear()
            self._statistics = None
            self._column_major = None
            if self._base_skyline is not None:
                # Log the batch in stream-id coordinates so repair_skyline
                # can replay it regardless of how row ids shifted since.
                row_map = self._ensure_row_map()
                deleted_stream_ids = row_map[dels]
                fresh = np.arange(
                    self._next_stream_id,
                    self._next_stream_id + inserted,
                    dtype=np.int64,
                )
                self._row_map = np.concatenate(
                    [np.delete(row_map, dels), fresh]
                )
                self._next_stream_id += inserted
                self._pending.append((ins, deleted_stream_ids))
                self._pending_ops += inserted + deleted
            self.dataset = new_dataset
            self.version += 1
        return DeltaReport(
            mode="repair",
            inserted=inserted,
            deleted=deleted,
            fraction=fraction,
            version=self.version,
            merge_repaired=merge_repaired,
            merge_dropped=merge_dropped,
            views_repaired=views_repaired,
            views_dropped=views_dropped,
            sort_tagged=sort_tagged,
            sort_dropped=sort_dropped,
        )

    def note_skyline(self, indices: "np.ndarray | Sequence[int]") -> None:
        """Record a full-dataset skyline as the delta-repair base.

        Called by the engine after every sequential or parallel full
        execution.  Rebasing clears the pending delta log (the result
        already reflects the mutated data) and drops a stale replay
        stream; a note that matches the current base is a no-op, so warm
        repair streams survive repeated queries.
        """
        ids = np.asarray(indices, dtype=np.intp)
        if (
            not self._pending
            and self._base_dataset is self.dataset
            and self._base_skyline is not None
            and np.array_equal(self._base_skyline, ids)
        ):
            return
        self._base_dataset = self.dataset
        self._base_skyline = ids.copy()
        self._pending = []
        self._pending_ops = 0
        self._row_map = None
        self._next_stream_id = self.cardinality
        self._stream = None

    def delta_state(self) -> DeltaState | None:
        """Pending-mutation summary for the planner; ``None`` when clean."""
        if self._base_skyline is None or not self._pending:
            return None
        return DeltaState(
            pending_ops=self._pending_ops,
            batches=len(self._pending),
            fraction=self._pending_ops / max(1, self.cardinality),
            covered=True,
            stream_ready=self._stream is not None,
        )

    def repair_skyline(self, counter: DominanceCounter | None = None) -> list[int]:
        """Replay the pending delta log; return the current skyline ids.

        Bootstraps a columnar
        :class:`~repro.extensions.streaming.StreamingSkyline` from the
        noted base skyline on first use (one vectorised anchor-mask pass —
        no batch skyline run), replays each logged batch (deletes first,
        then inserts), and maps the stream's skyline back to current row
        ids.  The stream's dominance tests accrued during this call are
        charged on ``counter``; afterwards the state is rebased so the
        stream stays warm for the next delta.
        """
        if self._base_skyline is None or self._base_dataset is None:
            raise InvalidParameterError(
                "no noted skyline to repair from; run a full query first"
            )
        run_counter = counter if counter is not None else DominanceCounter()
        stream = self._stream
        if stream is None:
            # Imported lazily: extensions import the engine package.
            from repro.extensions.streaming import StreamingSkyline

            stream = StreamingSkyline.from_dataset(
                self._base_dataset,
                anchors=_STREAM_ANCHORS,
                skyline_ids=self._base_skyline,
            )
            self._stream = stream
        before = stream.counter.snapshot()
        for batch_inserts, batch_deletes in self._pending:
            if batch_deletes.size:
                stream.delete_many(batch_deletes)
            if batch_inserts.shape[0]:
                stream.insert_many(batch_inserts)
        absorb_since(run_counter, stream.counter, before)
        row_map = self._ensure_row_map()
        stream_skyline = np.asarray(stream.skyline_ids(), dtype=np.int64)
        rows = np.searchsorted(row_map, stream_skyline).astype(np.intp)
        self._base_dataset = self.dataset
        self._base_skyline = rows.copy()
        self._pending = []
        self._pending_ops = 0
        return rows.tolist()

    def _repair_merge_entries(
        self,
        old_values: np.ndarray,
        ins: np.ndarray,
        dels: np.ndarray,
        counter: DominanceCounter,
    ) -> tuple[int, int]:
        repaired = dropped = 0
        for key in list(self._merge_cache):
            fixed = repair_merge_result(
                self._merge_cache[key],  # type: ignore[arg-type]
                old_values,
                ins,
                dels,
                counter,
            )
            if fixed is None:
                del self._merge_cache[key]  # noqa: RPR008 — apply_delta (sole caller) bumps version once for the whole delta
                dropped += 1
            else:
                self._merge_cache[key] = fixed  # noqa: RPR008 — apply_delta (sole caller) bumps version once for the whole delta
                repaired += 1
        return repaired, dropped

    def _tag_sort_caches(
        self,
        old_values: np.ndarray,
        new_values: np.ndarray,
        dels: np.ndarray,
    ) -> tuple[int, int]:
        # Sort keys are computed against the dataset's minimum corner; if
        # the delta moves the corner every cached key is stale, so the
        # caches are dropped rather than tagged.
        corner_stable = bool(
            np.array_equal(old_values.min(axis=0), new_values.min(axis=0))
        )
        tagged = dropped = 0
        new_from = old_values.shape[0] - int(dels.size)
        for key in list(self._sort_caches):
            entry = self._sort_caches[key]
            if (
                corner_stable
                and isinstance(entry, dict)
                and entry.keys() <= _REPAIRABLE_SORT_KEYS
                and "order" in entry
                and "keys" in entry
            ):
                # Consumed (and popped) by `cached_sort_order` at the next
                # scan; an entry already carrying an unconsumed tag fails
                # the keyset check above and is dropped instead of stacking.
                entry["pending_delta"] = (dels.copy(), new_from)
                tagged += 1
            else:
                del self._sort_caches[key]  # noqa: RPR008 — apply_delta (sole caller) bumps version once for the whole delta
                dropped += 1
        return tagged, dropped

    def _repair_views(
        self,
        ins: np.ndarray,
        dels: np.ndarray,
        counter: DominanceCounter,
    ) -> tuple[int, int]:
        repaired = dropped = 0
        for key in list(self._view_cache):
            dims_key, flip_key = key  # type: ignore[misc]
            view = self._view_cache[key]
            if flip_key:
                # Flipped columns were rebased on their pre-delta maxima;
                # a delta can move those, so the projection is rebuilt.
                view.invalidate()  # type: ignore[attr-defined]
                del self._view_cache[key]
                dropped += 1
                continue
            view.apply_delta(  # type: ignore[attr-defined]
                inserts=ins[:, dims_key],
                deletes=dels,
                counter=counter,
                mode="repair",
            )
            repaired += 1
        return repaired, dropped

    def _ensure_row_map(self) -> np.ndarray:
        if self._row_map is None:
            self._row_map = np.arange(self.cardinality, dtype=np.int64)
        return self._row_map

    def _forget_mutation_state(self) -> None:
        self._base_dataset = None
        self._base_skyline = None
        self._pending = []
        self._pending_ops = 0
        self._row_map = None
        self._next_stream_id = 0
        self._stream = None

    # -- lifecycle ----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached artefact and bump :attr:`version`.

        Cached views are invalidated recursively — their artefacts derive
        from this dataset's values.  The noted delta-repair skyline is
        forgotten too: an explicit invalidation signals that the data
        changed through a side door no delta log covers.
        """
        events = current_event_log()
        if events.enabled:
            dropped = self.cache_info()
            events.emit(
                "cache.invalidate",
                dataset=self.dataset.name,
                version=self.version + 1,
                merge=dropped["merge"],
                sort=dropped["sort"],
                views=dropped["views"],
                artefacts=dropped["artefacts"],
            )
        for view in self._view_cache.values():
            view.invalidate()  # type: ignore[attr-defined]
        self._column_major = None
        self._statistics = None
        self._merge_cache.clear()
        self._sort_caches.clear()
        self._view_cache.clear()
        self._artefacts.clear()
        self._forget_mutation_state()
        self.version += 1

    def cache_info(self) -> dict[str, int]:
        """Entry counts per cache — observability for tests and tuning."""
        return {
            "merge": len(self._merge_cache),
            "sort": len(self._sort_caches),
            "views": len(self._view_cache),
            "artefacts": len(self._artefacts),
            "statistics": int(self._statistics is not None),
            "version": self.version,
        }

    @staticmethod
    def _record(counter: DominanceCounter | None, hit: bool) -> None:
        if counter is None:
            return
        if hit:
            counter.add_prepared_hit()
        else:
            counter.add_prepared_miss()

    def __repr__(self) -> str:
        return (
            f"PreparedDataset({self.dataset.name!r}, n={self.cardinality}, "
            f"d={self.dimensionality}, version={self.version})"
        )
