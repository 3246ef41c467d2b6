"""Outside-in layer ledger: spans recorded around public entry points.

The benchmark never edits the program.  For a traced pass it replaces a
fixed set of public callables with thin wrappers (class attributes and
module-level bindings), records one span per call, and restores the
originals afterwards.  A span is ``(id, parent, layer, start_ns, end_ns,
op)``; all spans stay in memory and are written out once at the end.

Self time of a layer is the duration of its spans minus the part their
child spans cover, so the self times of every layer partition the time
spent inside the outermost spans.  The ledger residual is the measured
operation wall time that no span covers.  Charged dominance tests (DT) are
attributed the same way: a DT-measuring span is charged the tests its
counter gained minus those already charged to DT-measuring descendants.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import numpy as np

import repro.algorithms.base as algorithms_base
import repro.algorithms.less as algorithms_less
import repro.algorithms.salsa as algorithms_salsa
import repro.algorithms.sdi as algorithms_sdi
import repro.engine.prepared as engine_prepared
from repro.algorithms.base import SortScanAlgorithm
from repro.algorithms.less import LESS
from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.core.container import SubsetContainer
from repro.engine.engine import SkylineEngine
from repro.engine.planner import Planner
from repro.engine.prepared import PreparedDataset
from repro.extensions.streaming import StreamingSkyline

#: Layer names, in report order.  Each span carries the index of one.
LAYERS = (
    "engine.execute",
    "engine.prepared.view",
    "engine.planner.plan",
    "core.merge",
    "algorithms.run_phase",
    "core.container.candidates",
    "core.container.add",
    "dominance.kernel",
    "engine.delta.apply",
    "engine.delta.repair",
    "extensions.streaming.insert",
    "extensions.streaming.delete",
)
(
    EXECUTE,
    VIEW,
    PLAN,
    MERGE,
    RUN_PHASE,
    CANDIDATES,
    ADD,
    KERNEL,
    DELTA_APPLY,
    DELTA_REPAIR,
    STREAM_INSERT,
    STREAM_DELETE,
) = range(len(LAYERS))

#: Host modules whose own ``first_dominator`` binding the scan loops call.
_KERNEL_MODULES = (algorithms_base, algorithms_less, algorithms_salsa, algorithms_sdi)
#: Host classes that define their own ``run_phase`` (SFS inherits the base).
_HOST_CLASSES = (SortScanAlgorithm, LESS, SaLSa, SDI)

_clock = time.perf_counter_ns


class Ledger:
    """Span store plus per-layer self-time, call and DT aggregates."""

    def __init__(self) -> None:
        count = len(LAYERS)
        self.self_ns = [0] * count
        self.calls = [0] * count
        self.self_dt = [0] * count
        # Layer-specific work counts, read into the per-layer metrics.
        self.kernel_rows = 0
        self.candidate_rows = 0
        self.container_rows = 0
        self.merge_remaining = 0
        self.merge_points = 0
        # Spans of one operation share its index.  Every operation of every
        # workload ends with an execute call, so a root span that follows a
        # closed root execute span opens the next operation.
        self.op = -1
        self._op_done = True
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._spans = tuple(array("q") for _ in range(6))
        self._origin = _clock()

    def push(self, layer: int) -> list[int]:
        """Open a span; returns its frame ``[layer, start, child_ns, child_dt, id, parent]``."""
        stack = self._stack
        parent = stack[-1][4] if stack else -1
        if parent < 0 and self._op_done:
            self.op += 1
            self._op_done = False
        frame = [layer, _clock(), 0, 0, self._next_id, parent]
        self._next_id += 1
        stack.append(frame)
        return frame

    def pop(self, frame: list[int], dt: int | None = None) -> None:
        """Close ``frame``; ``dt`` is the tests its counter gained, if measured."""
        end = _clock()
        self._stack.pop()
        layer, start, child_ns, child_dt, span_id, parent = frame
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.calls[layer] += 1
        if dt is None:
            subtree_dt = child_dt
        else:
            self.self_dt[layer] += dt - child_dt
            subtree_dt = dt
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            top[3] += subtree_dt
        elif layer == EXECUTE:
            self._op_done = True
        ids, parents, layers, starts, ends, ops = self._spans
        ids.append(span_id)
        parents.append(parent)
        layers.append(layer)
        starts.append(start - self._origin)
        ends.append(end - self._origin)
        ops.append(self.op)

    @property
    def span_count(self) -> int:
        return len(self._spans[0])

    def write(self, directory: Path, stem: str, summary: dict[str, object]) -> None:
        """Write every span (``.npz``) and the aggregate summary (``.json``)."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = ("id", "parent", "layer", "start_ns", "end_ns", "op")
        np.savez(
            directory / f"{stem}.spans.npz",
            layers=np.array(LAYERS),
            **{name: np.array(col, dtype=np.int64) for name, col in zip(columns, self._spans)},
        )
        (directory / f"{stem}.ledger.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )


def _span(ledger: Ledger, layer: int, fn):
    def wrapper(*args, **kwargs):
        frame = ledger.push(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.pop(frame)

    return wrapper


def _merge_span(ledger: Ledger, fn):
    # Bound in repro.engine.prepared as merge(dataset, sigma, counter, ...).
    def wrapper(data, sigma, counter, *args, **kwargs):
        before = counter.tests
        frame = ledger.push(MERGE)
        result = None
        try:
            result = fn(data, sigma, counter, *args, **kwargs)
            return result
        finally:
            ledger.pop(frame, counter.tests - before)
            if result is not None:
                ledger.merge_remaining += int(result.remaining_ids.size)
                ledger.merge_points += int(data.cardinality)

    return wrapper


def _kernel_span(ledger: Ledger, fn):
    def wrapper(block, q, counter=None):
        before = counter.tests if counter is not None else 0
        frame = ledger.push(KERNEL)
        try:
            return fn(block, q, counter)
        finally:
            ledger.pop(frame, counter.tests - before if counter is not None else None)
            ledger.kernel_rows += block.shape[0]

    return wrapper


def _candidates_span(ledger: Ledger, fn):
    def wrapper(self, mask):
        frame = ledger.push(CANDIDATES)
        rows = 0
        try:
            ids, block = fn(self, mask)
            rows = ids.shape[0]
            return ids, block
        finally:
            ledger.pop(frame)
            ledger.candidate_rows += rows
            ledger.container_rows += len(self)

    return wrapper


def _apply_span(ledger: Ledger, fn):
    def wrapper(self, inserts=None, deletes=None, counter=None, mode=None):
        before = counter.tests if counter is not None else 0
        frame = ledger.push(DELTA_APPLY)
        try:
            return fn(self, inserts, deletes, counter, mode)
        finally:
            ledger.pop(frame, counter.tests - before if counter is not None else None)

    return wrapper


def _stream_span(ledger: Ledger, layer: int, fn):
    def wrapper(self, batch):
        before = self.counter.tests
        frame = ledger.push(layer)
        try:
            return fn(self, batch)
        finally:
            ledger.pop(frame, self.counter.tests - before)

    return wrapper


class Instrumentation:
    """Installs the ledger's wrappers; a context manager that always restores."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner: object, name: str, wrapper: object) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "Instrumentation":
        ledger = self.ledger
        self._replace(SkylineEngine, "execute", _span(ledger, EXECUTE, SkylineEngine.execute))
        self._replace(PreparedDataset, "view", _span(ledger, VIEW, PreparedDataset.view))
        self._replace(Planner, "plan", _span(ledger, PLAN, Planner.plan))
        self._replace(engine_prepared, "merge", _merge_span(ledger, engine_prepared.merge))
        for host in _HOST_CLASSES:
            self._replace(host, "run_phase", _span(ledger, RUN_PHASE, vars(host)["run_phase"]))
        for module in _KERNEL_MODULES:
            self._replace(module, "first_dominator", _kernel_span(ledger, module.first_dominator))
        self._replace(
            SubsetContainer, "candidates", _candidates_span(ledger, SubsetContainer.candidates)
        )
        self._replace(SubsetContainer, "add", _span(ledger, ADD, SubsetContainer.add))
        self._replace(PreparedDataset, "apply_delta", _apply_span(ledger, PreparedDataset.apply_delta))
        self._replace(
            PreparedDataset,
            "repair_skyline",
            _span(ledger, DELTA_REPAIR, PreparedDataset.repair_skyline),
        )
        self._replace(
            StreamingSkyline,
            "insert_many",
            _stream_span(ledger, STREAM_INSERT, StreamingSkyline.insert_many),
        )
        self._replace(
            StreamingSkyline,
            "delete_many",
            _stream_span(ledger, STREAM_DELETE, StreamingSkyline.delete_many),
        )
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
