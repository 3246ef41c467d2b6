"""The benchmark's three closed-loop workloads.

One client in one process sends the next operation only after the previous
one returned; every query pins ``workers=1``.  Each workload builds its
inputs from the seed (the program only ever sees the generated
arrays), times every operation, keeps every answer, and checks the answers
after the timed loop against an oracle: a fresh :class:`SkylineEngine`
running an unboosted host on an input the benchmark derives itself.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.data import generate
from repro.engine import SkylineEngine
from repro.stats.counters import DominanceCounter

_clock = time.perf_counter


@dataclass
class Pass:
    """What one timed loop did: per-operation timings, DT, answers, plans."""

    query_s: list[float] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)
    delta_s: list[float] = field(default_factory=list)
    dt: list[int] = field(default_factory=list)
    plans: Counter[str] = field(default_factory=Counter)
    #: ``(oracle key, sorted answer ids)`` per checked operation.
    checks: list[tuple[object, np.ndarray]] = field(default_factory=list)
    attempted: int = 0
    raised: int = 0
    prepared_hits: int = 0
    prepared_misses: int = 0
    index_hits: int = 0
    index_misses: int = 0
    index_queries: int = 0
    index_nodes: int = 0
    mechanism: dict[str, float] = field(default_factory=dict)

    def record_result(self, result: object) -> None:
        counter = result.counter
        self.plans[result.plan.label] += 1
        self.prepared_hits += counter.prepared_cache_hits
        self.prepared_misses += counter.prepared_cache_misses
        self.index_hits += counter.index_cache_hits
        self.index_misses += counter.index_cache_misses
        self.index_queries += counter.index_queries
        self.index_nodes += counter.index_nodes_visited

    def failed(self, op: str) -> None:
        """Count an operation that raised; the traceback goes to stderr."""
        self.raised += 1
        print(f"perfbench: {op} raised", file=sys.stderr)
        traceback.print_exc()


def _answer(indices: object) -> np.ndarray:
    return np.sort(np.asarray(indices, dtype=np.int64))


def _oracle(values: np.ndarray, host: str) -> np.ndarray:
    result = SkylineEngine().execute(values, host, workers=1)
    return _answer(result.indices)


def _keep_going(start: float, seconds: float, done: int, min_ops: int, round_ops: int) -> bool:
    if done % round_ops:
        return True
    return _clock() - start < seconds or done < min_ops


class Workload:
    """Shared verification: answers are compared after the timed loop."""

    name = ""
    #: Unboosted host the oracle runs; chosen per workload for speed.
    oracle_host = "sfs"
    #: Operations per whole round of the op stream; a loop stops only
    #: between rounds so every run measures the same mix.
    round_ops = 1
    #: Floor on the operations of an untraced run: at least ten samples
    #: lie beyond p90, and ``dt_per_query`` is taken over exactly these
    #: first operations, so it repeats exactly for a seed.
    min_ops = 100
    #: ``dt_per_query`` is the median of the means of this many equal
    #: consecutive groups of those operations (1: their plain mean).
    dt_groups = 1

    def oracle_input(self, key: object) -> np.ndarray:
        raise NotImplementedError

    def verify(self, passes: list[Pass], inject_fault: bool = False) -> int:
        """Mismatched answers over every pass; oracles are computed once per key."""
        oracles: dict[object, np.ndarray] = {}
        mismatched = 0
        for run in passes:
            for key, answer in run.checks:
                if inject_fault:
                    # Self-test hook: corrupt one answer so the checker
                    # must count it.
                    answer = answer[1:]
                    inject_fault = False
                if key not in oracles:
                    oracles[key] = _oracle(self.oracle_input(key), self.oracle_host)
                if not np.array_equal(answer, oracles[key]):
                    mismatched += 1
        return mismatched


class ColdScan(Workload):
    """Fresh engine per query over small AC/UI datasets, rotating hosts."""

    name = "cold_scan"
    hosts = ("sdi-subset", "sfs-subset", "salsa-subset")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.shapes = (("AC", 500, 4), ("UI", 1000, 4)) if smoke else (("AC", 5000, 6), ("UI", 10000, 6))
        # Many datasets per round: skyline sizes vary from seed to seed, and
        # the run's mean over 18 datasets barely does.
        self.copies = 1 if smoke else 9
        self.round_ops = len(self.shapes) * self.copies * len(self.hosts)
        self.min_ops = -(-100 // self.round_ops) * self.round_ops
        self.datasets: list[object] = []

    def setup(self) -> None:
        self.datasets = [
            generate(kind, n=n, d=d, seed=self.seed * 1000 + 10 * copy + i)
            for copy in range(self.copies)
            for i, (kind, n, d) in enumerate(self.shapes)
        ]

    def oracle_input(self, key: object) -> np.ndarray:
        return self.datasets[key].values

    def run(self, seconds: float, min_ops: int) -> Pass:
        run = Pass()
        pairs = [(i, host) for host in self.hosts for i in range(len(self.datasets))]
        start = _clock()
        while _keep_going(start, seconds, run.attempted, min_ops, self.round_ops):
            index, host = pairs[run.attempted % len(pairs)]
            run.attempted += 1
            try:
                t0 = _clock()
                result = SkylineEngine().execute(self.datasets[index], host, workers=1)
                elapsed = _clock() - t0
            except Exception:
                run.failed(f"execute({host})")
                continue
            run.query_s.append(elapsed)
            run.cycle_s.append(elapsed)
            run.dt.append(int(result.dominance_tests))
            run.record_result(result)
            run.checks.append((index, _answer(result.indices)))
        return run


class WarmSession(Workload):
    """One shared engine; a Zipf stream of 2-/3-dim subspace views."""

    name = "warm_session"
    oracle_host = "salsa"
    #: Zipf exponent over view ranks: the head stays in the 32-entry view
    #: cache while the tail evicts; about one operation in five misses.
    zipf = 1.2
    #: The stream is drawn in blocks of this many operations, each holding
    #: every view its Zipf share of times in seeded order, so the mix of a
    #: run does not drift with sampling noise.
    block = 1024

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.n, self.d = (3000, 6) if smoke else (100_000, 8)
        self.n_views = 16 if smoke else 64
        self.warmup = 8 if smoke else 64
        self.min_ops = self.block
        self.base: np.ndarray | None = None
        self.views: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.stream = np.empty(0, dtype=np.intp)

    def _universe(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        views = []
        while len(views) < self.n_views:
            # The least popular eighth of the ranks are the 3-dim views on
            # every seed.  A 3-dim view's cost varies tenfold with its data,
            # so a few popular ones would swing the mean from seed to seed.
            # About 65% of the operations are 2-dim view-cache hits that
            # follow a hit, which hold the median, and p90 lies inside the
            # 2-dim misses, which Merge dominates.
            k = 3 if len(views) >= self.n_views * 7 // 8 else 2
            dims = tuple(sorted(int(x) for x in rng.choice(self.d, size=k, replace=False)))
            flip = (int(rng.choice(dims)),) if rng.random() < 1 / 3 else ()
            if (dims, flip) not in seen:
                seen.add((dims, flip))
                views.append((dims, flip))
        self.views = views
        weights = 1.0 / np.arange(1, self.n_views + 1) ** self.zipf
        share = self.block * weights / weights.sum()
        counts = np.floor(share).astype(np.intp)
        counts[np.argsort(counts - share)[: self.block - counts.sum()]] += 1
        block = np.repeat(np.arange(self.n_views), counts)
        order = np.random.default_rng([self.seed, 2])
        self.stream = np.concatenate([order.permutation(block) for _ in range(200)])

    def setup(self) -> None:
        self.engine = self.prepared = None  # drop an earlier repeat's session first
        self.base = generate("UI", n=self.n, d=self.d, seed=self.seed).values
        self._universe()
        self.engine = SkylineEngine()
        self.prepared = self.engine.prepare(self.base)
        self.position = 0
        warm = Pass()
        while self.position < self.warmup:
            self._op(warm)
        if warm.raised:
            raise RuntimeError("warm-up operations raised")

    def _op(self, run: Pass) -> None:
        rank = int(self.stream[self.position % self.stream.size])
        self.position += 1
        dims, flip = self.views[rank]
        run.attempted += 1
        counter = DominanceCounter()
        try:
            t0 = _clock()
            view = self.prepared.view(dims, maximize=flip, counter=counter)
            t1 = _clock()
            result = self.engine.execute(view, workers=1, counter=counter)
            t2 = _clock()
        except Exception:
            run.failed(f"view{dims}/execute")
            return
        run.query_s.append(t2 - t1)
        run.cycle_s.append(t2 - t0)
        run.dt.append(int(result.dominance_tests))
        run.record_result(result)
        run.checks.append((rank, _answer(result.indices)))

    def oracle_input(self, key: object) -> np.ndarray:
        dims, flip = self.views[key]
        assert self.base is not None
        values = self.base[:, list(dims)].copy()
        for local, dim in enumerate(dims):
            if dim in flip:
                # The documented max-is-better flip: max(col) - col.
                values[:, local] = values[:, local].max() - values[:, local]
        return values

    def run(self, seconds: float, min_ops: int) -> Pass:
        run = Pass()
        first = self.position
        start = _clock()
        while _keep_going(start, seconds, run.attempted, min_ops, 1):
            self._op(run)
        ranks = self.stream[np.arange(first, self.position) % self.stream.size]
        earlier = set(self.stream[:first].tolist())
        repeats = 0
        for rank in ranks.tolist():
            repeats += rank in earlier
            earlier.add(rank)
        run.mechanism = {
            "mech.view_repeat_frac": repeats / max(1, ranks.size),
            "mech.distinct_views": float(len(set(ranks.tolist()))),
        }
        return run


class MutateRepair(Workload):
    """Delta batches beside reads: ``apply_delta`` then an adaptive execute."""

    name = "mutate_repair"
    #: The base table is the same on every seed; the seed drives the delta
    #: stream.  Delta repair's cost depends on the table far more than on
    #: the stream (median DT per cycle 63k-117k over ten seeded tables,
    #: 83k-92k over six streams on one table), so a seeded table would let
    #: dt_per_query swing by a quarter between seeds.
    table_seed = 0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.n, self.d = (2000, 5) if smoke else (50_000, 8)
        # 0.2% of the rows per cycle: half deletes of live rows, half inserts.
        self.half = max(1, self.n // 1000)
        # A cycle's DT is heavy-tailed: a deleted witness can orphan many
        # buffered points (one cycle in 200 can cost 30 typical ones).  The
        # median of ten 20-cycle means keeps those cycles from deciding
        # dt_per_query (IQR/median over ten seeds 0.06, the plain mean 0.27).
        self.min_ops = 200
        self.dt_groups = 10
        self.base: np.ndarray | None = None

    def batch(self, number: int) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``number`` (0 is the untimed warm cycle); the row count stays ``n``."""
        rng = np.random.default_rng([self.seed, 3, number])
        deletes = np.sort(rng.choice(self.n, size=self.half, replace=False))
        return rng.random((self.half, self.d)), deletes

    def setup(self) -> None:
        self.engine = self.prepared = None  # drop an earlier repeat's session first
        self.base = generate("UI", n=self.n, d=self.d, seed=self.table_seed).values
        self._replayed = (0, self.base)
        self.engine = SkylineEngine()
        self.prepared = self.engine.prepare(self.base)
        self.engine.execute(self.prepared, workers=1)
        inserts, deletes = self.batch(0)
        self.engine.apply_delta(self.prepared, inserts, deletes)
        self.engine.execute(self.prepared, workers=1)
        self.applied = 1

    def oracle_input(self, key: object) -> np.ndarray:
        """The data after ``key`` batches, replayed by the documented id rules.

        Deleted rows close ranks and inserts append; checks arrive in
        increasing key order within a pass, so replay resumes from the last
        state asked for.
        """
        assert self.base is not None
        applied, values = self._replayed
        if applied > key:
            applied, values = 0, self.base
        while applied < key:
            inserts, deletes = self.batch(applied)
            values = np.vstack([np.delete(values, deletes, axis=0), inserts])
            applied += 1
        self._replayed = (applied, values)
        return values

    def run(self, seconds: float, min_ops: int) -> Pass:
        run = Pass()
        answers: list[tuple[int, np.ndarray]] = []
        incremental = 0
        start = _clock()
        while _keep_going(start, seconds, run.attempted // 2, min_ops, 1):
            inserts, deletes = self.batch(self.applied)
            # The oracle replays this batch whether or not the call below
            # raises, so a failed write also fails the later checks.
            self.applied += 1
            counter = DominanceCounter()
            run.attempted += 2
            try:
                t0 = _clock()
                self.engine.apply_delta(self.prepared, inserts, deletes, counter=counter)
                t1 = _clock()
                result = self.engine.execute(self.prepared, workers=1)
                t2 = _clock()
            except Exception:
                run.failed("apply_delta/execute")
                continue
            run.delta_s.append(t1 - t0)
            run.query_s.append(t2 - t1)
            run.cycle_s.append(t2 - t0)
            run.dt.append(int(counter.tests) + int(result.dominance_tests))
            run.record_result(result)
            incremental += result.plan.incremental
            answers.append((self.applied, _answer(result.indices)))
        # Checked: the final state and a seeded sample of two earlier cycles.
        # The sample comes from the first 64 cycles, so the two passes of a
        # traced run check the same states and share their oracle runs.
        if answers:
            rng = np.random.default_rng([self.seed, 4])
            last = len(answers) - 1
            pool = min(last, 64)
            picks = rng.choice(pool, size=min(2, pool), replace=False) if pool else []
            for position in sorted({*map(int, picks), last}):
                run.checks.append(answers[position])
        run.mechanism = {"mech.incremental_frac": incremental / max(1, len(run.cycle_s))}
        return run


WORKLOADS = {cls.name: cls for cls in (ColdScan, WarmSession, MutateRepair)}
