"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same operation stream twice, half the time each:
untraced, then with the outside-in layer ledger installed, and reports the
per-layer metrics plus the tracing overhead between the two passes.  The
last line of standard output is one JSON object; the lines above it are a
human-readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up repeats per untraced run (``setup_s`` is their median): at least
#: the minimum, and more while they total under the time floor.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_FLOOR_S = 3, 50, 1.0

PLAN_LABELS = ("sdi-subset", "sfs-subset", "salsa-subset", "incremental-repair")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {source}/repro")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {source}")
    sys.path.insert(0, str(HERE))


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _ms(seconds: float) -> float:
    return seconds * 1e3


def end_to_end(run, workload, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    ops = len(run.cycle_s)
    groups = np.array_split(np.asarray(run.dt[: workload.min_ops], dtype=float), workload.dt_groups)
    return {
        "query_p50_ms": (_ms(_percentile(run.query_s, 50)), "ms"),
        "query_p90_ms": (_ms(_percentile(run.query_s, 90)), "ms"),
        "cycle_p50_ms": (_ms(_percentile(run.cycle_s, 50)), "ms"),
        "cycle_p90_ms": (_ms(_percentile(run.cycle_s, 90)), "ms"),
        "queries_per_s": (ops / sum(run.cycle_s), "1/s"),
        "dt_per_query": (float(np.median([group.mean() for group in groups])), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(untraced, traced, ledger, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    from ledger import (
        ADD,
        CANDIDATES,
        DELTA_APPLY,
        DELTA_REPAIR,
        EXECUTE,
        KERNEL,
        MERGE,
        PLAN,
        RUN_PHASE,
        STREAM_DELETE,
        STREAM_INSERT,
        VIEW,
    )

    ops = max(1, len(traced.cycle_s))

    def ms(layer: int) -> tuple[float, str]:
        return ledger.self_ns[layer] / 1e6 / ops, "ms"

    def per_op(value: float) -> tuple[float, str]:
        return value / ops, "count"

    def ratio(part: float, whole: float, unit: str = "ratio") -> tuple[float, str]:
        return (part / whole if whole else 0.0), unit

    # Tracing overhead over the operations both passes completed.
    shared = min(len(untraced.cycle_s), len(traced.cycle_s))
    overhead = sum(traced.cycle_s[:shared]) / sum(untraced.cycle_s[:shared]) - 1.0
    total_dt = sum(traced.dt)
    plans = sum(traced.plans.values())
    metrics = {
        "engine.prepared.view_ms": ms(VIEW),
        "engine.prepared.cache_hit_rate": ratio(
            traced.prepared_hits, traced.prepared_hits + traced.prepared_misses
        ),
        "engine.planner.plan_ms": ms(PLAN),
        "engine.execute_self_ms": ms(EXECUTE),
        "core.merge.ms": ms(MERGE),
        "core.merge.calls": per_op(ledger.calls[MERGE]),
        "core.merge.dt": per_op(ledger.self_dt[MERGE]),
        "core.merge.remaining_frac": ratio(ledger.merge_remaining, ledger.merge_points),
        "algorithms.scan_self_ms": ms(RUN_PHASE),
        "core.container.candidates_ms": ms(CANDIDATES),
        "core.container.candidates_calls": per_op(ledger.calls[CANDIDATES]),
        "core.container.add_ms": ms(ADD),
        "core.container.candidate_frac": ratio(ledger.candidate_rows, ledger.container_rows),
        "core.subset_index.cache_hit_rate": ratio(
            traced.index_hits, traced.index_hits + traced.index_misses
        ),
        "core.subset_index.nodes_per_query": ratio(
            traced.index_nodes, traced.index_queries, "count"
        ),
        "dominance.kernel_ms": ms(KERNEL),
        "dominance.kernel_calls": per_op(ledger.calls[KERNEL]),
        "dominance.dt": per_op(ledger.self_dt[KERNEL]),
        "dominance.rows_per_call": ratio(ledger.kernel_rows, ledger.calls[KERNEL], "count"),
        "engine.delta.apply_ms": ms(DELTA_APPLY),
        "engine.delta.repair_ms": ms(DELTA_REPAIR),
        "engine.delta.p50_ms": (_ms(_percentile(untraced.delta_s, 50)) if untraced.delta_s else 0.0, "ms"),
        "engine.delta.p90_ms": (_ms(_percentile(untraced.delta_s, 90)) if untraced.delta_s else 0.0, "ms"),
        "extensions.streaming.insert_ms": ms(STREAM_INSERT),
        "extensions.streaming.delete_ms": ms(STREAM_DELETE),
        "extensions.streaming.dt": per_op(
            ledger.self_dt[STREAM_INSERT] + ledger.self_dt[STREAM_DELETE]
        ),
        "ledger.residual_frac": ratio(traced_wall_s - sum(ledger.self_ns) / 1e9, traced_wall_s),
        "ledger.dt_unattributed": per_op(total_dt - sum(ledger.self_dt)),
        "trace.overhead_frac": (overhead, "ratio"),
        "mech.view_repeat_frac": (traced.mechanism.get("mech.view_repeat_frac", 0.0), "ratio"),
        "mech.distinct_views": (traced.mechanism.get("mech.distinct_views", 0.0), "count"),
        "mech.incremental_frac": (traced.mechanism.get("mech.incremental_frac", 0.0), "ratio"),
    }
    for label in PLAN_LABELS:
        metrics[f"mech.plan_frac.{label}"] = ratio(traced.plans[label], plans)
    other = plans - sum(traced.plans[label] for label in PLAN_LABELS)
    metrics["mech.plan_frac.other"] = ratio(other, plans)
    return metrics


def measure(workload, seconds: float, trace: bool, inject_fault: bool = False) -> dict[str, object]:
    """Set up, run and check one workload; returns the result object."""
    from ledger import Instrumentation, Ledger

    passes = []
    report: list[str] = []
    if not trace:
        setups: list[float] = []
        while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_FLOOR_S and len(setups) < SETUP_MAX_REPEATS
        ):
            gc.collect()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        gc.collect()
        run = workload.run(seconds, workload.min_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(run)
        metrics = end_to_end(run, workload, statistics.median(setups), peak_rss_mb)
        report.append(f"setup: {len(setups)} repeats, {min(setups):.4f}-{max(setups):.4f} s")
    else:
        workload.setup()
        gc.collect()
        untraced = workload.run(seconds / 2, 0)
        workload.setup()
        gc.collect()
        ledger = Ledger()
        with Instrumentation(ledger):
            traced = workload.run(seconds / 2, 0)
        passes += [untraced, traced]
        metrics = per_layer(untraced, traced, ledger, sum(traced.cycle_s))
        run = traced
    values = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    if trace:
        ledger.write(OUT, workload.name, values)
        report.append(f"spans: {ledger.span_count} written to {OUT.relative_to(ROOT)}/{workload.name}.spans.npz")

    mismatched = workload.verify(passes, inject_fault=inject_fault)
    attempted = sum(p.attempted for p in passes)
    failed = mismatched + sum(p.raised for p in passes)
    report += [
        f"workload {workload.name}: {len(run.cycle_s)} timed operations, "
        f"{sum(len(p.checks) for p in passes)} answers checked",
        f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} operations)",
        "plans: " + ", ".join(f"{label}={count}" for label, count in sorted(run.plans.items())),
    ]
    report += [f"{name}: {value:.6g}" for name, value in sorted(run.mechanism.items())]
    if run.delta_s and not trace:
        report.append(
            f"delta_p50_ms: {_ms(_percentile(run.delta_s, 50)):.6g} ms, "
            f"delta_p90_ms: {_ms(_percentile(run.delta_s, 90)):.6g} ms"
        )
    report += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": values,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    outcome = measure(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    for line in outcome["report"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
