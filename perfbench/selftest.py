"""Self-tests of the benchmark, on smoke-sized inputs (under a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the metrics
``BENCHMARK.json`` names, each with its declared unit and a finite value,
with every answer correct; and that a wrong answer injected into the
checker is counted as a failed operation.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import math
import sys

import run

SMOKE_SECONDS = 1.0


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _check_metrics(label: str, result: dict, declared: dict[str, str]) -> list[str]:
    problems = []
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(
            f"{label}: missing {sorted(set(declared) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(declared))}"
        )
    for name, entry in metrics.items():
        if name in declared and entry["unit"] != declared[name]:
            problems.append(f"{label}: {name} unit {entry['unit']!r} != {declared[name]!r}")
        if not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} is {entry['value']}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    return problems


def main() -> int:
    run._import_program()
    from workloads import WORKLOADS

    problems: list[str] = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        declared = _declared(kind)
        for name, workload in WORKLOADS.items():
            outcome = run.measure(workload(seed=1, smoke=True), SMOKE_SECONDS, trace)
            problems += _check_metrics(f"{name} trace={int(trace)}", outcome["result"], declared)
            print(f"ok: {name} trace={int(trace)}", flush=True)
    for name, workload in WORKLOADS.items():
        result = run.measure(
            workload(seed=2, smoke=True), SMOKE_SECONDS, False, inject_fault=True
        )["result"]
        if result["correct"] or result["failed"] != 1:
            problems.append(f"{name}: injected wrong answer counted {result['failed']} failures")
        print(f"ok: {name} injected fault counted", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
