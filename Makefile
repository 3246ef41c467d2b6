PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install install-dev test test-fast bench bench-incremental \
        bench-check perfbench-selftest experiments report examples lint \
        typecheck analyze analyze-baseline clean

install:
	$(PYTHON) -m pip install -e ".[test]"

install-dev:
	$(PYTHON) -m pip install -e ".[dev]"

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Canonical delta-repair gate: 1% mutation batch through apply_delta +
# incremental plan vs invalidate-and-recompute, bit-identical skylines
# and the >= 5x wall speedup enforced (non-zero exit on failure).
bench-incremental:
	$(PYTHON) benchmarks/bench_throughput.py --only incremental_repair --out BENCH_throughput.json

# Bench-trajectory regression gate: rerun the two engine scenarios into a
# throwaway report and compare against the committed history with the
# noise-tolerant checker (sustained wall slowdowns and DT growth fail).
bench-check:
	$(PYTHON) benchmarks/bench_throughput.py --only repeated_queries --only incremental_repair --out .bench-fresh.json
	$(PYTHON) -m repro.obs.regress --history BENCH_throughput.json --fresh .bench-fresh.json

# Self-test of the repo benchmark (perfbench/): every workload, untraced
# and traced, must emit exactly the metrics BENCHMARK.json declares with
# every answer checked, and an injected wrong answer must be counted as a
# failed operation.  Smoke-sized; non-zero exit on any failure.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

experiments:
	$(PYTHON) -m repro.bench all

report:
	$(PYTHON) -m repro.bench report

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

# Repo-specific invariant lint (RPR rules), then ruff when available.
# One shell with set -e so an repro.analysis failure always fails the
# target — the optional ruff leg must never mask it.
lint:
	@set -e; \
	$(PYTHON) -m repro.analysis src/repro; \
	if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests examples; \
	else \
		echo "ruff not installed — skipping style lint (make install-dev)"; \
	fi

typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/core src/repro/stats src/repro/analysis src/repro/engine src/repro/obs; \
	else \
		echo "mypy not installed — skipping typecheck (make install-dev)"; \
	fi

# The full correctness gate: lint rules + runtime contracts + differential.
analyze:
	$(PYTHON) -m repro.analysis --strict src/repro

# Regenerate analysis-baseline.json deliberately (never implicitly).
# Review the diff and replace every FIXME reason before committing —
# unjustified entries do not suppress anything.
analyze-baseline:
	$(PYTHON) -m repro.analysis --write-baseline src/repro

clean:
	find . -type d -name __pycache__ -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build dist *.egg-info
	rm -f .bench-fresh.json
