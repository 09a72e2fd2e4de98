# Convenience entry points; CI runs the same commands.

PYTHON ?= python

.PHONY: test bench perfbench lint docs-check examples profile

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q -s

# the end-to-end verdict benchmark (perfbench/README.md): every gated
# workload, one seed, 40 s each
perfbench:
	for workload in farm model-sweep differential; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 40 || exit 1; \
	done

# static analysis: the catlint/litmuslint sweep over every in-tree
# model, paper test and hunt seed always runs; ruff and mypy run when
# installed (CI installs them via `pip install -e .[lint]`) and are
# skipped — loudly — when absent, so the target works in the bare
# runtime environment too
lint:
	PYTHONPATH=src $(PYTHON) -m repro.pipeline.cli lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src; \
	else \
		echo "ruff not installed - skipped (pip install -e .[lint])"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed - skipped (pip install -e .[lint])"; \
	fi

# execute every fenced python block in README.md, docs/cookbook.md and
# docs/analysis.md — documentation examples are checked like tests and
# cannot rot
docs-check:
	$(PYTHON) scripts/check_docs.py README.md docs/cookbook.md docs/analysis.md

examples:
	PYTHONPATH=src $(PYTHON) -m repro.pipeline.cli examples

# where does solver time go? cProfile + per-stage wall-time counters
profile:
	$(PYTHON) scripts/profile_solver.py
