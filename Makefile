# Convenience targets (everything works offline).

.PHONY: install test bench perf report examples all clean lint infer \
	check sweep sweep-smoke concurrency sharded explore-smoke \
	explore-nightly plan plan-write

install:
	python setup.py develop

test:
	pytest tests/

# Protocol-conformance lint (PHX rules) plus ruff/mypy when available.
# ruff and mypy are optional (pip install -e .[lint]); the AST lint is
# stdlib-only and always runs.
lint:
	PYTHONPATH=src python -m repro.analysis lint src/repro/apps src/repro/core
	PYTHONPATH=src python -m repro.analysis sites
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi

# Whole-program type-inference gate: every component declaration in the
# deployed apps must match the inferred cheapest safe type (PHX010-012),
# modulo explicit pragmas.  Runs in well under ten seconds.
infer:
	PYTHONPATH=src python -m repro.analysis infer --check src/repro/apps

# Shard plan gate (docs/internals.md section 15): rebuilds the plan
# from the deploy wiring and fails on PHX015-016 findings or a
# byte-stale plans/apps.logplan.json.
# `plan-write` regenerates the committed artifact after wiring changes.
plan:
	PYTHONPATH=src python -m repro.analysis plan --check

plan-write:
	PYTHONPATH=src python -m repro.analysis plan --write

check: lint infer plan concurrency sharded explore-smoke
	PYTHONPATH=src python -m pytest -x -q

# Same-seed determinism gate (docs/internals.md section 11): the
# concurrent bookstore workload runs twice under the deterministic
# scheduler; stable logs, traces, clock and replies must be
# byte-identical across the runs.
concurrency:
	PYTHONPATH=src python -m repro.concurrency

# Sharded-logging gate (docs/internals.md section 16): the committed
# LogPlan executed — the sharded concurrent bookstore run twice must be
# byte-identical per stream, fan out to real per-shard streams, and
# return the same replies/state as the flag-off single-log run.
sharded:
	PYTHONPATH=src python -m repro.concurrency sharded

# Schedule-space model checker (docs/internals.md section 13).
# `explore-smoke` is the per-push gate: full DPOR enumeration of the
# ledger workload at N=2 (must complete with zero TRC violations,
# strictly fewer schedules than naive enumeration, and a byte-identical
# SCHEDULE_ID replay) — a few seconds.  `explore-nightly` adds a
# budgeted N=3 exploration and the exploration x crash-point composite.
explore-smoke:
	PYTHONPATH=src python -m repro.concurrency.cli smoke

explore-nightly:
	PYTHONPATH=src python -m repro.concurrency.cli explore --sessions 3 \
		--budget 8000 --keep-going
	PYTHONPATH=src python -m repro.concurrency.cli crash-sweep \
		--budget 800 --specs 3
	PYTHONPATH=src python -m repro.concurrency.cli explore \
		--workload ledger-pipelined --sessions 3 --budget 8000 \
		--keep-going
	PYTHONPATH=src python -m repro.concurrency.cli crash-sweep \
		--workload ledger-pipelined --budget 800 --specs 3

# Deterministic crash-point sweep (docs/internals.md section 9): every
# durability boundary of every workload, crash -> recover -> compare
# against the fault-free golden run.  `sweep` is the full nightly pass;
# `sweep-smoke` is the sampled per-push subset (~100 points, seconds).
sweep:
	PYTHONPATH=src python -m repro.faults sweep

sweep-smoke:
	PYTHONPATH=src python -m repro.faults sweep --torn-stride 8 --stride 4

bench:
	pytest benchmarks/ --benchmark-only

# Hot-path guardrails: the log read/write microbenchmark, the Table 7
# recovery benchmark that exercises replay end to end, and the smoke
# sizes of the on-demand recovery latency benchmark (run the latter
# with REPRO_BENCH_FULL=1 to regenerate BENCH_recovery.json).
perf:
	pytest benchmarks/bench_log_hotpath.py benchmarks/bench_table7_recovery.py \
		benchmarks/bench_recovery_latency.py --benchmark-only -s

report:
	python -m repro.bench EXPERIMENTS.md

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script || exit 1; \
	done

all: test bench report

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
