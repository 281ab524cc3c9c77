"""Plan conformance: observed forces vs message budgets.

TRC109 replays recorded traces against the committed plan's
message-logging span budgets.  This benchmark drives the bookstore and
orderflow workloads and checks that the observed forces of every
process stay within those budgets.

Runs 2 sessions per workload by default; ``REPRO_BENCH_FULL=1`` scales
to 8 (the EXPERIMENTS.md configuration).
"""

from repro.bench import plan_forces_comparison

from conftest import run_experiment


def bench_plan_forces(benchmark):
    table = run_experiment(benchmark, plan_forces_comparison)

    assert table.rows, "no planned spans were exercised"
    for label, cells in table.rows:
        observed, message = (cell.measured for cell in cells)
        # TRC109: the live (message-logging) run respects its budget
        assert observed <= message + 1e-9, label
