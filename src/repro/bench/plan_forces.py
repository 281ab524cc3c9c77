"""Observed forces vs the LogPlan's message-logging budgets.

For the bookstore and orderflow workloads, every closed top-level call
span of a live run is priced by the committed plan's TRC109 budget.
The observed force counts come from the recorded ProtocolTraces, so
the budget is a bound the run must respect; the table shows how much
of it each process uses.

``benchmarks/bench_plan_forces.py`` asserts the bound (observed within
the message budget); the full table lands in EXPERIMENTS.md via
``python -m repro.bench`` (sessions scale up under
``REPRO_BENCH_FULL=1``).
"""

from __future__ import annotations

import os
from pathlib import Path

from ..analysis.plan import load_plan, span_accounting
from ..apps.bookstore import BookBuyer, OptimizationLevel, deploy_bookstore
from ..apps.orderflow import deploy_orderflow
from .reporting import Cell, ExperimentTable

_PLAN = Path(__file__).resolve().parents[3] / "plans" / "apps.logplan.json"


def _run_bookstore(sessions: int):
    app = deploy_bookstore(level=OptimizationLevel.SPECIALIZED)
    buyer = BookBuyer(app)
    for __ in range(sessions):
        buyer.run_session(iterations=1)
    return app.runtime


def _run_orderflow(sessions: int):
    app = deploy_orderflow()
    for index in range(sessions):
        customer = f"customer-{index}"
        app.desk.place_order(customer, "widget", 2)
        app.desk.place_order(customer, "gadget", 1)
        app.desk.order_history(customer)
        order = app.desk.place_order(customer, "widget", 1)
        app.desk.cancel_order(customer, order["order_id"])
    return app.runtime


WORKLOADS = (
    ("bookstore", _run_bookstore),
    ("orderflow", _run_orderflow),
)


def plan_forces_comparison(sessions: int | None = None) -> ExperimentTable:
    if sessions is None:
        sessions = 8 if os.environ.get("REPRO_BENCH_FULL") else 2
    plan = load_plan(_PLAN)
    table = ExperimentTable(
        key="plan_forces",
        title=(
            "Plan conformance: observed forces vs message budgets "
            f"({sessions} sessions)"
        ),
        columns=["observed", "message budget"],
        precision=0,
    )
    for app_name, run in WORKLOADS:
        runtime = run(sessions)
        for process in sorted(
            runtime.processes(), key=lambda p: p.name
        ):
            trace = getattr(process, "protocol_trace", None)
            if trace is None:
                continue
            spans = span_accounting(trace, plan, process.name)
            budget = sum(s["limit"] for s in spans)
            if budget == 0:
                continue  # no planned entry spans on this process
            observed = sum(s["observed"] for s in spans)
            table.add_row(
                f"{app_name}: {process.name}",
                Cell(observed, budget),
                Cell(budget),
            )
    table.notes.append(
        "'paper' in the observed column is the message budget the run "
        "must stay within (TRC109): the committed plan's per-span "
        "message-logging bound, summed over the process's planned "
        "entry spans."
    )
    return table
