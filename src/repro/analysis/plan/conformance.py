"""TRC109: replay a recorded trace against a :class:`LogPlan`.

Reuses TRC106's span machinery (:func:`_top_level_spans` partitions a
process trace into closed top-level call spans per session) but takes
its message-logging budgets from the *committed plan* instead of the
raw cost model.  Each span's limit is ``entry + cold + ratio ×
events`` with the plan's per-(process, method) ratio, and each span's
observed forces and limit are also attributed to the entry component's
shard (when the span's method resolves to exactly one shard): the
cumulative totals must stay within the shard budget as well.

Violations carry a replayable trace reference: the span's entry method,
its anchor LSN and its session, enough to re-locate the exact span in
the recorded :class:`~repro.analysis.trace.ProtocolTrace`.
"""

from __future__ import annotations

from ..trace import NO_LSN, ProtocolTrace
from ..trace_check import (
    MessageKind,
    Violation,
    _entry_force_bound,
    _top_level_spans,
)
from .planner import LogPlan

_EPS = 1e-9


def span_accounting(
    trace: ProtocolTrace, plan: LogPlan, process_name: str
) -> list[dict]:
    """Per-span budget accounting for one process trace: for every
    closed top-level span whose entry method the plan budgets, the
    observed force count next to the plan's limit.  The TRC109 check
    and the observed-vs-budget bench table both consume this."""
    budgets = {
        (entry["process"], entry["method"]): entry
        for entry in plan.span_budgets
    }
    spans: list[dict] = []
    for index, (entry_event, events) in enumerate(
        _top_level_spans(trace.entries)
    ):
        method = entry_event.method
        if method is None:
            continue
        budget = budgets.get((process_name, method))
        if budget is None:
            continue  # not a planned entry point on this process
        if entry_event.replaying:
            continue  # recovery reconstruction, not live traffic
        if not entry_event.optimized:
            # Algorithm 1 forces every message; the plan's ratios only
            # constrain the optimized system
            ratio, cold = 1.0, 0
        else:
            ratio = (
                budget["ratio_ro_on"]
                if entry_event.read_only_opt
                else budget["ratio_ro_off"]
            )
            # Section 3.4 cold-start conservatism: a forced send to a
            # peer whose type is still unknown is legitimate
            cold = sum(
                1
                for event in events
                if event.kind is MessageKind.OUTGOING_CALL
                and event.peer_type is None
                and event.forced
            )
        entry_limit = _entry_force_bound(entry_event)
        limit = entry_limit + cold + ratio * max(
            0, len(events) - 2 - 2 * cold
        )
        observed = sum(1 for event in events if event.forced)
        anchor = (
            entry_event.record_lsn
            if entry_event.record_lsn != NO_LSN
            else entry_event.end_lsn
        )
        spans.append({
            "index": index,
            "method": method,
            "session": entry_event.session,
            "anchor": anchor,
            "events": len(events),
            "observed": observed,
            "limit": limit,
            "entry_limit": entry_limit,
            "ratio": ratio,
            "classes": budget["classes"],
            "shards": budget.get("shards") or [],
        })
    return spans


def check_plan_trace(
    trace: ProtocolTrace, plan: LogPlan, process_name: str
) -> list[Violation]:
    """TRC109 over one process trace."""
    violations: list[Violation] = []
    #: shard id -> [observed, limit, last anchor lsn, span count]
    shard_totals: dict[str, list[float]] = {}
    for span in span_accounting(trace, plan, process_name):
        observed, limit = span["observed"], span["limit"]
        anchor = span["anchor"]
        if observed > limit + _EPS:
            session = (
                f"session {span['session']}"
                if span["session"] is not None
                else "serial"
            )
            violations.append(Violation(
                "TRC109", anchor,
                f"span #{span['index']} {span['method']}() on "
                f"{process_name} ({session}, entered at LSN {anchor}): "
                f"{observed} forces over {span['events']} events "
                f"exceeds the plan budget {limit:g} (entry budget "
                f"{span['entry_limit']:g}, ratio {span['ratio']:g} "
                f"for {'/'.join(span['classes'])} per plan)",
            ))
        if len(span["shards"]) == 1:
            totals = shard_totals.setdefault(
                span["shards"][0], [0.0, 0.0, 0, 0]
            )
            totals[0] += observed
            totals[1] += limit
            totals[2] = anchor
            totals[3] += 1
    for shard_id in sorted(shard_totals):
        observed_sum, limit_sum, last_anchor, spans = (
            shard_totals[shard_id]
        )
        if observed_sum > limit_sum + _EPS:
            violations.append(Violation(
                "TRC109", int(last_anchor),
                f"shard {shard_id}: {observed_sum:g} observed forces "
                f"across {int(spans)} spans on {process_name} exceed "
                f"the cumulative plan budget {limit_sum:g}",
            ))
    return violations


def check_runtime_plan(
    runtime, plan: LogPlan
) -> list[tuple[str, Violation]]:
    """TRC109 over every process of a runtime.

    Under sharded logging a process carries one trace per log stream;
    each is checked independently — a span's records and events all
    belong to its serving context and therefore to one stream, so spans
    stay whole per trace and the shard totals accumulate per stream's
    budget exactly as they did on the single legacy trace.
    """
    from ..trace_check import _process_traces

    problems: list[tuple[str, Violation]] = []
    for process in runtime.processes():
        for trace in _process_traces(process):
            for violation in check_plan_trace(trace, plan, process.name):
                problems.append((process.name, violation))
    return problems
