"""Static shard planner.

Builds a weighted component-interaction graph from the interprocedural
inference engine (:mod:`repro.analysis.infer`), prices its edges with
the force-cost model, partitions it into log shards, and emits the
declarative :class:`LogPlan` JSON artifact that sharded logging
executes (one log stream per shard; ``repro.log.sharding``).
Diagnostics: PHX015 (hot cross-shard edge), PHX016 (plan drift), and
the TRC109 trace invariant (observed forces within the plan's
message-logging budgets).

Entry points: ``repro-analyze plan`` and ``make plan``; the committed
artifact lives in ``plans/apps.logplan.json``.
"""

from .conformance import (
    check_plan_trace,
    check_runtime_plan,
    span_accounting,
)
from .graph import GraphEdge, GraphNode, InteractionGraph, build_graph
from .lints import drift_findings, plan_findings
from .partition import Shard, message_load, partition
from .planner import (
    PLAN_VERSION,
    LogPlan,
    PlanConfig,
    build_plan,
    committed_plans,
    load_plan,
)

__all__ = [
    "GraphEdge",
    "GraphNode",
    "InteractionGraph",
    "LogPlan",
    "PLAN_VERSION",
    "PlanConfig",
    "Shard",
    "build_graph",
    "build_plan",
    "check_plan_trace",
    "check_runtime_plan",
    "committed_plans",
    "drift_findings",
    "load_plan",
    "message_load",
    "partition",
    "plan_findings",
    "span_accounting",
]
