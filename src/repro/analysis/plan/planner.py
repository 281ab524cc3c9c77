"""Build the declarative :class:`LogPlan` artifact.

A plan is a plain-JSON contract between the static planner and the
future multi-log runtime (ROADMAP item 1): per-shard placement, per-
component logging strategy, and the predicted force budgets the TRC109
trace check replays recorded executions against.

Two strategy columns per component:

``planner_strategy``
    the cheapest statically safe strategy (what the future runtime
    should implement);
``strategy``
    what the plan *declares* the runtime does — a ``--force-strategy``
    override when present, else the planner's choice.  PHX014 flags a
    declared strategy that disagrees with the planner's.

``budget_strategy`` drives the TRC109 span budgets and is deliberately
conservative: today's runtime implements only message logging, so every
component's budget prices ``message`` *unless an override asserts
otherwise* — an override is a claim about the running system and is
taken at its word, which is exactly how a mis-declared strategy trips
TRC109 on a real trace (the observed message-logging forces exceed the
tighter declared budget).

Serialization is canonical — ``sort_keys``, two-space indent, trailing
newline, no timestamps — so two runs over one tree are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..infer.costmodel import CostModel, _RATIO
from ..model import ProgramModel
from .graph import build_graph
from .partition import partition
from .strategy import ASSIGNABLE, cheapest_safe, strategy_costs

PLAN_VERSION = 1
#: covered strategies whose budget skips the caller's pre-send force
_SERVER_DURABLE = ("state", "command")


@dataclass
class PlanConfig:
    shards: int | None = None
    loop_weight: int = 4
    cut_threshold: float = 8.0
    #: component name -> declared strategy (``--force-strategy``)
    overrides: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "loop_weight": self.loop_weight,
            "cut_threshold": self.cut_threshold,
            "overrides": dict(sorted(self.overrides.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanConfig":
        return cls(
            shards=data.get("shards"),
            loop_weight=data.get("loop_weight", 4),
            cut_threshold=data.get("cut_threshold", 8.0),
            overrides=dict(data.get("overrides", {})),
        )


class LogPlan:
    """The emitted artifact; a thin typed wrapper over plain JSON."""

    def __init__(self, payload: dict):
        self.payload = payload

    # -- views ---------------------------------------------------------
    @property
    def config(self) -> PlanConfig:
        return PlanConfig.from_dict(self.payload["config"])

    @property
    def components(self) -> list[dict]:
        return self.payload["components"]

    @property
    def shards(self) -> list[dict]:
        return self.payload["shards"]

    @property
    def edges(self) -> list[dict]:
        return self.payload["edges"]

    @property
    def span_budgets(self) -> list[dict]:
        return self.payload["span_budgets"]

    def component(self, name: str) -> dict | None:
        for entry in self.components:
            if entry["name"] == name:
                return entry
        return None

    # -- serialization -------------------------------------------------
    def dumps(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "LogPlan":
        return cls(json.loads(text))


def load_plan(path: str | Path) -> LogPlan:
    return LogPlan.loads(Path(path).read_text())


_REPO_ROOT = Path(__file__).resolve().parents[4]


def _artifact_path(path: str) -> str:
    """Repo-relative POSIX path for the plan artifact, so the emitted
    bytes do not depend on whether the model was built from absolute
    or cwd-relative inputs.  Paths outside the repo pass through."""
    resolved = Path(path).resolve()
    try:
        return resolved.relative_to(_REPO_ROOT).as_posix()
    except ValueError:
        return str(path)


_COMMITTED: list[LogPlan] | None = None


def committed_plans() -> list[LogPlan]:
    """The repo's committed plans (``plans/*.logplan.json``), loaded
    once per process.  The ``REPRO_LOG_PLANS`` environment variable
    overrides the search: an ``os.pathsep``-separated list of plan
    files, or the empty string to disable plan conformance entirely.
    Unreadable files are skipped silently here — ``repro-analyze plan
    --check`` is the gate that reports them."""
    global _COMMITTED
    if _COMMITTED is not None:
        return _COMMITTED
    env = os.environ.get("REPRO_LOG_PLANS")
    if env is not None:
        paths = [Path(p) for p in env.split(os.pathsep) if p]
    else:
        repo_root = Path(__file__).resolve().parents[4]
        paths = sorted((repo_root / "plans").glob("*.logplan.json"))
    plans: list[LogPlan] = []
    for path in paths:
        try:
            plans.append(load_plan(path))
        except (OSError, ValueError):
            continue
    _COMMITTED = plans
    return plans


def _budget_strategy(entry: dict) -> str:
    """The strategy this component's TRC109 budget prices."""
    if entry["type"] in ("functional", "read_only"):
        return "none"
    if entry["type"] == "subordinate":
        return "inlined"
    return entry["strategy"] if entry["override"] else "message"


def _span_budgets(
    cost: CostModel,
    budget_strategies: dict[str, str],
    shard_of: dict[str, str],
) -> list[dict]:
    """Strategy-adjusted per-(process, entry-method) force budgets.

    Same linear-in-events shape as TRC106 (``entry + ratio × events``),
    with two tightenings where a component's budget strategy makes the
    server side durable on its own: edges whose every resolved target
    is state/command-logged contribute ratio 0 (the caller skips its
    pre-send force), and a state/command-logged *entry* needs a single
    forced record for the whole exchange (entry budget 1 instead of
    Algorithm 3's 2).
    """
    def ratio(edge) -> float:
        if edge.category in ("functional", "read_only"):
            return 0.0
        if edge.targets == ("?",):
            return _RATIO[edge.category]
        if all(
            budget_strategies.get(target) in _SERVER_DURABLE
            for target in edge.targets
        ):
            return 0.0
        return _RATIO[edge.category]

    table: dict[tuple[str, str], dict] = {}
    for class_name, method_name in cost.entries():
        for process in sorted(
            cost.engine.wiring.processes_for(class_name)
        ):
            ratios = []
            for ro_opt in (True, False):
                edges = cost.collect_edges(
                    class_name, method_name,
                    ro_opt=ro_opt, process=process,
                )
                ratios.append(max(
                    (ratio(edge) for edge in edges), default=0.0,
                ))
            entry_budget = (
                1
                if budget_strategies.get(class_name) in _SERVER_DURABLE
                else None
            )
            entry = {
                "process": process,
                "method": method_name,
                "classes": [class_name],
                "entry_budget": entry_budget,
                "ratio_ro_on": ratios[0],
                "ratio_ro_off": ratios[1],
                "shards": sorted(
                    {shard_of[class_name]}
                    if class_name in shard_of
                    else set()
                ),
            }
            key = (process, method_name)
            existing = table.get(key)
            if existing is None:
                table[key] = entry
                continue
            # merge: loosest bound wins (several classes may answer the
            # same method name on one process)
            existing["classes"] = sorted(
                set(existing["classes"]) | {class_name}
            )
            existing["ratio_ro_on"] = max(
                existing["ratio_ro_on"], entry["ratio_ro_on"]
            )
            existing["ratio_ro_off"] = max(
                existing["ratio_ro_off"], entry["ratio_ro_off"]
            )
            if existing["entry_budget"] is None or entry_budget is None:
                existing["entry_budget"] = None
            else:
                existing["entry_budget"] = max(
                    existing["entry_budget"], entry_budget
                )
            existing["shards"] = sorted(
                set(existing["shards"]) | set(entry["shards"])
            )
    return [table[key] for key in sorted(table)]


def build_plan(model: ProgramModel, config: PlanConfig) -> LogPlan:
    graph, engine = build_graph(model, loop_weight=config.loop_weight)
    shards = partition(graph, config.shards)
    shard_of = {
        member: shard.shard_id
        for shard in shards
        for member in shard.members
    }

    components: list[dict] = []
    planned_budget: dict[str, float] = {
        shard.shard_id: 0.0 for shard in shards
    }
    for name in sorted(graph.nodes):
        node = graph.nodes[name]
        costs = strategy_costs(graph, node, shard_of)
        planner_choice, planner_cost = cheapest_safe(costs)
        override = config.overrides.get(name)
        if override is not None and (
            node.ctype not in ("persistent",)
            or override not in ASSIGNABLE
        ):
            override = None  # only persistent components take overrides
        strategy = override or planner_choice
        declared_cost = costs.get(strategy)
        safe = declared_cost is not None
        entry = {
            "name": name,
            "type": node.ctype,
            "processes": list(node.processes),
            "shard": shard_of.get(name),
            "strategy": strategy,
            "planner_strategy": planner_choice,
            "override": override is not None,
            "safe": safe,
            "costs": {
                strat: (cost.to_dict() if cost is not None else None)
                for strat, cost in sorted(costs.items())
            },
            "predicted": (
                declared_cost.to_dict()
                if declared_cost is not None
                else planner_cost.to_dict()
            ),
            "path": _artifact_path(node.path),
            "line": node.line,
            "attr_count": node.attr_count,
            "multicall_saved": node.multicall_saved,
        }
        entry["budget_strategy"] = _budget_strategy(entry)
        components.append(entry)
        shard_id = shard_of.get(name)
        if shard_id is not None:
            planned_budget[shard_id] += (
                declared_cost or planner_cost
            ).forces

    shard_entries = []
    for shard in shards:
        data = shard.to_dict()
        data["planned_force_budget"] = planned_budget[shard.shard_id]
        shard_entries.append(data)

    edge_entries = []
    for key in sorted(graph.edges):
        edge = graph.edges[key]
        data = edge.to_dict()
        src_sig = graph.nodes[edge.src].processes
        dst_sig = graph.nodes[edge.dst].processes
        data["cross_shard"] = (
            shard_of.get(edge.src) != shard_of.get(edge.dst)
        )
        # an edge is *cuttable* (PHX015's subject) only when both ends
        # could legally co-shard; cross-process traffic is the paper's
        # distributed deployment, not a planning mistake
        data["cuttable"] = src_sig == dst_sig
        edge_entries.append(data)

    budget_strategies = {
        entry["name"]: entry["budget_strategy"] for entry in components
    }
    cost = CostModel(engine)
    payload = {
        "version": PLAN_VERSION,
        "config": config.to_dict(),
        "components": components,
        "shards": shard_entries,
        "edges": edge_entries,
        "span_budgets": _span_budgets(
            cost, budget_strategies, shard_of
        ),
    }
    return LogPlan(payload)
