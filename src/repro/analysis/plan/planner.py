"""Build the declarative :class:`LogPlan` artifact.

A plan is a plain-JSON contract between the static planner and the
runtime: the shard partition sharded logging executes (each shard's
``id``, ``processes`` and ``components``; ``repro.log.sharding``), the
priced interaction graph behind it, and the per-(process, entry-method)
message-logging force budgets the TRC109 trace check replays recorded
executions against.

Serialization is canonical — ``sort_keys``, two-space indent, trailing
newline, no timestamps — so two runs over one tree are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..infer.costmodel import CostModel
from ..model import ProgramModel
from .graph import build_graph
from .partition import partition

PLAN_VERSION = 2


@dataclass
class PlanConfig:
    shards: int | None = None
    loop_weight: int = 4
    cut_threshold: float = 8.0

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "loop_weight": self.loop_weight,
            "cut_threshold": self.cut_threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanConfig":
        return cls(
            shards=data.get("shards"),
            loop_weight=data.get("loop_weight", 4),
            cut_threshold=data.get("cut_threshold", 8.0),
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
        paths = sorted((_REPO_ROOT / "plans").glob("*.logplan.json"))
    plans: list[LogPlan] = []
    for path in paths:
        try:
            plans.append(load_plan(path))
        except (OSError, ValueError):
            continue
    _COMMITTED = plans
    return plans


def _span_budgets(
    cost: CostModel, shard_of: dict[str, str]
) -> list[dict]:
    """Per-(process, entry-method) message-logging force budgets: the
    TRC106 bounds (``entry + ratio × events``, loosest over every class
    answering the method on the process), each tagged with the shards
    of those classes for TRC109's per-shard totals."""
    budgets = []
    for bound in cost.force_bounds().to_dict()["bounds"]:
        bound["shards"] = sorted(
            {shard_of[name] for name in bound["classes"] if name in shard_of}
        )
        budgets.append(bound)
    return budgets


def build_plan(model: ProgramModel, config: PlanConfig) -> LogPlan:
    graph, engine = build_graph(model, loop_weight=config.loop_weight)
    shards = partition(graph, config.shards)
    shard_of = {
        member: shard.shard_id
        for shard in shards
        for member in shard.members
    }

    components = [
        {
            "name": name,
            "type": node.ctype,
            "processes": list(node.processes),
            "shard": shard_of.get(name),
            "path": _artifact_path(node.path),
            "line": node.line,
            "multicall_saved": node.multicall_saved,
        }
        for name, node in sorted(graph.nodes.items())
    ]

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

    payload = {
        "version": PLAN_VERSION,
        "config": config.to_dict(),
        "components": components,
        "shards": [shard.to_dict() for shard in shards],
        "edges": edge_entries,
        "span_budgets": _span_budgets(CostModel(engine), shard_of),
    }
    return LogPlan(payload)
