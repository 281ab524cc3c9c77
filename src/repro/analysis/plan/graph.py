"""The weighted component-interaction graph the planner partitions.

Nodes are the deployed component classes (plus subordinate-only classes,
which inherit their parents' process signature); directed edges are the
*intercepted* proxy calls between them, aggregated per ``(caller,
callee)`` pair and priced by the PR-4 force-cost model
(:class:`~repro.analysis.infer.costmodel.CostModel`):

* every edge carries its per-call force cost split into its client
  (message 3) and server (message 2) sides, so a node's message-logging
  load counts the server side of its fan-in and the client side of its
  fan-out;
* edges sitting inside loops are priced per-iteration and multiplied by
  a configurable ``loop_weight`` (static analysis cannot know the trip
  count; the weight is the planner's assumed iterations);
* the Section 3.5 multi-call discount — within one context execution,
  distinct server processes after the first need no pre-send force —
  is computed per entry method and recorded on the *caller* node, since
  the skipped force belongs to no single edge;
* ``new_subordinate`` children get a zero-weight *affinity* edge from
  their parent: subordinate calls are never intercepted, so the pair
  must land in one shard.

Edge collection is deliberately *context-local*: for each node, every
public method is walked through its own self-calls and subordinates
(one uniform invocation each — the planner's load model), but recursion
stops at proxied targets — the callee's own fan-out is priced when the
callee node is walked.  This keeps every intercepted call counted
exactly once across the graph, unlike the whole-application mode of
``CostModel.collect_edges`` which re-prices shared subtrees per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model import ProgramModel
from ..infer.costmodel import CostModel, Edge
from ..infer.engine import Engine


@dataclass
class GraphNode:
    """One component class, with its uniform-sweep entry pricing."""

    name: str
    ctype: str  #: functional | read_only | subordinate | persistent
    processes: tuple[str, ...]
    path: str
    line: int
    #: Algorithm 3 forces of one external invocation of each entry method
    entry_forces: int = 0
    #: Section 3.5 forces saved per sweep across this node's fan-out
    multicall_saved: int = 0
    subordinate_parents: tuple[str, ...] = ()
    #: client forces of intercepted calls whose target never resolved
    #: (Section 3.4: priced persistent)
    unknown_out_forces: float = 0.0


@dataclass
class GraphEdge:
    """Aggregated intercepted calls from ``src`` to ``dst``."""

    src: str
    dst: str
    calls: int = 0  #: loop-weighted intercepted call count per sweep
    client_forces: float = 0.0
    server_forces: float = 0.0
    #: zero-weight new_subordinate affinity (never intercepted, never cut)
    subordinate: bool = False
    lines: tuple[int, ...] = ()

    @property
    def weight(self) -> float:
        """Force traffic the edge prices per sweep (both sides)."""
        return self.client_forces + self.server_forces

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "calls": self.calls,
            "client_forces": self.client_forces,
            "server_forces": self.server_forces,
            "subordinate": self.subordinate,
            "weight": self.weight,
            "lines": list(self.lines),
        }


@dataclass
class InteractionGraph:
    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: dict[tuple[str, str], GraphEdge] = field(default_factory=dict)

    def out_edges(self, name: str) -> list[GraphEdge]:
        return [
            self.edges[key] for key in sorted(self.edges)
            if key[0] == name and not self.edges[key].subordinate
        ]

    def in_edges(self, name: str) -> list[GraphEdge]:
        return [
            self.edges[key] for key in sorted(self.edges)
            if key[1] == name and not self.edges[key].subordinate
        ]

    def affinity_edges(self) -> list[GraphEdge]:
        return [
            self.edges[key] for key in sorted(self.edges)
            if self.edges[key].subordinate
        ]


def _split_edge_forces(
    ctx_declared: str | None, category: str
) -> tuple[int, int]:
    """Per-call ``(client, server)`` forces — the two-sided split of
    the force count ``CostModel`` prices for one optimized edge."""
    if category in ("functional", "read_only"):
        # Algorithm 4: nothing either side; Algorithm 5: an unforced
        # msg-4 record at most
        return 0, 0
    # persistent or unknown target (Section 3.4: priced persistent)
    if ctx_declared == "read_only":
        return 0, 0
    if ctx_declared == "functional":
        return 0, 1  # server pre-reply force
    # persistent caller: msg-3 force (client side), msg-2 force
    # (server side)
    return 1, 1


class _LocalCollector:
    """Context-local edge walk: self-calls and subordinate calls are
    inlined (they run in the caller's context), proxied calls emit an
    edge and stop."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._cost = CostModel(engine)

    def edges(self, class_name: str, method_name: str) -> list[Edge]:
        out: list[Edge] = []
        self._walk(
            class_name, class_name, method_name,
            in_loop=False, seen=set(), out=out,
        )
        return out

    def _walk(self, ctx, impl, method_name, in_loop, seen, out):
        key = (impl, method_name)
        if key in seen:
            return
        seen.add(key)
        facts = self.engine.facts.get(impl)
        if facts is None:
            return
        method = facts.methods.get(method_name)
        if method is None:
            return
        for callee, loop in method.self_calls:
            self._walk(ctx, impl, callee, in_loop or loop, seen, out)
        for call in method.out_calls:
            resolution = self.engine.resolve(facts, call.bases)
            loop = in_loop or call.in_loop
            for sub in sorted(resolution.subordinate):
                self._walk(ctx, sub, call.method, loop, seen, out)
            if not resolution.proxied and not resolution.unknown:
                continue
            category = self.engine_category(resolution, call.method)
            out.append(Edge(
                context=ctx,
                method=call.method,
                targets=tuple(sorted(resolution.proxied)) or ("?",),
                category=category,
                in_loop=loop,
                lineno=call.lineno,
            ))

    def engine_category(self, resolution, method_name: str) -> str:
        return self._cost._category(resolution, method_name, ro_opt=True)


def build_graph(
    model: ProgramModel, loop_weight: int = 4
) -> tuple[InteractionGraph, Engine]:
    """Build the priced interaction graph (and return the engine so the
    planner can reuse its wiring and fixpoints)."""
    engine = Engine(model)
    engine.run_fixpoints()
    graph = InteractionGraph()

    deployed = sorted(
        (engine.wiring.instantiated_classes() | set(engine.sub_parents))
        & set(engine.by_name)
    )
    for name in deployed:
        info = engine.by_name[name]
        sub_only = engine.subordinate_only(name)
        parents = tuple(sorted(engine.sub_parents.get(name, ())))
        if sub_only:
            processes: set[str] = set()
            for parent in parents:
                processes |= engine.wiring.processes_for(parent)
            ctype = "subordinate"
        else:
            processes = engine.wiring.processes_for(name)
            ctype = info.effective_declared or engine.infer_type(name)
        graph.nodes[name] = GraphNode(
            name=name,
            ctype=ctype,
            processes=tuple(sorted(processes)),
            path=info.module.path,
            line=info.node.lineno,
            subordinate_parents=parents,
        )

    collector = _LocalCollector(engine)
    for name in deployed:
        node = graph.nodes[name]
        if node.ctype == "subordinate":
            # a subordinate's calls execute inside its parent's context
            # and are already collected through the parent's walk
            for parent in node.subordinate_parents:
                key = (parent, name)
                edge = graph.edges.get(key)
                if edge is None:
                    edge = graph.edges[key] = GraphEdge(
                        src=parent, dst=name, subordinate=True,
                    )
            continue
        facts = engine.facts[name]
        entry_methods = (
            m for m in sorted(facts.methods) if not m.startswith("_")
        )
        declared = node.ctype
        for method_name in entry_methods:
            method = facts.methods[method_name]
            if declared in ("functional", "read_only"):
                pass  # Algorithms 4/5: stateless entry logs nothing
            elif method.read_only_marked:
                pass  # Algorithm 5
            else:
                node.entry_forces += 2  # Algorithm 3 forces msgs 1+2
            local = collector.edges(name, method_name)
            # Section 3.5: within this one entry execution, distinct
            # server processes after the first skip the pre-send force
            multicall_processes: set[str] = set()
            for edge in local:
                count = loop_weight if edge.in_loop else 1
                c_force, s_force = _split_edge_forces(
                    declared, edge.category
                )
                if (
                    edge.category in ("persistent", "unknown")
                    and not edge.in_loop
                ):
                    for target in edge.targets:
                        multicall_processes |= (
                            engine.wiring.processes_for(target)
                        )
                for target in sorted(set(edge.targets)):
                    if target == "?" or target not in graph.nodes:
                        node.unknown_out_forces += c_force * count
                        continue
                    key = (name, target)
                    agg = graph.edges.get(key)
                    if agg is None:
                        agg = graph.edges[key] = GraphEdge(
                            src=name, dst=target,
                        )
                    agg.calls += count
                    agg.client_forces += c_force * count
                    agg.server_forces += s_force * count
                    if edge.lineno not in agg.lines:
                        agg.lines = tuple(
                            sorted(set(agg.lines) | {edge.lineno})
                        )
            node.multicall_saved += max(0, len(multicall_processes) - 1)
    return graph, engine
