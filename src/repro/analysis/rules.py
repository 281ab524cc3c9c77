"""The conformance rule registry.

Each static lint rule (``PHX``) and each trace invariant (``TRC``) maps
back to the paper section or algorithm whose guarantee it protects; the
mapping is documented in ``docs/internals.md`` ("Protocol conformance
analysis").  Lint rules carry a fix-it message that the CLI prints next
to every finding.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One static lint rule."""

    rule_id: str
    title: str
    fixit: str
    paper_ref: str


_RULES = [
    Rule(
        "PHX001",
        "nondeterministic call in a component method",
        "derive the value deterministically (pass it in as an argument, "
        "or read it from the simulated clock/runtime)",
        "Section 2 (piece-wise determinism; replay must regenerate "
        "identical executions)",
    ),
    Rule(
        "PHX002",
        "direct file/socket/process I/O in a component method",
        "route external actions through a component call so the "
        "interceptor can log them; raw I/O is invisible to replay",
        "Sections 2 and 2.4 (interactions must be intercepted messages)",
    ),
    Rule(
        "PHX003",
        "iteration over an unordered set in a component method",
        "iterate a list, or wrap the set in sorted(...) so replay visits "
        "elements in the same order",
        "Section 2 (piece-wise determinism)",
    ),
    Rule(
        "PHX004",
        "stable-store or DurableLog write bypassing LogManager",
        "persist through the process's LogManager (process.log_append / "
        "log_force); ad-hoc stable writes escape recovery and "
        "truncation",
        "Section 4.1 (the log is the single stable representation)",
    ),
    Rule(
        "PHX005",
        "direct log append/force bypassing the policy force hook",
        "call process.log_append / process.log_force (which the "
        "LoggingPolicy and checkpointing drive) instead of touching "
        "process.log directly",
        "Algorithms 2/3 commit conditions (policy.py decides every "
        "force)",
    ),
    Rule(
        "PHX006",
        "stateless-declared component mutates its own state",
        "declare the class @persistent (or @subordinate), or remove the "
        "mutation: functional/read-only components are never recovered, "
        "so state written to them is silently lost on failure",
        "Sections 3.2.2/3.2.3 (functional and read-only components are "
        "stateless and log nothing)",
    ),
    Rule(
        "PHX007",
        "@read_only_method assigns to self",
        "drop the read-only attribute or the mutation: Algorithm 5 skips "
        "logging for read-only calls, so the mutation would not be "
        "replayed",
        "Section 3.3 (read-only methods must not change component "
        "state)",
    ),
    # PHX010-012 come from the whole-program inference engine
    # (repro-analyze infer), not the per-file lint pass.
    Rule(
        "PHX010",
        "declared component type is provably unsafe",
        "the finding message names the safe declaration; stateless and "
        "read-only components must never carry or write state the "
        "protocol would not recover",
        "Sections 3.1-3.3 (each type's safety argument; Algorithms 2-5 "
        "log strictly less for cheaper types)",
    ),
    Rule(
        "PHX011",
        "a provably safe cheaper component type is available",
        "downgrade the declaration as the finding message describes to "
        "save the quoted forces/records per call (or suppress with a "
        "pragma if the costlier type is deliberate)",
        "Sections 3.2-3.3, Table 8 (cheapest safe type wins the "
        "logging comparison)",
    ),
    Rule(
        "PHX012",
        "method eligible for @read_only_method marking",
        "mark the method @read_only_method so Algorithm 5 can skip the "
        "caller's force and the callee's log record (or suppress with "
        "a pragma if the marking is deliberately withheld)",
        "Section 3.3, Algorithms 4-5 (read-only call optimization)",
    ),
    # PHX013 comes from the durability-site coverage scan
    # (repro-analyze sites), not the per-file lint pass.
    Rule(
        "PHX013",
        "durability site family without a covering scheduler yield point",
        "register the site family under a yield tag in "
        "repro.concurrency.tags (YIELD_TAGS covers=...), add it to "
        "EXEMPT_SITE_FAMILIES with a rationale, or add a sched_yield "
        "at the boundary: the schedule explorer cannot interleave or "
        "crash-compose a boundary the scheduler never parks at",
        "Section 2.3 (crash points are the interesting schedule "
        "points; exploration must reach every durability boundary)",
    ),
    # PHX015-016 come from the shard planner (repro-analyze plan), not
    # the per-file lint pass.  The ID between PHX013 and PHX015 is
    # retired and never reused.
    Rule(
        "PHX015",
        "hot cross-shard edge exceeds the shard-cut threshold",
        "co-shard the two components (they share a process signature, "
        "so the cut is avoidable), or raise --cut-threshold if the "
        "partition is deliberate",
        "Section 3.5 + ROADMAP item 1 (cross-log force traffic is the "
        "multi-log scale-out's unit of cost)",
    ),
    Rule(
        "PHX016",
        "deploy wiring disagrees with the committed log plan",
        "regenerate the committed plan (make plan-write) after wiring "
        "changes, or fix the apps/*/deploy wiring to match the planned "
        "placement",
        "ROADMAP item 1 (the plan is the contract the multi-log "
        "runtime implements against; drift silently unplans "
        "components)",
    ),
]

RULES: dict[str, Rule] = {rule.rule_id: rule for rule in _RULES}
