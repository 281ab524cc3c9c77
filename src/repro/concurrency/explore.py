"""Schedule-space model checking: stateless DPOR over yield points.

The deterministic scheduler makes exactly one nondeterministic decision
— which READY session resumes at each yield point — so the space of
behaviours a concurrent workload can exhibit *is* the space of choice
sequences.  This module explores that space exhaustively (up to
Mazurkiewicz equivalence) with stateless dynamic partial-order
reduction in the style of Flanagan & Godefroid:

1. Run the workload under a :class:`ControlledPolicy` — a forced choice
   prefix, then smallest-READY-first — recording every
   :class:`ScheduleStep` with its *footprint* (the process names whose
   log or state the step touched).
2. Two steps of different sessions are **dependent** iff their
   footprints intersect; dependent ∪ same-session edges generate the
   happens-before relation of the run.  For every *race* — a dependent
   pair with no intervening happens-before chain — add the later
   session to the **backtrack set** of the node where the earlier step
   was chosen (or every enabled session when it was not yet enabled
   there).
3. Depth-first: re-run from the deepest node with an untried backtrack
   choice, truncating the node stack below it.  **Sleep sets** prune
   re-exploration: a fully-explored sibling choice stays asleep down
   the new branch until a step's footprint intersects its own.

Every explored schedule runs the full conformance oracle
(TRC101–TRC108 via :func:`check_runtime`); a violating or crashing
schedule is reported as a replayable SCHEDULE_ID which
``repro-explore run <SCHEDULE_ID>`` reproduces byte-identically (same
stable logs, same traces, same clock).  Exploration composes with
armed crash points: the one-shot :class:`CrashSpec` re-fires at the
same step of every re-run, so the explorer enumerates *schedules
around the crash*.

The built-in workload (``ledger``) is deliberately small: N sessions,
each incrementing a private counter on its own process and posting to
one shared ledger process.  Private steps commute (disjoint
footprints); only the shared-ledger touches conflict, so DPOR
collapses the exponential interleaving space to the few orders of the
shared operations — the pruning ratio the smoke target asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core import PersistentComponent, PhoenixRuntime, persistent
from ..core.config import RuntimeConfig
from ..errors import ComponentUnavailableError, RecoveryError
from ..faults.plane import CrashSpec, FaultPlane, installed
from .policies import ControlledPolicy, ReplayPolicy, ScheduleStep
from .scheduler import DeterministicScheduler

#: Driver retry budget per step, mirroring the sweep workloads.
MAX_ATTEMPTS = 30

#: Base-36 digits used to encode choice sequences in SCHEDULE_IDs.
_B36 = "0123456789abcdefghijklmnopqrstuvwxyz"


# ----------------------------------------------------------------------
# the explore workload
# ----------------------------------------------------------------------
@persistent
class SharedLedger(PersistentComponent):
    """The one component every session touches: the conflict source."""

    def __init__(self):
        self.entries: list = []

    def post(self, who: str, amount: int) -> int:
        self.entries.append((who, amount))
        return len(self.entries)


@persistent
class PrivateCounter(PersistentComponent):
    """Per-session state on a per-session process: commutes with
    everything except its own process."""

    def __init__(self):
        self.count = 0

    def increment(self) -> int:
        self.count += 1
        return self.count


@dataclass
class RunResult:
    """One schedule's complete observable outcome."""

    choices: list[int]
    steps: list[ScheduleStep]
    replies: object
    violations: list[str]
    fingerprint: dict[str, bytes]
    fired: list[str]
    error: str | None = None
    #: Site-hit journal (record mode only) — crash-sweep composition
    #: derives its armed specs from this.
    journal: list = field(default_factory=list)


def _run_ledger(
    config: RuntimeConfig,
    n_sessions: int,
    policy,
    specs: tuple[CrashSpec, ...] = (),
    record: bool = False,
) -> RunResult:
    """The ledger script under an arbitrary runtime config (shared by
    the registered workload variants below)."""
    from ..analysis.trace_check import check_runtime
    from ..faults.workloads import (
        _determinism_fingerprint,
        _ensure_all_recovered,
    )

    runtime = PhoenixRuntime(config=config)
    runtime.external_client_machine = "alpha"
    shared_process = runtime.spawn_process("shared", machine="beta")
    ledger = shared_process.create_component(SharedLedger)
    counters = []
    for index in range(n_sessions):
        process = runtime.spawn_process(f"private-{index}", machine="beta")
        counters.append(process.create_component(PrivateCounter))

    def make_session(index: int):
        counter = counters[index]
        # Conflicting call first, commuting calls after: races stay
        # near the root of the schedule tree (cheap to reverse), while
        # the private suffix is where naive enumeration goes
        # exponential and DPOR prunes.
        calls = (
            lambda: ledger.post(f"s{index}", index),
            lambda: counter.increment(),
            lambda: counter.increment(),
        )

        def session() -> list:
            replies = []
            for call in calls:
                for __ in range(MAX_ATTEMPTS):
                    try:
                        replies.append(call())
                        break
                    except (ComponentUnavailableError, ConnectionError):
                        continue
                else:
                    raise RecoveryError(
                        f"ledger session {index} exhausted {MAX_ATTEMPTS} "
                        f"attempts (specs={specs!r})"
                    )
            return replies

        return session

    plane = FaultPlane(specs=tuple(specs), record=record)
    plane.bind(runtime)
    scheduler = DeterministicScheduler(runtime, policy=policy)
    error: str | None = None
    replies: object = None
    with installed(plane):
        try:
            replies = scheduler.run(
                [make_session(i) for i in range(n_sessions)]
            )
            _ensure_all_recovered(runtime)
        except Exception as exc:  # a counterexample, not an abort
            error = f"{type(exc).__name__}: {exc}"
    violations = [
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime(runtime)
    ]
    # Non-recording policies (the seeded default) have no step log;
    # exploration and replay always use a recording policy.
    steps = list(getattr(policy, "steps", ()))
    return RunResult(
        choices=[step.chosen for step in steps],
        steps=steps,
        replies=replies,
        violations=violations,
        fingerprint=_determinism_fingerprint(runtime),
        fired=[spec.render() for spec in plane.fired],
        error=error,
        journal=list(plane.journal),
    )


def run_ledger(
    n_sessions: int,
    policy,
    specs: tuple[CrashSpec, ...] = (),
    record: bool = False,
) -> RunResult:
    """N external sessions, each: private increment, shared post,
    private increment.  Group commit stays off — the batch window
    couples otherwise-independent sessions through the simulated
    clock, which would make *every* pair of steps dependent and
    DPOR-pointless."""
    return _run_ledger(
        RuntimeConfig.optimized(group_commit=False),
        n_sessions, policy, specs=specs, record=record,
    )


def run_ledger_pipelined(
    n_sessions: int,
    policy,
    specs: tuple[CrashSpec, ...] = (),
    record: bool = False,
) -> RunResult:
    """The same script under ``pipelined_commit`` with a zero-width
    batch window: batches close the moment their leader blocks, so no
    simulated-clock sleep ever couples otherwise-independent sessions
    (footprint-based dependence stays sound), while the causal commit
    points, the gated sends, and the ``log.submit`` in-flight state all
    enter the explored space."""
    return _run_ledger(
        RuntimeConfig.optimized(
            group_commit=True,
            pipelined_commit=True,
            group_commit_window_ms=0.0,
        ),
        n_sessions, policy, specs=specs, record=record,
    )


#: Registry of explorable workloads (name -> callable with the
#: ``run_ledger`` signature).  SCHEDULE_IDs embed the registry key.
EXPLORE_WORKLOADS: dict[str, Callable[..., RunResult]] = {
    "ledger": run_ledger,
    "ledger-pipelined": run_ledger_pipelined,
}


def derive_crash_specs(
    workload: str = "ledger", n_sessions: int = 2, limit: int = 3
) -> list[CrashSpec]:
    """Golden-run the workload with a recording plane and pick a spread
    of durability-boundary crash points to compose with exploration."""
    run = EXPLORE_WORKLOADS[workload](
        n_sessions, ControlledPolicy([]), record=True
    )
    hits = [
        hit for hit in run.journal
        if hit.site.startswith("log.force.before:")
    ]
    if not hits or limit <= 0:
        return []
    stride = max(1, len(hits) // limit)
    picked = hits[::stride][:limit]
    return [CrashSpec(hit.site, hit.occurrence) for hit in picked]


# ----------------------------------------------------------------------
# SCHEDULE_IDs
# ----------------------------------------------------------------------
def encode_schedule_id(
    workload: str,
    n_sessions: int,
    choices: Sequence[int],
    specs: Sequence[CrashSpec] = (),
) -> str:
    """``phxsched|v1|<workload>|n<N>[|crash=spec,...]|<choices>`` with
    one base-36 digit per scheduling choice."""
    if any(c < 0 or c >= len(_B36) for c in choices):
        raise ValueError("session index out of base-36 digit range")
    payload = "".join(_B36[c] for c in choices) or "-"
    parts = ["phxsched", "v1", workload, f"n{n_sessions}"]
    if specs:
        parts.append("crash=" + ",".join(spec.render() for spec in specs))
    parts.append(payload)
    return "|".join(parts)


def decode_schedule_id(
    schedule_id: str,
) -> tuple[str, int, tuple[CrashSpec, ...], list[int]]:
    parts = schedule_id.split("|")
    if len(parts) < 5 or parts[0] != "phxsched" or parts[1] != "v1":
        raise ValueError(f"not a v1 SCHEDULE_ID: {schedule_id!r}")
    workload, n_text = parts[2], parts[3]
    if workload not in EXPLORE_WORKLOADS:
        raise ValueError(f"unknown explore workload {workload!r}")
    if not n_text.startswith("n"):
        raise ValueError(f"bad session-count field {n_text!r}")
    n_sessions = int(n_text[1:])
    specs: tuple[CrashSpec, ...] = ()
    rest = parts[4:]
    if rest[0].startswith("crash="):
        specs = tuple(
            CrashSpec.parse(text)
            for text in rest[0][len("crash="):].split(",")
        )
        rest = rest[1:]
    if len(rest) != 1:
        raise ValueError(f"malformed SCHEDULE_ID {schedule_id!r}")
    payload = rest[0]
    choices = [] if payload == "-" else [_B36.index(ch) for ch in payload]
    return workload, n_sessions, specs, choices


def run_schedule(schedule_id: str) -> RunResult:
    """Re-execute one explored schedule exactly (ReplayPolicy)."""
    workload, n_sessions, specs, choices = decode_schedule_id(schedule_id)
    policy = ReplayPolicy(choices)
    return EXPLORE_WORKLOADS[workload](n_sessions, policy, specs=specs)


def verify_schedule(schedule_id: str) -> tuple[RunResult, list[str]]:
    """Run a SCHEDULE_ID twice; return the first run and the keys of
    any fingerprint artifacts that differ (empty = byte-identical)."""
    first = run_schedule(schedule_id)
    second = run_schedule(schedule_id)
    keys = sorted(set(first.fingerprint) | set(second.fingerprint))
    diverged = [
        key
        for key in keys
        if first.fingerprint.get(key) != second.fingerprint.get(key)
    ]
    if first.choices != second.choices:
        diverged.append("choices")
    return first, diverged


# ----------------------------------------------------------------------
# the DPOR explorer
# ----------------------------------------------------------------------
@dataclass
class _Node:
    """One decision point on the current DFS path."""

    enabled: tuple[int, ...]
    #: choice -> footprint of the step it produced (explored subtrees).
    done: dict[int, frozenset] = field(default_factory=dict)
    #: sessions worth trying here (race analysis writes these).
    backtrack: set[int] = field(default_factory=set)
    #: fully-explored sibling choices still commuting with everything
    #: since their node: re-running them reproduces a seen schedule.
    sleep: dict[int, frozenset] = field(default_factory=dict)

    def candidates(self) -> list[int]:
        return sorted(
            c for c in self.backtrack
            if c not in self.done and c not in self.sleep
        )


@dataclass
class Counterexample:
    schedule_id: str
    violations: list[str]
    error: str | None


@dataclass
class ExploreResult:
    workload: str
    n_sessions: int
    specs: tuple[CrashSpec, ...]
    naive: bool
    #: schedules actually executed.
    schedules: int = 0
    #: True when the (reduced) space was exhausted within budget.
    complete: bool = False
    max_depth: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _happens_before_masks(steps: list[ScheduleStep]) -> list[int]:
    """masks[i] = bitmask of steps happens-before step i (transitive
    closure of program order ∪ footprint dependence)."""
    masks = [0] * len(steps)
    for i, step in enumerate(steps):
        mask = 0
        for j in range(i):
            prior = steps[j]
            if prior.chosen == step.chosen or (prior.touched & step.touched):
                mask |= masks[j] | (1 << j)
        masks[i] = mask
    return masks


def _update_backtracks(steps: list[ScheduleStep], nodes: list[_Node]) -> None:
    """Flanagan–Godefroid race analysis over one recorded run: for
    every *immediate* racing pair (j, i) — dependent, different
    sessions, no happens-before chain through an intermediate step —
    schedule the later session for exploration at the earlier node."""
    masks = _happens_before_masks(steps)
    for i, step in enumerate(steps):
        for j in range(i):
            prior = steps[j]
            if prior.chosen == step.chosen:
                continue
            if not (prior.touched & step.touched):
                continue
            immediate = True
            for k in range(j + 1, i):
                if (masks[k] >> j) & 1 and (masks[i] >> k) & 1:
                    immediate = False
                    break
            if not immediate:
                continue
            node = nodes[j]
            if step.chosen in node.enabled:
                node.backtrack.add(step.chosen)
            else:
                node.backtrack.update(node.enabled)


def _child_sleep(parent: _Node, taken: int, footprint: frozenset) -> dict:
    """Sleep-set propagation: siblings already fully explored at the
    parent stay asleep below iff the parent's step commutes with them
    (footprint-disjoint).  Entries with an unknown (empty-from-error)
    footprint are conservatively dropped — woken, never pruned."""
    sleep: dict[int, frozenset] = {}
    inherited = dict(parent.sleep)
    for choice, fp in parent.done.items():
        if choice != taken:
            inherited[choice] = fp
    for choice, fp in inherited.items():
        if choice == taken:
            continue
        if fp and not (fp & footprint):
            sleep[choice] = fp
    return sleep


def explore(
    workload: str = "ledger",
    n_sessions: int = 2,
    specs: tuple[CrashSpec, ...] = (),
    max_schedules: int = 1000,
    naive: bool = False,
    stop_on_violation: bool = True,
    log: Callable[[str], None] | None = None,
) -> ExploreResult:
    """Depth-first schedule exploration with DPOR (or, with ``naive``,
    full enumeration of the interleaving tree for ratio comparison)."""
    run_workload = EXPLORE_WORKLOADS[workload]
    result = ExploreResult(
        workload=workload, n_sessions=n_sessions, specs=tuple(specs),
        naive=naive,
    )
    nodes: list[_Node] = []
    prefix: list[int] = []
    while result.schedules < max_schedules:
        policy = ControlledPolicy(prefix)
        run = run_workload(n_sessions, policy, specs=specs)
        result.schedules += 1
        steps = run.steps
        result.max_depth = max(result.max_depth, len(steps))
        if run.violations or run.error:
            result.counterexamples.append(Counterexample(
                schedule_id=encode_schedule_id(
                    workload, n_sessions, run.choices, specs
                ),
                violations=run.violations,
                error=run.error,
            ))
            if log is not None:
                log(
                    f"counterexample at schedule {result.schedules}: "
                    f"{run.violations or run.error}"
                )
            if stop_on_violation:
                return result
        # Grow the node stack along this run and mark taken choices.
        for depth, step in enumerate(steps):
            if depth == len(nodes):
                if depth == 0:
                    sleep: dict[int, frozenset] = {}
                else:
                    sleep = _child_sleep(
                        nodes[depth - 1],
                        steps[depth - 1].chosen,
                        steps[depth - 1].touched,
                    )
                nodes.append(_Node(enabled=step.enabled, sleep=sleep))
            node = nodes[depth]
            # An errored run may stop mid-step; record what we saw so
            # the choice is not retried forever (unknown footprint =
            # frozenset(), which sleep handling treats conservatively).
            node.done[step.chosen] = step.touched
            if naive:
                node.backtrack.update(step.enabled)
        if len(steps) < len(nodes):
            del nodes[len(steps):]
        if not naive:
            _update_backtracks(steps, nodes)
        # Deepest node with an untried, non-sleeping backtrack choice.
        depth = len(nodes) - 1
        next_choice: int | None = None
        while depth >= 0:
            candidates = nodes[depth].candidates()
            if candidates:
                next_choice = candidates[0]
                break
            depth -= 1
        if next_choice is None:
            result.complete = True
            return result
        prefix = [step.chosen for step in steps[:depth]] + [next_choice]
        del nodes[depth + 1:]
    return result
