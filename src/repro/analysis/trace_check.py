"""Post-hoc log/trace invariant checker.

Consumes a finished :class:`~repro.log.log_manager.LogManager` stable
stream (via ``scan``, which rides the PR-1 LSN index) plus the process's
:class:`~repro.analysis.trace.ProtocolTrace` and asserts the paper's
commit conditions after the fact:

* **TRC101** — Algorithm 2 (Section 3.1.1): a persistent context's
  receive messages are logged (long, unforced) and nothing leaves the
  context until the log is stable through the send point: at every
  committing send event, ``stable_lsn >= end_lsn``.  In the baseline
  (Algorithm 1) every message is a forced long record.
* **TRC102** — Algorithm 3 (Section 3.1.2): an external client's
  message 1 is a forced long record and its message 2 a forced short
  record, in that order; a short message-2 record with no preceding
  external message-1 record in its context is a protocol break.
* **TRC103** — Algorithms 4/5 (Sections 3.2.2-3.3): stateless
  (functional/read-only) contexts log nothing; calls to functional
  servers log nothing on either side; a read-only call logs only
  message 4, long and unforced.
* **TRC104** — the trace and the stream must agree: every surviving
  traced record decodes at its LSN with the traced kind/shortness, and
  every stable ``MessageRecord`` is claimed by a surviving decision.
* **TRC105** — replay determinism (Section 2): records carrying the
  same call ID and kind (a retry or replay re-log) must be identical;
  :func:`record_signature` additionally fingerprints a whole stream for
  run-vs-run comparison.
* **TRC107** — the *causal* commit condition: at every committing send,
  every record in the send's happens-before cone (per the scheduler's
  vector clocks) is stable.  Strictly weaker than TRC101's whole-log
  prefix — the exact invariant a pipelined/per-session force relaxation
  must preserve.
* **TRC108** — cross-session race freedom: two sessions touching one
  context's state are ordered by a real synchronisation edge (context
  admission, group-commit batch, spawn).

TRC107/TRC108 activate only on vector-clocked (concurrent) traces;
serial traces carry ``vc=None`` and are covered by TRC101-106 alone.

Violations carry the invariant ID and the LSN they anchor to.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..common.messages import MessageKind
from ..common.types import ComponentType
from ..log.records import MessageRecord
from . import vector_clock
from .trace import NO_LSN, CrashMark, ProtocolTrace, TraceEvent

INVARIANTS: dict[str, str] = {
    "TRC101": "Algorithm 2: log receives unforced; force before sends",
    "TRC102": "Algorithm 3: external message 1/2 forced, in order",
    "TRC103": "Algorithms 4/5: stateless peers log only message 4, "
              "unforced",
    "TRC104": "trace and stable stream agree record-for-record",
    "TRC105": "replay/retry regenerates identical records",
    "TRC106": "observed forces per call span stay within the static "
              "cost-model bound",
    "TRC107": "every send's *causal* prefix (happens-before-ordered "
              "records) is stable at its commit point",
    "TRC108": "no two sessions touch one context's state without an "
              "intervening happens-before edge",
    "TRC109": "observed per-span and per-shard force counts stay "
              "within the committed LogPlan's message-logging budgets",
}


@dataclass(frozen=True)
class Violation:
    invariant: str
    lsn: int
    message: str

    def render(self) -> str:
        return f"{self.invariant} @ LSN {self.lsn}: {self.message}"


# ----------------------------------------------------------------------
# per-event conformance (TRC101/TRC102/TRC103)
# ----------------------------------------------------------------------
def _event_violations(event: TraceEvent) -> list[Violation]:
    if event.interrupted:
        # A crash unwound out of this decision's force: no message left
        # the process, so the commit conditions are vacuous here.  The
        # cross-check below still verifies the appended record (if it
        # survived the crash) against the decision.
        return []
    out: list[Violation] = []
    anchor = event.record_lsn if event.record_lsn != NO_LSN else event.end_lsn
    kind = event.kind

    def bad(invariant: str, message: str) -> None:
        out.append(Violation(invariant, anchor, message))

    def expect_nothing(invariant: str, why: str) -> None:
        if event.wrote_record or event.forced:
            bad(invariant, f"message {kind.value} must log nothing ({why}) "
                           f"but wrote_record={event.wrote_record} "
                           f"forced={event.forced}")

    def expect_record(invariant: str, short: bool, why: str) -> None:
        if not event.wrote_record or event.short is not short:
            shape = "short" if short else "long"
            bad(invariant, f"message {kind.value} requires a {shape} "
                           f"record ({why}) but wrote_record="
                           f"{event.wrote_record} short={event.short}")

    def expect_stable(invariant: str, why: str) -> None:
        # Under concurrent sessions ``end_lsn`` can include *another*
        # session's appends sitting after our force; the decision's own
        # commit point is what must be stable.  Serial decisions carry
        # ``commit_lsn is None`` (or equal to ``end_lsn``), so this is
        # the old check there.
        target = (
            event.commit_lsn
            if event.commit_lsn is not None
            else event.end_lsn
        )
        if event.stable_lsn < target:
            bad(invariant, f"message {kind.value} left with "
                           f"{target - event.stable_lsn} unforced "
                           f"bytes (stable {event.stable_lsn} < commit "
                           f"point {target}): {why}")

    def expect_unforced(invariant: str) -> None:
        if event.forced:
            bad(invariant, f"message {kind.value} was forced but the "
                           "algorithm logs it without forcing")

    if not event.optimized:
        # Algorithm 1: every message is a forced long record.
        expect_record("TRC101", short=False, why="Algorithm 1 baseline")
        if not event.forced:
            bad("TRC101", f"baseline message {kind.value} was not forced")
        expect_stable("TRC101", "Algorithm 1 forces every message")
        return out

    ro_peer = event.peer_type is ComponentType.READ_ONLY or (
        event.method_read_only and event.read_only_opt
    )
    if event.context_type.is_stateless:
        expect_nothing(
            "TRC103", "the context is stateless and never recovered"
        )
        return out

    if kind is MessageKind.INCOMING_CALL:
        if ro_peer:
            expect_nothing("TRC103", "read-only call, Algorithm 5")
        elif event.peer_type is ComponentType.EXTERNAL:
            expect_record("TRC102", short=False, why="Algorithm 3")
            expect_stable("TRC102", "Algorithm 3 forces message 1")
        else:
            expect_record("TRC101", short=False, why="Algorithm 2 receive")
            expect_unforced("TRC101")
    elif kind is MessageKind.REPLY_TO_INCOMING:
        if ro_peer:
            expect_nothing("TRC103", "read-only call, Algorithm 5")
        elif event.peer_type is ComponentType.EXTERNAL:
            expect_record("TRC102", short=True, why="Algorithm 3")
            expect_stable("TRC102", "Algorithm 3 forces message 2")
        else:
            if event.wrote_record:
                bad("TRC101", "Algorithm 2 writes no record for "
                              "message 2 (replay re-creates the reply)")
            expect_stable(
                "TRC101", "the reply send commits the server's state"
            )
    elif kind is MessageKind.OUTGOING_CALL:
        if event.peer_type is ComponentType.FUNCTIONAL:
            expect_nothing("TRC103", "functional server, Algorithm 4")
        elif ro_peer:
            expect_nothing("TRC103", "read-only server, Algorithm 5")
        elif event.multicall_skip:
            expect_nothing(
                "TRC103", "multi-call skip, Section 3.5"
            )
        else:
            if event.wrote_record:
                bad("TRC101", "Algorithm 2 writes no record for "
                              "message 3")
            expect_stable(
                "TRC101", "the outgoing call commits the caller's state"
            )
    elif kind is MessageKind.REPLY_FROM_OUTGOING:
        if event.peer_type is ComponentType.FUNCTIONAL:
            expect_nothing("TRC103", "functional server, Algorithm 4")
        else:
            invariant = "TRC103" if ro_peer else "TRC101"
            expect_record(
                invariant,
                short=False,
                why="Algorithm 5 logs the unrepeatable reply"
                if ro_peer
                else "Algorithm 2 receive",
            )
            expect_unforced(invariant)
    return out


# ----------------------------------------------------------------------
# causal invariants over vector-clocked traces (TRC107/TRC108)
# ----------------------------------------------------------------------
def _commit_event(event: TraceEvent) -> bool:
    """Does this event's send commit state — i.e. would
    :func:`_event_violations` demand stability at it?  Mirrors the
    ``expect_stable`` branches exactly, with two extra exemptions:
    ``replaying`` decisions reconstruct pre-crash history (the
    CrashMark already separates the incarnations) and multi-call skips
    are recoverable through the server's last-call table (Section 3.5)
    even while their own message-4 record is volatile."""
    if event.interrupted or event.replaying:
        return False
    if not event.optimized:
        return True  # Algorithm 1 forces every message
    if event.context_type.is_stateless:
        return False
    ro_peer = event.peer_type is ComponentType.READ_ONLY or (
        event.method_read_only and event.read_only_opt
    )
    kind = event.kind
    if kind is MessageKind.INCOMING_CALL:
        return event.peer_type is ComponentType.EXTERNAL and not ro_peer
    if kind is MessageKind.REPLY_TO_INCOMING:
        return not ro_peer
    if kind is MessageKind.OUTGOING_CALL:
        return (
            event.peer_type is not ComponentType.FUNCTIONAL
            and not ro_peer
            and not event.multicall_skip
        )
    return False


class _CausalIndex:
    """Max surviving record LSN inside a happens-before cone.

    Per session, appends arrive with nondecreasing vector-clock
    components, so ``(component, running-max LSN)`` pairs support an
    O(log n) "max LSN among this session's appends visible at view v"
    query.  Serial appends (``vc is None``) happen only while no
    scheduler run is active, so they precede every later session event
    outright — one running max covers them.  A :class:`CrashMark` wipes
    volatile records, so the index rebuilds from the survivors.
    """

    def __init__(self) -> None:
        self._kept: list[TraceEvent] = []
        self._serial_max = NO_LSN
        self._comps: dict[int, list[int]] = {}
        self._maxes: dict[int, list[int]] = {}

    def add(self, event: TraceEvent) -> None:
        if not event.wrote_record or event.record_lsn == NO_LSN:
            return
        self._kept.append(event)
        self._index(event)

    def _index(self, event: TraceEvent) -> None:
        if event.vc is None or event.session is None:
            if event.record_lsn > self._serial_max:
                self._serial_max = event.record_lsn
            return
        comp = vector_clock.component(event.vc, event.session)
        comps = self._comps.setdefault(event.session, [])
        maxes = self._maxes.setdefault(event.session, [])
        prev = maxes[-1] if maxes else NO_LSN
        comps.append(comp)
        maxes.append(max(prev, event.record_lsn))

    def crash(self, mark: CrashMark) -> None:
        survivors = [
            event for event in self._kept
            if event.record_lsn < mark.stable_lsn
        ]
        self._kept = []
        self._serial_max = NO_LSN
        self._comps = {}
        self._maxes = {}
        for event in survivors:
            self._kept.append(event)
            self._index(event)

    def causal_max(self, vc: vector_clock.Snapshot) -> int:
        """Max record LSN among surviving appends happens-before a
        decision observed at snapshot ``vc``."""
        best = self._serial_max
        for session, view in vc:
            comps = self._comps.get(session)
            if not comps:
                continue
            idx = bisect_right(comps, view)
            if idx and self._maxes[session][idx - 1] > best:
                best = self._maxes[session][idx - 1]
        return best

    def witness(self, vc: vector_clock.Snapshot, lsn: int) -> TraceEvent | None:
        for event in self._kept:
            if event.record_lsn == lsn and vector_clock.happens_before(
                event.vc, event.session, vc
            ):
                return event
        return None


def _causal_violations(trace: ProtocolTrace) -> list[Violation]:
    """TRC107: at every committing send, every *causally prior* record
    of this process's log must already be stable.

    This is strictly weaker than TRC101's whole-log-prefix condition —
    records of causally unrelated sessions may stay volatile — and it is
    exactly the constraint ROADMAP item 3's pipelined/per-session forces
    must keep: recoverability only needs the happens-before cone of a
    send on disk (cf. partially constrained transaction logs).  Inert on
    serial traces (``vc is None``), where TRC101 subsumes it.
    """
    out: list[Violation] = []
    index = _CausalIndex()
    for item in trace.entries:
        if isinstance(item, CrashMark):
            index.crash(item)
            continue
        event = item
        if event.vc is not None and _commit_event(event):
            causal_max = index.causal_max(event.vc)
            if causal_max != NO_LSN and causal_max >= event.stable_lsn:
                anchor = (
                    event.record_lsn
                    if event.record_lsn != NO_LSN
                    else event.end_lsn
                )
                prior = index.witness(event.vc, causal_max)
                who = (
                    f"session {prior.session}'s message-"
                    f"{prior.kind.value} record"
                    if prior is not None
                    else "a record"
                )
                out.append(Violation(
                    "TRC107", anchor,
                    f"message {event.kind.value} (session {event.session}) "
                    f"committed while {who} at LSN {causal_max} in its "
                    f"causal prefix was still volatile (stable_lsn "
                    f"{event.stable_lsn})",
                ))
        # The event's own record joins the index *after* the check: its
        # stability is TRC101/TRC102's business, not its own prefix's.
        index.add(event)
    return out


def _race_violations(trace: ProtocolTrace) -> list[Violation]:
    """TRC108: two sessions touching one context's state must be
    ordered by happens-before (context admission, a group-commit batch,
    or a spawn edge) — a real race detector over the per-session exec
    stacks.  Serial accesses (main thread) are totally ordered with
    every session event and reset the tracking; a CrashMark wipes the
    process, so pre-crash accesses cannot race post-recovery ones.
    """
    out: list[Violation] = []
    last: dict[int, dict[int, TraceEvent]] = {}
    for item in trace.entries:
        if isinstance(item, CrashMark):
            last.clear()
            continue
        event = item
        if event.interrupted or event.replaying:
            continue
        if event.session is None or event.vc is None:
            # Main-thread access: the scheduler is not running, so this
            # is ordered with every session event on both sides.
            last[event.context_id] = {}
            continue
        peers = last.setdefault(event.context_id, {})
        for other, prior in peers.items():
            if other == event.session:
                continue
            if not vector_clock.happens_before(
                prior.vc, prior.session, event.vc
            ):
                anchor = (
                    event.record_lsn
                    if event.record_lsn != NO_LSN
                    else event.end_lsn
                )
                out.append(Violation(
                    "TRC108", anchor,
                    f"sessions {prior.session} and {event.session} both "
                    f"touch context {event.context_id} (message "
                    f"{prior.kind.value}, then message "
                    f"{event.kind.value}) with no happens-before edge "
                    "between them",
                ))
        peers[event.session] = event
    return out


# ----------------------------------------------------------------------
# stream-only checks (TRC102 ordering, TRC105 identity)
# ----------------------------------------------------------------------
def _stream_violations(
    records: list[tuple[int, object]], complete_history: bool = True
) -> list[Violation]:
    out: list[Violation] = []
    # TRC102: a short message-2 record pairs with a preceding external
    # message-1 record in the same context.  (Short records exist only
    # in the optimized system, so this is inert on baseline logs.)
    # Only checkable on a complete stream: log truncation legitimately
    # drops a message-1 record while its short reply survives.
    pending_external: dict[int, int | None] = {}
    # TRC105: same (kind, call_id) -> identical message payload.
    seen: dict[tuple, tuple[int, object]] = {}
    for lsn, record in records:
        if not isinstance(record, MessageRecord):
            continue
        context_id = record.context_id
        if (
            record.kind is MessageKind.INCOMING_CALL
            and record.message is not None
            and record.message.call_id is None
        ):
            pending_external[context_id] = lsn
        elif record.kind is MessageKind.REPLY_TO_INCOMING and record.short:
            if pending_external.get(context_id) is None and complete_history:
                out.append(Violation(
                    "TRC102", lsn,
                    f"short message-2 record in context {context_id} "
                    "has no preceding external message-1 record",
                ))
            else:
                pending_external[context_id] = None
        if record.message is not None:
            call_id = getattr(record.message, "call_id", None)
            if call_id is not None:
                key = (record.kind, call_id)
                if key in seen:
                    first_lsn, first_message = seen[key]
                    if first_message != record.message:
                        out.append(Violation(
                            "TRC105", lsn,
                            f"message {record.kind.value} for call "
                            f"{call_id} differs from the copy at LSN "
                            f"{first_lsn}; replay is not regenerating "
                            "identical messages",
                        ))
                else:
                    seen[key] = (lsn, record.message)
    return out


# ----------------------------------------------------------------------
# trace <-> stream cross-check (TRC104)
# ----------------------------------------------------------------------
def _cross_check(
    events: list[TraceEvent],
    records: list[tuple[int, object]],
    base_lsn: int,
    stable_lsn: int,
) -> list[Violation]:
    out: list[Violation] = []
    by_lsn = {
        lsn: record
        for lsn, record in records
        if isinstance(record, MessageRecord)
    }
    claimed: set[int] = set()
    for event in events:
        if not event.wrote_record or event.record_lsn == NO_LSN:
            continue
        if event.record_lsn < base_lsn:
            continue  # truncated away by log garbage collection
        if event.record_lsn >= stable_lsn:
            continue  # still volatile; nothing to check on disk
        record = by_lsn.get(event.record_lsn)
        if record is None:
            out.append(Violation(
                "TRC104", event.record_lsn,
                f"traced message-{event.kind.value} record is missing "
                "from the stable stream",
            ))
            continue
        claimed.add(event.record_lsn)
        if (
            record.kind is not event.kind
            or bool(record.short) is not event.short
            or record.context_id != event.context_id
        ):
            out.append(Violation(
                "TRC104", event.record_lsn,
                f"stable record (message {record.kind.value}, "
                f"short={record.short}, context {record.context_id}) "
                f"does not match the traced decision (message "
                f"{event.kind.value}, short={event.short}, context "
                f"{event.context_id})",
            ))
    for lsn, record in by_lsn.items():
        if lsn not in claimed:
            out.append(Violation(
                "TRC104", lsn,
                f"stable message-{record.kind.value} record was not "
                "produced by any surviving policy decision",
            ))
    return out


# ----------------------------------------------------------------------
# static force-bound cross-check (TRC106)
# ----------------------------------------------------------------------
def _top_level_spans(
    entries: list,
) -> list[tuple[TraceEvent, list[TraceEvent]]]:
    """Closed top-level call spans of one process trace.

    Under the deterministic concurrent scheduler one process trace
    interleaves decisions from several sessions; events within a session
    are still synchronous, so the trace is first partitioned by
    ``TraceEvent.session`` and the span walk runs per session.  A crash
    wipes the whole process, so each :class:`CrashMark` fans out to
    every session's stream.  Serial traces carry ``session=None``
    throughout — one group, identical behavior to the ungrouped walk.
    """
    groups: dict[int | None, list] = {}
    order: list[int | None] = []
    for item in entries:
        if isinstance(item, CrashMark):
            for key in order:
                groups[key].append(item)
            continue
        key = item.session
        group = groups.get(key)
        if group is None:
            group = groups[key] = []
            order.append(key)
        group.append(item)
    spans: list[tuple[TraceEvent, list[TraceEvent]]] = []
    for key in order:
        spans.extend(_session_spans(groups[key]))
    return spans


def _session_spans(
    entries: list,
) -> list[tuple[TraceEvent, list[TraceEvent]]]:
    """Span walk over one session's (or a serial trace's) entries: a
    span runs from an ``INCOMING_CALL`` at nesting depth zero to its
    matching ``REPLY_TO_INCOMING`` (same-process nested calls push and
    pop context frames in between).  Crashes and interrupted decisions
    unwind the open span, which is discarded: its force count is
    partial and the bound says nothing about it.
    """
    spans: list[tuple[TraceEvent, list[TraceEvent]]] = []
    stack: list[int] = []
    entry_event: TraceEvent | None = None
    current: list[TraceEvent] = []
    for item in entries:
        if isinstance(item, CrashMark):
            stack, entry_event, current = [], None, []
            continue
        event = item
        if entry_event is None:
            if (
                event.kind is MessageKind.INCOMING_CALL
                and not event.interrupted
            ):
                entry_event = event
                current = [event]
                stack = [event.context_id]
            continue
        current.append(event)
        if event.interrupted:
            stack, entry_event, current = [], None, []
            continue
        if event.kind is MessageKind.INCOMING_CALL:
            stack.append(event.context_id)
        elif event.kind is MessageKind.REPLY_TO_INCOMING:
            if not stack or stack[-1] != event.context_id:
                # mismatched nesting — give up on this span
                stack, entry_event, current = [], None, []
                continue
            stack.pop()
            if not stack:
                spans.append((entry_event, current))
                entry_event, current = None, []
    return spans


def _entry_force_bound(event: TraceEvent) -> int:
    """Max forces Algorithms 1-5 allow for the entry call's own
    message-1/message-2 pair, from the entry event's flags."""
    if not event.optimized:
        return 2  # Algorithm 1 forces both
    if event.context_type.is_stateless:
        return 0  # Algorithms 4/5: stateless server logs nothing
    if event.peer_type is ComponentType.READ_ONLY or (
        event.method_read_only and event.read_only_opt
    ):
        return 0  # Algorithm 5
    if event.peer_type is ComponentType.EXTERNAL:
        return 2  # Algorithm 3 forces messages 1 and 2
    return 1  # Algorithm 2: unforced receive, one pre-reply force


def check_force_bounds(
    trace: ProtocolTrace, bounds, process_name: str
) -> list[Violation]:
    """TRC106: replay the trace's call spans against the static cost
    model (``CostModel.force_bounds()``; any object with a
    ``for_span(process, method) -> ratios`` lookup works).

    Per closed span the sound bound is ``entry_forces + ratio ×
    (events - 2)`` — every intercepted call contributes at least two
    span events and at most ``ratio`` forces per event (0 for
    read-only/functional targets, 1/2 for persistent ones).  A forced
    outgoing call whose server type was still *unknown* is Section
    3.4's legitimate cold-start conservatism, not an over-force; each
    such event earns one extra allowed force (warm-started runs have
    none, so their bound is tighter).
    """
    violations: list[Violation] = []
    for entry_event, events in _top_level_spans(trace.entries):
        method = entry_event.method
        if method is None:
            continue
        span = bounds.for_span(process_name, method)
        if span is None:
            continue  # not a statically modeled entry point
        if not entry_event.optimized:
            # Algorithm 1 forces every message regardless of types:
            # one force per event, no cold-start concept
            ratio, cold = 1.0, 0
        else:
            if entry_event.read_only_opt:
                ratio = span.ratio_ro_on
            else:
                ratio = span.ratio_ro_off
            cold = sum(
                1
                for event in events
                if event.kind is MessageKind.OUTGOING_CALL
                and event.peer_type is None
                and event.forced
            )
        limit = (
            _entry_force_bound(entry_event)
            + cold
            + ratio * max(0, len(events) - 2 - 2 * cold)
        )
        observed = sum(1 for event in events if event.forced)
        if observed > limit + 1e-9:
            anchor = (
                entry_event.record_lsn
                if entry_event.record_lsn != NO_LSN
                else entry_event.end_lsn
            )
            violations.append(Violation(
                "TRC106", anchor,
                f"span {method}() on {process_name}: {observed} forces "
                f"over {len(events)} events exceeds the static bound "
                f"{limit:g} (ratio {ratio:g}, {cold} cold-start "
                "forces allowed)",
            ))
    return violations


def check_runtime_force_bounds(runtime, bounds) -> list[tuple[str, Violation]]:
    """TRC106 over every process of a runtime."""
    problems: list[tuple[str, Violation]] = []
    for process in runtime.processes():
        for trace in _process_traces(process):
            for violation in check_force_bounds(
                trace, bounds, process.name
            ):
                problems.append((process.name, violation))
    return problems


def _process_traces(process) -> list:
    """Every protocol trace of a process: one per log stream under
    sharded logging, the single legacy trace otherwise."""
    streams = getattr(process, "streams", None)
    if streams is None:
        trace = getattr(process, "protocol_trace", None)
        return [] if trace is None else [trace]
    return [stream.trace for stream in streams]


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def check_log(log, trace: ProtocolTrace | None = None) -> list[Violation]:
    """Check one finished log (and its trace, when available)."""
    try:
        records = list(log.scan(log.base_lsn))
    except Exception:
        # A torn tail awaiting recovery's repair pass: the stream is not
        # finished, so there is nothing to assert yet.
        records = None
    violations: list[Violation] = []
    if records is not None:
        violations.extend(
            _stream_violations(records, complete_history=log.base_lsn == 0)
        )
    if trace is not None:
        for event in trace.events():
            violations.extend(_event_violations(event))
        violations.extend(_causal_violations(trace))
        violations.extend(_race_violations(trace))
        if records is not None:
            violations.extend(_cross_check(
                trace.surviving_events(), records,
                log.base_lsn, log.stable_lsn,
            ))
    violations.sort(key=lambda v: (v.lsn, v.invariant))
    return violations


def check_process(process) -> list[Violation]:
    streams = getattr(process, "streams", None)
    if streams is None:
        return check_log(
            process.log, getattr(process, "protocol_trace", None)
        )
    violations: list[Violation] = []
    for stream in streams:
        violations.extend(check_log(stream.log, stream.trace))
    return violations


def check_runtime(runtime) -> list[tuple[str, Violation]]:
    """Check every process of a runtime; returns (process name,
    violation) pairs."""
    problems: list[tuple[str, Violation]] = []
    for process in runtime.processes():
        for violation in check_process(process):
            problems.append((process.name, violation))
    return problems


def record_signature(log) -> tuple:
    """A deterministic fingerprint of a stable stream, for run-vs-run
    comparison: two identical executions must produce equal
    signatures."""
    signature = []
    for lsn, record in log.scan(log.base_lsn):
        if isinstance(record, MessageRecord):
            message = record.message
            signature.append((
                lsn,
                "Message",
                record.kind.value,
                bool(record.short),
                record.context_id,
                repr(getattr(message, "call_id", None)),
                getattr(message, "method", None),
            ))
        else:
            signature.append((lsn, type(record).__name__))
    return tuple(signature)
