"""Per-component, REDO-only recovery: the one replay engine.

The paper's recovery (Section 4.4, Table 7) is stop-the-world: a crashed
process replays its whole log before admitting a single call.  Following
Sauer & Härder's REDO-only instant restart and Lomet's
performance-competitive logical recovery, every restart here is
*analysis, then per-component chain replay*; eager recovery is that same
replay with admission held until the drain is done.

1. **Analysis** (:meth:`RecoveryManager.recover`): repair each stream's
   tail, re-mark, seed the tables from the checkpoint, restore
   state-record contexts, register a shell for every discovered context
   and build this module's :class:`PendingRecovery` watermark table.

2. **Per-component replay**: each component's not-yet-applied frame
   chain comes from its stream's per-component index
   (:meth:`LogManager.component_chains`) and is replayed with the reply
   cache intact (:meth:`PendingRecovery._replay_component`).  Before
   delivering any call the runtime consults the table
   (:meth:`PendingRecovery.ensure_component`); an unapplied target is
   replayed first, so duplicate detection finds the regenerated reply.

3. **Drain**, by configuration:

   * *eager* (the paper's model): the process stays RECOVERING while
     :meth:`PendingRecovery.drain_all` replays every component — the
     only calls delivered meanwhile are those a replay makes when it
     goes live;
   * *on-demand* (``config.on_demand_recovery``): the process leaves
     RECOVERING right after analysis; under the deterministic scheduler
     :data:`DRAIN_WORKERS` system sessions replay the rest in the
     background, and ``ensure_recovered`` drains whatever is left;
   * *sharded eager under a scheduler session*: one drain session per
     stream replays that stream's shard, lazy first-touch admission
     covering the window.

   Outside a scheduler session a sharded process drains as one clock
   lane per stream (:meth:`PendingRecovery.drain_lanes`), so the drain
   takes as long as the largest remaining shard.

The watermark table is the single coordination point: every component
is ``PENDING`` (chain not applied), ``REPLAYING`` (owned by exactly one
session), or ``RECOVERED`` (``applied_lsn`` = the last LSN of its chain
that has been applied).  Lazy, foreground and background replay claim
components through it, so none double-applies, and scheduling stays
seeded and byte-identical.  When the last mark turns RECOVERED the
table detaches itself from the process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.tables import NO_LSN
from ..errors import CrashSignal, RecoveryError
from ..faults import plane as faultplane
from ..log.records import (
    BeginCheckpointRecord,
    CheckpointContextTableRecord,
    CheckpointLastCallRecord,
    CheckpointRemoteTypeRecord,
    ContextStateRecord,
    CreationRecord,
    EndCheckpointRecord,
    LastCallReplyRecord,
    MessageRecord,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.process import AppProcess
    from .recovery_manager import RecoveryManager, _ContextDiscovery

PENDING = "pending"
REPLAYING = "replaying"
RECOVERED = "recovered"

#: Background drain sessions spawned by on-demand recovery under the
#: deterministic scheduler.
DRAIN_WORKERS = 2

_SKIP_KINDS = (
    BeginCheckpointRecord,
    EndCheckpointRecord,
    CheckpointContextTableRecord,
    CheckpointRemoteTypeRecord,
    CheckpointLastCallRecord,
    ContextStateRecord,
)


class ComponentWatermark:
    """One component's recovery progress."""

    __slots__ = (
        "context_id", "restored", "state_lsn", "chain", "status",
        "owner", "applied_lsn",
    )

    def __init__(
        self,
        context_id: int,
        restored: bool,
        state_lsn: int,
        chain: list[int],
    ):
        self.context_id = context_id
        self.restored = restored  # state record already applied
        self.state_lsn = state_lsn
        #: The LSNs of this component's not-yet-applied records, in log
        #: order (its frame chain past the restored state record).
        self.chain = chain
        self.status = PENDING
        #: Session index replaying this component (None = main thread),
        #: meaningful only while ``status == REPLAYING``.
        self.owner: int | None = None
        self.applied_lsn = NO_LSN

    def __repr__(self) -> str:
        return (
            f"ComponentWatermark(#{self.context_id}, {self.status}, "
            f"chain={len(self.chain)}, applied={self.applied_lsn})"
        )


class PendingRecovery:
    """The per-component recovery watermark table of one admitted (but
    not yet fully replayed) process incarnation."""

    def __init__(
        self,
        manager: "RecoveryManager",
        discoveries: dict[int, "_ContextDiscovery"],
    ):
        self.process: "AppProcess" = manager.process
        self.runtime = manager.runtime
        self.reply_watermarks = dict(manager._reply_watermarks)
        self.marks: dict[int, ComponentWatermark] = {}
        if not discoveries:
            return
        # Each component's frame chain comes from its owning stream's
        # per-component index (one stream under the flag-off runtime);
        # LSN spaces are per stream, so the scan window is too.
        starts: dict[int, int] = {}
        for info in discoveries.values():
            start = starts.get(info.stream, info.start_lsn)
            starts[info.stream] = min(start, info.start_lsn)
        chains_by_stream = {
            stream: self.process.streams[stream].log.component_chains(start)
            for stream, start in starts.items()
        }
        for info in discoveries.values():
            restored = info.state is not None
            chain = chains_by_stream[info.stream].get(info.context_id, [])
            if restored:
                tail = [lsn for lsn in chain if lsn > info.state_lsn]
            else:
                tail = [lsn for lsn in chain if lsn >= info.creation_lsn]
            mark = ComponentWatermark(
                info.context_id, restored, info.state_lsn, tail
            )
            if restored and not tail:
                # Nothing past the state record: the restore already
                # recovered this component in full.
                mark.status = RECOVERED
                mark.applied_lsn = info.state_lsn
            self.marks[info.context_id] = mark

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return sum(1 for m in self.marks.values() if m.status != RECOVERED)

    def component_recovered(self, context_id: int) -> bool:
        mark = self.marks.get(context_id)
        return mark is None or mark.status == RECOVERED

    def start_lsns(self, stream: int = 0) -> list[int]:
        """Every not-yet-applied chain head on ``stream`` — log
        truncation must never reclaim these."""
        stream_index = self.process.stream_index
        return [
            m.chain[0]
            for m in self.marks.values()
            if m.status != RECOVERED
            and m.chain
            and stream_index(m.context_id) == stream
        ]

    def _scheduler(self):
        scheduler = self.runtime.scheduler
        if scheduler is None or not scheduler.active:
            return None
        return scheduler

    def _session(self):
        """The scheduler session running now, or None: the serial
        runtime, or the scheduler's driver outside any session."""
        scheduler = self._scheduler()
        return None if scheduler is None else scheduler.current_session()

    def _current_owner_key(self) -> int | None:
        session = self._session()
        return None if session is None else session.index

    # ------------------------------------------------------------------
    # the admission rule
    # ------------------------------------------------------------------
    def ensure_component(self, context_id: int) -> None:
        """Called by the runtime before delivering a call: the target
        component's chain must be applied before the call can execute,
        so duplicate detection finds the regenerated reply.  Replays
        inline when the component is unclaimed; parks behind the owning
        session otherwise.  Re-entrant touches (the component's own
        replay going live into itself) are a no-op."""
        process = self.process
        mark = self.marks.get(context_id)
        if mark is None:
            return  # created after recovery; nothing to apply
        while True:
            if process.pending_recovery is not self:
                return  # table retired: drained, or a fresh crash
            if mark.status == RECOVERED:
                return
            if mark.status == PENDING:
                self._replay_component(mark)
                return
            # REPLAYING by someone; a re-entrant touch returns.
            if mark.owner == self._current_owner_key():
                return
            scheduler = self._scheduler()
            if scheduler is None:
                raise RecoveryError(
                    f"context {context_id} stuck {REPLAYING} with no "
                    "scheduler to wait on"
                )
            scheduler.block_until(
                lambda: mark.status == RECOVERED
                or process.pending_recovery is not self,
                tag=f"lazy-recovery:{process.name}#{context_id}",
            )

    # ------------------------------------------------------------------
    # per-component replay (one frame chain)
    # ------------------------------------------------------------------
    def _replay_component(self, mark: ComponentWatermark) -> None:
        from .recovery_manager import RecoveryManager, _Pending

        process = self.process
        name = process.name
        context_id = mark.context_id
        mark.status = REPLAYING
        mark.owner = self._current_owner_key()
        faultplane.site_hit(f"recovery.lazy_replay.before:{name}", name)
        log = process.log_for(context_id)
        reply_floor = self.reply_watermarks.get(
            process.stream_index(context_id), NO_LSN
        )
        manager = RecoveryManager(process)
        manager._reply_watermarks = self.reply_watermarks
        for lsn in mark.chain:
            record = log.read_record(lsn)
            if isinstance(record, _SKIP_KINDS):
                continue
            if isinstance(record, CreationRecord):
                if mark.restored:
                    continue
                manager._pending[context_id] = _Pending(creation=record)
            elif isinstance(record, LastCallReplyRecord):
                if reply_floor != NO_LSN and lsn <= reply_floor:
                    continue  # the checkpoint's table already covers it
                process.last_calls.seed(
                    record.caller_key,
                    record.call_id,
                    record.context_id,
                    reply=record.reply,
                    reply_lsn=lsn,
                )
            elif isinstance(record, MessageRecord):
                manager._scan_message(context_id, lsn, record)
        manager.drain_context(context_id)
        # Replay effects (regenerated records of live-continued calls)
        # become stable before the component is declared recovered.
        log.force()
        faultplane.site_hit(f"recovery.lazy_replay.after:{name}", name)
        mark.applied_lsn = mark.chain[-1] if mark.chain else mark.state_lsn
        mark.status = RECOVERED
        mark.owner = None
        # Replay effects (including the live-continued tail call) bypass
        # context admission; publish the replayer's clock so the next
        # session admitted to this context is happens-after the replay.
        scheduler = self._scheduler()
        if scheduler is not None:
            entry = process.context_table.get(context_id)
            context = None if entry is None else entry.context_ref
            if context is not None:
                scheduler.publish_context(context)
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        process = self.process
        if process.pending_recovery is not self:
            return
        if all(m.status == RECOVERED for m in self.marks.values()):
            process.pending_recovery = None

    # ------------------------------------------------------------------
    # foreground drain (eager recovery, and the full-recovery barrier)
    # ------------------------------------------------------------------
    def drain_all(self) -> None:
        """Replay every remaining component now: eager recovery's whole
        replay, and the barrier workloads, benchmarks and state capture
        use when they need the fully recovered process.  Outside a
        scheduler session a sharded process drains its streams as
        parallel clock lanes (:meth:`drain_lanes`)."""
        process = self.process
        if len(process.streams) > 1 and self._session() is None:
            self.drain_lanes()
        while process.pending_recovery is self:
            mark = self._next_pending()
            if mark is not None:
                self._replay_component(mark)
                continue
            busy = [
                m for m in self.marks.values() if m.status == REPLAYING
            ]
            if not busy:
                self._maybe_finish()
                return
            if self._session() is None:
                raise RecoveryError(
                    "recovery marks stuck replaying with no scheduler "
                    "to wait on"
                )
            self.runtime.scheduler.block_until(
                lambda: process.pending_recovery is not self
                or not any(
                    m.status == REPLAYING for m in self.marks.values()
                ),
                tag=f"drain-all:{process.name}",
            )

    def drain_lanes(self) -> None:
        """Serial sharded drain: one clock *lane* per stream.

        Each stream's still-PENDING components replay from the drain's
        start time, in context order, followed by a force of the
        stream; the clock then advances to the longest lane, so the
        drain takes as long as the largest shard instead of the whole
        log — the streams model independent disks draining in parallel.
        Eager sharded recovery and the serial on-demand barrier both
        drain here.  A crash inside a lane still leaves the clock at
        the furthest lane end reached: time never runs backwards."""
        process = self.process
        runtime = self.runtime
        name = process.name
        groups: dict[int, list[int]] = {}
        for context_id in sorted(self.marks):
            groups.setdefault(
                process.stream_index(context_id), []
            ).append(context_id)
        clock = runtime.clock
        base = clock.now
        lanes: list[float] = []
        try:
            for index in sorted(groups):
                clock.rewind_to(base)
                for context_id in groups[index]:
                    mark = self.marks[context_id]
                    if mark.status == PENDING:
                        self._replay_component(mark)
                stream = process.streams[index]
                stream.log.force()
                lanes.append(clock.now - base)
                faultplane.site_hit(
                    f"recovery.shard.drained:{stream.name}", name
                )
                runtime.sched_yield(f"recovery.shard:{name}")
        except BaseException:
            if lanes:
                clock.advance_to(base + max(lanes))
            raise
        clock.rewind_to(base)
        if lanes:
            clock.advance(max(lanes))

    def _next_pending(self) -> ComponentWatermark | None:
        for context_id in sorted(self.marks):
            mark = self.marks[context_id]
            if mark.status == PENDING:
                return mark
        return None

    # ------------------------------------------------------------------
    # background drain workers
    # ------------------------------------------------------------------
    def spawn_workers(self) -> None:
        """On-demand recovery: schedule :data:`DRAIN_WORKERS` system
        sessions on the deterministic scheduler, each walking every
        pending component (no-op outside an active run: the serial
        runtime drains on first touch and at the ``ensure_recovered``
        barrier, in per-stream lanes when sharded)."""
        if self._session() is None:
            return
        members = sorted(
            context_id
            for context_id, mark in self.marks.items()
            if mark.status == PENDING
        )
        for __ in range(min(DRAIN_WORKERS, len(members))):
            self.runtime.scheduler.spawn(
                lambda: self._drain_worker(members),
                name=f"drain-{self.process.name}",
            )

    def spawn_shard_workers(self) -> None:
        """Sharded eager recovery: one drain session per shard.

        Each worker claims exactly its shard's components through the
        watermark table, so the shards replay as independent parallel
        drains and lazy first-touch admission covers the window until
        the last drain retires the table."""
        if self._session() is None:
            return
        process = self.process
        groups: dict[int, list[int]] = {}
        for context_id in sorted(self.marks):
            if self.marks[context_id].status == RECOVERED:
                continue
            groups.setdefault(
                process.stream_index(context_id), []
            ).append(context_id)
        for stream in sorted(groups):
            self.runtime.scheduler.spawn(
                lambda s=stream, m=groups[stream]: self._drain_worker(m, s),
                name=f"shard-drain-{process.streams[stream].name}",
            )

    def _drain_worker(
        self, members: list[int], stream: int | None = None
    ) -> None:
        """Replay ``members`` in order, skipping any component another
        session has claimed.  A shard worker (``stream`` given) yields
        after each replay and crosses its stream's ``shard.drained``
        site when done."""
        process = self.process
        name = process.name
        # Hold a process frame for the whole drain: a replay's
        # live-continued call can park this session inside the process
        # with no boundary frame of its own, and a second crash while
        # parked must ghost the worker (stale CrashSignal on resume)
        # instead of letting it keep executing against the dead
        # incarnation's retired table.  There is no process boundary
        # above a worker, so it converts its own CrashSignal.
        scheduler = self._scheduler()
        pushed = scheduler is not None and scheduler.enter_process(process)
        try:
            for context_id in members:
                if process.pending_recovery is not self:
                    return
                mark = self.marks[context_id]
                if mark.status != PENDING:
                    continue
                faultplane.site_hit(f"recovery.drain_worker:{name}", name)
                self._replay_component(mark)
                if stream is not None:
                    self.runtime.sched_yield(f"recovery.shard:{name}")
            if stream is not None:
                faultplane.site_hit(
                    f"recovery.shard.drained:{process.streams[stream].name}",
                    name,
                )
        except CrashSignal as signal:
            target = getattr(signal, "process", None)
            if target is not None and not getattr(signal, "stale", False):
                target.crash()
        finally:
            if pushed:
                scheduler.exit_process()
