"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions of the program's layers at the names
their callers resolve (a class attribute for a method, the importing
module's global for a function imported by name) and restores them when
the traced round ends.  Nothing under ``src/`` is edited.

For every wrapped call it records one span in memory: name, start, end,
parent span and the id of the external call the span belongs to.  A
span's *self* time is its duration minus the time its child spans cover;
it is computed online, so the per-name aggregates need no second pass.

``SimClock.advance``, ``advance_to`` and ``rewind_to`` are wrapped too:
each simulated delta is charged to the innermost open span of the
calling thread, or to ``unattributed_ms`` when that thread has no open
span.  The wrappers only read the clock, so a traced round must produce
the same simulated results as an untraced one; the benchmark checks it.

The deterministic scheduler runs each session on its own thread, one at
a time, so span stacks are kept per thread.  A session leaves the CPU
only inside ``yield_point`` or ``block_until``; both are wrapped, so the
time other sessions run is charged to those spans and never to the
self time of the layers that called them.
"""

from __future__ import annotations

import threading
import time
from array import array
from itertools import count
from pathlib import Path

# Frame slots of an open span.
_NAME, _ID, _PARENT, _CALL, _T0, _SIM0, _CHILD, _SIM = range(8)


class Tracer:
    """Span recorder plus the patch table that installs it."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stacks: dict[int, list[list]] = {}
        self._call_ids: dict[int, int] = {}
        self._span_ids = count()
        # Finished spans, in completion order, as parallel arrays.
        self.span_name = array("H")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_call = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_sim = array("d")
        # name id -> [calls, self seconds, total seconds, self sim ms,
        #             inclusive sim ms]
        self.aggregates: dict[int, list[float]] = {}
        self.unattributed_ms = 0.0
        #: Extra counts measured by wrappers, by metric name.
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: Origin of the span times written out.
        self.started_wall = time.perf_counter()

    # ------------------------------------------------------------------
    # external-call ids
    # ------------------------------------------------------------------
    def set_call(self, call_id: int) -> None:
        """Mark the calling thread's spans as part of ``call_id``."""
        self._call_ids[threading.get_ident()] = call_id

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.aggregates[index] = [0, 0.0, 0.0, 0.0, 0.0]
        return index

    def wrap(self, name: str, fn):
        """A function that runs ``fn`` inside a span called ``name``."""
        name_id = self._name_id(name)
        stacks = self._stacks
        call_ids = self._call_ids
        next_id = self._span_ids.__next__
        perf = time.perf_counter
        clock = self.clock
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            ident = get_ident()
            stack = stacks.get(ident)
            if stack is None:
                stack = stacks[ident] = []
            parent = stack[-1][_ID] if stack else -1
            frame = [
                name_id, next_id(), parent, call_ids.get(ident, -1),
                perf(), clock.now, 0.0, 0.0,
            ]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self._finish(frame, end, stack)

        return traced

    def _finish(self, frame: list, end: float, stack: list) -> None:
        duration = end - frame[_T0]
        if stack:
            stack[-1][_CHILD] += duration
        aggregate = self.aggregates[frame[_NAME]]
        aggregate[0] += 1
        aggregate[1] += duration - frame[_CHILD]
        aggregate[2] += duration
        aggregate[3] += frame[_SIM]
        aggregate[4] += self.clock.now - frame[_SIM0]
        self.span_name.append(frame[_NAME])
        self.span_id.append(frame[_ID])
        self.span_parent.append(frame[_PARENT])
        self.span_call.append(frame[_CALL])
        self.span_start.append(frame[_T0])
        self.span_end.append(end)
        self.span_sim.append(frame[_SIM])

    def _charge(self, delta_ms: float) -> None:
        stack = self._stacks.get(threading.get_ident())
        if stack:
            stack[-1][_SIM] += delta_ms
        else:
            self.unattributed_ms += delta_ms

    def patch(self, owner: object, attribute: str, name: str,
              fn=None) -> None:
        """Replace ``owner.attribute`` by a traced version of itself, or
        of ``fn`` when given (restored by :meth:`uninstall`)."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, fn or original))

    def patch_clock(self, clock_class: type) -> None:
        """Charge every simulated-time change to the innermost span."""
        charge = self._charge
        for attribute in ("advance", "advance_to", "rewind_to"):
            original = getattr(clock_class, attribute)

            def charged(clock, value, _original=original):
                before = clock.now
                after = _original(clock, value)
                charge(after - before)
                return after

            self._patches.append((clock_class, attribute, original))
            setattr(clock_class, attribute, charged)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def aggregate(self, name: str) -> dict[str, float]:
        """calls, self_us, total_us, sim_ms (self) and wait_sim_ms
        (inclusive clock delta) of every span called ``name``."""
        index = self._name_ids.get(name)
        calls, self_s, total_s, sim, inclusive = (
            self.aggregates[index] if index is not None
            else (0, 0.0, 0.0, 0.0, 0.0)
        )
        return {
            "calls": calls,
            "self_us": self_s * 1e6,
            "total_us": total_s * 1e6,
            "sim_ms": sim,
            "wait_sim_ms": inclusive,
        }

    def attributed_ms(self) -> float:
        return sum(self.span_sim)

    def write(self, path: Path) -> None:
        """Write every finished span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.started_wall
        names = self.names
        with path.open("w") as out:
            out.write("span\tparent\tcall\tname\tstart_us\tend_us\tsim_ms\n")
            for i in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                    f"{self.span_call[i]}\t{names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - origin) * 1e6:.1f}\t"
                    f"{self.span_sim[i]!r}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer report is built from."""
    from repro.checkpoint import process_checkpoint, state_record
    from repro.concurrency.scheduler import DeterministicScheduler
    from repro.core.interceptor import MessageInterceptor
    from repro.core.policy import LoggingPolicy
    from repro.core.process import AppProcess
    from repro.core.runtime import PhoenixRuntime
    from repro.log import log_manager
    from repro.log.log_manager import LogManager
    from repro.recovery.incremental import PendingRecovery
    from repro.recovery.recovery_manager import RecoveryManager
    from repro.sim.clock import SimClock
    from repro.sim.disk import RotationalDisk

    patch = tracer.patch
    patch(PhoenixRuntime, "invoke_method", "core.runtime.invoke")
    patch(MessageInterceptor, "handle_incoming",
          "core.interceptor.handle_incoming")
    patch(MessageInterceptor, "prepare_outgoing",
          "core.interceptor.prepare_outgoing")
    for method in ("on_incoming_call", "on_reply_send", "on_outgoing_call",
                   "on_reply_from_outgoing"):
        patch(LoggingPolicy, method, "core.policy")
    patch(AppProcess, "log_force", "core.process.log_force")
    patch(LogManager, "append", "log.append")
    patch(LogManager, "force", "log.force")
    # The log manager imported the codec by name: wrap its globals.
    patch(log_manager, "encode_record_into", "log.encode")
    patch(log_manager, "decode_record", "log.decode")
    patch(RotationalDisk, "write", "sim.disk.write")
    patch(RecoveryManager, "recover", "recovery.recover")
    patch(PendingRecovery, "ensure_component", "recovery.ensure_component")
    patch(PendingRecovery, "drain_all", "recovery.drain")
    patch(MessageInterceptor, "invoke_for_replay", "recovery.replay")
    patch(DeterministicScheduler, "yield_point", "concurrency.yield_point")
    patch(DeterministicScheduler, "block_until", "concurrency.block_until")
    patch(DeterministicScheduler, "group_force", "concurrency.group_force")
    # AppProcess imports these at call time, so the module attribute is
    # the name its caller resolves.
    save = state_record.save_context_state
    tracer.counts["checkpoint.context_state.bytes"] = 0

    def save_counting_bytes(context):
        stats = context.process.log_for(context.context_id).stats
        before = stats.bytes_appended
        try:
            return save(context)
        finally:
            tracer.counts["checkpoint.context_state.bytes"] += (
                stats.bytes_appended - before
            )

    patch(state_record, "save_context_state", "checkpoint.context_state",
          save_counting_bytes)
    patch(process_checkpoint, "take_process_checkpoint",
          "checkpoint.process")
    tracer.patch_clock(SimClock)
