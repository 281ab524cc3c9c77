"""The per-layer report of a traced run.

Span metrics (``calls``, ``self_us``, ``sim_ms``, ...) come from the
traced round.  Counts the program keeps itself (``LogStats``,
``DiskStats``, ``NetworkStats``, the ``ProtocolTrace``) come from an
untraced round of the same seed, where they repeat exactly.  Write-path
counters cover the timed phase; read-path counters (``log.read.*``,
``log.comp_index.*``) cover the crash cycles, the only phase that reads
the log.

``perfbench/README.md`` tables the end-to-end metric each should move.
"""

from __future__ import annotations

# Where each per-layer metric of BENCHMARK.json comes from (names and
# units are read from there): ("span", span name, field), ("drive",
# counter), ("cycle", counter) or the name of a value ``report`` derives.
SOURCES = {
    "core.runtime.invoke.calls": ("span", "core.runtime.invoke", "calls"),
    "core.runtime.invoke.self_us": ("span", "core.runtime.invoke", "self_us"),
    "core.runtime.invoke.sim_ms": ("span", "core.runtime.invoke", "sim_ms"),
    "core.interceptor.handle_incoming.calls":
        ("span", "core.interceptor.handle_incoming", "calls"),
    "core.interceptor.handle_incoming.self_us":
        ("span", "core.interceptor.handle_incoming", "self_us"),
    "core.interceptor.prepare_outgoing.self_us":
        ("span", "core.interceptor.prepare_outgoing", "self_us"),
    "core.policy.decisions": ("span", "core.policy", "calls"),
    "core.policy.self_us": ("span", "core.policy", "self_us"),
    "core.process.log_force.calls":
        ("span", "core.process.log_force", "calls"),
    "core.process.log_force.sim_ms":
        ("span", "core.process.log_force", "sim_ms"),
    "core.process.log_force.wait_sim_ms":
        ("span", "core.process.log_force", "wait_sim_ms"),
    "log.append.calls": ("span", "log.append", "calls"),
    "log.append.bytes": ("drive", "log.bytes_appended"),
    "log.append.self_us": ("span", "log.append", "self_us"),
    "log.encode.self_us": ("span", "log.encode", "self_us"),
    "log.decode.calls": ("span", "log.decode", "calls"),
    "log.decode.self_us": ("span", "log.decode", "self_us"),
    "log.force.self_us": ("span", "log.force", "self_us"),
    "log.force.requests": ("drive", "log.forces_requested"),
    "log.force.writes": ("drive", "log.forces_performed"),
    "log.force.write_ratio": "write_ratio",
    "log.group_commit.batches": ("drive", "log.group_commit_batches"),
    "log.group_commit.riders": ("drive", "log.group_commit_riders"),
    "log.pipelined.gated": ("drive", "log.pipelined_gated"),
    "log.pipelined.write_skips": ("drive", "log.pipelined_write_skips"),
    "log.read.bytes": ("cycle", "log.bytes_read"),
    "log.read.index_hits": ("cycle", "log.index_hits"),
    "log.comp_index.rebuilds": ("cycle", "log.comp_index_rebuilds"),
    "log.comp_index.hits": ("cycle", "log.comp_index_hits"),
    "log.retained_bytes": "retained_bytes",
    "log.truncations": ("drive", "log.truncations"),
    "log.bytes_reclaimed": ("drive", "log.bytes_reclaimed"),
    "sim.disk.writes": ("drive", "disk.writes"),
    "sim.disk.busy_ms": ("drive", "disk.busy_ms"),
    "sim.disk.full_rotation_waits": ("drive", "disk.full_rotation_waits"),
    "sim.disk.write.sim_ms": ("span", "sim.disk.write", "sim_ms"),
    "sim.network.messages": ("drive", "network.messages"),
    "sim.network.bytes": ("drive", "network.bytes"),
    "sim.network.busy_ms": ("drive", "network.busy_ms"),
    "sim.elapsed_ms": "elapsed_ms",
    "sim.attributed_ms": "attributed_ms",
    "sim.unattributed_ms": "unattributed_ms",
    "recovery.recover.calls": ("span", "recovery.recover", "calls"),
    "recovery.recover.self_us": ("span", "recovery.recover", "self_us"),
    "recovery.recover.sim_ms": ("span", "recovery.recover", "sim_ms"),
    "recovery.ensure_component.calls":
        ("span", "recovery.ensure_component", "calls"),
    "recovery.ensure_component.self_us":
        ("span", "recovery.ensure_component", "self_us"),
    "recovery.ensure_component.sim_ms":
        ("span", "recovery.ensure_component", "sim_ms"),
    "recovery.drain.self_us": ("span", "recovery.drain", "self_us"),
    "recovery.drain.sim_ms": ("span", "recovery.drain", "sim_ms"),
    "recovery.replay.calls": ("span", "recovery.replay", "calls"),
    "recovery.replay.self_us": ("span", "recovery.replay", "self_us"),
    "concurrency.yield_point.calls":
        ("span", "concurrency.yield_point", "calls"),
    "concurrency.block_until.calls":
        ("span", "concurrency.block_until", "calls"),
    "concurrency.block_until.wait_us":
        ("span", "concurrency.block_until", "total_us"),
    "concurrency.block_until.sim_ms":
        ("span", "concurrency.block_until", "sim_ms"),
    "concurrency.block_until.wait_sim_ms":
        ("span", "concurrency.block_until", "wait_sim_ms"),
    "concurrency.group_force.calls":
        ("span", "concurrency.group_force", "calls"),
    "concurrency.group_force.sim_ms":
        ("span", "concurrency.group_force", "sim_ms"),
    "concurrency.group_force.wait_sim_ms":
        ("span", "concurrency.group_force", "wait_sim_ms"),
    "checkpoint.context_state.calls":
        ("span", "checkpoint.context_state", "calls"),
    "checkpoint.context_state.bytes": "state_bytes",
    "checkpoint.context_state.self_us":
        ("span", "checkpoint.context_state", "self_us"),
    "checkpoint.context_state.sim_ms":
        ("span", "checkpoint.context_state", "sim_ms"),
    "checkpoint.process.calls": ("span", "checkpoint.process", "calls"),
    "checkpoint.process.self_us": ("span", "checkpoint.process", "self_us"),
    "checkpoint.process.sim_ms": ("span", "checkpoint.process", "sim_ms"),
    "analysis.trace.entries_per_call": "trace_entries_per_call",
    "wall_us_per_call": "wall_us",
    "recovery_wall_ms": "recovery_wall_ms",
    "trace.spans": "spans",
    "trace.wall_us_per_call": "traced_wall_us",
    "trace.overhead_us_per_call": "overhead_us",
}


def report(names_units: list, untraced: list, traced) -> dict:
    """Each ``(name, unit)`` of ``names_units`` as ``{"value", "unit"}``,
    from the untraced rounds and one traced round of a run.

    Wall-clock costs are the best of the untraced rounds: the fastest
    block of calls (``wall_us_per_call``) and the fastest crash-to-
    drained cycle (``recovery_wall_ms``).  The tracing overhead is the
    traced round's fastest block minus the untraced one.
    """
    tracer = traced.tracer
    wall_us = min(us for r in untraced for us in r.block_us)
    recovery_wall_ms = min(ms for r in untraced for ms in r.recovery_wall_ms)
    first = untraced[0]
    drive = first.drive_counters
    derived = {
        "write_ratio": (
            drive["log.forces_performed"] / drive["log.forces_requested"]
            if drive["log.forces_requested"] else 0.0
        ),
        "retained_bytes": first.retained_bytes,
        "elapsed_ms": traced.sim_elapsed_ms,
        "attributed_ms": tracer.attributed_ms(),
        "unattributed_ms": tracer.unattributed_ms,
        "state_bytes": tracer.counts["checkpoint.context_state.bytes"],
        "trace_entries_per_call": drive["trace.entries"] / first.driven,
        "spans": len(tracer.span_id),
        "wall_us": wall_us,
        "recovery_wall_ms": recovery_wall_ms,
        "traced_wall_us": min(traced.block_us),
        "overhead_us": min(traced.block_us) - wall_us,
    }
    metrics = {}
    for name, unit in names_units:
        source = SOURCES[name]
        if isinstance(source, str):
            value = derived[source]
        elif source[0] == "span":
            value = tracer.aggregate(source[1])[source[2]]
        elif source[0] == "drive":
            value = drive[source[1]]
        else:
            value = first.cycle_counters[source[1]]
        metrics[name] = {"value": value, "unit": unit}
    return metrics
