"""Sharded logging: plan normalization, the router, stream routing,
per-stream truncation, and parallel shard recovery (serial runtime).

The committed LogPlan made executable (ROADMAP item 1): behind
``config.sharded_logging`` a process hosts one log stream per shard the
plan assigns to it.  Flag-off, stream 0 IS the legacy log — these tests
pin that identity — and flag-on, every append/force/replay touches
exactly the stream its component lives on.
"""

from dataclasses import dataclass, field

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.core.config import CheckpointConfig
from repro.errors import (
    ConfigurationError,
    CrashSignal,
    InvariantViolationError,
)
from repro.faults.plane import CrashSpec, FaultPlane, installed
from repro.faults.workloads import _capture_state
from repro.log.sharding import ShardRouter, plan_shards

from ..conftest import Counter, KvStore, TallyOwner

SHARDS = (
    {
        "id": "counters",
        "processes": ["srv"],
        "components": ["Counter", "TallyOwner"],
    },
    {"id": "stores", "processes": ["srv"], "components": ["KvStore"]},
)


def _sharded_runtime(**overrides):
    runtime = PhoenixRuntime(
        config=RuntimeConfig.optimized(sharded_logging=True, **overrides)
    )
    runtime.install_log_plan(SHARDS)
    runtime.external_client_machine = "alpha"
    return runtime


class TestPlanShards:
    def test_bare_list_accepted(self):
        assert plan_shards(list(SHARDS)) == list(SHARDS)

    def test_shards_attribute_accepted(self):
        class PlanLike:
            shards = list(SHARDS)

        assert plan_shards(PlanLike()) == list(SHARDS)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys"):
            plan_shards([{"id": "x", "processes": []}])


class TestShardRouter:
    def test_hosted_classes_map_to_extra_streams(self):
        router = ShardRouter(list(SHARDS), "srv")
        assert router.stream_count == 3
        assert router.shard_ids == ["counters", "stores"]
        assert router.stream_for_class("Counter") == 1
        assert router.stream_for_class("TallyOwner") == 1
        assert router.stream_for_class("KvStore") == 2

    def test_unplanned_class_falls_back_to_stream_zero(self):
        router = ShardRouter(list(SHARDS), "srv")
        assert router.stream_for_class("SomethingElse") == 0

    def test_other_process_hosts_no_shards(self):
        router = ShardRouter(list(SHARDS), "other")
        assert router.stream_count == 1
        assert router.stream_for_class("Counter") == 0


class TestFlagOffIdentity:
    def test_single_stream_wraps_the_legacy_objects(self):
        runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
        runtime.install_log_plan(SHARDS)  # a plan alone must not shard
        process = runtime.spawn_process("srv", machine="beta")
        assert len(process.streams) == 1
        stream = process.streams[0]
        assert stream.shard_id is None
        assert stream.log is process.log
        assert stream.coalescer is process.force_coalescer
        assert stream.trace is process.protocol_trace

    def test_flag_on_without_a_plan_stays_single_stream(self):
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(sharded_logging=True)
        )
        runtime.install_log_plan(None)
        process = runtime.spawn_process("srv", machine="beta")
        assert len(process.streams) == 1


class TestFlagOnRouting:
    def test_components_append_to_their_shards_stream(self):
        runtime = _sharded_runtime()
        process = runtime.spawn_process("srv", machine="beta")
        counter = process.create_component(Counter)
        store = process.create_component(KvStore)
        counter.increment()
        store.put("k", "v")

        names = [s.log.process_name for s in process.streams]
        assert names == [
            "beta-srv", "beta-srv@counters", "beta-srv@stores",
        ]
        by_cid = {
            cid: {r.context_id for __, r in s.log.scan(0)} == {cid}
            for cid, s in ((1, process.streams[1]), (2, process.streams[2]))
        }
        assert by_cid == {1: True, 2: True}
        assert process.stream_index(1) == 1
        assert process.stream_index(2) == 2

    def test_subordinates_follow_their_parent(self):
        runtime = _sharded_runtime()
        process = runtime.spawn_process("srv", machine="beta")
        owner = process.create_component(TallyOwner)
        owner.add("x")
        # TallyOwner is context 1 on the counters stream; its
        # subordinate's LID-space context ids resolve to the same
        # stream without their own assignment.
        from repro.core.context import SUB_LID_BASE

        assert process.stream_index(1) == 1
        assert process.stream_index(1 * SUB_LID_BASE + 1) == 1
        # every record (owner and subordinate) landed on one stream
        assert process.streams[2].log.stats.appends == 0


class TestShardedRecovery:
    def _deploy(self, **overrides):
        runtime = _sharded_runtime(**overrides)
        process = runtime.spawn_process("srv", machine="beta")
        counter = process.create_component(Counter)
        store = process.create_component(KvStore)
        return runtime, process, counter, store

    def test_crash_recover_restores_both_shards(self):
        runtime, process, counter, store = self._deploy()
        for i in range(5):
            counter.increment()
        store.put("k", 41)
        process.crash()
        runtime.ensure_recovered(process)
        # Both shards' state replayed from their own streams.
        assert counter.increment() == 6
        assert store.get("k") == 41

    def test_recover_twice_is_idempotent(self):
        runtime, process, counter, store = self._deploy()
        counter.increment()
        store.put("k", 1)
        process.crash()
        runtime.ensure_recovered(process)
        process.crash()
        runtime.ensure_recovered(process)
        assert counter.increment() == 2
        assert store.get("k") == 1

    def test_context_stream_assignments_survive_recovery(self):
        runtime, process, counter, store = self._deploy()
        counter.increment()
        store.put("k", 1)
        process.crash()
        runtime.ensure_recovered(process)
        assert process.stream_index(1) == 1
        assert process.stream_index(2) == 2
        # post-recovery traffic still routes to the owning streams
        before = process.streams[2].log.stats.appends
        store.put("k2", 2)
        assert process.streams[2].log.stats.appends > before

    def test_recovery_time_tracks_the_largest_shard(self):
        """Serial sharded recovery drains the streams as clock *lanes*:
        elapsed simulated time is the largest shard's drain, not the
        sum.  Pin it against the flag-off runtime replaying the same
        records from one log."""

        def drive(sharded: bool) -> float:
            if sharded:
                runtime, process, counter, store = self._deploy()
            else:
                runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
                runtime.external_client_machine = "alpha"
                process = runtime.spawn_process("srv", machine="beta")
                counter = process.create_component(Counter)
                store = process.create_component(KvStore)
            for i in range(20):
                counter.increment()
                store.put(f"k{i}", i)
            process.crash()
            started = runtime.clock.now
            runtime.ensure_recovered(process)
            assert counter.increment() == 21
            return runtime.clock.now - started

        assert drive(sharded=True) < drive(sharded=False)


class TestOnDemandLaneDrain:
    """Serial on-demand recovery with sharded logging: the
    ``ensure_recovered`` barrier drains each stream's still-pending
    components as its own clock lane, exactly like eager sharded
    recovery."""

    def _drive(self, sharded: bool):
        if sharded:
            runtime = _sharded_runtime(on_demand_recovery=True)
        else:
            runtime = PhoenixRuntime(
                config=RuntimeConfig.optimized(on_demand_recovery=True)
            )
            runtime.external_client_machine = "alpha"
        process = runtime.spawn_process("srv", machine="beta")
        counter = process.create_component(Counter)
        store = process.create_component(KvStore)
        for i in range(20):
            counter.increment()
            store.put(f"k{i}", i)
        process.crash()
        started = runtime.clock.now
        runtime.ensure_recovered(process)
        drain = runtime.clock.now - started
        assert process.pending_recovery is None
        replies = [counter.increment(), store.get("k0"), store.get("k19")]
        return runtime, process, drain, replies

    def test_drain_tracks_the_largest_shard(self):
        __, __, sharded, __ = self._drive(sharded=True)
        __, __, single, __ = self._drive(sharded=False)
        # Both runs pay the same restart and analysis; the store shard's
        # replay overlaps the counter shard's, which saves about an
        # eighth of the single-log drain (575 vs 658 ms).  A serial
        # drain of the shards would save nothing.
        assert sharded < 0.9 * single

    def test_replies_and_state_match_the_single_log_run(self):
        sharded_runtime, __, __, sharded = self._drive(sharded=True)
        single_runtime, __, __, single = self._drive(sharded=False)
        assert sharded == single == [21, 0, 19]
        assert _capture_state(sharded_runtime) == _capture_state(
            single_runtime
        )

    def test_same_runs_are_byte_identical_per_stream(self):
        first_runtime, first, __, __ = self._drive(sharded=True)
        second_runtime, second, __, __ = self._drive(sharded=True)
        assert len(first.streams) == 3
        for a, b in zip(first.streams, second.streams):
            assert a.log.stable_bytes() == b.log.stable_bytes(), a.name
            assert repr(a.trace.entries) == repr(b.trace.entries), a.name
        assert first_runtime.clock.now == second_runtime.clock.now


@dataclass
class _LaneClockPlane(FaultPlane):
    """A fault plane that also notes the clock at every shard-drained
    site: the end of each recovery lane."""

    lane_ends: list[float] = field(default_factory=list)

    def hit(self, site, process_name=None):
        if site.startswith("recovery.shard.drained:"):
            self.lane_ends.append(self._runtime.clock.now)
        super().hit(site, process_name)


class TestCrashInsideALane:
    """A crash inside shard lane *k* must not leave the clock rewound
    below the end of an earlier, longer lane."""

    @pytest.mark.parametrize("on_demand", [False, True])
    def test_clock_keeps_the_longest_lane_reached(self, on_demand):
        runtime, process, counter, store = TestShardedRecovery()._deploy(
            on_demand_recovery=on_demand
        )
        for __ in range(80):
            counter.increment()
        for i in range(5):
            store.put(f"k{i}", i)
        process.crash()
        # Lane 1 replays the long counter chain; the second replay is
        # the short store chain in lane 2.
        plane = _LaneClockPlane(
            specs=(CrashSpec("recovery.lazy_replay.before:srv", 2),)
        )
        plane.bind(runtime)
        with installed(plane):
            with pytest.raises(CrashSignal) as raised:
                runtime.ensure_recovered(process)
        assert plane.fired
        assert len(plane.lane_ends) == 1
        assert runtime.clock.now >= plane.lane_ends[0]
        raised.value.process.crash()
        runtime.ensure_recovered(process)
        assert counter.increment() == 81
        assert store.get("k4") == 4


class TestPerStreamTruncation:
    def test_gc_publishes_each_streams_anchor(self):
        runtime, process, counter, store = TestShardedRecovery()._deploy(
            checkpoint=CheckpointConfig(
                context_state_every_n_calls=2,
                process_checkpoint_every_n_saves=2,
                truncate_log=True,
            )
        )
        for i in range(12):
            counter.increment()
            store.put(f"k{i}", i)
        process.collect_log_garbage()
        for stream in process.streams[1:]:
            anchor = stream.log.read_well_known_lsn()
            assert anchor is not None
            # the anchor is a readable boundary: scans from it succeed
            list(stream.log.scan(anchor))
        process.crash()
        runtime.ensure_recovered(process)
        assert counter.increment() == 13
        assert store.get("k11") == 11


class TestClockRewind:
    def test_rewind_to_future_rejected(self):
        runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
        clock = runtime.clock
        clock.advance(10.0)
        with pytest.raises(InvariantViolationError):
            clock.rewind_to(clock.now + 1.0)

    def test_rewind_then_advance_restores_monotonicity(self):
        runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
        clock = runtime.clock
        clock.advance(10.0)
        base = clock.now
        clock.advance(5.0)
        assert clock.rewind_to(base) == base
        clock.advance(7.0)
        assert clock.now == base + 7.0
