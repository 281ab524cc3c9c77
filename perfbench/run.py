"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bookstore-serial --seed 1 \\
        --seconds 10 --trace 0

The run repeats *rounds* until ``--seconds`` have passed (and at least
``MIN_ROUNDS`` rounds ran).  A round sets the workload up from the seed
(timed as set-up), drives its external calls (the timed phase), crashes
and recovers the servers a few times, and checks every reply and the
recovered state; then it times ``workload.setups - 1`` more set-ups.
Every round of one seed does the same simulated work, so the simulated
metrics of all rounds must be equal; that is checked too.

``--trace 0`` reports the end-to-end metrics: the simulated metrics of
the rounds (all equal), resident-set growth per call from the first
round, and the fastest set-up of the run (in CPU seconds).  ``--trace
1`` alternates untraced and traced rounds and reports the per-layer
metrics, among them the wall-clock costs (best of the untraced rounds;
they vary too much on a shared machine to gate on) and the tracing
overhead.  It checks that the traced simulated results equal the
untraced ones and that the attributed simulated time sums to the
clock's elapsed time, and writes the first traced round's spans to
``.perfbench-out/``.

The metric names and units are those of ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench-out"
#: Lists the metrics to report, with their units.
SPEC = ROOT / "BENCHMARK.json"
MIN_ROUNDS = 3
#: Calls per wall-clock block; ``wall_us_per_call`` is the fastest block.
BLOCK = 100
#: The conformance invariants every round must satisfy.
CHECKED_INVARIANTS = {f"TRC10{i}" for i in range(1, 9)}
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024

def _import_program():
    """Put the checkout's ``src`` and this directory first on the path
    (the modules below import them lazily); fail without ``src``."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def _rss_kb() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_KB


def _streams(runtime):
    return [stream for p in runtime.processes() for stream in p.streams]


def _counters(runtime) -> dict[str, float]:
    """The program's own counters, summed over every stream and disk."""
    totals: dict[str, float] = {}
    for stream in _streams(runtime):
        for field, value in vars(stream.log.stats).items():
            totals[f"log.{field}"] = totals.get(f"log.{field}", 0) + value
    for machine in runtime.cluster.machines():
        for field, value in vars(machine.disk.stats).items():
            totals[f"disk.{field}"] = totals.get(f"disk.{field}", 0) + value
    for field, value in vars(runtime.cluster.network.stats).items():
        totals[f"network.{field}"] = value
    totals["trace.entries"] = sum(
        len(stream.trace.entries) for stream in _streams(runtime)
    )
    return totals


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


@dataclass
class Round:
    """Everything one round measured."""

    setup_s: list[float] = field(default_factory=list)
    #: Simulated end-to-end metrics (plus the final clock).
    sim: dict[str, float] = field(default_factory=dict)
    #: Program counters over the timed phase and over the crash cycles.
    drive_counters: dict[str, float] = field(default_factory=dict)
    cycle_counters: dict[str, float] = field(default_factory=dict)
    #: Wall µs per call of each block of BLOCK calls.
    block_us: list[float] = field(default_factory=list)
    recovery_wall_ms: list[float] = field(default_factory=list)
    heap_kb_per_call: float = 0.0
    driven: int = 0
    retained_bytes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    traced: bool = False
    tracer: object = None
    sim_elapsed_ms: float = 0.0

    def same_simulation(self, other: "Round") -> bool:
        return (
            self.sim == other.sim
            and self.drive_counters == other.drive_counters
            and self.cycle_counters == other.cycle_counters
        )


def run_round(workload, seed: int, traced: bool) -> Round:
    """Set up, drive, crash and check one round of ``workload``."""
    from workloads import Calls

    result = Round()
    state, seconds = _timed_setup(workload, seed)
    result.setup_s.append(seconds)
    runtime = state.runtime
    clock = runtime.clock

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer(clock)
        tracing.install(tracer)
    calls = Calls(clock, tracer)
    gc.collect()
    rss_before = _rss_kb()
    before = _counters(runtime)
    sim_started = clock.now
    phase_started = time.perf_counter()
    try:
        workload.drive(state, calls)
        sim_drive = clock.now - sim_started
        driven = result.driven = len(calls.sim_ms)
        after_drive = _counters(runtime)
        result.retained_bytes = sum(
            stream.log.stable_lsn - stream.log.base_lsn
            for stream in _streams(runtime)
        )
        gc.collect()
        result.heap_kb_per_call = (_rss_kb() - rss_before) / driven
        ttfr, drain = _crash_cycles(workload, state, calls, result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.traced = traced
    result.tracer = tracer
    result.sim_elapsed_ms = clock.now - sim_started
    result.drive_counters = _delta(after_drive, before)
    result.cycle_counters = _delta(_counters(runtime), after_drive)

    marks = [phase_started, *calls.done[BLOCK - 1 : driven : BLOCK]]
    result.block_us = [
        (end - start) / BLOCK * 1e6 for start, end in zip(marks, marks[1:])
    ]
    sims = calls.sim_ms[:driven]
    writes = calls.writes[:driven]
    result.sim = {
        "call_ms_p50": statistics.median(sims),
        "call_ms_p99": statistics.quantiles(sims, n=100)[98],
        "read_call_ms_p50": statistics.median(
            [ms for ms, write in zip(sims, writes) if not write]
        ),
        "write_call_ms_p50": statistics.median(
            [ms for ms, write in zip(sims, writes) if write]
        ),
        "calls_per_sim_s": driven / (sim_drive / 1000.0),
        "forces_per_call":
            result.drive_counters["log.forces_performed"] / driven,
        "log_bytes_per_call":
            result.drive_counters["log.bytes_appended"] / driven,
        "ttfr_ms": statistics.median(ttfr),
        "drain_ms": statistics.median(drain),
        "clock_ms": clock.now,
    }

    workload.check(state, calls)
    _check_conformance(runtime, calls)
    result.attempted = calls.attempted
    result.failures = calls.failures
    return result


def _timed_setup(workload, seed: int):
    """A fresh set-up of ``workload`` and the CPU seconds it took.

    A set-up runs on one thread and never waits (its disk is simulated),
    so on an idle machine its CPU time is its wall time.  On a shared
    virtual machine the wall time also counts the time the hypervisor
    gives to other guests, which changes from second to second.
    """
    gc.collect()
    started = time.process_time()
    state = workload.setup(seed)
    return state, time.process_time() - started


def _crash_cycles(workload, state, calls, result: Round):
    """Crash the servers, time the first reply and the full drain;
    returns the simulated (ttfr, drain) lists."""
    runtime = state.runtime
    clock = runtime.clock
    ttfr, drain = [], []
    for cycle in range(workload.crash_cycles):
        started = time.perf_counter()
        crashed_at = clock.now
        for process in workload.servers(state):
            runtime.crash_process(process)
        try:
            workload.first_call(state, cycle, calls)
        except Exception:  # noqa: BLE001 - recorded by Calls
            pass
        ttfr.append(clock.now - crashed_at)
        for process in workload.servers(state):
            runtime.ensure_recovered(process)
        drain.append(clock.now - crashed_at)
        result.recovery_wall_ms.append((time.perf_counter() - started) * 1e3)
    return ttfr, drain


def _check_conformance(runtime, calls) -> None:
    """One check: the run broke none of TRC101-TRC108."""
    from repro.analysis.trace_check import check_runtime

    violations = [
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime(runtime)
        if violation.invariant in CHECKED_INVARIANTS
    ]
    calls.attempted += 1
    if violations:
        calls.failures.append(
            f"{len(violations)} conformance violations, first: "
            + "; ".join(violations[:3])
        )


def _rounds(workload, seed: int, seconds: float, trace: bool) -> list[Round]:
    """Rounds until ``seconds`` have passed; with ``trace`` the odd
    rounds are traced (only the first traced round keeps its spans)."""
    deadline = time.perf_counter() + seconds
    rounds: list[Round] = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = trace and len(rounds) % 2 == 1
        result = run_round(workload, seed, traced)
        if any(r.tracer is not None for r in rounds):
            result.tracer = None  # keep one round's spans in memory
        # More set-ups, discarded at once, for the fastest set-up time.
        # They run after the round so that their garbage cannot feed the
        # first round's resident-set growth.
        result.setup_s += [
            _timed_setup(workload, seed)[1]
            for _ in range(workload.setups - 1)
        ]
        rounds.append(result)
    return rounds


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Simulated metrics of the first round (every round's are equal),
    its resident-set growth, and the fastest set-up of the run: a busy
    machine only ever adds time, so the fastest repeats best."""
    first = rounds[0]
    metrics = {
        key: value for key, value in first.sim.items() if key != "clock_ms"
    }
    metrics["setup_s"] = min(s for r in rounds for s in r.setup_s)
    metrics["heap_kb_per_call"] = first.heap_kb_per_call
    return metrics


def per_layer(
    names_units: list, rounds: list[Round], problems: list[str]
) -> dict:
    """The per-layer metrics; checks the simulated-time attribution."""
    import layers

    untraced = [r for r in rounds if not r.traced]
    traced = next(r for r in rounds if r.tracer is not None)
    tracer = traced.tracer
    attributed = tracer.attributed_ms()
    if not math.isclose(
        attributed + tracer.unattributed_ms, traced.sim_elapsed_ms,
        rel_tol=1e-9, abs_tol=1e-6,
    ):
        problems.append(
            f"attributed {attributed} + unattributed "
            f"{tracer.unattributed_ms} != elapsed {traced.sim_elapsed_ms} ms"
        )
    return layers.report(names_units, untraced, traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    names_units = [
        (metric["name"], metric["unit"])
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    ]

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    rounds = _rounds(workload, args.seed, args.seconds, bool(args.trace))

    problems = [f for r in rounds for f in r.failures]
    # Each round's calls and checks, plus one same-seed comparison per
    # round after the first (and the attribution check when traced).
    attempted = sum(r.attempted for r in rounds) + len(rounds) - 1
    attempted += args.trace
    for index, result in enumerate(rounds[1:], start=1):
        if not result.same_simulation(rounds[0]):
            problems.append(
                f"round {index} simulated differently from round 0 "
                "with the same seed"
            )
    if args.trace:
        metrics = per_layer(names_units, rounds, problems)
        traced = next(r for r in rounds if r.tracer is not None)
        traced.tracer.write(OUTPUT / f"spans-{args.workload}.tsv")
    else:
        values = end_to_end(rounds)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in names_units
        }
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
