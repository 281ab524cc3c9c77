"""The benchmark's three closed-loop workloads.

Each workload builds a fresh runtime from the seed (``setup``) and
drives its external calls through the public API (``drive``), checking
every reply against a reference model as it arrives.  The runner then
crashes the workload's ``servers`` and sends ``first_call`` after each
crash; ``check`` finally verifies the recovered state.  All three run
the optimized configuration (Algorithms 2-5) on disks with the write
cache off, the paper's unbuffered log: every force waits for the
platter.

The clients are closed loops because Phoenix callers are synchronous
RPC clients: the paper's BookBuyer waits for each reply before it sends
the next request.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass, field

from repro import (
    CheckpointConfig,
    Cluster,
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    persistent,
    read_only_method,
)
from repro.apps.bookstore.buyer import BookBuyer
from repro.apps.bookstore.catalog import make_catalog, titles_matching
from repro.apps.bookstore.deploy import OptimizationLevel, deploy_bookstore
from repro.common.ids import parse_uri
from repro.concurrency.scheduler import DeterministicScheduler


def _unbuffered_runtime(config: RuntimeConfig) -> PhoenixRuntime:
    return PhoenixRuntime(
        cluster=Cluster(("alpha", "beta"), write_cache_enabled=False),
        config=config,
    )


def _instance(runtime: PhoenixRuntime, proxy):
    """The live component behind ``proxy`` (for state checks only)."""
    machine, process, lid = parse_uri(proxy.uri)
    return runtime.process(machine, process).find_context(lid).parent


def _plain(value):
    """Replies may come back with lists where tuples went in."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Calls:
    """Per-call samples and outcomes of one round.

    ``call`` times one external call in simulated ms, stamps its wall
    completion and compares its reply with the reference model's.
    Replies are compared as they arrive instead of being kept, so the
    recorder adds only a few bytes per call to the resident-set growth
    the round measures; the comparison's wall cost is part of the timed
    phase, the simulated clock never sees it.
    """

    def __init__(self, clock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.writes = bytearray()
        self.sim_ms = array("d")
        self.done = array("d")
        self.failures: list[str] = []
        self.attempted = 0

    def call(self, write: bool, what: str, expected, fn, *args):
        """Run ``fn(*args)`` as one external call whose reply must equal
        ``expected``; ``what`` names the call in failure reports."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.set_call(self.attempted)
        started = self.clock.now
        try:
            reply = fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted as a failed call
            self.failures.append(f"{what} raised {exc!r}")
            raise
        self.sim_ms.append(self.clock.now - started)
        self.done.append(time.perf_counter())
        self.writes.append(write)
        self.expect(what, reply, expected)
        return reply

    def expect(self, what: str, actual, expected) -> None:
        if actual != expected and _plain(actual) != _plain(expected):
            self.failures.append(
                f"{what}: got {actual!r}, expected {expected!r}"
            )

    def verify(self, what: str, actual, expected) -> None:
        """One state check, counted as an attempted operation."""
        self.attempted += 1
        self.expect(what, actual, expected)


# ----------------------------------------------------------------------
# bookstore-serial
# ----------------------------------------------------------------------
_BOOK_READS = frozenset({
    "search", "price", "show_basket", "basket_subtotal", "total_with_tax",
})
#: The calls of one BookBuyer iteration against two stores (Section 5.5):
#: search; price, buy and add to basket at each store; show the basket,
#: subtotal, tax; clear.
BOOK_ITERATION = (
    "search",
    "price", "buy", "add_to_basket",
    "price", "buy", "add_to_basket",
    "show_basket", "basket_subtotal", "total_with_tax",
    "clear_basket",
)
#: Which calls of an iteration write: 5 of 11.  The other two workloads
#: replay this sequence, so all three share the paper's read/write mix.
WRITE_PATTERN = tuple(op not in _BOOK_READS for op in BOOK_ITERATION)
#: The buyer's region and its sales-tax rate (the bookstore's own table
#: is private to the application; the reference model restates it).
_REGION, _TAX_RATE = "wa", 0.095
_STORES, _CATALOG_SIZE = 2, 24


def _vocabulary() -> list[str]:
    """Subject words of the catalog titles ("... Recovery (vol. 1)")."""
    words = {
        title.split(" (vol.")[0].split()[-1].lower()
        for title in make_catalog(0, _CATALOG_SIZE)
    }
    return sorted(words)


class _BookModel:
    """Reference model of the bookstore: the reply each call must get,
    and the sales every store must have recorded."""

    def __init__(self) -> None:
        self.catalogs = [
            make_catalog(i, _CATALOG_SIZE) for i in range(_STORES)
        ]
        self.sold: list[dict[str, int]] = [{} for _ in range(_STORES)]
        self.basket: list = []
        self._hits: dict[str, list] = {}

    def reply(self, name: str, store, args: tuple):
        if name == "search":
            return self._search(args[0])
        if name == "price":
            return self.catalogs[store][args[0]]
        if name == "buy":
            sold = self.sold[store]
            sold[args[0]] = sold.get(args[0], 0) + 1
            return self.catalogs[store][args[0]]
        if name == "add_to_basket":
            self.basket.append(list(args[1:]))
            return len(self.basket)
        if name == "show_basket":
            return list(self.basket)
        if name == "basket_subtotal":
            return round(sum(item[2] for item in self.basket), 2)
        if name == "total_with_tax":
            return round(args[0] + round(args[0] * _TAX_RATE, 2), 2)
        if name == "clear_basket":
            removed, self.basket = len(self.basket), []
            return removed
        return f"no model for {name}"

    def _search(self, keyword: str) -> list:
        hits = self._hits.get(keyword)
        if hits is None:
            hits = self._hits[keyword] = sorted(
                (
                    (index, title, catalog[title])
                    for index, catalog in enumerate(self.catalogs)
                    for title in titles_matching(catalog, keyword)
                ),
                key=lambda hit: (hit[1], hit[2], hit[0]),
            )
        return hits


class _TimedBuyer(BookBuyer):
    """The application's BookBuyer with each proxy call timed and its
    reply checked against the model."""

    calls: Calls

    def __init__(self, app, buyer_id: str):
        super().__init__(app, buyer_id=buyer_id, region=_REGION)
        self.model = _BookModel()
        self.store_index = {
            store.uri: index for index, store in enumerate(app.stores)
        }

    def _call(self, bound_method, *args):
        # BookBuyer sends every call through here; the bound proxy
        # method carries the method name and the target component.
        name = bound_method._method
        store = self.store_index.get(bound_method._uri)
        expected = self.model.reply(name, store, args)
        return self.calls.call(
            name not in _BOOK_READS, f"{name}{args!r}", expected,
            super()._call, bound_method, *args,
        )


class BookstoreSerial:
    """One external BookBuyer running the paper's Section 5.5 mix."""

    name = "bookstore-serial"
    #: Set-ups per round: a cheap set-up is repeated, and the run
    #: reports the fastest of all its set-ups.
    setups = 50
    iterations = 900
    crash_cycles = 3

    def setup(self, seed: int):
        config = RuntimeConfig.optimized(
            checkpoint=CheckpointConfig(
                context_state_every_n_calls=400,
                process_checkpoint_every_n_saves=1,
                truncate_log=True,
            )
        )
        rng = random.Random(seed)
        # The buyer id rides in every basket call and record, so its
        # length shifts every simulated timing a little per seed.
        buyer_id = f"buyer-{rng.randrange(10 ** rng.randrange(1, 4))}"
        runtime = _unbuffered_runtime(config)
        app = deploy_bookstore(
            OptimizationLevel.SPECIALIZED, runtime=runtime,
            n_stores=_STORES, buyer_ids=(buyer_id,),
            catalog_size=_CATALOG_SIZE,
        )
        vocabulary = _vocabulary()
        keywords = [
            rng.choice(vocabulary)
            for _ in range(self.iterations + self.crash_cycles)
        ]
        return _BookState(runtime, app, _TimedBuyer(app, buyer_id), keywords)

    def servers(self, state):
        return [state.app.server_process]

    def drive(self, state, calls: Calls) -> None:
        state.buyer.calls = calls
        for keyword in state.keywords[: self.iterations]:
            try:
                state.buyer.run_iteration(keyword)
            except Exception:  # noqa: BLE001 - recorded by Calls
                pass

    def first_call(self, state, cycle: int, calls: Calls) -> None:
        keyword = state.keywords[self.iterations + cycle]
        state.buyer._call(state.app.price_grabber.search, keyword)

    def check(self, state, calls: Calls) -> None:
        # The application's iteration is the mix the other workloads use.
        calls.verify(
            "writes of the first iteration",
            tuple(map(bool, calls.writes[: len(WRITE_PATTERN)])),
            WRITE_PATTERN,
        )
        # Durability: every acknowledged sale survived the crashes.
        for index, store in enumerate(state.app.stores):
            calls.verify(
                f"store {index} sales",
                sorted(_instance(state.runtime, store).sold.items()),
                sorted(state.buyer.model.sold[index].items()),
            )


@dataclass
class _BookState:
    runtime: PhoenixRuntime
    app: object
    buyer: _TimedBuyer
    keywords: list[str]


# ----------------------------------------------------------------------
# ledger-concurrent
# ----------------------------------------------------------------------
@persistent
class Ledger(PersistentComponent):
    """Back tier: counts the records of one session."""

    def __init__(self):
        self.count = 0

    def record(self) -> int:
        self.count += 1
        return self.count


@persistent
class Desk(PersistentComponent):
    """Front tier: counts, then records in its session's ledger."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.count = 0

    def record(self) -> int:
        self.count += 1
        return self.ledger.record()

    @read_only_method
    def tally(self) -> int:
        return self.count


# Streams route by component class, so two shards per process need two
# classes per tier: even sessions use the A classes, odd ones the B.
@persistent
class LedgerA(Ledger):
    pass


@persistent
class LedgerB(Ledger):
    pass


@persistent
class DeskA(Desk):
    pass


@persistent
class DeskB(Desk):
    pass


LEDGER_SHARDS = (
    {"id": "front-a", "processes": ["gc-front"], "components": ["DeskA"]},
    {"id": "front-b", "processes": ["gc-front"], "components": ["DeskB"]},
    {"id": "back-a", "processes": ["gc-back"], "components": ["LedgerA"]},
    {"id": "back-b", "processes": ["gc-back"], "components": ["LedgerB"]},
)


class LedgerConcurrent:
    """32 closed-loop sessions: client -> Desk (gc-front) -> Ledger
    (gc-back), under the deterministic scheduler."""

    name = "ledger-concurrent"
    setups = 20
    sessions = 32
    #: Eight BookBuyer iterations' worth of calls: each session follows
    #: WRITE_PATTERN, a write recording and a read taking the tally.
    calls_per_session = 8 * len(WRITE_PATTERN)
    crash_cycles = 2

    def setup(self, seed: int):
        runtime = _unbuffered_runtime(RuntimeConfig.optimized(
            group_commit=True,
            pipelined_commit=True,
            sharded_logging=True,
        ))
        runtime.install_log_plan(LEDGER_SHARDS)
        runtime.external_client_machine = "alpha"
        front = runtime.spawn_process("gc-front", machine="beta")
        back = runtime.spawn_process("gc-back", machine="beta")
        pairs = ((DeskA, LedgerA), (DeskB, LedgerB))
        desks, ledgers = [], []
        for i in range(self.sessions):
            desk_cls, ledger_cls = pairs[i % 2]
            ledgers.append(back.create_component(ledger_cls))
            desks.append(front.create_component(desk_cls, args=(ledgers[-1],)))
        return _LedgerState(
            runtime, (front, back), desks, ledgers,
            DeterministicScheduler(runtime, seed=seed),
            [0] * self.sessions,
        )

    def servers(self, state):
        return list(state.processes)

    def drive(self, state, calls: Calls) -> None:
        def session(index: int):
            def body() -> None:
                for j in range(self.calls_per_session):
                    write = WRITE_PATTERN[(index + j) % len(WRITE_PATTERN)]
                    try:
                        self._call(state, calls, index, write)
                    except Exception:  # noqa: BLE001 - recorded by Calls
                        pass

            return body

        state.scheduler.run([session(i) for i in range(self.sessions)])

    def _call(self, state, calls, index: int, write: bool) -> None:
        """A record (the session's count after it) or a tally read."""
        desk = state.desks[index]
        if write:
            state.records[index] += 1
            calls.call(True, f"record session {index}",
                       state.records[index], desk.record)
        else:
            calls.call(False, f"tally session {index}",
                       state.records[index], desk.tally)

    def first_call(self, state, cycle: int, calls: Calls) -> None:
        self._call(state, calls, cycle % self.sessions, True)

    def check(self, state, calls: Calls) -> None:
        # Durability: both tiers hold every acknowledged record.
        for index, records in enumerate(state.records):
            desk = _instance(state.runtime, state.desks[index])
            ledger = _instance(state.runtime, state.ledgers[index])
            calls.verify(
                f"session {index} desk/ledger counts",
                (desk.count, ledger.count),
                (records, records),
            )


@dataclass
class _LedgerState:
    runtime: PhoenixRuntime
    processes: tuple
    desks: list
    ledgers: list
    scheduler: DeterministicScheduler
    #: Records acknowledged per session (the reference model).
    records: list[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# crash-recovery
# ----------------------------------------------------------------------
@persistent
class Hot(PersistentComponent):
    """Counts the items added; ``add`` returns how many adds it has
    served, ``count`` how often one item was added."""

    def __init__(self):
        self.calls = 0
        self.items: dict[str, int] = {}

    def add(self, item: str) -> int:
        self.calls += 1
        self.items[item] = self.items.get(item, 0) + 1
        return self.calls

    @read_only_method
    def count(self, item: str) -> int:
        return self.items.get(item, 0)


@persistent
class BulkA(Hot):
    pass


@persistent
class BulkB(Hot):
    pass


@persistent
class BulkC(Hot):
    pass


@persistent
class BulkD(Hot):
    pass


_BULK_CLASSES = (BulkA, BulkB, BulkC, BulkD)
#: The hot component on its own stream, the bulk history over four.
RECOVERY_SHARDS = (
    {"id": "hot", "processes": ["recovery-bench"], "components": ["Hot"]},
    *(
        {
            "id": f"bulk-{cls.__name__[-1].lower()}",
            "processes": ["recovery-bench"],
            "components": [cls.__name__],
        }
        for cls in _BULK_CLASSES
    ),
)


class CrashRecovery:
    """A pre-crash log over one hot and eight bulk components, then
    live traffic and repeated crash -> first hot reply -> full drain."""

    name = "crash-recovery"
    setups = 8
    #: A pre-crash history of 1,000 calls, the smaller size of
    #: benchmarks/bench_recovery_latency.py; the live calls grow the log
    #: to about 11,000 calls before the first crash.
    hot_calls = 100
    bulk_components = 8
    bulk_calls = 900
    #: 900 BookBuyer iterations' worth of live calls, following
    #: WRITE_PATTERN: a write adds an item, a read counts one.
    live_calls = 900 * len(WRITE_PATTERN)
    crash_cycles = 3

    def setup(self, seed: int):
        runtime = _unbuffered_runtime(RuntimeConfig.optimized(
            on_demand_recovery=True,
            sharded_logging=True,
        ))
        runtime.install_log_plan(RECOVERY_SHARDS)
        runtime.external_client_machine = "alpha"
        process = runtime.spawn_process("recovery-bench", machine="beta")
        hot = process.create_component(Hot)
        bulk = [
            process.create_component(_BULK_CLASSES[i % len(_BULK_CLASSES)])
            for i in range(self.bulk_components)
        ]
        components = [hot, *bulk]
        rng = random.Random(seed)
        # The items are the titles a BookBuyer's search for a seeded
        # keyword finds in one store, as it adds them to its basket.
        titles = titles_matching(
            make_catalog(0, _CATALOG_SIZE), rng.choice(_vocabulary())
        )
        state = _RecoveryState(
            runtime, process, components, [{} for _ in components],
        )
        # The hot history first.  Every bulk component gets the same
        # share of the rest; the seed orders the calls and picks the items.
        bulk_targets = [
            1 + i % self.bulk_components for i in range(self.bulk_calls)
        ]
        rng.shuffle(bulk_targets)
        for target in [0] * self.hot_calls + bulk_targets:
            item = rng.choice(titles)
            components[target].add(item)
            state.acked(target, item)
        state.live = [
            (rng.randrange(len(components)),
             WRITE_PATTERN[i % len(WRITE_PATTERN)],
             rng.choice(titles))
            for i in range(self.live_calls + self.crash_cycles)
        ]
        return state

    def servers(self, state):
        return [state.process]

    def drive(self, state, calls: Calls) -> None:
        for target, write, item in state.live[: self.live_calls]:
            try:
                self._call(state, calls, target, write, item)
            except Exception:  # noqa: BLE001 - recorded by Calls
                pass

    def _call(self, state, calls, target, write, item) -> None:
        component = state.components[target]
        if write:
            calls.call(True, f"add component {target}",
                       state.acked(target, item), component.add, item)
        else:
            calls.call(False, f"count {item!r} at component {target}",
                       state.items[target].get(item, 0),
                       component.count, item)

    def first_call(self, state, cycle: int, calls: Calls) -> None:
        __, __, item = state.live[self.live_calls + cycle]
        self._call(state, calls, 0, True, item)

    def check(self, state, calls: Calls) -> None:
        # Durability: after the drain every component holds exactly the
        # adds acknowledged before the last crash.
        for target, component in enumerate(state.components):
            instance = _instance(state.runtime, component)
            calls.verify(
                f"component {target} counts",
                (instance.calls, instance.items),
                (sum(state.items[target].values()), state.items[target]),
            )


@dataclass
class _RecoveryState:
    runtime: PhoenixRuntime
    process: object
    components: list
    #: Adds acknowledged per component and item (the reference model).
    items: list[dict[str, int]]
    #: (component index, is a write, item) per live call.
    live: list[tuple[int, bool, str]] = field(default_factory=list)

    def acked(self, target: int, item: str) -> int:
        """Record an acknowledged add; the adds ``target`` has served."""
        counts = self.items[target]
        counts[item] = counts.get(item, 0) + 1
        return sum(counts.values())


WORKLOADS = {
    workload.name: workload
    for workload in (BookstoreSerial(), LedgerConcurrent(), CrashRecovery())
}
