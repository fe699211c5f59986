"""Workload ``overload``: an adversarial trace against a self-adapting box.

A single-box sharded datapath behind an :class:`AdmissionTier`, with the
monitor -> policy -> rule loop attached, replays a four-phase trace:

- burst: one elephant flow arriving in per-tick spikes;
- starve: interactive (dport 53) demand above its byte-fair DRR share
  while bulk stays backlogged;
- flash: a uniform flash crowd above the lean fleet's drain rate;
- quiet: no arrivals, so backlogs drain and the fleet shrinks back.

Mid-flash the harness requests one deliberately unsafe swap
(``quiesce=False`` on a live admission port), which the rule engine must
veto as ``no-swap-on-live-port``.  Drop paths, pool exhaustion, queue
disciplines and adaptation do the work here; edge steering, links and
admission signalling are off the path.

Every cycle replays the same tick schedule on a freshly built cell, so
delivery is deterministic in virtual time: a faster program delivers the
same frames sooner, and a change that weakens adaptation shows up in
``delivered_frac``.  Frames and cells are built before the timer starts.
Latency is each delivered frame's sojourn from the start of the tick
that offered it to the end of the scheduler step that sent it out; the
(tick, step) of every frame comes from an untimed reference replay of
the same seed, and each timed cycle must reproduce that replay's egress
count step by step.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from struct import pack, unpack_from
from typing import Any

from repro.appservices import (
    AdmissionQueueProbe,
    BacklogProbe,
    DropCounterProbe,
    MonitorCF,
    PoolWatermarkProbe,
)
from repro.coordination import (
    AdaptationAction,
    AdaptationManager,
    ClassStarvationPolicy,
    MonitorThread,
    PlacementResizePolicy,
    SustainedBurstPolicy,
    SystemView,
)
from repro.ixp import IxpBoard, ShardPlacement
from repro.netsim import make_udp_v4
from repro.opencom import Capsule
from repro.osbase import (
    RoundRobinScheduler,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    shard_pool_audit,
)
from repro.osbase.memory import DATAPATH_LEDGER
from repro.router import (
    AdmissionTier,
    FifoQueue,
    PriorityLinkScheduler,
    RedQueue,
    build_sharded_forwarding_datapath,
)

from perfbench.common import (
    EgressCounter,
    Gates,
    Measurement,
    add_delta,
    conservation,
    destinations,
    fifo_violations,
    make_routes,
    pool_gate,
    pool_hwm,
    shard_drops,
    weighted_quantile,
)

LEAN = 2
WIDE = 8
BATCH_SMALL = 8
BATCH_BIG = 32
BUCKETS = 32
RX_RING = 4096
BUFFER_SIZE = 128
#: One buffer budget carved across the fleet: a wide fleet pays with
#: shallow per-shard slices, the trade the burst phase exploits.
POOL_TOTAL = 768
INTERACTIVE_CAP = 512
BULK_CAP = 384
RED_CAP = 4096
#: Packets the tier schedules into the datapath per tick, in one burst.
PUMP_BUDGET = 512
STEPS_PER_TICK = 4
BURST_TICKS = 14
STARVE_TICKS = 12
FLASH_TICKS = 12
QUIET_TICKS = 20
BURST_RATE = 448
STARVE_INTERACTIVE = 384
STARVE_BULK = 256
FLASH_BULK = 512
FLASH_INTERACTIVE = 64
#: Equal sizes, so byte-fair DRR is packet-fair.
PAYLOAD = 64
UNSAFE_TICK = BURST_TICKS + STARVE_TICKS + 2
#: Replay cycles per second of --seconds: a cycle's replay takes about
#: half a second on the 2-core tuning container.
CYCLES_PER_SECOND = 2


def red_factory() -> Any:
    """Deep, late-dropping RED: the burst policy's swap target."""
    return RedQueue(
        RED_CAP,
        min_threshold=RED_CAP * 3 // 4,
        max_threshold=RED_CAP,
        max_drop_probability=0.05,
    )


def droptail_factory() -> Any:
    return FifoQueue(BULK_CAP)


def priority_factory() -> Any:
    return PriorityLinkScheduler(["interactive", "bulk"])


def make_waves(seed: int, routes: dict[str, str]) -> list[list[Any]]:
    """The trace as per-tick packet waves.  Payloads carry (flow, seq,
    tick).  The flows and each tick's mix are fixed, so every seed sheds
    nearly the same load; the seed draws the order within each tick."""
    rng = random.Random(seed)
    bases = destinations(routes)
    elephant = ("10.40.0.9", bases[0], 40001, 80)
    interactive = [
        (f"10.41.0.{i}", bases[i % len(bases)], 2000 + i, 53) for i in range(16)
    ]
    bulk = [(f"10.42.{i}.9", bases[i % len(bases)], 3000 + i, 80) for i in range(64)]
    flows = [elephant, *interactive, *bulk]
    ids = {spec: index for index, spec in enumerate(flows)}

    def spread(specs: list, count: int) -> list:
        return [specs[i % len(specs)] for i in range(count)]

    schedule: list[list] = []
    schedule += [[elephant] * BURST_RATE for _ in range(BURST_TICKS)]
    schedule += [
        spread(interactive, STARVE_INTERACTIVE) + spread(bulk[:16], STARVE_BULK)
        for _ in range(STARVE_TICKS)
    ]
    schedule += [
        spread(bulk, FLASH_BULK) + spread(interactive, FLASH_INTERACTIVE)
        for _ in range(FLASH_TICKS)
    ]
    schedule += [[] for _ in range(QUIET_TICKS)]
    seq = [0] * len(flows)
    waves = []
    for tick, specs in enumerate(schedule):
        rng.shuffle(specs)
        wave = []
        for spec in specs:
            flow = ids[spec]
            payload = pack("!III", flow, seq[flow], tick) + bytes(PAYLOAD - 12)
            seq[flow] += 1
            src, dst, sport, dport = spec
            wave.append(make_udp_v4(src, dst, sport=sport, dport=dport, payload=payload))
        waves.append(wave)
    return waves


@dataclass
class Cell:
    threads: Any
    datapath: Any
    tier: Any
    manager: Any
    monitor_thread: Any
    egress: EgressCounter
    stop: list[bool]
    shards: dict[int, Any] = field(default_factory=dict)
    pools: dict[int, Any] = field(default_factory=dict)
    #: Every admission queue the tier has run; a swapped-out queue keeps
    #: the drops it counted before the swap.
    queues: dict[int, Any] = field(default_factory=dict)

    def observe(self) -> None:
        for shard in self.datapath.shards:
            self.shards[id(shard)] = shard
            self.pools[id(shard.pool)] = shard.pool

    def observe_queues(self) -> None:
        stages = self.tier.pipeline.stages
        for klass in self.tier.classes:
            queue = stages[f"queue:{klass}"]
            self.queues[id(queue)] = queue

    def queue_drops(self) -> int:
        return sum(
            count
            for queue in self.queues.values()
            for key, count in queue.counters.items()
            if key.startswith("drop:")
        )


def build_cell(routes: dict[str, str], egress: EgressCounter, tracer: Any = None) -> Cell:
    """A lean, small-batch, DRR, drop-tail cell with the closed loop
    attached (the weakest static configuration the loop adapts from)."""
    threads = ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())
    placement = ShardPlacement(IxpBoard(), max_shards=WIDE)
    datapath = build_sharded_forwarding_datapath(
        routes=routes,
        shards=LEAN,
        threads=threads,
        pools=carve_shard_pools(
            BUFFER_SIZE, POOL_TOTAL, LEAN, exhaustion_policy="drop-newest"
        ),
        batch=BATCH_SMALL,
        rx_ring_size=RX_RING,
        tx_handler=egress.factory,
        buckets=BUCKETS,
        locality=placement.locality_penalty,
        name="overload",
    )
    tier = AdmissionTier(
        Capsule("edge-overload"),
        datapath.steer_batch,
        classes={
            "interactive": lambda: FifoQueue(INTERACTIVE_CAP),
            "bulk": droptail_factory,
        },
        filters=("dport=53 -> interactive",),
        name="admission-overload",
    )
    if tracer is not None:
        tracer.patch_instance(tier.pipeline, "push_batch", "admission.classify")
    stop = [False]

    def pump_body():
        # NAPI-style poll: one scheduling burst per tick.
        while not stop[0]:
            tier.service(PUMP_BUDGET)
            for _ in range(STEPS_PER_TICK):
                yield
                if stop[0]:
                    return

    threads.spawn("overload-pump", pump_body())
    monitor = MonitorCF()
    monitor.accept(PoolWatermarkProbe(lambda: [s.pool for s in datapath.shards]))
    monitor.accept(BacklogProbe(datapath))
    monitor.accept(AdmissionQueueProbe(tier))
    sink = tier.pipeline.stages["sink"]
    monitor.accept(
        DropCounterProbe({"inject_refused": lambda: sink.counters.get("inject:refused", 0)})
    )
    capacity = placement.fleet_capacity_pps(WIDE)
    policies = [
        SustainedBurstPolicy(
            queue_class="bulk",
            red_factory=red_factory,
            drop_signal="admission_drops",
            ticks=2,
            batch=BATCH_BIG,
            steal_watermark=8,
        ),
        ClassStarvationPolicy(
            klass="interactive",
            scheduler_factory=priority_factory,
            min_depth=48,
            ticks=3,
        ),
        PlacementResizePolicy(
            placement=placement,
            rate_scale=capacity / 40.0,
            max_divergence=64.0,
            quiet_rate=capacity / 100.0,
            ticks=3,
            min_shards=LEAN,
            max_shards=WIDE,
        ),
    ]
    view = SystemView(datapath=datapath, admission=tier, placement=placement)
    manager = AdaptationManager(view, monitor, policies=policies, window_size=16)
    monitor_thread = MonitorThread(manager, period=STEPS_PER_TICK)
    monitor_thread.spawn(threads)
    cell = Cell(threads, datapath, tier, manager, monitor_thread, egress, stop)
    cell.observe()
    cell.observe_queues()
    return cell


@dataclass
class Replay:
    """One cycle: offered/delivered frames, wall time, the end time and
    cumulative egress of every scheduler step, the start of every tick."""

    offered: int
    delivered: int
    seconds: float
    tick_starts: list[float]
    step_ends: list[float]
    step_egress: list[int]
    vetoes: list[str]
    applied: list[str]


def replay(cell: Cell, waves: list[list[Any]], *, tracer: Any = None) -> Replay:
    """Replay the tick schedule (timed); every cycle steps the identical
    virtual time."""
    threads, tier, datapath, manager = cell.threads, cell.tier, cell.datapath, cell.manager
    egress = cell.egress
    clock = time.perf_counter
    tick_starts: list[float] = []
    step_ends: list[float] = []
    step_egress: list[int] = []
    vetoes: list[str] = []
    offered = 0
    shard_count = len(datapath.shards)
    start = clock()
    for tick, wave in enumerate(waves):
        if tracer is not None:
            tracer.burst = tick
        tick_starts.append(clock())
        if wave:
            offered += tier.push_batch(wave)
        if tick == UNSAFE_TICK:
            unsafe = AdaptationAction(
                "swap-queue",
                {
                    "class": "bulk",
                    "factory": red_factory,
                    "quiesce": False,
                    "label": "unsafe live-port swap",
                },
                reason="injected unsafe request",
            )
            if manager.request(unsafe):
                vetoes.append("applied")
            else:
                vetoes.append(manager.vetoes[-1].rule)
        for _ in range(STEPS_PER_TICK):
            # A queue swap inside this step must not take the drops the
            # outgoing queue counted with it.
            cell.observe_queues()
            threads.step_parallel(datapath.cores + 2)
            step_ends.append(clock())
            step_egress.append(egress.count)
        if len(datapath.shards) != shard_count:
            shard_count = len(datapath.shards)
            cell.observe()
    seconds = clock() - start
    return Replay(
        offered=offered,
        delivered=egress.count,
        seconds=seconds,
        tick_starts=tick_starts,
        step_ends=step_ends,
        step_egress=step_egress,
        vetoes=vetoes,
        applied=[action.kind for action in manager.applied],
    )


def finish(cell: Cell, result: Replay, gates: Gates) -> None:
    """Untimed: retire the auxiliary threads, drain everything still in
    the tier and on the rings, then check conservation and pool audits."""
    cell.stop[0] = True
    cell.monitor_thread.stop()
    tier, datapath = cell.tier, cell.datapath
    for _ in range(2 * STEPS_PER_TICK):
        datapath.threads.step_parallel(datapath.cores + 2)
    while tier.depth() or datapath.total_backlog():
        tier.service(PUMP_BUDGET)
        datapath.pump()
    cell.observe()
    datapath.shutdown(drain=True)
    sink = tier.pipeline.stages["sink"]
    drops = {
        "tier.queue_drops": cell.queue_drops(),
        "tier.inject_refused": sink.counters.get("inject:refused", 0),
        "steer.parked_refused": sum(r["parked_refused"] for r in datapath.resizes),
        **{
            key: count
            for key, count in shard_drops(cell.shards.values()).items()
            if key.startswith("stage.")
        },
    }
    conservation(
        gates, result.offered, cell.egress.count, drops,
        tier.depth() + datapath.total_backlog() + datapath.parked_count(),
    )
    pool_gate(gates, shard_pool_audit(list(cell.pools.values())), "overload cell")
    gates.check(
        result.vetoes == ["no-swap-on-live-port"],
        f"unsafe live-port swap: expected the typed veto, got {result.vetoes}",
    )
    gates.check(
        cell.manager.audit() == [], "adaptation left a rule-invalid configuration"
    )


@dataclass
class Reference:
    """The untimed replay every timed cycle must reproduce."""

    replay: Replay
    #: (tick offered, step egressed) -> frames.
    sojourns: Counter
    fifo_violations: int
    gates: Gates


@dataclass
class OverloadSystem:
    egress: EgressCounter = field(default_factory=EgressCounter)
    totals: Counter = field(default_factory=Counter)
    pool_hwm: int = 0


class Overload:
    name = "overload"

    def __init__(self, seed: int) -> None:
        self.routes = make_routes()
        self.waves = make_waves(seed, self.routes)
        self._reference: Reference | None = None

    def reference(self) -> Reference:
        if self._reference is None:
            self._reference = self._reference_replay()
        return self._reference

    def _reference_replay(self) -> Reference:
        step = [0]
        stamps: list[tuple[int, int]] = []
        sojourns: Counter = Counter()

        class Recorder(EgressCounter):
            def consume(self, frame: Any) -> None:
                flow, seq, tick = unpack_from("!III", frame.payload, 0)
                stamps.append((flow, seq))
                sojourns[(tick, step[0])] += 1
                super().consume(frame)

        cell = build_cell(self.routes, Recorder())
        original = cell.threads.step_parallel

        def counted_step(cores: int) -> Any:
            # Egress during the k-th step of the replay belongs to step k.
            ran = original(cores)
            step[0] += 1
            return ran

        cell.threads.step_parallel = counted_step
        result = replay(cell, self.waves)
        del cell.threads.step_parallel
        gates = Gates()
        finish(cell, result, gates)
        delivered = sum(
            count for (tick, when), count in sojourns.items() if when < len(result.step_ends)
        )
        gates.check(delivered == result.delivered, "reference: sojourn count mismatch")
        return Reference(result, sojourns, fifo_violations(stamps), gates)

    def new_cell(self, system: OverloadSystem, tracer: Any = None) -> Cell:
        system.egress = EgressCounter()
        return build_cell(self.routes, system.egress, tracer)

    def setup(self) -> OverloadSystem:
        system = OverloadSystem()
        cell = self.new_cell(system)
        result = replay(cell, self.waves)
        finish(cell, result, Gates())
        # End of set-up: collect once; collection stays enabled.
        gc.collect()
        return system

    def teardown(self, system: OverloadSystem) -> None:
        pass

    def counters(self, system: OverloadSystem) -> dict[str, int]:
        return {
            **system.totals,
            "copies": DATAPATH_LEDGER.copies,
            "allocations": DATAPATH_LEDGER.allocations,
        }

    def _account(self, system: OverloadSystem, cell: Cell, result: Replay) -> None:
        totals = system.totals
        datapath = cell.datapath
        shards = list(cell.shards.values())
        pools = list(cell.pools.values())
        totals["frames"] += result.offered
        totals["egressed"] += result.delivered
        totals["cycles"] += 1
        totals["nic_rx_drops"] += sum(s.nic.counters["rx_drops"] for s in shards)
        totals["steered"] += sum(s.nic.counters["rx_packets"] for s in shards)
        totals["steer_refused"] += datapath.steering.malformed + sum(
            s.nic.counters["rx_drops"] + s.nic.counters["oversize_drops"] for s in shards
        )
        totals["steals"] += datapath.local_steals + datapath.remote_steals
        totals["pool_acquires"] += sum(p.acquired_total for p in pools)
        totals["pool_exhaustions"] += sum(p.exhaustion_events for p in pools)
        totals["tier_drops"] += cell.queue_drops()
        totals["adapt_applied"] += len(cell.manager.applied)
        totals["adapt_vetoed"] += len(cell.manager.vetoes)
        totals["parked_frames"] += sum(
            r["parked_flushed"] + r["parked_refused"] for r in datapath.resizes
        )
        totals["reconfig_ops"] += len(cell.manager.applied)
        system.pool_hwm = max(system.pool_hwm, pool_hwm(pools))

    def measure(self, system: OverloadSystem, seconds: float, tracer: Any = None) -> Measurement:
        reference = self.reference()
        expected = reference.replay
        gates = Gates()
        sojourn_us: Counter = Counter()
        offered = delivered = 0
        busy = 0.0
        before = self.counters(system)
        # Span deltas of the replays only: cell builds and drains between
        # them run traced but untimed.
        spans: dict = {}
        for _cycle in range(max(1, round(seconds * CYCLES_PER_SECOND))):
            cell = self.new_cell(system, tracer)
            spans_before = tracer.snapshot() if tracer is not None else {}
            result = replay(cell, self.waves, tracer=tracer)
            busy += result.seconds
            if tracer is not None:
                add_delta(spans, spans_before, tracer.snapshot())
            finish(cell, result, gates)
            self._account(system, cell, result)
            offered += result.offered
            delivered += result.delivered
            gates.check(
                result.step_egress == expected.step_egress,
                "cycle egress differs step by step from the reference replay "
                f"(delivered {result.delivered}, reference {expected.delivered})",
            )
            gates.check(
                result.applied == expected.applied,
                f"adaptations {result.applied} differ from the reference "
                f"{expected.applied}",
            )
            for (tick, step), count in reference.sojourns.items():
                if step < len(result.step_ends):
                    wait = result.step_ends[step] - result.tick_starts[tick]
                    sojourn_us[wait * 1e6] += count
        # Counters cover each cycle's frames to the end of their drain.
        counters: dict = {}
        add_delta(counters, before, self.counters(system))
        return Measurement(
            fwd_kpps=delivered / busy / 1e3,
            lat_p50_us=weighted_quantile(sojourn_us, 0.50),
            lat_p99_us=weighted_quantile(sojourn_us, 0.99),
            delivered_frac=delivered / offered,
            attempted=offered,
            gates=gates,
            busy_frames=offered,
            busy_seconds=busy,
            busy_counters=counters,
            busy_spans=spans if tracer is not None else None,
            pool_hwm=system.pool_hwm,
        )

    def verify(self, gates: Gates) -> None:
        """The untimed reference replay of the same seed: conservation,
        pool audits, the typed veto, and per-flow FIFO among the frames
        that survived the drops."""
        reference = self.reference()
        gates.failures += reference.gates.failures
        gates.checks += reference.gates.checks
        gates.check(
            reference.fifo_violations == 0, "verify: per-flow FIFO order broken"
        )

