"""Pieces the three workloads share: seeded inputs, egress consumers,
the closed- and open-loop drivers, percentiles and the correctness
gates (frame conservation, pool audits, per-flow order)."""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from struct import pack, unpack_from
from typing import Any, Callable

from repro.netsim import synthetic_route_table
from repro.osbase import release_dropped, shard_pool_audit
from repro.osbase.memory import DATAPATH_LEDGER

HOPS = ["east", "west", "north", "south"]
ROUTE_PREFIXES = 512
#: The route table is the same for every seed: --seed varies the traffic,
#: not the cost of a longest-prefix lookup.
ROUTE_SEED = 5
#: Payload prefix every generated frame carries: flow id and per-flow
#: sequence number (the verification passes check per-flow FIFO on it).
STAMP = "!II"
STAMP_LEN = 8


def make_routes() -> dict[str, str]:
    """The LPM table plus a default route, so no frame is unroutable."""
    routes = synthetic_route_table(
        prefixes=ROUTE_PREFIXES, next_hops=HOPS, seed=ROUTE_SEED
    )
    routes["0.0.0.0/0"] = HOPS[0]
    return routes


def destinations(routes: dict[str, str]) -> list[str]:
    """Base addresses of the table's /16 prefixes.  Flows draw their
    destination from these, so every seed pays the same lookup depth."""
    return [prefix.split("/")[0] for prefix in routes if prefix.endswith("/16")]


def stamp(flow: int, seq: int, length: int) -> bytes:
    """A *length*-byte payload starting with (flow, seq)."""
    return pack(STAMP, flow, seq) + bytes(length - STAMP_LEN)


def read_stamp(frame: Any) -> tuple[int, int]:
    """(flow, seq) from an egressing frame's payload."""
    return unpack_from(STAMP, frame.payload, 0)


class EgressCounter:
    """TX consumer for timed runs: count each departing frame and hand
    its buffer back.  ``factory`` fits both the fleet's ``(capsule,
    shard)`` and the single box's ``(shard,)`` tx-handler shapes."""

    def __init__(self) -> None:
        self.count = 0

    def factory(self, *_where: Any) -> Callable[[Any], None]:
        return self.consume

    def consume(self, frame: Any) -> None:
        self.count += 1
        release_dropped(frame)


class EgressRecorder(EgressCounter):
    """TX consumer for untimed verification passes: records each frame's
    (flow, seq) stamp, and optionally its bytes, before releasing it."""

    def __init__(self, *, keep_bytes: bool = False) -> None:
        super().__init__()
        self.keep_bytes = keep_bytes
        self.stamps: list[tuple[int, int]] = []
        self.raw: list[bytes] = []

    def consume(self, frame: Any) -> None:
        self.stamps.append(read_stamp(frame))
        if self.keep_bytes:
            self.raw.append(frame.to_bytes())
        super().consume(frame)


def fifo_violations(stamps: list[tuple[int, int]]) -> int:
    """Frames whose sequence number is not above their flow's previous
    egress (reordering or duplication)."""
    last: dict[int, int] = {}
    bad = 0
    for flow, seq in stamps:
        if seq <= last.get(flow, -1):
            bad += 1
        last[flow] = seq
    return bad


# -- drivers -------------------------------------------------------------------

@dataclass
class ClosedLoop:
    """Result of a closed-loop phase."""

    frames: int
    seconds: float


def closed_loop(
    send: Callable[[int, int], None],
    pump: Callable[[], Any],
    *,
    frames: int,
    burst: int,
    first: int = 0,
    on_burst: Callable[[int], None] | None = None,
) -> ClosedLoop:
    """Send *burst* frames and pump to quiescence, until *frames* frames
    (rounded up to whole bursts) have been sent.  ``send(a, b)`` offers
    global frame indices a..b-1.

    The work is fixed and the time measured, so every run does the same
    reconfigurations, allocations and collections whatever the speed."""
    clock = time.perf_counter
    bursts = -(-frames // burst)
    start = clock()
    for index in range(bursts):
        if on_burst is not None:
            on_burst(index)
        a = first + index * burst
        send(a, a + burst)
        pump()
    return ClosedLoop(frames=bursts * burst, seconds=clock() - start)


@dataclass
class OpenLoop:
    """Result of an open-loop phase: per-frame latencies from each
    frame's scheduled send time to the end of the pump that drained it."""

    latencies_us: list[float]
    late_us_max: float
    #: Frames over the phase's wall time.
    achieved_rate: float
    #: Share of the phase spent sending and pumping rather than waiting
    #: for the next frame to fall due.
    utilisation: float


#: A generator busy for more than this share of an open-loop phase never
#: caught up: its backlog was growing, and the phase fails its gate.
#: (A stall raises utilisation by its own length only, so stalls that the
#: system recovers from pass.)
MAX_UTILISATION = 0.98


def open_loop(
    send: Callable[[int, int], None],
    pump: Callable[[], Any],
    *,
    frames: int,
    rate: float,
    cap: int,
    first: int = 0,
    on_burst: Callable[[int], None] | None = None,
) -> OpenLoop:
    """Offer *frames* frames on a fixed schedule of *rate* per second.

    Each iteration sends every frame already due, at most *cap* of them
    (a capped catch-up burst never overflows a ring), then pumps to
    quiescence.  Only the iteration boundaries are recorded inside the
    loop; latencies are computed afterwards."""
    clock = time.perf_counter
    interval = 1.0 / rate
    iterations: list[tuple[int, float]] = []
    late_max = 0.0
    sent = 0
    busy = 0.0
    start = clock()
    while sent < frames:
        now = clock()
        due = min(frames, int((now - start) * rate) + 1)
        if due <= sent:
            continue
        late = now - (start + sent * interval)
        if late > late_max:
            late_max = late
        if on_burst is not None:
            on_burst(len(iterations))
        limit = min(due, sent + cap)
        send(first + sent, first + limit)
        sent = limit
        pump()
        done = clock()
        busy += done - now
        iterations.append((limit, done))
    latencies: list[float] = []
    previous = 0
    for limit, done in iterations:
        base = done - start
        latencies.extend((base - j * interval) * 1e6 for j in range(previous, limit))
        previous = limit
    elapsed = iterations[-1][1] - start
    return OpenLoop(
        latencies_us=latencies,
        late_us_max=late_max * 1e6,
        achieved_rate=frames / elapsed,
        utilisation=busy / elapsed,
    )


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of *values* (0 < q <= 1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def weighted_quantile(samples: dict[float, int], q: float) -> float:
    """Nearest-rank quantile over value → count."""
    total = sum(samples.values())
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value in sorted(samples):
        seen += samples[value]
        if seen >= rank:
            return value
    raise ValueError("no samples")


# -- gates ---------------------------------------------------------------------


@dataclass
class Gates:
    """Correctness checks of one run; any failure fails the run."""

    failures: list[str] = field(default_factory=list)
    checks: int = 0

    def check(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def passed(self) -> bool:
        return not self.failures


class FleetView:
    """Every datapath, shard and pool slice a fleet has run on.

    A shrink drops shards from the live datapath and a rollout retires
    whole datapaths, so the harness observes the fleet before and after
    each reconfiguration; drop counters and pool audits then cover
    everything a frame could have passed through."""

    def __init__(self, fleet: Any) -> None:
        self.fleet = fleet
        self.datapaths: dict[int, Any] = {}
        self.shards: dict[int, Any] = {}
        self.pools: dict[int, Any] = {}
        self.observe()

    def observe(self) -> None:
        nodes = {**self.fleet.capsules, **self.fleet.dead}
        for node in nodes.values():
            for datapath in [*node.retired, node.datapath]:
                self.datapaths[id(datapath)] = datapath
        for datapath in self.datapaths.values():
            for shard in datapath.shards:
                self.shards[id(shard)] = shard
                if shard.pool is not None:
                    self.pools[id(shard.pool)] = shard.pool

    def drops(self) -> dict[str, int]:
        """Named drop counters, each frame counted at the one place it
        was dropped."""
        self.observe()
        fleet = self.fleet
        nodes = {**fleet.capsules, **fleet.dead}
        drops = {
            "edge.malformed": fleet.counters["malformed"],
            "edge.link_refused": fleet.counters["link_refused"],
            "edge.unadmitted": fleet.counters["unadmitted"],
            "capsule.dead_drops": sum(n.counters["dead_drops"] for n in nodes.values()),
            "capsule.abandoned": sum(n.counters["abandoned"] for n in nodes.values()),
            "node.delivery_drops": sum(
                n.node.counters["delivery_drops"] + n.node.counters["no_handler_drops"]
                for n in nodes.values()
            ),
            "link.lost": sum(
                stats.lost + stats.dropped_down
                for link in fleet.topology.links
                for stats in link.stats().values()
            ),
            "steer.malformed": sum(
                dp.steering.malformed for dp in self.datapaths.values()
            ),
        }
        drops.update(shard_drops(self.shards.values()))
        return drops

    def in_flight(self) -> int:
        """Frames still inside the fleet: link events pending, frames on
        RX rings or parked by an open round."""
        fleet = self.fleet
        held = fleet.engine.pending()
        for node in fleet.capsules.values():
            held += node.datapath.total_backlog() + node.datapath.parked_count()
        return held

    def audit(self) -> dict:
        self.observe()
        return shard_pool_audit(list(self.pools.values()))


def shard_drops(shards: Any) -> dict[str, int]:
    """Shard-NIC drops (ring overrun, pool exhaustion, malformed,
    oversize) and drops counted by any stage of the shard pipelines."""
    drops: dict[str, int] = defaultdict(int)
    for shard in shards:
        counters = shard.nic.counters
        drops["nic.rx_drops"] += counters["rx_drops"]
        drops["nic.oversize_drops"] += counters["oversize_drops"]
        for stage, stage_counters in shard.engine.stage_stats().items():
            for key, count in stage_counters.items():
                if key.startswith("drop"):
                    drops[f"stage.{key}"] += count
    return dict(drops)


def conservation(gates: Gates, offered: int, egressed: int, drops: dict[str, int], in_flight: int) -> None:
    """offered == egressed + named drops, with nothing left in flight."""
    dropped = sum(drops.values())
    named = ", ".join(f"{k}={v}" for k, v in sorted(drops.items()) if v)
    gates.check(
        in_flight == 0, f"{in_flight} frames still in flight after the final pump"
    )
    gates.check(
        offered == egressed + dropped,
        f"conservation: offered {offered} != egressed {egressed} + dropped "
        f"{dropped} ({named or 'no named drops'})",
    )


def pool_gate(gates: Gates, audit: dict, where: str) -> None:
    gates.check(
        audit["balanced"],
        f"{where}: pool audit unbalanced (acquired {audit['acquired_total']}, "
        f"released {audit['released_total']}, in flight {audit['in_flight']})",
    )


@dataclass
class FleetSystem:
    """A built fleet plus the harness state that drives it."""

    fleet: Any
    egress: EgressCounter
    view: FleetView
    offered: int = 0


def shutdown_fleet(fleet: Any) -> None:
    for node in fleet.capsules.values():
        node.datapath.shutdown()


# -- per-phase counters ----------------------------------------------------------


@dataclass
class Measurement:
    """What one timed run of a workload produced.

    ``busy_counters`` and ``busy_spans`` hold what the program's
    counters and the tracer's per-name aggregates moved by during the
    busy (closed-loop or replay) windows, from which per-layer metrics
    are derived.  The optional figures after them exist only where the
    workload has an open loop or a control plane."""

    fwd_kpps: float
    lat_p50_us: float
    lat_p99_us: float
    delivered_frac: float
    attempted: int
    gates: Gates
    busy_frames: int = 0
    busy_seconds: float = 0.0
    busy_counters: dict = field(default_factory=dict)
    busy_spans: dict | None = None
    pool_hwm: int = 0
    late_max_us: float | None = None
    offered_rate: float | None = None
    achieved_rate: float | None = None
    open_utilisation: float | None = None
    flow_setup_p50_us: float | None = None
    flow_setup_p99_us: float | None = None
    reconfig_ms: float | None = None


def add_delta(total: dict, before: dict, after: dict) -> None:
    """Add ``after - before`` into *total*, key by key (tuples of
    aggregates element by element)."""
    for key, now in after.items():
        then = before.get(key)
        if isinstance(now, tuple):
            zero = (0,) * len(now)
            total[key] = tuple(
                a + n - t for a, n, t in zip(total.get(key, zero), now, then or zero)
            )
        else:
            total[key] = total.get(key, 0) + now - (then or 0)


def fleet_counters(view: FleetView) -> dict[str, int]:
    """Cumulative datapath counters of a fleet, for per-layer deltas."""
    view.observe()
    fleet = view.fleet
    shards = list(view.shards.values())
    datapaths = list(view.datapaths.values())
    pools = list(view.pools.values())
    return {
        "copies": DATAPATH_LEDGER.copies,
        "allocations": DATAPATH_LEDGER.allocations,
        "engine_events": fleet.engine.events_processed,
        "link_backlog_drops": sum(
            stats.dropped_backlog
            for link in fleet.topology.links
            for stats in link.stats().values()
        ),
        "nic_rx_drops": sum(s.nic.counters["rx_drops"] for s in shards),
        # Shard NICs keep their counters when a shrink retires them; the
        # steering stage's per-output lists do not.
        "steered": sum(s.nic.counters["rx_packets"] for s in shards),
        "steer_refused": sum(
            s.nic.counters["rx_drops"] + s.nic.counters["oversize_drops"] for s in shards
        ) + sum(dp.steering.malformed for dp in datapaths),
        "steals": sum(dp.local_steals + dp.remote_steals for dp in datapaths),
        "pool_acquires": sum(p.acquired_total for p in pools),
        "pool_exhaustions": sum(p.exhaustion_events for p in pools),
        "edge_offered": fleet.counters["ingested"] + fleet.counters["malformed"],
        "edge_refused": (
            fleet.counters["malformed"]
            + fleet.counters["link_refused"]
            + fleet.counters["unadmitted"]
        ),
    }


def pool_hwm(pools: Any) -> int:
    """Most buffers any one pool slice has had in flight at once."""
    return max((p.count - p.free_low_watermark for p in pools), default=0)


def cyclic(items: list, start: int, stop: int) -> list:
    """``items[start:stop]`` over an endlessly repeated *items*."""
    n = len(items)
    a = start % n
    b = a + (stop - start)
    if b <= n:
        return items[a:b]
    return items[a:] + items[: b - n]
