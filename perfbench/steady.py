"""Workload ``steady``: the fleet's headline path, every frame on the fast
path.

Two capsules of two shards each, built by ``build_capsule_fleet`` with
its defaults (fused stage chain, checksums validated).  Inputs are 1024
flows with Zipf(1) popularity, sent as minimum-size IPv4/UDP frames in
raw wire bytes, so per-frame cost dominates and a per-flow cache would
see reuse.  A closed-loop phase sends 256-frame bursts and pumps the
fleet to quiescence after each (``fwd_kpps``); an open-loop phase offers
a fixed rate (``lat_p50_us``, ``lat_p99_us``).
"""

from __future__ import annotations

import gc
import random
import statistics
from typing import Any

from repro.netsim import make_udp_v4
from repro.netsim.wire import WirePacket
from repro.opencom import Capsule
from repro.osbase import Nic, release_dropped
from repro.router import build_capsule_fleet, build_forwarding_pipeline

from perfbench.common import (
    MAX_UTILISATION,
    EgressCounter,
    EgressRecorder,
    FleetSystem,
    FleetView,
    Gates,
    Measurement,
    add_delta,
    closed_loop,
    conservation,
    cyclic,
    destinations,
    fifo_violations,
    fleet_counters,
    make_routes,
    open_loop,
    pool_gate,
    pool_hwm,
    quantile,
    shutdown_fleet,
    stamp,
)

CAPSULES = 2
SHARDS = 2
FLOWS = 1024
#: Frames in the pre-built trace, replayed cyclically (a multiple of BURST).
TRACE_FRAMES = 1 << 16
#: IPv4 (20) + UDP (8) + 18 payload bytes: the 46-byte packet of a
#: minimum-size Ethernet frame.
PAYLOAD = 18
BURST = 256
#: Nominal closed-loop rate: the phase sends this many frames per second
#: of --seconds it is given (half the run), and times them.
CLOSED_RATE = 40_000
WARM_BURSTS = 8
#: Open-loop offered rate.  One frame per pump costs 43 to 80 us on the
#: shared 2-core container the benchmark was tuned on (its speed varies
#: with the neighbours' load), so utilisation stays at 20-40%: latency
#: measures the path, not a queue.
OPEN_RATE = 5_000.0
#: Largest catch-up burst the open-loop generator sends before pumping.
OPEN_CAP = 64
#: Closed-loop and open-loop chunks alternate this many times per run.
ROUNDS = 40
VERIFY_FRAMES = 8192


def make_trace(seed: int, routes: dict[str, str]) -> list[bytes]:
    """TRACE_FRAMES wire frames over FLOWS flows, flow i drawn with
    weight 1/(i+1); each payload carries (flow, per-flow sequence).

    The flows, and so where each one is steered, are the same for every
    seed; the seed draws the frame sequence."""
    rng = random.Random(seed)
    bases = destinations(routes)
    flows = [
        (f"10.{1 + i // 250}.{i % 250}.7", bases[i % len(bases)], 1024 + i, 53)
        for i in range(FLOWS)
    ]
    picks = rng.choices(
        range(FLOWS), weights=[1.0 / (i + 1) for i in range(FLOWS)], k=TRACE_FRAMES
    )
    seq = [0] * FLOWS
    frames = []
    for flow in picks:
        src, dst, sport, dport = flows[flow]
        payload = stamp(flow, seq[flow], PAYLOAD)
        frames.append(
            make_udp_v4(src, dst, sport=sport, dport=dport, payload=payload).to_bytes()
        )
        seq[flow] += 1
    return frames


def oracle_egress(routes: dict[str, str], frames: list[bytes]) -> list[bytes]:
    """Egress bytes of one interpreted ``build_forwarding_pipeline`` fed
    the same frames: the reference the fleet must match byte for byte."""
    capsule = Capsule("oracle")
    hops = sorted(set(routes.values()))
    pipeline = build_forwarding_pipeline(
        capsule, routes=routes, tx_nics={hop: Nic(tx_ring_size=BURST) for hop in hops}
    )
    out: list[bytes] = []

    def take(frame: Any) -> None:
        out.append(frame.to_bytes())
        release_dropped(frame)

    for a in range(0, len(frames), BURST):
        pipeline.push_batch([WirePacket.ingest(f) for f in frames[a : a + BURST]])
        pipeline.flush_tx(handler=take)
    return out


class Steady:
    """The steady workload; :class:`~perfbench.churn.Churn` reuses its
    closed-loop/open-loop measurement over a different fleet and trace."""

    name = "steady"
    burst = BURST
    closed_rate = CLOSED_RATE
    open_rate = OPEN_RATE

    def __init__(self, seed: int) -> None:
        self.routes = make_routes()
        self.frames = make_trace(seed, self.routes)

    def build(self, egress: EgressCounter) -> Any:
        return build_capsule_fleet(
            CAPSULES, routes=self.routes, shards=SHARDS, tx_handler=egress.factory
        )

    def sender(self, system: FleetSystem):
        ingest = system.fleet.ingest
        frames = self.frames

        def send(a: int, b: int) -> None:
            for frame in cyclic(frames, a, b):
                ingest(frame)
            system.offered += b - a

        return send

    def setup(self) -> FleetSystem:
        egress = EgressCounter()
        fleet = self.build(egress)
        system = FleetSystem(fleet, egress, FleetView(fleet))
        send = self.sender(system)
        for _ in range(WARM_BURSTS):
            send(system.offered, system.offered + BURST)
            fleet.pump()
        # End of set-up: collect once; collection stays enabled.
        gc.collect()
        return system

    def teardown(self, system: FleetSystem) -> None:
        shutdown_fleet(system.fleet)

    def closed_kpps(self, chunks: list[tuple[int, float]]) -> float:
        """Median of the closed-loop chunks' rates, from (frames
        egressed, seconds) per chunk.  Every chunk does the same work, so
        the median drops the chunks a neighbour's burst on a shared host
        slowed down; a whole-run rate moves with each of them."""
        return statistics.median(frames / seconds for frames, seconds in chunks) / 1e3

    def counters(self, system: FleetSystem) -> dict[str, int]:
        return {
            **fleet_counters(system.view),
            "frames": system.offered,
            "egressed": system.egress.count,
        }

    def measure(self, system: FleetSystem, seconds: float, tracer: Any = None) -> Measurement:
        """ROUNDS rounds of a closed-loop chunk then an open-loop chunk:
        both metrics sample the whole run, so a slow second on a shared
        host moves a few chunks, not a whole phase."""
        fleet = system.fleet
        send = self.sender(system)
        on_burst = None if tracer is None else (lambda b: setattr(tracer, "burst", b))
        gates = Gates()
        start_offered, start_egress = system.offered, system.egress.count
        rate = self.open_rate
        closed_frames = int(self.closed_rate * seconds / 2 / ROUNDS)
        open_frames = int(rate * seconds / 2 / ROUNDS)
        counters: dict = {}
        spans: dict = {}
        busy_frames = 0
        busy_seconds = 0.0
        chunks: list[tuple[int, float]] = []
        latencies: list[float] = []
        late_max = 0.0
        open_seconds = busy_open = 0.0
        for _ in range(ROUNDS):
            before = self.counters(system)
            spans_before = tracer.snapshot() if tracer is not None else {}
            closed = closed_loop(
                send, fleet.pump, frames=closed_frames, burst=self.burst,
                first=system.offered, on_burst=on_burst,
            )
            after = self.counters(system)
            add_delta(counters, before, after)
            if tracer is not None:
                add_delta(spans, spans_before, tracer.snapshot())
            chunks.append((after["egressed"] - before["egressed"], closed.seconds))
            busy_frames += closed.frames
            busy_seconds += closed.seconds
            opened = open_loop(
                send, fleet.pump, frames=open_frames, rate=rate,
                cap=OPEN_CAP, first=system.offered, on_burst=on_burst,
            )
            latencies += opened.latencies_us
            late_max = max(late_max, opened.late_us_max)
            seconds_here = open_frames / opened.achieved_rate
            open_seconds += seconds_here
            busy_open += opened.utilisation * seconds_here
        utilisation = busy_open / open_seconds
        gates.check(
            utilisation <= MAX_UTILISATION,
            f"open loop never caught up: generator busy {utilisation:.1%} of the time "
            f"at {rate:.0f} frames/s offered",
        )
        offered = system.offered - start_offered
        egressed = system.egress.count - start_egress
        drops = system.view.drops()
        conservation(gates, system.offered, system.egress.count, drops, system.view.in_flight())
        gates.check(sum(drops.values()) == 0, f"{self.name} dropped frames: {drops}")
        pool_gate(gates, system.view.audit(), "fleet")
        self.check(system, gates)
        return Measurement(
            fwd_kpps=self.closed_kpps(chunks),
            lat_p50_us=quantile(latencies, 0.50),
            lat_p99_us=quantile(latencies, 0.99),
            delivered_frac=egressed / offered,
            attempted=offered,
            gates=gates,
            busy_frames=busy_frames,
            busy_seconds=busy_seconds,
            busy_counters=counters,
            busy_spans=spans if tracer is not None else None,
            pool_hwm=pool_hwm(system.view.pools.values()),
            late_max_us=late_max,
            offered_rate=rate,
            achieved_rate=open_frames * ROUNDS / open_seconds,
            open_utilisation=utilisation,
            **self.extras(system),
        )

    def check(self, system: FleetSystem, gates: Gates) -> None:
        """Workload-specific gates at the end of a timed run."""

    def extras(self, system: FleetSystem) -> dict:
        """Workload-specific :class:`Measurement` figures."""
        return {}

    def verify(self, gates: Gates) -> None:
        """Untimed pass over the same seed: per-flow FIFO by payload
        sequence, and egress bytes equal to the single-pipeline oracle."""
        recorder = EgressRecorder(keep_bytes=True)
        fleet = self.build(recorder)
        frames = self.frames[:VERIFY_FRAMES]
        for a in range(0, VERIFY_FRAMES, BURST):
            for frame in frames[a : a + BURST]:
                fleet.ingest(frame)
            fleet.pump()
        gates.check(
            recorder.count == VERIFY_FRAMES,
            f"verify: {recorder.count} of {VERIFY_FRAMES} frames egressed",
        )
        gates.check(
            fifo_violations(recorder.stamps) == 0, "verify: per-flow FIFO order broken"
        )
        gates.check(
            sorted(recorder.raw) == sorted(oracle_egress(self.routes, frames)),
            "verify: fleet egress bytes differ from the single-pipeline oracle",
        )
        shutdown_fleet(fleet)
