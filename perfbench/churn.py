"""Workload ``churn``: the control plane sets the pace and the tail.

A 2x2 capsule fleet with 32 RSS buckets per capsule and admission
enforced at the edge.  64 flows are open at any time, each 16 frames
long: a flow calls ``open_flow`` (edge admission plus an RSVP round)
before its first frame and ``close_flow`` after its last.  Frame sizes
follow IMIX (64, 576 and 1500 bytes, 7:4:1), so flow reuse is low and
frames are byte-heavy.  A fixed schedule of reconfigurations fires at
fixed frame indices, not wall-clock times, and repeats: resize cap0
2 -> 4, crash a cap1 worker and recover its shard, resize cap0 4 -> 2,
then two staged rollouts.  Capsule kill is left out: the frames it
abandons depend on where wall-clock batch boundaries fall.

The closed-loop phase (``fwd_kpps``) pays for flow set-up and every
reconfiguration in its frame rate; the open-loop phase offers 8 kpps.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.netsim import make_udp_v4
from repro.router import build_capsule_fleet

from perfbench.common import (
    EgressCounter,
    EgressRecorder,
    FleetSystem,
    FleetView,
    Gates,
    destinations,
    fifo_violations,
    make_routes,
    quantile,
    shutdown_fleet,
    stamp,
)
from perfbench.steady import Steady

CAPSULES = 2
SHARDS = 2
BUCKETS = 32
ACTIVE_FLOWS = 64
FLOW_FRAMES = 16
#: IMIX packet sizes (bytes on the wire) and their 7:4:1 weights.
IMIX = ((64, 7), (576, 4), (1500, 1))
#: Frames before the trace stops opening flows and lets the open ones
#: finish; the whole trace then replays cyclically with every flow closed.
TRACE_FRAMES = 1 << 15
#: Reserved rate per flow (packets/s) in the admission request.
FLOW_RATE = 100.0
#: One reconfiguration every OP_EVERY frames, at offset OP_EVERY // 2.
OP_EVERY = 4096
SCHEDULE = ("grow", "recover", "shrink", "rollout", "rollout")
#: Scheduler steps a poisoned worker gets to reach its next quantum.
CRASH_STEPS = 16
BURST = 64
CLOSED_RATE = 14_000
#: Open-loop offered rate: 20-40% of what one frame per pump plus its
#: share of flow set-up costs on the shared 2-core tuning container.
OPEN_RATE = 4_000.0
WARM_FRAMES = 2048


@dataclass
class ChurnTrace:
    """Frames in send order; ``opens[i]``/``closes[i]`` mark a flow's
    first and last frame."""

    frames: list[bytes] = field(default_factory=list)
    opens: list[bool] = field(default_factory=list)
    closes: list[bool] = field(default_factory=list)


def make_trace(seed: int, routes: dict[str, str]) -> ChurnTrace:
    """Flow *n*'s addresses depend on *n* only; the seed draws which open
    flow sends next and each frame's IMIX size."""
    rng = random.Random(seed)
    bases = destinations(routes)
    sizes = [size for size, _ in IMIX]
    weights = [weight for _, weight in IMIX]
    trace = ChurnTrace()
    slots: list[list | None] = [None] * ACTIVE_FLOWS
    next_flow = 0
    while len(trace.frames) < TRACE_FRAMES or any(slots):
        if len(trace.frames) < TRACE_FRAMES:
            slot = rng.randrange(ACTIVE_FLOWS)
        else:
            slot = rng.choice([i for i, s in enumerate(slots) if s])
        if slots[slot] is None:
            flow = next_flow
            next_flow += 1
            tuple5 = (
                f"10.{100 + (flow // 250) % 150}.{flow % 250}.9",
                bases[flow % len(bases)],
                2000 + flow % 60000,
                80,
            )
            slots[slot] = [flow, tuple5, 0]
        flow, (src, dst, sport, dport), seq = slots[slot]
        size = rng.choices(sizes, weights=weights)[0]
        # 28 bytes of IPv4 + UDP header, the rest payload.
        payload = stamp(flow, seq, size - 28)
        trace.frames.append(
            make_udp_v4(src, dst, sport=sport, dport=dport, payload=payload).to_bytes()
        )
        trace.opens.append(seq == 0)
        trace.closes.append(seq == FLOW_FRAMES - 1)
        if seq == FLOW_FRAMES - 1:
            slots[slot] = None
        else:
            slots[slot][2] = seq + 1
    return trace


@dataclass
class ChurnSystem(FleetSystem):
    setup_us: list[float] = field(default_factory=list)
    admits: int = 0
    admit_msgs: int = 0
    refusals: int = 0
    ops: int = 0
    parked_frames: int = 0
    op_ms: list[float] = field(default_factory=list)
    op_failures: list[str] = field(default_factory=list)


class Churn(Steady):
    name = "churn"
    burst = BURST
    closed_rate = CLOSED_RATE
    open_rate = OPEN_RATE

    def __init__(self, seed: int) -> None:
        self.routes = make_routes()
        self.trace = make_trace(seed, self.routes)

    def build(self, egress: EgressCounter) -> Any:
        return build_capsule_fleet(
            CAPSULES,
            routes=self.routes,
            shards=SHARDS,
            buckets=BUCKETS,
            enforce_admission=True,
            tx_handler=egress.factory,
        )

    def setup(self) -> ChurnSystem:
        egress = EgressCounter()
        fleet = self.build(egress)
        system = ChurnSystem(fleet, egress, FleetView(fleet))
        send = self.sender(system, reconfigure=False)
        for a in range(0, WARM_FRAMES, BURST):
            send(a, a + BURST)
            fleet.pump()
        system.setup_us.clear()
        # End of set-up: collect once; collection stays enabled.
        gc.collect()
        return system

    def sender(self, system: ChurnSystem, *, reconfigure: bool = True):
        fleet = system.fleet
        ingest, open_flow, close_flow = fleet.ingest, fleet.open_flow, fleet.close_flow
        agents = list(fleet.signaling.values())
        trace = self.trace
        frames, opens, closes = trace.frames, trace.opens, trace.closes
        n = len(frames)
        clock = time.perf_counter

        def send(a: int, b: int) -> None:
            for i in range(a, b):
                if reconfigure and i % OP_EVERY == OP_EVERY // 2:
                    self.reconfigure(system, i // OP_EVERY)
                k = i % n
                frame = frames[k]
                if opens[k]:
                    sent = sum(agent.counters["sent"] for agent in agents)
                    start = clock()
                    verdict = open_flow(frame, FLOW_RATE)
                    system.setup_us.append((clock() - start) * 1e6)
                    system.admit_msgs += (
                        sum(agent.counters["sent"] for agent in agents) - sent
                    )
                    system.admits += 1
                    if verdict != "admitted":
                        system.refusals += 1
                ingest(frame)
                if closes[k]:
                    close_flow(frame)
            system.offered += b - a

        return send

    def closed_kpps(self, chunks: list[tuple[int, float]]) -> float:
        """Every frame over every closed-loop second.  Reconfigurations
        fire at fixed frame indices, so chunks differ in the operations
        they hold; the whole-phase rate pays for each of them."""
        return sum(f for f, _ in chunks) / sum(t for _, t in chunks) / 1e3

    def reconfigure(self, system: ChurnSystem, index: int) -> None:
        """Run schedule entry *index*, checking the record it leaves."""
        fleet, view = system.fleet, system.view
        cap0, cap1 = fleet.capsules["cap0"], fleet.capsules["cap1"]
        step = SCHEDULE[index % len(SCHEDULE)]
        view.observe()
        failures = system.op_failures
        start = time.perf_counter()
        if step in ("grow", "shrink"):
            datapath = cap0.datapath
            target = 4 if step == "grow" else 2
            done = len(datapath.resizes)
            record = datapath.resize(target)
            if len(datapath.resizes) != done + 1 or record["to"] != target:
                failures.append(f"resize to {target} left no record")
            system.parked_frames += record["parked_flushed"] + record["parked_refused"]
        elif step == "recover":
            datapath = cap1.datapath
            datapath.inject_worker_crash(1)
            for _ in range(CRASH_STEPS):
                if not datapath.worker_alive(1):
                    break
                datapath.threads.step_parallel(datapath.cores)
            else:
                failures.append("injected crash left worker 1 alive")
            done = len(datapath.recoveries)
            record = datapath.recover_shard(1)
            if len(datapath.recoveries) != done + 1 or record["shard"] != 1:
                failures.append("shard recovery left no record")
            system.parked_frames += record["parked_flushed"] + record["parked_refused"]
        else:
            parked = sum(node.counters["parked"] for node in fleet.capsules.values())
            version = "v2" if cap0.version != "v2" else "v3"
            result = fleet.rollout.run(version)
            if result["status"] != "completed":
                failures.append(f"rollout to {version}: {result['status']}")
            system.parked_frames += (
                sum(node.counters["parked"] for node in fleet.capsules.values()) - parked
            )
        system.op_ms.append((time.perf_counter() - start) * 1e3)
        system.ops += 1
        view.observe()

    def counters(self, system: ChurnSystem) -> dict[str, int]:
        return {
            **super().counters(system),
            "admits": system.admits,
            "admit_msgs": system.admit_msgs,
            "parked_frames": system.parked_frames,
            "reconfig_ops": system.ops,
        }

    def check(self, system: ChurnSystem, gates: Gates) -> None:
        gates.check(
            system.refusals == 0, f"{system.refusals} of {system.admits} flows not admitted"
        )
        for failure in system.op_failures:
            gates.check(False, failure)
        gates.check(system.ops > 0, "no reconfiguration ran during the measurement")

    def extras(self, system: ChurnSystem) -> dict:
        samples = system.setup_us
        return {
            "flow_setup_p50_us": quantile(samples, 0.50),
            "flow_setup_p99_us": quantile(samples, 0.99),
            "reconfig_ms": sum(system.op_ms) / len(system.op_ms),
        }

    def verify(self, gates: Gates) -> None:
        """Untimed pass over one whole trace cycle with the same
        reconfiguration schedule: every frame egresses, every flow is
        admitted, and each flow's frames leave in sequence order."""
        recorder = EgressRecorder()
        fleet = self.build(recorder)
        system = ChurnSystem(fleet, recorder, FleetView(fleet))
        send = self.sender(system)
        total = len(self.trace.frames)
        for a in range(0, total, BURST):
            send(a, min(a + BURST, total))
            fleet.pump()
        gates.check(
            recorder.count == total, f"verify: {recorder.count} of {total} frames egressed"
        )
        gates.check(
            fifo_violations(recorder.stamps) == 0, "verify: per-flow FIFO order broken"
        )
        self.check(system, gates)
        shutdown_fleet(fleet)
