"""The layers a frame crosses, the entry points wrapped to time them, and
the per-layer metrics derived from a traced run.

Layers are named after the modules that implement them.  Time metrics
are self time (span minus child spans) per frame offered in the traced
busy phase, unless the name says per call or per operation.  Counts come
from the program's own counters, read before and after the same phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Self time per frame (us) of each layer, from these spans.
PER_FRAME_US = {
    "fleet.ingest_us": ("fleet.ingest",),
    "ring.lookup_us": ("ring.lookup",),
    "wire.hash_us": ("wire.flow_hash_of",),
    "wire.ingest_us": ("wire.ingest",),
    "link.send_us": ("link.send_from",),
    "engine.run_us": ("engine.run",),
    "nic.rx_us": ("nic.receive_frame",),
    "steer.us": ("steer.steer", "steer.steer_batch"),
    "pump.us": ("pump.pump", "pump.step_parallel", "fleet.pump"),
    "stages.us": ("stages.push_batch",),
    "tx.us": ("tx.flush_tx",),
    "admission.us": ("admission.push_batch", "admission.service", "admission.classify"),
}
#: Self time per call (us) of control-plane entry points.
PER_CALL_US = {
    "adapt.tick_us": ("adapt.tick",),
    "monitor.sample_us": ("monitor.sample_all",),
    "rsvp.admit_us": ("rsvp.admit",),
    "rsvp.complete_us": ("rsvp.complete",),
}
#: Self time per operation (ms) of reconfiguration entry points.
PER_CALL_MS = {
    "reconfig.resize_ms": ("reconfig.resize",),
    "reconfig.recover_ms": ("reconfig.recover_shard",),
    "rollout.ms": ("rollout.run",),
    "rollout.install_ms": ("rollout.install",),
    "reconfig.swap_ms": ("reconfig.swap_queue", "reconfig.swap_scheduler"),
}
#: Reconfiguration operations whose whole duration ``reconfig_ms`` averages.
RECONFIG_OPS = (
    "reconfig.resize",
    "reconfig.recover_shard",
    "rollout.run",
    "reconfig.swap_queue",
    "reconfig.swap_scheduler",
)
#: The traced run fails when the time rebuilt from the reported per-layer
#: metrics covers less than this share of the busy phase's wall time (the
#: rest is harness loop and wrapper entry cost outside any span).
ATTRIBUTION_MIN = 0.90


@dataclass
class RxDepth:
    """Deepest RX ring seen right after a frame was accepted."""

    deepest: int = 0

    def observe(self, args: tuple, accepted: Any) -> None:
        depth = args[0].rx_depth
        if depth > self.deepest:
            self.deepest = depth


def install(tracer: Any) -> RxDepth:
    """Wrap every layer's public entry points (class level, before the
    system is built).  The flow hash is patched at both import sites."""
    import repro.netsim.wire as wire
    import repro.router.fleet as fleet
    from repro.appservices.monitor import MonitorCF
    from repro.coordination.adaptation import AdaptationManager
    from repro.coordination.deployment import StagedRollout
    from repro.coordination.rsvp import EdgeAdmission
    from repro.netsim.engine import Engine
    from repro.netsim.link import Link
    from repro.osbase.nic import Nic
    from repro.osbase.scheduler import ThreadManagerCF
    from repro.osbase.sharding import HashRing, RssSteering, ShardedDatapath
    from repro.router.admission import AdmissionTier
    from repro.router.pipeline import RouterPipeline

    rx_depth = RxDepth()
    patch = tracer.patch
    patch(fleet.CapsuleFleet, "ingest", "fleet.ingest")
    patch(fleet.CapsuleFleet, "pump", "fleet.pump")
    patch(HashRing, "lookup", "ring.lookup")
    patch(wire, "flow_hash_of", "wire.flow_hash_of")
    patch(fleet, "flow_hash_of", "wire.flow_hash_of")
    patch(wire.WirePacket, "ingest", "wire.ingest")
    patch(Link, "send_from", "link.send_from")
    patch(Engine, "run", "engine.run")
    patch(Nic, "receive_frame", "nic.receive_frame", after=rx_depth.observe)
    patch(RssSteering, "steer", "steer.steer")
    patch(ShardedDatapath, "steer_batch", "steer.steer_batch")
    patch(ShardedDatapath, "pump", "pump.pump")
    patch(ThreadManagerCF, "step_parallel", "pump.step_parallel")
    patch(
        RouterPipeline, "push_batch", "stages.push_batch",
        items=lambda args, _result: len(args[1]),
    )
    patch(RouterPipeline, "flush_tx", "tx.flush_tx")
    patch(AdmissionTier, "push_batch", "admission.push_batch")
    patch(AdmissionTier, "service", "admission.service")
    patch(AdmissionTier, "swap_queue", "reconfig.swap_queue")
    patch(AdmissionTier, "swap_scheduler", "reconfig.swap_scheduler")
    patch(AdaptationManager, "tick", "adapt.tick")
    patch(MonitorCF, "sample_all", "monitor.sample_all")
    patch(EdgeAdmission, "admit", "rsvp.admit")
    patch(EdgeAdmission, "complete", "rsvp.complete")
    patch(ShardedDatapath, "resize", "reconfig.resize")
    patch(ShardedDatapath, "recover_shard", "reconfig.recover_shard")
    patch(StagedRollout, "run", "rollout.run")
    patch(fleet.CapsuleNode, "install", "rollout.install")
    return rx_depth


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(traced: Any, untraced: Any, rx_depth: RxDepth, gc_delta: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics from a traced :class:`~perfbench.common.
    Measurement` (span and counter deltas of its busy windows) and the
    untraced run of the same workload (overheads, runtime and flow-setup
    figures)."""
    spans = traced.busy_spans
    zero = (0, 0, 0, 0)

    def span(name: str) -> tuple[int, ...]:
        return spans.get(name, zero)

    def d(key: str) -> int:
        return traced.busy_counters.get(key, 0)

    frames = traced.busy_frames
    out: dict[str, float] = {}
    for metric, names in PER_FRAME_US.items():
        out[metric] = _ratio(sum(span(n)[0] for n in names) / 1e3, frames)
    for metric, names in PER_CALL_US.items():
        out[metric] = _ratio(sum(span(n)[0] for n in names) / 1e3, calls(spans, names))
    for metric, names in PER_CALL_MS.items():
        out[metric] = _ratio(sum(span(n)[0] for n in names) / 1e6, calls(spans, names))
    ops = [span(name) for name in RECONFIG_OPS]
    out["reconfig_ms"] = _ratio(sum(op[1] for op in ops) / 1e6, sum(op[2] for op in ops))

    out["fleet.refused_frac"] = _ratio(d("edge_refused"), d("edge_offered"))
    out["wire.hash_calls_per_frame"] = _ratio(span("wire.flow_hash_of")[2], frames)
    out["mem.copies_per_frame"] = _ratio(d("copies"), frames)
    out["mem.allocs_per_frame"] = _ratio(d("allocations"), frames)
    out["engine.events_per_frame"] = _ratio(d("engine_events"), frames)
    out["link.backlog_drops"] = d("link_backlog_drops")
    out["nic.rx_drops"] = d("nic_rx_drops")
    out["nic.rx_depth_max"] = rx_depth.deepest
    out["steer.refused_frac"] = _ratio(d("steer_refused"), d("steered") + d("steer_refused"))
    out["sched.quanta_per_frame"] = _ratio(span("pump.step_parallel")[2], frames)
    out["shard.steals"] = d("steals")
    stages = span("stages.push_batch")
    out["stages.frames_per_batch"] = _ratio(stages[3], stages[2])
    out["pool.acquires_per_frame"] = _ratio(d("pool_acquires"), frames)
    out["pool.exhaustion_events"] = d("pool_exhaustions")
    out["pool.in_flight_hwm"] = traced.pool_hwm
    out["admission.drops"] = d("tier_drops")
    out["adapt.applied"] = _ratio(d("adapt_applied"), d("cycles"))
    out["adapt.vetoed"] = _ratio(d("adapt_vetoed"), d("cycles"))
    out["signaling.msgs_per_admit"] = _ratio(d("admit_msgs"), d("admits"))
    out["reconfig.parked_frames"] = _ratio(d("parked_frames"), d("reconfig_ops"))

    gen2_count, gen2_ns = gc_delta
    out["gc.gen2_count"] = gen2_count
    out["gc.gen2_pause_ms"] = gen2_ns / 1e6
    out["loadgen.late_us_max"] = untraced.late_max_us or 0.0
    out["lat_p99_us"] = untraced.lat_p99_us
    out["flow_setup_p50_us"] = untraced.flow_setup_p50_us or 0.0
    out["flow_setup_p99_us"] = untraced.flow_setup_p99_us or 0.0

    out["trace.fwd_ratio"] = _ratio(traced.fwd_kpps, untraced.fwd_kpps)
    out["trace.lat_ratio"] = _ratio(traced.lat_p50_us, untraced.lat_p50_us)
    out["trace.attributed_frac"] = _ratio(
        reported_seconds(out, spans, frames), traced.busy_seconds
    )
    return out


def calls(spans: dict, names: tuple[str, ...]) -> int:
    """Calls the spans *names* recorded, summed."""
    return sum(spans[n][2] for n in names if n in spans)


def unreported(spans: dict) -> list[str]:
    """Span names no per-layer time metric accounts for."""
    covered = {
        name
        for table in (PER_FRAME_US, PER_CALL_US, PER_CALL_MS)
        for names in table.values()
        for name in names
    }
    return sorted(set(spans) - covered)


def reported_seconds(out: dict[str, float], spans: dict, frames: int) -> float:
    """The busy phase's time rebuilt from the reported per-layer time
    metrics: per-frame self times times frames, plus per-call and
    per-operation self times times their calls."""
    us = sum(out[metric] for metric in PER_FRAME_US) * frames
    us += sum(out[m] * calls(spans, names) for m, names in PER_CALL_US.items())
    us += sum(out[m] * 1e3 * calls(spans, names) for m, names in PER_CALL_MS.items())
    return us / 1e6
