"""Differential equivalence suite for the compiled hot path (C17).

Randomised traces, pipeline configurations and mid-stream reflection /
reconfiguration schedules run against compiled pipelines, with the
interpreted pipeline as the sequential oracle: whatever the schedule,

- egress is byte-for-byte identical per sink (headers, payloads,
  metadata),
- every stage's counter dict is identical — including which keys exist,
- the copy ledger agrees exactly, except that the specialised
  arithmetic-checksum kernel may record *fewer* header materialisations
  (never more),
- every revocation lands on the interpreted path (a revoked plan never
  handles another batch specialised), and
- the sharded form keeps per-flow byte-for-byte egress and balanced
  pooled-buffer books across live resizes.

Two example budgets ship with the suite, selected by the
``REPRO_PROPERTY_PROFILE`` environment variable: ``bounded`` (the
default — tier-1 runs it through ``run_all.py --smoke``) and ``full``
(the bench harness's exhaustive profile).  The module is marked
``slow`` so the property suites stay deselectable (``-m "not slow"``).
"""

from collections import defaultdict
from os import environ
from struct import pack

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import make_udp_v4, make_udp_v6
from repro.opencom import CallCounter, Capsule
from repro.osbase import (
    RoundRobinScheduler,
    ShardingError,
    ThreadManagerCF,
    VirtualClock,
    carve_shard_pools,
    release_dropped,
)
from repro.osbase.memory import DATAPATH_LEDGER
from repro.router import (
    build_figure3_composite,
    build_forwarding_pipeline,
    build_sharded_forwarding_datapath,
)

pytestmark = pytest.mark.slow

_PROFILES = {"bounded": 40, "full": 250}
_PROFILE = environ.get("REPRO_PROPERTY_PROFILE", "bounded")
_SETTINGS = settings(
    max_examples=_PROFILES.get(_PROFILE, _PROFILES["bounded"]),
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

ROUTED = {"10.0.0.0/8": "east", "10.128.0.0/9": "west"}
DEFAULTED = {**ROUTED, "0.0.0.0/0": "north"}

# -- packet specs: built twice so DUT and oracle age identical twins --------

KINDS = ("fwd", "fwd", "fwd", "badsum", "expired", "v6", "stray")


def build_packet(spec):
    kind, i = spec
    if kind == "v6":
        return make_udp_v6("2001:db8::1", f"2001:db8::{(i % 250) + 1:x}", dport=i % 90)
    # "stray" misses every prefix: dropped without a default route,
    # forwarded to it otherwise.
    dst = f"172.16.{i % 9}.1" if kind == "stray" else f"10.{i % 250}.0.9"
    ttl = 1 if kind == "expired" else 32
    packet = make_udp_v4("10.255.0.1", dst, dport=i % 90, ttl=ttl)
    if kind == "badsum":
        packet.net.checksum ^= 0x5555
    return packet


packet_specs = st.tuples(
    st.sampled_from(KINDS), st.integers(min_value=0, max_value=10_000)
)

#: A stream is batches of specs with a reflection/reconfiguration event
#: (or none) between consecutive batches.
EVENTS = (
    "none",
    "intercept-recogniser",
    "intercept-ipv4",
    "intercept-tail",
    "detach",
    "decompile",
    "recompile",
)
stream = st.lists(
    st.tuples(
        st.lists(packet_specs, min_size=0, max_size=8),
        st.sampled_from(EVENTS),
    ),
    min_size=1,
    max_size=6,
)

#: Pipeline shapes under test: the flat forwarding path (recogniser → v4
#: → forwarder → per-hop sinks) and the Figure-3 composite (recogniser →
#: v4/v6 → classifier → per-class queues), each with the stage its
#: ``intercept-tail`` event lands on.
SHAPES = ("flat", "figure3")
TAIL = {"flat": "forwarder", "figure3": "classifier"}
STAGE_OF = {"intercept-recogniser": "recogniser", "intercept-ipv4": "ipv4"}
#: Figure-3 queues are small enough that streams regularly overflow them.
QUEUE_CAPACITY = 4


def build_shape(name, shape, *, validate, with_default, compiled=False):
    """One pipeline of *shape*; *with_default* gives the flat path a
    default route and the composite's classifier a default class."""
    if shape == "flat":
        routes = DEFAULTED if with_default else ROUTED
        return build_forwarding_pipeline(
            Capsule(name), routes=routes,
            validate_checksums=validate, compiled=compiled,
        )
    _, pipeline = build_figure3_composite(
        Capsule(name), queue_capacity=QUEUE_CAPACITY
    )
    pipeline.stages["ipv4"].validate_checksum = validate
    classifier = pipeline.stages["classifier"]
    classifier.register_filter("dport=0-29 -> expedited")
    if not with_default:
        classifier.default_output = None
    if compiled:
        pipeline.compile()
    return pipeline


def egress(pipeline):
    """Per-sink (the composite's forward sink included) and per-queue
    contents, byte for byte."""
    out = {}
    for name, stage in pipeline.stages.items():
        if name == "sink" or name.startswith("sink:"):
            held = stage.packets
        elif name.startswith("queue:"):
            held = stage._queue
        else:
            continue
        out[name] = [
            (
                type(p.net).__name__,
                p.net.src,
                p.net.dst,
                getattr(p.net, "ttl", None),
                getattr(p.net, "hop_limit", None),
                getattr(p.net, "checksum", None),
                p.payload,
                dict(p.metadata),
            )
            for p in held
        ]
    return out


class TestPushChainDifferential:
    @_SETTINGS
    @given(
        batches=stream,
        shape=st.sampled_from(SHAPES),
        validate=st.booleans(),
        with_default=st.booleans(),
    )
    def test_compiled_equals_interpreted(self, batches, shape, validate, with_default):
        config = dict(validate=validate, with_default=with_default)
        dut = build_shape("dut", shape, compiled=True, **config)
        oracle = build_shape("oracle", shape, **config)
        assert dut.compiled_active
        interceptors = []
        dut_copies = oracle_copies = 0
        for specs, event in batches:
            before = DATAPATH_LEDGER.snapshot()
            dut.push_batch([build_packet(s) for s in specs])
            dut_copies += DATAPATH_LEDGER.delta(before)["copies"]
            before = DATAPATH_LEDGER.snapshot()
            oracle.push_batch([build_packet(s) for s in specs])
            oracle_copies += DATAPATH_LEDGER.delta(before)["copies"]

            stage = TAIL[shape] if event == "intercept-tail" else STAGE_OF.get(event)
            if stage is not None:
                # The oracle takes the same interceptor: an intercepted
                # slot dispatches per packet, which interleaves v4 and v6
                # arrivals at a shared queue unlike batch dispatch.
                plan = dut.compiled_plan
                for pipeline in (dut, oracle):
                    interceptors.append(
                        CallCounter().attach_to(
                            pipeline.stages[stage].interface("in0")
                        )
                    )
                # Reflection anywhere in the region revokes: the next
                # batch lands interpreted.
                if plan is not None:
                    assert plan.revoked
                assert not dut.compiled_active
            elif event == "detach":
                for interceptor in interceptors:
                    interceptor.detach()
                interceptors.clear()
            elif event == "decompile":
                dut.decompile()
                assert not dut.compiled_active
            elif event == "recompile":
                # Rebuilding over a still-intercepted region must refuse
                # (strict=False: stays interpreted), and succeed again
                # once the region is clean.
                plan = dut.compile(strict=False)
                if interceptors:
                    assert plan is None and not dut.compiled_active
                else:
                    assert plan is not None and dut.compiled_active

        assert egress(dut) == egress(oracle)
        assert dut.stage_stats() == oracle.stage_stats()
        # The only permitted ledger divergence: the specialised kernel
        # materialises fewer headers, never more.
        assert dut_copies <= oracle_copies


#: Steps on the service side of the Figure-3 composite: a batch pushed
#: through the (compiled) chain, a scheduler round of some budget, or an
#: interceptor on one queue's pull interface.
pull_steps = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.lists(packet_specs, max_size=8)),
        st.tuples(st.just("service"), st.integers(min_value=0, max_value=8)),
        st.tuples(
            st.just("intercept-pull"), st.sampled_from(("expedited", "best-effort"))
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestPullDifferential:
    @_SETTINGS
    @given(steps=pull_steps, validate=st.booleans(), with_default=st.booleans())
    def test_compiled_composite_drains_like_interpreted(
        self, steps, validate, with_default
    ):
        # The compiled chain fills the queues; the scheduler drains them.
        # Whatever the interleaving of pushes, service rounds and
        # pull-side interceptors, delivery order, queue contents and
        # every counter match the interpreted composite, and reflection
        # on the service side never revokes the push chain.
        config = dict(validate=validate, with_default=with_default)
        dut = build_shape("dut", "figure3", compiled=True, **config)
        oracle = build_shape("oracle", "figure3", **config)
        plan = dut.compiled_plan
        for kind, arg in steps:
            if kind == "push":
                dut.push_batch([build_packet(s) for s in arg])
                oracle.push_batch([build_packet(s) for s in arg])
            elif kind == "service":
                assert dut.service(arg) == oracle.service(arg)
            else:
                CallCounter().attach_to(dut.stages[f"queue:{arg}"].interface("pull0"))
            assert plan.active and dut.compiled_active
            assert egress(dut) == egress(oracle)
        assert dut.stage_stats() == oracle.stage_stats()


# -- sharded differential: live resizes against an uncompiled oracle --------

SHARD_ROUTES = {"10.0.0.0/8": "east", "0.0.0.0/0": "west"}
FLOWS = [(f"10.6.{i}.1", 3000 + 17 * i) for i in range(6)]
BUCKETS = 16


def frame_for(flow, seq):
    src, sport = flow
    return make_udp_v4(
        src, "10.9.9.9", sport=sport, dport=80, payload=pack("!I", seq)
    ).to_bytes()


class ByteRecorder:
    def __init__(self):
        self.flows = defaultdict(list)

    def handler(self, shard_index):
        def on_frame(frame):
            self.flows[frame.flow_key()].append(frame.to_bytes())
            release_dropped(frame)

        return on_frame

    @property
    def total(self):
        return sum(len(frames) for frames in self.flows.values())


def build_sharded(shards, *, compiled):
    recorder = ByteRecorder()
    pools = carve_shard_pools(256, 320, shards, exhaustion_policy="drop-newest")
    datapath = build_sharded_forwarding_datapath(
        routes=SHARD_ROUTES,
        shards=shards,
        threads=ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler()),
        pools=pools,
        batch=4,
        rx_ring_size=1024,
        tx_handler=recorder.handler,
        buckets=BUCKETS,
        compiled=compiled,
    )
    return datapath, recorder, pools


shard_steps = st.lists(
    st.one_of(
        st.tuples(st.just("traffic"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("resize"), st.integers(min_value=1, max_value=6)),
    ),
    min_size=1,
    max_size=8,
)


class TestShardedDifferential:
    @_SETTINGS
    @given(schedule=shard_steps)
    def test_compiled_fleet_matches_interpreted_fleet(self, schedule):
        dut, dut_rec, dut_pools = build_sharded(2, compiled=True)
        oracle, oracle_rec, oracle_pools = build_sharded(2, compiled=False)
        seq = dict.fromkeys(FLOWS, 0)
        emitted = 0
        for kind, arg in schedule:
            if kind == "traffic":
                frames = []
                for _ in range(arg):
                    for flow in FLOWS:
                        frames.append(frame_for(flow, seq[flow]))
                        seq[flow] += 1
                        emitted += 1
                dut.steer_batch(frames)
                oracle.steer_batch(frames)
                dut.pump()
                oracle.pump()
            else:
                # The same resize on both fleets: refusals (bad target,
                # too few buckets) refuse identically.
                try:
                    dut.resize(arg)
                except ShardingError:
                    with pytest.raises(ShardingError):
                        oracle.resize(arg)
                    continue
                oracle.resize(arg)
                # The round settles re-specialised on the DUT only.
                for shard in dut.shards:
                    assert shard.engine.compiled_active
                for shard in oracle.shards:
                    assert shard.engine.compiled_plan is None
                dut.pump()
                oracle.pump()
        dut.shutdown(drain=True)
        oracle.shutdown(drain=True)

        assert dut_rec.total == emitted == oracle_rec.total
        assert set(dut_rec.flows) == set(oracle_rec.flows)
        for flow_key, frames in oracle_rec.flows.items():
            assert dut_rec.flows[flow_key] == frames
        # Zero pool leaks on either fleet (resizes re-carve the budget;
        # every slice must balance).
        for pools in (dut_pools, oracle_pools):
            for pool in pools:
                assert pool.acquired_total == pool.released_total
                assert pool.in_flight == 0
