"""The compiled hot path: region compilation, revocation-on-reflection,
mid-batch semantics, the Figure-3 composite, the fusion-plan satellites,
and the sharding decompile/recompile hooks.

The *equivalence* invariant (compiled chain is observationally identical
to interpreted, under randomised traces and reconfiguration schedules)
is gated by the Hypothesis differential suite in
``test_compile_differential.py``; this module pins the deterministic
behaviour around it.
"""

import pytest

from repro.netsim import make_udp_v4, make_udp_v6
from repro.opencom import (
    CallCounter,
    Capsule,
    CompileError,
    compile_push_chain,
    fuse_component,
    fuse_pipeline,
)
from repro.opencom.fusion import fusion_report
from repro.osbase import RoundRobinScheduler, ThreadManagerCF, VirtualClock, carve_shard_pools
from repro.osbase.memory import DATAPATH_LEDGER
from repro.router import (
    build_capsule_fleet,
    build_figure3_composite,
    build_forwarding_pipeline,
    build_sharded_forwarding_datapath,
)
from repro.router.components.meters import CollectorSink

from tests.conftest import Caller, Echoer

ROUTES = {"10.0.0.0/8": "east", "10.128.0.0/9": "west", "0.0.0.0/0": "north"}


def make_trace(count=48):
    """Mixed deterministic trace: forwarded, bad-checksum, expired, v6."""
    packets = []
    for i in range(count):
        if i % 11 == 3:
            packets.append(
                make_udp_v6("2001:db8::1", "2001:db8::2", dport=i)
            )
            continue
        ttl = 1 if i % 5 == 0 else 64
        packet = make_udp_v4("10.255.0.1", f"10.{i % 200}.0.9", dport=i, ttl=ttl)
        if i % 7 == 0:
            packet.net.checksum ^= 0x5555
        packets.append(packet)
    return packets


def egress(pipeline):
    """Byte-identity view of every sink's collected packets, per hop."""
    out = {}
    for name, sink in pipeline.stages.items():
        if not name.startswith("sink:"):
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
            for p in sink.packets
        ]
    return out


def build(capsule_name="dut", **kwargs):
    capsule = Capsule(capsule_name)
    pipeline = build_forwarding_pipeline(capsule, routes=ROUTES, **kwargs)
    return capsule, pipeline


class TestCompilePushChain:
    def test_equivalent_to_interpreted(self):
        _, interpreted = build("ref")
        _, compiled = build("dut", compiled=True)
        interpreted.push_batch(make_trace())
        compiled.push_batch(make_trace())
        assert egress(compiled) == egress(interpreted)
        assert compiled.stage_stats() == interpreted.stage_stats()

    def test_equivalent_to_interpreted_over_fused_capsule(self):
        # Compiling a fused capsule composes the same kernels: the chain
        # still matches the unfused interpreted path exactly.
        _, interpreted = build("ref")
        capsule, compiled = build("dut")
        fusion = fuse_pipeline(list(capsule.components().values()))
        assert fusion.fused_count > 0
        assert compiled.compile(fusion_plan=fusion).active
        interpreted.push_batch(make_trace())
        compiled.push_batch(make_trace())
        assert compiled.compiled_active
        assert egress(compiled) == egress(interpreted)
        assert compiled.stage_stats() == interpreted.stage_stats()

    def test_plan_shape(self):
        _, pipeline = build(compiled=True)
        plan = pipeline.compiled_plan
        assert plan.active and not plan.revoked
        assert plan.inlined_count >= 3
        assert plan.summary().startswith("compiled 'push' chain [active]")

    def test_intercepted_region_refuses_to_compile(self):
        capsule, pipeline = build()
        CallCounter().attach_to(pipeline.stages["ipv4"].interface("in0"))
        with pytest.raises(CompileError, match="interceptors"):
            compile_push_chain(pipeline.entry)
        # The pipeline-level builder mirrors it, and strict=False degrades
        # to staying interpreted (the sharded rebuild form).
        with pytest.raises(CompileError):
            pipeline.compile()
        assert pipeline.compile(strict=False) is None
        assert not pipeline.compiled_active

    def test_interceptor_anywhere_in_region_revokes(self):
        _, pipeline = build(compiled=True)
        plan = pipeline.compiled_plan
        assert plan.active
        interceptor = CallCounter().attach_to(
            pipeline.stages["forwarder"].interface("in0")
        )
        assert plan.revoked
        assert not pipeline.compiled_active
        # Removal never re-arms: de-specialisation is one-way until the
        # owner recompiles.
        interceptor.detach()
        assert plan.revoked

    def test_revoked_handle_still_forwards(self):
        _, interpreted = build("ref")
        _, pipeline = build("dut", compiled=True)
        CallCounter().attach_to(pipeline.stages["ipv4"].interface("in0"))
        assert pipeline.compiled_plan.revoked
        interpreted.push_batch(make_trace())
        pipeline.push_batch(make_trace())
        assert egress(pipeline) == egress(interpreted)

    @pytest.mark.parametrize("builder", ("pipeline", "sharded", "fleet"))
    def test_unknown_mode_rejected(self, builder):
        # compiled= is a bool: a compile-mode name, or anything else that
        # is merely truthy, is refused rather than read as "compile".
        make = {
            "pipeline": lambda compiled: build_forwarding_pipeline(
                Capsule("bad"), routes=ROUTES, compiled=compiled
            ),
            "sharded": lambda compiled: build_sharded_forwarding_datapath(
                routes=ROUTES, shards=1, threads=manager(), compiled=compiled
            ),
            "fleet": lambda compiled: build_capsule_fleet(
                1, routes=ROUTES, compiled=compiled
            ),
        }[builder]
        for compiled in ("closure", "source", "jit", 1):
            with pytest.raises(ValueError, match="compiled="):
                make(compiled)


class TestMidBatchRevocation:
    """Satellite: an interceptor installed *mid-batch* lets the in-flight
    batch finish on the specialised function; the next batch runs
    interpreted, per packet, through the interposed slot."""

    class TriggerSink(CollectorSink):
        """Sink that fires a callback on its first delivery."""

        def __init__(self):
            super().__init__()
            self.on_first_batch = None

        def push_batch(self, packets):
            super().push_batch(packets)
            callback, self.on_first_batch = self.on_first_batch, None
            if callback is not None:
                callback()

    def test_in_flight_batch_finishes_specialised(self):
        capsule = Capsule("dut")
        trigger = capsule.instantiate(self.TriggerSink, "trigger-east")
        pipeline = build_forwarding_pipeline(
            capsule, routes=ROUTES, next_hop_sinks={"east": trigger},
            compiled=True,
        )
        plan = pipeline.compiled_plan
        counter = CallCounter()
        trigger.on_first_batch = lambda: counter.attach_to(
            pipeline.stages["ipv4"].interface("in0")
        )
        # east is first-seen, so its group flushes (and installs the
        # interceptor, revoking the plan) before west's group delivers.
        batch1 = [
            make_udp_v4("10.255.0.1", "10.0.0.9", dport=1),
            make_udp_v4("10.255.0.1", "10.200.0.9", dport=2),
        ]
        pipeline.push_batch(batch1)
        assert plan.revoked and not pipeline.compiled_active
        # The in-flight batch completed on the specialised function: the
        # west packet was delivered by the same call, and the interceptor
        # (installed mid-flight) observed none of it.
        assert pipeline.stages["sink:west"].collected_count() == 1
        assert counter.total() == 0
        # The next batch dispatches interpreted: the intercepted ipv4
        # slot sees one call per packet.
        batch2 = [
            make_udp_v4("10.255.0.1", "10.0.0.9", dport=3),
            make_udp_v4("10.255.0.1", "10.1.0.9", dport=4),
            make_udp_v4("10.255.0.1", "10.200.0.9", dport=5),
        ]
        pipeline.push_batch(batch2)
        assert counter.total() == len(batch2)
        assert trigger.collected_count() == 3
        assert pipeline.stages["sink:west"].collected_count() == 2


class TestFigure3Closure:
    """The Figure-3 composite compiles end to end: every push stage with
    a kernel (recogniser, both processors, classifier, both queues)
    composes into the chain, and the chain matches the interpreted
    composite counter for counter."""

    INLINED = (
        "recogniser",
        "ipv4",
        "ipv6",
        "classifier",
        "queue:expedited",
        "queue:best-effort",
    )

    def test_every_push_stage_is_inlined(self):
        _, pipeline = build_figure3_composite(Capsule("gw"))
        plan = pipeline.compile()
        inlined = {stage.name for stage in plan.stages if stage.inlined}
        assert inlined == {pipeline.stages[name].name for name in self.INLINED}
        assert plan.inlined_count == len(plan.stages) == len(self.INLINED)

    def test_matches_interpreted_counters_and_depths(self):
        # Equivalence on a v4 + v6 mix: queue depths and every counter
        # dict (including which keys exist) must match the interpreted
        # composite exactly.
        compiled_caps, reference_caps = Capsule("gw"), Capsule("gw-ref")
        _, compiled_pipe = build_figure3_composite(compiled_caps)
        _, reference_pipe = build_figure3_composite(reference_caps)
        assert compiled_pipe.compile().active

        def traffic():
            return [
                make_udp_v4("10.0.0.1", "10.9.9.9", dport=7),
                make_udp_v4("10.0.0.2", "10.9.9.9", dport=80),
                make_udp_v6("2001:db8::1", "2001:db8::9", dport=7),
            ]

        compiled_pipe.push_batch(traffic())
        reference_pipe.push_batch(traffic())
        assert compiled_pipe.compiled_active
        for name, stage in compiled_pipe.stages.items():
            counters = getattr(stage, "counters", None)
            if counters is not None:
                assert counters == reference_pipe.stages[name].counters, name
        depths = {}
        for name, stage in compiled_pipe.stages.items():
            if name.startswith("queue:"):
                depths[name] = stage.depth
                assert stage.depth == reference_pipe.stages[name].depth
        assert sum(depths.values()) == 3

    @staticmethod
    def _classified_pair():
        """A compiled composite and its interpreted twin, both sending
        dports 0-29 to the expedited queue."""
        pipelines = []
        for name in ("gw", "gw-ref"):
            _, pipeline = build_figure3_composite(Capsule(name))
            pipeline.stages["classifier"].register_filter("dport=0-29 -> expedited")
            pipelines.append(pipeline)
        assert pipelines[0].compile().active
        return pipelines

    @staticmethod
    def _mixed_traffic():
        return [
            make_udp_v4("10.0.0.1", "10.9.9.9", dport=3 * i) for i in range(20)
        ] + [
            make_udp_v6("2001:db8::1", "2001:db8::9", dport=7 * i) for i in range(5)
        ]

    def test_pull_side_drains_like_interpreted(self):
        # The scheduler drains the compiled chain's queues in the same
        # order, with the same counters, as the interpreted composite's.
        compiled_pipe, reference_pipe = self._classified_pair()
        compiled_pipe.push_batch(self._mixed_traffic())
        reference_pipe.push_batch(self._mixed_traffic())
        assert compiled_pipe.drain(budget=4) == reference_pipe.drain(budget=4) == 25
        assert compiled_pipe.compiled_active

        def delivered(pipeline):
            return [
                (type(p.net).__name__, p.transport.dport)
                for p in pipeline.stages["sink"].packets
            ]

        assert delivered(compiled_pipe) == delivered(reference_pipe)
        for name, stage in compiled_pipe.stages.items():
            counters = getattr(stage, "counters", None)
            if counters is not None:
                assert counters == reference_pipe.stages[name].counters, name
            if name.startswith("queue:"):
                assert stage.depth == 0

    def test_pull_interception_leaves_push_chain_compiled(self):
        # Reflection on a queue's service side is outside the push
        # region: the chain stays compiled, and the interceptor sees
        # every packet the scheduler draws from that queue, in order.
        pipeline, _ = self._classified_pair()
        plan = pipeline.compiled_plan
        queue = pipeline.stages["queue:best-effort"]
        seen = []
        queue.interface("pull0").vtable.add_post(
            "pull", "audit",
            lambda ctx: ctx.result is not None and seen.append(ctx.result),
        )
        assert plan.active and not plan.revoked
        pipeline.push_batch(self._mixed_traffic())
        assert pipeline.compiled_active
        assert queue.depth == 10
        assert pipeline.drain(budget=4) == 25
        best_effort = [
            p for p in pipeline.stages["sink"].packets if p.transport.dport >= 30
        ]
        assert len(best_effort) == 10
        assert seen == best_effort
        assert plan.active

    def test_queue_arrival_interception_revokes_push_chain(self):
        # A queue's arrival side is inside the push region: intercepting
        # it revokes the chain, and the interpreted path that takes over
        # delivers one call per arrival at that queue.
        compiled_pipe, reference_pipe = self._classified_pair()
        plan = compiled_pipe.compiled_plan
        counter = CallCounter()
        counter.attach_to(compiled_pipe.stages["queue:expedited"].interface("in0"))
        assert plan.revoked and not compiled_pipe.compiled_active
        compiled_pipe.push_batch(self._mixed_traffic())
        reference_pipe.push_batch(self._mixed_traffic())
        assert counter.total() == compiled_pipe.stages["queue:expedited"].depth == 15
        for name, stage in compiled_pipe.stages.items():
            counters = getattr(stage, "counters", None)
            if counters is not None:
                assert counters == reference_pipe.stages[name].counters, name


class TestPipelineCompileLifecycle:
    def test_decompile_is_idempotent_and_reversible(self):
        _, pipeline = build(compiled=True)
        first = pipeline.compiled_plan
        assert pipeline.compiled_active
        pipeline.decompile()
        assert pipeline.compiled_plan is None
        assert first.revoked
        pipeline.decompile()  # idempotent
        # Recompilation installs a fresh plan and the path still matches
        # the interpreted reference.
        second = pipeline.compile()
        assert second is not first and pipeline.compiled_active
        _, interpreted = build("ref")
        interpreted.push_batch(make_trace())
        pipeline.push_batch(make_trace())
        assert egress(pipeline) == egress(interpreted)

    def test_recompile_replaces_previous_plan(self):
        _, pipeline = build(compiled=True)
        first = pipeline.compiled_plan
        second = pipeline.compile()
        assert first.revoked and second.active
        assert pipeline.compiled_plan is second


class TestLedgerSavings:
    def test_arithmetic_kernel_skips_exactly_two_packs_per_forwarded(self):
        # Interpreted v4 processing packs the header twice per forwarded
        # materialised packet (checksum_ok + refresh after TTL aging);
        # the specialised exact-class kernel recomputes arithmetically
        # and packs never.  That is the *only* permitted ledger
        # divergence, and it is exact.
        n = 32
        trace = lambda: [
            make_udp_v4("10.255.0.1", f"10.{i}.0.9", dport=i) for i in range(n)
        ]
        _, interpreted = build("ref")
        _, compiled = build("dut", compiled=True)

        before = DATAPATH_LEDGER.snapshot()
        interpreted.push_batch(trace())
        interpreted_delta = DATAPATH_LEDGER.delta(before)

        before = DATAPATH_LEDGER.snapshot()
        compiled.push_batch(trace())
        compiled_delta = DATAPATH_LEDGER.delta(before)

        assert interpreted_delta["copies"] - compiled_delta["copies"] == 2 * n
        assert (
            interpreted_delta["copy_bytes"] - compiled_delta["copy_bytes"]
            == 2 * 20 * n
        )


class TestFusionPlanSatellites:
    def test_revert_clears_all_pass_bookkeeping(self, capsule):
        caller = capsule.instantiate(Caller, "caller")
        echoer = capsule.instantiate(Echoer, "echoer")
        capsule.bind(caller.receptacle("target"), echoer.interface("main"))
        CallCounter().attach_to(echoer.interface("main"))
        plan = fuse_component(caller)
        assert plan.skipped and plan._intercepted_cache and plan._seen_port_ids
        plan.revert()
        assert not plan.fused_ports
        assert not plan.skipped
        assert not plan._intercepted_cache
        assert not plan._seen_port_ids

    def test_port_reachable_twice_fuses_once(self, capsule):
        caller = capsule.instantiate(Caller, "caller")
        echoer = capsule.instantiate(Echoer, "echoer")
        capsule.bind(caller.receptacle("target"), echoer.interface("main"))
        plan = fuse_pipeline([caller, caller])
        assert plan.fused_count == 1
        plan.revert()
        assert not caller.receptacle("target").port("0").fused

    def test_summary_reports_compiled_fused_skipped_distinctly(self):
        capsule = Capsule("dut")
        pipeline = build_forwarding_pipeline(capsule, routes=ROUTES)
        # An intercepted side pair: fused nowhere, skipped loudly.
        caller = capsule.instantiate(Caller, "caller")
        echoer = capsule.instantiate(Echoer, "echoer")
        capsule.bind(caller.receptacle("target"), echoer.interface("main"))
        CallCounter().attach_to(echoer.interface("main"))

        plan = fuse_pipeline(list(capsule.components().values()))
        assert plan.fused_count > 0 and plan.skipped
        pipeline.compile(fusion_plan=plan)
        assert plan.compiled_count == 1

        summary = plan.summary()
        assert "compiled 1 chain(s)" in summary
        assert f"fused {plan.fused_count} port(s)" in summary
        assert "skipped" in summary
        report = fusion_report(plan)
        assert report["compiled"] == 1
        assert report["fused"] == plan.fused_count

    def test_fusion_revert_tears_down_compiled_chain(self):
        capsule = Capsule("dut")
        pipeline = build_forwarding_pipeline(capsule, routes=ROUTES)
        plan = fuse_pipeline(list(capsule.components().values()))
        compiled = pipeline.compile(fusion_plan=plan)
        assert compiled.active
        plan.revert()
        assert compiled.revoked
        assert plan.compiled_count == 0

    def test_reverted_chain_leaves_its_fusion_plan(self):
        # Recompiling reverts the previous chain and decompiling reverts
        # the last: the plan must stop counting each as it goes, so it
        # only ever reports chains that are still installed.
        capsule = Capsule("dut")
        pipeline = build_forwarding_pipeline(capsule, routes=ROUTES)
        plan = fuse_pipeline(list(capsule.components().values()))
        pipeline.compile(fusion_plan=plan)
        second = pipeline.compile(fusion_plan=plan)
        assert plan.compiled_chains == [second]
        assert "compiled 1 chain(s)" in plan.summary()
        pipeline.decompile()
        assert plan.compiled_chains == []
        assert plan.compiled_count == 0
        assert "compiled" not in plan.summary()
        assert fusion_report(plan)["compiled"] == 0


def manager():
    return ThreadManagerCF(VirtualClock(), scheduler=RoundRobinScheduler())


class TestShardingHooks:
    """Reconfiguration rounds de-specialise the fleet and rebuild on
    commit/rollback (the per-shard decompile/recompile hooks)."""

    def _datapath(self, shards=2, *, compiled=True, buckets=8, fused=False):
        pools = carve_shard_pools(256, 64 * shards, shards)
        return build_sharded_forwarding_datapath(
            routes=ROUTES,
            shards=shards,
            threads=manager(),
            pools=pools,
            batch=4,
            fused=fused,
            compiled=compiled,
            buckets=buckets,
        )

    def test_shards_come_up_compiled(self):
        datapath = self._datapath()
        for shard in datapath.shards:
            assert shard.engine.compiled_active
        datapath.shutdown()

    def test_resize_decompiles_then_recompiles_the_fleet(self):
        datapath = self._datapath(shards=2)
        old_plans = [s.engine.compiled_plan for s in datapath.shards]
        datapath.resize(3)
        for plan in old_plans:
            assert plan.revoked
        assert len(datapath.shards) == 3
        for shard in datapath.shards:
            assert shard.engine.compiled_active
            assert shard.engine.compiled_plan not in old_plans
        datapath.shutdown()

    def test_resize_records_rebuilt_chains_on_each_shard_fusion_plan(
        self, monkeypatch
    ):
        # Capture each shard's fusion plan as the builder makes it (in
        # shard order: the two initial shards, then the grown one).
        import repro.opencom.fusion as fusion

        plans = []

        def recording_fuse_pipeline(components):
            plans.append(fuse_pipeline(components))
            return plans[-1]

        monkeypatch.setattr(fusion, "fuse_pipeline", recording_fuse_pipeline)
        datapath = self._datapath(shards=2, fused=True)
        datapath.resize(3)
        assert len(plans) == len(datapath.shards) == 3
        for shard, plan in zip(datapath.shards, plans):
            live = shard.engine.compiled_plan
            expected = [live] if shard.engine.compiled_active else []
            assert plan.compiled_chains == expected, shard.shard_id
            assert plan.compiled_count == len(expected)
        datapath.shutdown()

    def test_resize_rollback_recompiles(self):
        datapath = self._datapath(shards=2)
        actions = datapath.swap_action_set()
        params = {"shards": 1}
        assert actions["quiesce"](params)
        for shard in datapath.shards:
            assert not shard.engine.compiled_active
        actions["rollback"](params)
        actions["resume"](params)
        for shard in datapath.shards:
            assert shard.engine.compiled_active
        datapath.shutdown()

    def test_recovery_leaves_dead_shard_decompiled(self):
        datapath = self._datapath(shards=2)
        datapath.recover_shard(0)
        assert not datapath.shards[0].engine.compiled_active
        assert datapath.shards[1].engine.compiled_active
        datapath.shutdown()

    def test_recovery_rollback_recompiles_dead_shard(self):
        datapath = self._datapath(shards=2)
        actions = datapath.swap_action_set()
        params = {"shard": 0}
        assert actions["quiesce"](params)
        assert not datapath.shards[0].engine.compiled_active
        actions["rollback"](params)
        actions["resume"](params)
        assert datapath.shards[0].engine.compiled_active
        datapath.shutdown()
