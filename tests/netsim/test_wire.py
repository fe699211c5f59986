"""The zero-copy wire-format packet path.

Covers the WirePacket representation itself (views, in-place mutation,
copy-on-write fan-out, pool accounting), the RFC 1624 incremental
checksum updates against full recomputation, and byte-for-byte
equivalence between the copy path and the wire path through the full
forwarding pipeline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import measure_byte_movement
from repro.baselines import ClickRouter, MonolithicRouter, standard_click_config
from repro.netsim import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IPv4Header,
    IPv6Header,
    Packet,
    TCPHeader,
    UDPHeader,
    WirePacket,
    flow_hash_fields,
    flow_hash_of,
    incremental_checksum_update,
    internet_checksum,
    make_tcp_v4,
    make_udp_v4,
    make_udp_v6,
    synthetic_route_table,
    to_wire,
    udp_route_trace,
    wire_trace,
)
from repro.opencom import Capsule, fuse_pipeline
from repro.opencom.errors import ResourceError
from repro.osbase import DATAPATH_LEDGER, BufferPool
from repro.router import build_forwarding_pipeline

addresses = st.integers(min_value=0, max_value=2**32 - 1)
ports = st.integers(min_value=0, max_value=65535)
ttls = st.integers(min_value=2, max_value=255)


def wire_of(packet, **kwargs):
    return WirePacket.from_packet(packet, **kwargs)


class TestWireViews:
    def test_views_are_real_header_subclasses(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"))
        assert isinstance(w.net, IPv4Header)
        assert isinstance(w.transport, UDPHeader)
        wt = wire_of(make_tcp_v4("10.0.0.1", "10.0.0.2"))
        assert isinstance(wt.transport, TCPHeader)
        w6 = wire_of(make_udp_v6("2001:db8::1", "2001:db8::2"))
        assert isinstance(w6.net, IPv6Header)

    def test_field_reads_match_materialised_packet(self):
        p = make_udp_v4("10.1.2.3", "10.4.5.6", sport=1234, dport=80, ttl=17,
                        dscp=46, payload=b"xyz")
        w = wire_of(p)
        assert w.net.src == p.net.src
        assert w.net.dst == p.net.dst
        assert w.net.ttl == 17
        assert w.net.protocol == p.net.protocol
        assert w.net.dscp == 46 and w.dscp == 46
        assert w.net.total_length == p.net.total_length
        assert w.transport.sport == 1234
        assert w.transport.dport == 80
        assert w.flow_key() == p.flow_key()
        assert w.size_bytes == p.size_bytes
        assert bytes(w.payload) == b"xyz"

    def test_field_writes_land_in_wire_bytes(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2", dport=80))
        w.net.ttl = 9
        w.transport.dport = 443
        w.net.refresh_checksum()
        parsed = Packet.from_bytes(w.to_bytes())
        assert parsed.net.ttl == 9
        assert parsed.transport.dport == 443
        assert parsed.net.checksum_ok()

    def test_v6_views(self):
        p = make_udp_v6("2001:db8::1", "2001:db8::2", hop_limit=5,
                        traffic_class=0xB8)
        w = wire_of(p)
        assert w.net.src == p.net.src and w.net.dst == p.net.dst
        assert w.net.hop_limit == 5
        assert w.net.traffic_class == 0xB8
        assert w.net.decrement_hop_limit()
        assert w.to_bytes()[7] == 4

    def test_tcp_views(self):
        p = make_tcp_v4("1.2.3.4", "5.6.7.8", seq=99, flags=0x12)
        w = wire_of(p)
        assert w.transport.seq == 99
        assert w.transport.flags == 0x12
        w.transport.window = 100
        assert Packet.from_bytes(w.to_bytes()).transport.window == 100

    def test_checksum_ok_and_compute_on_view(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"))
        assert w.net.checksum_ok()
        stored = w.net.checksum
        assert w.net.compute_checksum() == stored  # and restores the field
        assert w.net.checksum == stored
        w.net.ttl = 3  # corrupt: write without refresh
        assert not w.net.checksum_ok()

    def test_wire_roundtrip_to_packet(self):
        p = make_udp_v4("10.0.0.1", "10.0.0.2", payload=b"payload")
        p.metadata["class"] = "gold"
        w = wire_of(p)
        back = w.to_packet()
        assert back.to_bytes() == p.to_bytes()
        assert back.metadata == {"class": "gold"}

    def test_malformed_wire_rejected(self):
        from repro.netsim import PacketError
        with pytest.raises(PacketError):
            WirePacket.from_wire(b"")
        with pytest.raises(PacketError):
            WirePacket.from_wire(b"\x45" + b"\x00" * 5)  # truncated v4
        with pytest.raises(PacketError):
            WirePacket.from_wire(b"\x15" + b"\x00" * 40)  # version 1

    def test_truncated_transport_rejected_like_packet(self):
        # Both representations must reject the same malformed inputs: an
        # IPv4 header claiming UDP with only 4 transport bytes behind it.
        from repro.netsim import PacketError
        data = bytearray(make_udp_v4("10.0.0.1", "10.0.0.2").to_bytes()[:24])
        with pytest.raises(PacketError):
            Packet.from_bytes(bytes(data))
        with pytest.raises(PacketError):
            WirePacket.from_wire(bytes(data))

    def test_payload_setter_truncates_in_place(self):
        p = make_udp_v4("10.0.0.1", "10.0.0.2", payload=b"0123456789")
        w = wire_of(p)
        w.payload = w.payload[:4]
        w.transport.length = UDPHeader.HEADER_LEN + 4
        p.payload = p.payload[:4]
        p.transport.length = UDPHeader.HEADER_LEN + 4
        assert bytes(w.payload) == b"0123"
        assert w.net.checksum_ok()
        assert w.to_bytes() == p.to_bytes()

    def test_payload_setter_grows_via_private_buffer(self):
        # Growth (e.g. FEC parity padded to the group's max width) moves
        # the packet to a larger private buffer — headers preserved,
        # lengths and checksum re-synced.
        p = make_udp_v4("10.0.0.1", "10.0.0.2", payload=b"abc")
        w = wire_of(p)
        w.payload = b"0123456789" * 20  # far beyond the original capacity
        w.transport.length = UDPHeader.HEADER_LEN + 200
        p.payload = b"0123456789" * 20
        p.transport.length = UDPHeader.HEADER_LEN + 200
        assert w.net.checksum_ok()
        assert w.to_bytes() == p.to_bytes()

    def test_payload_setter_grow_after_clone_preserves_sibling(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2", payload=b"abc"))
        c = w.clone_ref()
        c.payload = bytes(64)  # grows past the shared buffer's capacity
        assert bytes(w.payload) == b"abc"  # sibling untouched
        assert len(c.payload) == 64
        assert c.net.checksum_ok() and w.net.checksum_ok()


class TestPoolAccounting:
    def test_pooled_lifecycle(self):
        pool = BufferPool(256, 2)
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"), pool=pool)
        assert pool.in_flight == 1
        w.release()
        assert pool.in_flight == 0
        assert pool.released_total == 1

    def test_release_ends_the_packets_life(self):
        pool = BufferPool(256, 2)
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"), pool=pool)
        w.release()
        # The header views (which point back at the packet) are gone, so
        # nothing keeps the packet alive in a reference cycle.
        assert w.net is None and w.transport is None

    def test_second_release_raises_and_spares_the_new_owner(self):
        pool = BufferPool(2048, 2)
        raw = make_udp_v4("10.0.0.1", "10.0.0.2").to_bytes()
        a = WirePacket.ingest(raw, pool=pool)
        a.release()
        b = WirePacket.ingest(raw, pool=pool)
        assert b.buffer is a.buffer  # the pool recycled a's buffer to b
        with pytest.raises(ResourceError, match="already released"):
            a.release()
        assert b.buffer.refcount == 1
        assert pool.in_flight == 1
        assert bytes(b.wire_view()) == raw
        b.release()
        assert pool.acquired_total == pool.released_total == 2

    def test_clone_ref_shares_pooled_buffer(self):
        pool = BufferPool(256, 2)
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"), pool=pool)
        c = w.clone_ref()
        assert c.buffer is w.buffer
        assert pool.in_flight == 1  # one buffer, two holders
        w.release()
        assert pool.in_flight == 1  # the clone still holds it
        c.release()
        assert pool.in_flight == 0

    def test_ledger_counts_copies_and_references(self):
        p = make_udp_v4("10.0.0.1", "10.0.0.2", payload=b"abcd")
        before = DATAPATH_LEDGER.snapshot()
        w = wire_of(p)  # materialisation: packet bytes + one header pack
        # (the checksum refresh inside serialisation packs 20 bytes)
        report = measure_byte_movement(before)
        materialisation = report.copies
        assert materialisation == 2
        assert report.copy_bytes == p.size_bytes + 20
        w.net.decrement_ttl()  # in place: no further copies
        report = measure_byte_movement(before)
        assert report.copies == materialisation
        assert report.references == 0
        w.clone_ref()
        report = measure_byte_movement(before)
        assert report.references == 1
        assert report.reference_share > 0

    def test_oversized_packet_rejected_by_pool(self):
        pool = BufferPool(16, 2)
        with pytest.raises(ResourceError):
            wire_of(make_udp_v4("10.0.0.1", "10.0.0.2", payload=bytes(64)),
                    pool=pool)


class TestCopyOnWrite:
    def test_clone_shares_until_first_write(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2", ttl=64))
        c = w.clone_ref()
        assert c.buffer is w.buffer
        assert c.net.decrement_ttl()
        assert c.buffer is not w.buffer  # unshared on write
        assert w.net.ttl == 64
        assert c.net.ttl == 63
        assert w.net.checksum_ok() and c.net.checksum_ok()

    def test_original_write_also_unshares(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2", dport=80))
        c = w.clone_ref()
        w.transport.dport = 443
        assert c.transport.dport == 80
        assert w.transport.dport == 443

    def test_clone_metadata_is_independent(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"))
        w.metadata["class"] = "gold"
        c = w.clone_ref()
        c.metadata["class"] = "bronze"
        assert w.metadata["class"] == "gold"

    def test_deep_copy_never_shares(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"))
        c = w.copy()
        assert c.buffer is not w.buffer
        assert c.to_bytes() == w.to_bytes()


#: One frame per (family, transport) shape; UDP frames carry 16 payload
#: bytes so a UDP <-> TCP protocol write still leaves a whole TCP header.
CARRIED_HASH_FRAMES = {
    "udp4": lambda: make_udp_v4("10.0.0.1", "10.0.0.2", sport=5, dport=7,
                                payload=bytes(16)),
    "tcp4": lambda: make_tcp_v4("10.0.0.1", "10.0.0.2", sport=5, dport=7),
    "icmp4": lambda: Packet(
        IPv4Header(src=0x0A000001, dst=0x0A000002, protocol=PROTO_ICMP), None, b"ping"
    ),
    "udp6": lambda: make_udp_v6("2001:db8::1", "2001:db8::2", sport=5, dport=7,
                                payload=bytes(16)),
    "tcp6": lambda: Packet(
        IPv6Header(src=1, dst=2, next_header=PROTO_TCP), TCPHeader(sport=5, dport=7), b""
    ),
    "icmp6": lambda: Packet(IPv6Header(src=1, dst=2, next_header=58), None, b"ping"),
}

CARRIED_HASH_OPS = ("check", "clone", "src", "dst", "sport", "dport", "proto",
                    "ttl", "decrement", "nat_src", "nat_dst")


def _apply_header_write(data, packet, op):
    """One header write through the views.  A protocol write keeps the
    layout parsed at construction, so it stays inside the frame's
    transport class (UDP <-> TCP, or among transport-less protocols)."""
    net = packet.net
    v4 = packet.version == 4
    address = st.integers(min_value=0, max_value=2**32 - 1 if v4 else 2**128 - 1)
    if op == "src":
        net.src = data.draw(address)
    elif op == "dst":
        net.dst = data.draw(address)
    elif op in ("sport", "dport") and packet.transport is not None:
        setattr(packet.transport, op, data.draw(ports))
    elif op == "proto":
        choices = (PROTO_UDP, PROTO_TCP) if packet.transport is not None else (
            PROTO_ICMP, 47, 50, 58)
        proto = data.draw(st.sampled_from(choices))
        if v4:
            net.protocol = proto
        else:
            net.next_header = proto
    elif op == "ttl":
        if v4:
            net.ttl = data.draw(ttls)
        else:
            net.hop_limit = data.draw(ttls)
    elif op == "decrement" and v4:
        net.decrement_ttl()
    elif op == "decrement":
        net.decrement_hop_limit()
    elif op in ("nat_src", "nat_dst") and v4:
        rewrite = net.rewrite_src if op == "nat_src" else net.rewrite_dst
        rewrite(data.draw(address))


def _assert_hash_tracks_bytes(packet):
    carried = flow_hash_of(packet)
    assert carried == packet.rss
    assert carried == flow_hash_fields(*packet.flow_key())
    assert carried == flow_hash_of(packet.to_bytes())


class TestCarriedFlowHash:
    """A wire packet carries its flow hash (``rss``) once computed; any
    header write must clear it, or steering would read a stale value."""

    def test_fresh_packet_has_no_hash_and_clone_shares_it(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"))
        assert w.rss is None
        assert w.clone_ref().rss is None
        value = flow_hash_of(w)
        assert w.rss == value == w.flow_hash()
        assert w.clone_ref().rss == value

    @pytest.mark.parametrize("shape", sorted(CARRIED_HASH_FRAMES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_header_writes_clear_the_carried_hash(self, shape, data):
        live = [wire_of(CARRIED_HASH_FRAMES[shape]())]
        for op in data.draw(st.lists(st.sampled_from(CARRIED_HASH_OPS), max_size=12)):
            target = live[data.draw(st.integers(0, len(live) - 1))]
            if op == "check":
                _assert_hash_tracks_bytes(target)
            elif op == "clone":
                live.append(target.clone_ref())
            else:
                _apply_header_write(data, target, op)
        for packet in live:
            _assert_hash_tracks_bytes(packet)


class TestIncrementalChecksumProperties:
    @given(src=addresses, dst=addresses, ttl=ttls,
           ident=st.integers(min_value=0, max_value=0xFFFF),
           dscp=st.integers(min_value=0, max_value=63))
    @settings(max_examples=200)
    def test_ttl_decrement_matches_full_recompute(self, src, dst, ttl, ident, dscp):
        p = Packet(IPv4Header(src=src, dst=dst, ttl=ttl, dscp=dscp,
                              identification=ident),
                   UDPHeader(sport=1, dport=2), b"x")
        w, q = wire_of(p), p.copy()
        assert w.net.decrement_ttl() and q.net.decrement_ttl()
        assert w.net.checksum == q.net.checksum  # incremental == full
        assert w.net.checksum_ok()
        assert w.to_bytes() == q.to_bytes()

    @given(src=addresses, dst=addresses, new_src=addresses, new_dst=addresses,
           ttl=ttls)
    @settings(max_examples=200)
    def test_nat_rewrite_matches_full_recompute(self, src, dst, new_src,
                                                new_dst, ttl):
        p = make_udp_v4(src, dst, ttl=ttl)
        w, q = wire_of(p), p.copy()
        w.net.rewrite_src(new_src)
        q.net.rewrite_src(new_src)
        assert w.net.checksum == q.net.checksum
        w.net.rewrite_dst(new_dst)
        q.net.rewrite_dst(new_dst)
        assert w.net.checksum == q.net.checksum
        assert w.net.checksum_ok()
        assert w.to_bytes() == q.to_bytes()

    @given(src=addresses, dst=addresses, hops=st.integers(min_value=1, max_value=60))
    @settings(max_examples=50)
    def test_repeated_decrements_stay_consistent(self, src, dst, hops):
        w = wire_of(make_udp_v4(src, dst, ttl=64))
        for _ in range(hops):
            assert w.net.decrement_ttl()
            assert w.net.checksum_ok()
        assert w.net.ttl == 64 - hops
        # The accumulated incremental updates equal one full recompute.
        assert w.net.compute_checksum() == w.net.checksum

    @given(checksum=st.integers(min_value=0, max_value=0xFFFF),
           old=st.integers(min_value=0, max_value=0xFFFF),
           new=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=200)
    def test_update_is_reversible(self, checksum, old, new):
        there = incremental_checksum_update(checksum, old, new)
        back = incremental_checksum_update(there, new, old)
        # One's-complement checksums have two representations of zero;
        # compare in sum space.
        assert back % 0xFFFF == checksum % 0xFFFF


def _routes():
    routes = synthetic_route_table(prefixes=64, next_hops=["east", "west"], seed=3)
    routes["0.0.0.0/0"] = "east"
    return routes


def _delivered_bytes(pipeline):
    """hop -> serialised packets, in delivery order."""
    out = {}
    for name, sink in pipeline.stages.items():
        if name.startswith("sink:"):
            out[name] = [bytes(getattr(p, "wire_view", p.to_bytes)())
                         if hasattr(p, "wire_view") else p.to_bytes()
                         for p in sink.packets]
    return out


class TestPipelineEquivalence:
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("batch", [1, 32])
    def test_wire_path_is_byte_for_byte_equivalent(self, fused, batch):
        routes = _routes()
        trace = udp_route_trace(routes, count=96, seed=11)
        mirror = [p.copy() for p in trace]

        copy_pipe = build_forwarding_pipeline(Capsule("copy"), routes=routes)
        wire_pipe = build_forwarding_pipeline(Capsule("wire"), routes=routes)
        if fused:
            fuse_pipeline(list(copy_pipe.capsule.components().values()))
            fuse_pipeline(list(wire_pipe.capsule.components().values()))

        wired = wire_trace(mirror)
        for i in range(0, len(trace), batch):
            copy_pipe.push_batch(trace[i : i + batch])
            wire_pipe.push_batch(wired[i : i + batch])

        copied = _delivered_bytes(copy_pipe)
        wired_out = _delivered_bytes(wire_pipe)
        assert copied.keys() == wired_out.keys()
        total = 0
        for hop in copied:
            assert copied[hop] == wired_out[hop], hop
            total += len(copied[hop])
        assert total == 96  # everything forwarded on both paths

    def test_wire_path_through_baselines_matches_copy_path(self):
        routes = _routes()
        trace = udp_route_trace(routes, count=64, seed=12)
        mono_copy = MonolithicRouter(routes, queue_capacity=128)
        mono_wire = MonolithicRouter(routes, queue_capacity=128)
        mono_copy.push_batch([p.copy() for p in trace])
        mono_wire.push_batch(wire_trace([p.copy() for p in trace]))
        mono_copy.service(budget=64)
        mono_wire.service(budget=64)
        assert mono_copy.counters["tx"] == mono_wire.counters["tx"] == 64
        for hop, packets in mono_copy.delivered.items():
            wire_packets = mono_wire.delivered[hop]
            assert [p.to_bytes() for p in packets] == [
                p.to_bytes() for p in wire_packets
            ], hop

        click_copy = ClickRouter(standard_click_config(routes=routes))
        click_wire = ClickRouter(standard_click_config(routes=routes))
        click_copy.push_batch([p.copy() for p in trace])
        click_wire.push_batch(wire_trace([p.copy() for p in trace]))
        click_copy.service(budget=64)
        click_wire.service(budget=64)
        for name in click_copy.elements:
            if not name.startswith("sink-"):
                continue
            a = [p.to_bytes() for p in click_copy.sink(name).packets]
            b = [p.to_bytes() for p in click_wire.sink(name).packets]
            assert a == b, name

    def test_to_wire_passthrough(self):
        w = wire_of(make_udp_v4("10.0.0.1", "10.0.0.2"))
        assert to_wire(w) is w

    @pytest.mark.allow_pool_leak
    def test_dropped_wire_packets_return_to_their_pool(self):
        # Drop paths must hand pooled buffers back: without release-on-drop
        # a long-lived router bleeds pool capacity one dropped packet at
        # a time.  TTL-expired packets die in the IPv4 header processor.
        routes = _routes()
        pipeline = build_forwarding_pipeline(Capsule("drops"), routes=routes)
        pool = BufferPool(256, 64)
        live = wire_trace(udp_route_trace(routes, count=8, seed=5), pool=pool)
        dead = wire_trace(udp_route_trace(routes, count=8, seed=6), pool=pool)
        for p in dead:
            p.net.ttl = 1
            p.net.refresh_checksum()
        pipeline.push_batch(live + dead)
        delivered = sum(
            sink.collected_count()
            for name, sink in pipeline.stages.items()
            if name.startswith("sink:")
        )
        assert delivered == 8
        assert pipeline.stages["ipv4"].counters["drop:ttl-expired"] == 8
        # The 8 dropped buffers are back in the pool; only the 8
        # delivered packets (held by the sinks) remain in flight.
        assert pool.in_flight == 8

    @pytest.mark.allow_pool_leak
    def test_queue_overflow_returns_buffers(self):
        from repro.router import FifoQueue

        queue = FifoQueue(capacity=2)
        pool = BufferPool(256, 8)
        packets = wire_trace(
            [make_udp_v4("10.0.0.1", "10.0.0.2") for _ in range(5)], pool=pool
        )
        queue.push_batch(packets)
        assert queue.counters["drop:overflow"] == 3
        assert pool.in_flight == 2  # only the queued packets hold buffers


class TestWireBroadcastFanout:
    """The EE multicast path fans wire packets out by reference."""

    def _environment(self):
        from repro.appservices import CodeAdmission, ExecutionEnvironment
        from repro.router import CollectorSink

        admission = CodeAdmission()
        admission.trust("alice", b"alice-key", step_budget=100,
                        may_broadcast=True)
        capsule = Capsule("wire-ee")
        ee = capsule.instantiate(
            lambda: ExecutionEnvironment("n0", admission), "ee"
        )
        sinks = {}
        for port in ("east", "west", "south"):
            sink = capsule.instantiate(CollectorSink, port)
            capsule.bind(ee.receptacle("out"), sink.interface("in0"),
                         connection_name=port)
            sinks[port] = sink
        return ee, sinks

    def test_broadcast_clones_share_and_release_original(self):
        from repro.appservices import make_capsule_packet

        ee, sinks = self._environment()
        pool = BufferPool(1024, 4)
        packet = make_capsule_packet(
            "10.0.0.1", "10.0.0.9", "alice", b"alice-key", [("broadcast",)],
            ttl=32,
        )
        wire = WirePacket.from_packet(packet, pool=pool)
        before = DATAPATH_LEDGER.snapshot()
        ee.interface("in0").vtable.invoke("push", wire)
        report = measure_byte_movement(before)
        clones = [s.packets[0] for s in sinks.values()]
        assert len(clones) == 3
        # Fan-out moved no bytes: three references, zero copies …
        assert report.references == 3
        assert report.copies == 0
        # … and the original's pooled reference was released, so the
        # clones own the buffer alone (refcount == live clones) and can
        # mutate without copy-on-write against a pinned original.
        assert clones[0].buffer.refcount == 3
        assert all(bytes(c.payload) == bytes(packet.payload) for c in clones)
        for clone in clones:
            clone.release()
        assert pool.in_flight == 0
