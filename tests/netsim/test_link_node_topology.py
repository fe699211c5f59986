"""Links, nodes and topologies over the engine."""

import pytest

from repro.netsim import (
    PROTO_UDP,
    Engine,
    NodeError,
    Topology,
    WirePacket,
    make_udp_v4,
)
from repro.netsim.packet import IPv4Header, Packet
from repro.osbase import BufferPool


def two_node_topo(**link_kwargs):
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    defaults = {"bandwidth_bps": 1e6, "latency_s": 0.01}
    defaults.update(link_kwargs)
    topo.connect("a", "b", **defaults)
    return topo


class TestLink:
    def test_delivery_includes_tx_and_propagation_delay(self):
        topo = two_node_topo()
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(topo.engine.now))
        packet = make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes(97))  # 125 bytes
        topo.node("a").send("eth0", packet)
        topo.engine.run()
        # 125 bytes at 1 Mbps = 1 ms serialisation + 10 ms latency
        assert received[0] == pytest.approx(0.011, rel=1e-6)

    def test_serialisation_queues_back_to_back(self):
        topo = two_node_topo()
        times = []
        topo.node("b").set_packet_handler(lambda p, port: times.append(topo.engine.now))
        for _ in range(3):
            topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes(97)))
        topo.engine.run()
        # Arrivals 1 ms apart: the link serialises one packet at a time.
        assert times == pytest.approx([0.011, 0.012, 0.013], rel=1e-6)

    def test_loss_rate_drops_deterministically(self):
        topo = two_node_topo(loss_rate=0.5, seed=7)
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(p))
        for _ in range(200):
            topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        stats = topo.links[0].stats()["a_to_b"]
        assert stats.lost + stats.delivered == stats.sent == 200
        assert 60 <= stats.lost <= 140

    def test_backlog_limit_drops(self):
        topo = two_node_topo(max_backlog=5)
        for _ in range(10):
            topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        stats = topo.links[0].stats()["a_to_b"]
        assert stats.dropped_backlog == 5

    def test_set_loss_rate_live(self):
        topo = two_node_topo()
        topo.links[0].set_loss_rate(1.0)
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(p))
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert received == []

    def test_reseeded_loss_pattern_ignores_prior_traffic(self):
        # set_loss_rate(..., seed=) re-derives the direction RNGs, so the
        # drop pattern from that point on is a pure function of the seed
        # — however much traffic (and RNG consumption) came before.
        def delivered_after_reseed(warmup_packets):
            topo = two_node_topo(loss_rate=0.3, seed="warmup")
            received = []
            topo.node("b").set_packet_handler(
                lambda p, port: received.append(bytes(p.payload))
            )
            for n in range(warmup_packets):
                topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
            topo.engine.run()
            received.clear()
            topo.links[0].set_loss_rate(0.5, seed="fault-onset")
            for n in range(60):
                topo.node("a").send(
                    "eth0",
                    make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes([n])),
                )
            topo.engine.run()
            return received

        assert delivered_after_reseed(0) == delivered_after_reseed(23)


    def test_pending_events_are_the_frames_on_the_wire(self):
        topo = two_node_topo()  # 125-byte frames: arrivals 1 ms apart from 11 ms
        a, b = topo.node("a"), topo.node("b")
        for _ in range(4):
            a.send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes(97)))
        b.send("eth0", make_udp_v4("10.0.0.99", "10.0.0.1", payload=bytes(97)))
        link = topo.links[0]
        assert topo.engine.pending() == 5
        assert link.direction_from(a).in_flight == 4
        assert link.direction_from(b).in_flight == 1
        topo.engine.run_until(0.0125)
        assert topo.engine.pending() == 2
        assert link.direction_from(a).in_flight == 2
        assert link.direction_from(b).in_flight == 0
        topo.engine.run()
        assert topo.engine.pending() == 0
        assert link.stats()["a_to_b"].delivered == 4

    def test_delivery_order_and_times_across_directions_and_links(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_node(name)
        topo.connect("a", "b", bandwidth_bps=1e6, latency_s=0.01)
        topo.connect("a", "c", bandwidth_bps=2e6, latency_s=0.004)
        log = []
        for name in ("a", "b", "c"):
            topo.node(name).set_packet_handler(
                lambda p, port, name=name: log.append(
                    (name, port, p.payload[0], topo.engine.now)
                )
            )

        def send(src, dst, tag, size):
            packet = make_udp_v4(
                "10.0.0.1", "10.0.0.2", payload=bytes([tag]) + bytes(size)
            )
            topo.node(src).send_to_neighbor(dst, packet)

        sends = [
            ("a", "b", 97), ("a", "c", 497), ("b", "a", 47), ("a", "b", 22),
            ("c", "a", 197), ("a", "c", 97), ("b", "a", 97), ("a", "b", 997),
        ]
        for tag, (src, dst, size) in enumerate(sends):
            send(src, dst, tag, size)
        # Later sends find some directions idle and others still busy.
        topo.engine.schedule_at(0.0105, lambda: send("a", "b", 8, 47))
        topo.engine.schedule_at(0.0105, lambda: send("c", "a", 9, 47))
        topo.engine.schedule_at(0.02, lambda: send("b", "a", 10, 297))
        topo.engine.run()
        # Pinned literals: a change to serialisation, propagation or
        # equal-time ordering shows up here as a different time or order.
        assert log == [
            ("a", "eth1", 4, 0.004904),
            ("c", "eth0", 1, 0.006104),
            ("c", "eth0", 5, 0.006608),
            ("a", "eth0", 2, 0.010608),
            ("b", "eth0", 0, 0.011008),
            ("b", "eth0", 3, 0.011416),
            ("a", "eth0", 6, 0.011616),
            ("a", "eth1", 9, 0.014804000000000001),
            ("b", "eth0", 7, 0.019624000000000003),
            ("b", "eth0", 8, 0.021108000000000002),
            ("a", "eth0", 10, 0.032608),
        ]


class TestPartition:
    def test_partition_blackholes_without_sender_feedback(self):
        topo = two_node_topo()
        link = topo.links[0]
        link.partition()
        assert link.partitioned
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(p))
        # The cable is cut, but the sender cannot tell: send still
        # reports acceptance (recovery belongs to the retry layer).
        assert topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert received == []
        assert link.stats()["a_to_b"].dropped_down == 1
        assert link.stats()["a_to_b"].delivered == 0

    def test_partition_drops_packets_already_in_flight(self):
        topo = two_node_topo()  # arrival would be at 11 ms
        link = topo.links[0]
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append(p))
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes(97)))
        topo.engine.schedule_at(0.005, link.partition)
        topo.engine.run()
        assert received == []
        stats = link.stats()["a_to_b"]
        assert stats.sent == 1
        assert stats.dropped_down == 1

    def test_partition_between_arrivals_drops_only_the_later_frames(self):
        topo = two_node_topo()  # arrivals at 11, 12 and 13 ms
        link = topo.links[0]
        pool = BufferPool(256, 4)
        received = []

        def on_packet(packet, port):
            received.append(packet.payload[0])
            packet.release()

        topo.node("b").set_packet_handler(on_packet)
        for n in range(3):
            packet = make_udp_v4("10.0.0.1", "10.0.0.99", payload=bytes([n]) + bytes(96))
            topo.node("a").send("eth0", WirePacket.from_packet(packet, pool=pool))
        topo.engine.schedule_at(0.0115, link.partition)
        topo.engine.run()
        assert received == [0]
        stats = link.stats()["a_to_b"]
        assert (stats.sent, stats.delivered, stats.dropped_down) == (3, 1, 2)
        assert link.direction_from(topo.node("a")).in_flight == 0
        assert pool.in_flight == 0  # the dropped frames' buffers came back

    def test_heal_restores_both_directions(self):
        topo = two_node_topo()
        link = topo.links[0]
        link.partition()
        link.heal()
        assert not link.partitioned
        received = []
        topo.node("b").set_packet_handler(lambda p, port: received.append("b"))
        topo.node("a").set_packet_handler(lambda p, port: received.append("a"))
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.node("b").send("eth0", make_udp_v4("10.0.0.99", "10.0.0.1"))
        topo.engine.run()
        assert sorted(received) == ["a", "b"]


class TestNode:
    def test_control_protocol_dispatch(self):
        topo = two_node_topo()
        node_b = topo.node("b")
        got = []
        node_b.register_protocol(200, lambda p, port: got.append(p))
        packet = Packet(
            IPv4Header(src=topo.node("a").address, dst=node_b.address, protocol=200),
            None,
            b"control",
        )
        topo.node("a").send("eth0", packet)
        topo.engine.run()
        assert len(got) == 1
        assert node_b.counters["delivered_local"] == 1

    def test_duplicate_protocol_registration_rejected(self):
        topo = two_node_topo()
        topo.node("a").register_protocol(200, lambda p, port: None)
        with pytest.raises(NodeError, match="already handles"):
            topo.node("a").register_protocol(200, lambda p, port: None)

    def test_no_handler_drop_counted(self):
        topo = two_node_topo()
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert topo.node("b").counters["no_handler_drops"] == 1

    @pytest.mark.allow_pool_leak
    def test_backpressure_refusal_accounted(self):
        # Regression: a frame the NIC refuses under a backpressure pool
        # policy used to vanish with zero accounting — the node (the end
        # of the retry-less link path) now counts the loss.
        from repro.osbase import BufferPool

        topo = two_node_topo()
        node_b = topo.node("b")
        received = []
        node_b.set_packet_handler(lambda p, port: received.append(p))
        ingress_pool = BufferPool(256, 1, exhaustion_policy="backpressure")
        nic_b = node_b.nic("eth0")
        nic_b.bind_pool(ingress_pool)
        ingress_pool.acquire(10)  # pin the only buffer: the NIC must refuse

        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert received == []
        assert nic_b.counters["rx_backpressure"] == 1
        assert node_b.counters["delivery_drops"] == 1

    def test_ingress_metadata(self):
        topo = two_node_topo()
        seen = []
        topo.node("b").set_packet_handler(lambda p, port: seen.append(p.metadata))
        topo.node("a").send("eth0", make_udp_v4("10.0.0.1", "10.0.0.99"))
        topo.engine.run()
        assert seen[0]["ingress_port"] == "eth0"
        assert seen[0]["ingress_node"] == "b"

    def test_send_to_neighbor_and_port_to(self):
        topo = Topology.chain(3)
        n1 = topo.node("n1")
        assert n1.port_to("n0") == "eth0"
        assert n1.port_to("n2") == "eth1"
        with pytest.raises(NodeError, match="no link to"):
            n1.port_to("n99")

    def test_parallel_links_use_the_first_attached_port(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        first = topo.connect("a", "b")
        second = topo.connect("a", "b")
        a = topo.node("a")
        assert a.ports() == ["eth0", "eth1"]
        assert a.port_to("b") == "eth0"
        assert topo.node("b").port_to("a") == "eth0"
        assert a.send_to_neighbor("b", make_udp_v4("10.0.0.1", "10.0.0.99"))
        assert first.stats()["a_to_b"].sent == 1
        assert second.stats()["a_to_b"].sent == 0
        with pytest.raises(NodeError, match="no link to"):
            a.send_to_neighbor("c", make_udp_v4("10.0.0.1", "10.0.0.99"))

    def test_unknown_port(self):
        topo = two_node_topo()
        with pytest.raises(NodeError, match="no port"):
            topo.node("a").link("eth9")

    def test_describe(self):
        topo = two_node_topo()
        info = topo.node("a").describe()
        assert info["ports"]["eth0"]["peer"] == "b"


class TestTopology:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("x")
        with pytest.raises(NodeError, match="already exists"):
            topo.add_node("x")

    def test_addresses_unique(self):
        topo = Topology.chain(5)
        addresses = {node.address for node in topo.nodes.values()}
        assert len(addresses) == 5

    def test_chain_routes(self):
        topo = Topology.chain(4)
        hops = topo.next_hops("n0")
        assert hops == {"n1": "n1", "n2": "n1", "n3": "n1"}
        assert topo.next_hops("n2") == {"n0": "n1", "n1": "n1", "n3": "n3"}

    def test_shortest_path_prefers_low_latency(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_node(name)
        topo.connect("a", "c", latency_s=0.1)       # direct but slow
        topo.connect("a", "b", latency_s=0.01)
        topo.connect("b", "c", latency_s=0.01)      # via b: 0.02 total
        assert topo.shortest_paths("a")["c"] == ["a", "b", "c"]

    def test_star_topology(self):
        topo = Topology.star(4)
        assert topo.next_hops("leaf0")["leaf3"] == "hub"

    def test_ring_topology(self):
        topo = Topology.ring(6)
        assert len(topo.links) == 6
        hops = topo.next_hops("n0")
        assert hops["n1"] == "n1"
        assert hops["n5"] == "n5"

    def test_binary_tree(self):
        topo = Topology.binary_tree(2)
        assert len(topo.nodes) == 7
        assert topo.next_hops("t3")["t6"] == "t1"  # up toward the root

    def test_grid(self):
        topo = Topology.grid(2, 3)
        assert len(topo.nodes) == 6
        assert len(topo.links) == 7

    def test_random_connected_is_connected(self):
        topo = Topology.random_connected(12, extra_edges=4, seed=3)
        paths = topo.shortest_paths("r0")
        assert len(paths) == 12

    def test_address_routes_format(self):
        topo = Topology.chain(2)
        routes = topo.address_routes("n0")
        (prefix, hop), = routes.items()
        assert prefix.endswith("/32")
        assert hop == "n1"
