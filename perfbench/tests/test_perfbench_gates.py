"""The correctness gates catch what they guard against."""

import pytest

from perfbench.common import (
    EgressCounter,
    FleetView,
    Gates,
    conservation,
    fifo_violations,
    make_routes,
    stamp,
)
from repro.netsim import make_udp_v4
from repro.osbase import release_dropped
from repro.router import build_capsule_fleet
from repro.router.pipeline import RouterPipeline


def frames(count):
    return [
        make_udp_v4(
            f"10.9.{i % 7}.1", "10.1.2.3", sport=1000 + i % 7, dport=53,
            payload=stamp(i % 7, i // 7, 18),
        ).to_bytes()
        for i in range(count)
    ]


def run_fleet(offered):
    egress = EgressCounter()
    fleet = build_capsule_fleet(2, routes=make_routes(), shards=2, tx_handler=egress.factory)
    for frame in offered:
        fleet.ingest(frame)
    fleet.pump()
    view = FleetView(fleet)
    gates = Gates()
    conservation(gates, len(offered), egress.count, view.drops(), view.in_flight())
    for node in fleet.capsules.values():
        node.datapath.shutdown()
    return gates, view


def test_conservation_holds_with_named_drops():
    offered = frames(64) + [b"\x45\x00"]  # a truncated header: edge malformed
    gates, view = run_fleet(offered)
    assert gates.passed, gates.failures
    assert view.drops()["edge.malformed"] == 1


def test_conservation_catches_a_silent_drop(monkeypatch):
    original = RouterPipeline.push_batch
    lost = []

    def lossy(self, packets):
        if not lost:
            lost.append(packets[0])
            release_dropped(packets[0])
            packets = packets[1:]
        return original(self, packets)

    monkeypatch.setattr(RouterPipeline, "push_batch", lossy)
    gates, _view = run_fleet(frames(64))
    assert len(lost) == 1
    assert not gates.passed
    assert any(failure.startswith("conservation") for failure in gates.failures)


def test_conservation_catches_frames_left_in_flight():
    gates = Gates()
    conservation(gates, 10, 9, {"nic.rx_drops": 0}, in_flight=1)
    assert gates.failures[0] == "1 frames still in flight after the final pump"


@pytest.mark.parametrize(
    "stamps, bad",
    [([(1, 0), (2, 0), (1, 1), (2, 1)], 0), ([(1, 0), (1, 2), (1, 1)], 1), ([(1, 0), (1, 0)], 1)],
)
def test_fifo_check(stamps, bad):
    assert fifo_violations(stamps) == bad
