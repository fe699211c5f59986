"""The tracer's arithmetic and its wrappers' lifecycle."""

import random

import pytest

from perfbench.tracing import Tracer, self_times


class FakeClock:
    """A nanosecond clock that advances by a fixed step per reading."""

    def __init__(self, step: int = 10) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


class Box:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return leaf(n)

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def double(n):
        return 2 * n


class Child(Box):
    pass


def leaf(n):
    return n + 1


def test_self_time_is_span_minus_children_on_nested_spans():
    tracer = Tracer(clock=FakeClock())
    import perfbench.tests.test_perfbench_tracing as module

    tracer.patch(Box, "outer", "outer")
    tracer.patch(Box, "inner", "inner")
    tracer.patch(module, "leaf", "leaf")
    try:
        assert Box().outer(1) == 4
    finally:
        tracer.restore()
    recorded = list(tracer.spans())
    rows = [(span, start, end, parent) for span, _, start, end, parent, _ in recorded]
    by_span = self_times(rows)
    names = {span: name for span, name, *_ in recorded}
    # The online aggregate equals the reference arithmetic per name.
    for name in ("outer", "inner", "leaf"):
        expected = sum(v for span, v in by_span.items() if names[span] == name)
        assert tracer.self_ns[tracer.name_id(name)] == expected
    # Self times of all spans add up to the top-level span's duration.
    top = [r for r in rows if r[3] == -1]
    assert len(top) == 1
    assert sum(by_span.values()) == top[0][2] - top[0][1]
    assert tracer.calls[tracer.name_id("inner")] == 2
    assert tracer.calls[tracer.name_id("leaf")] == 2


def test_self_times_reference_on_a_random_tree():
    rng = random.Random(7)
    rows = [(0, 0, 1000, -1)]
    for span in range(1, 40):
        parent = rng.randrange(span)
        p_start, p_end = rows[parent][1], rows[parent][2]
        start = rng.randrange(p_start, p_end)
        rows.append((span, start, rng.randrange(start, p_end) + 1, parent))
    got = self_times(rows)
    for span, start, end, _ in rows:
        children = sum(e - s for _, s, e, p in rows if p == span)
        assert got[span] == (end - start) - children


def test_restore_puts_back_every_original():
    import perfbench.tests.test_perfbench_tracing as module

    originals = {
        "outer": Box.__dict__["outer"],
        "make": Box.__dict__["make"],
        "double": Box.__dict__["double"],
        "leaf": module.leaf,
    }
    tracer = Tracer()
    tracer.patch(Box, "outer", "outer")
    tracer.patch(Box, "make", "make")
    tracer.patch(Box, "double", "double")
    tracer.patch(Child, "inner", "child.inner")  # inherited: added on Child
    tracer.patch(module, "leaf", "leaf")
    box = Box()
    tracer.patch_instance(box, "inner", "box.inner")
    assert isinstance(Box.make(), Box)  # classmethod still binds the class
    assert Box.double(3) == 6
    assert box.outer(1) == 4
    assert tracer.calls[tracer.name_id("box.inner")] == 2
    assert tracer.calls[tracer.name_id("make")] == 1
    tracer.restore()
    assert Box.__dict__["outer"] is originals["outer"]
    assert Box.__dict__["make"] is originals["make"]
    assert Box.__dict__["double"] is originals["double"]
    assert module.leaf is originals["leaf"]
    assert "inner" not in Child.__dict__
    assert "inner" not in vars(box)


def test_layer_wrappers_restore_the_program():
    from perfbench import layers
    from repro.netsim import wire
    from repro.osbase.nic import Nic
    from repro.router import fleet
    from repro.router.pipeline import RouterPipeline

    before = (
        wire.flow_hash_of,
        fleet.flow_hash_of,
        Nic.__dict__["receive_frame"],
        RouterPipeline.__dict__["push_batch"],
        wire.WirePacket.__dict__["ingest"],
    )
    tracer = Tracer()
    layers.install(tracer)
    assert wire.flow_hash_of is not before[0]
    assert fleet.flow_hash_of is not before[1]
    tracer.restore()
    after = (
        wire.flow_hash_of,
        fleet.flow_hash_of,
        Nic.__dict__["receive_frame"],
        RouterPipeline.__dict__["push_batch"],
        wire.WirePacket.__dict__["ingest"],
    )
    assert after == before


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer(clock=FakeClock())
    boom = tracer.wrap(lambda: 1 / 0, "boom")
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.calls[tracer.name_id("boom")] == 1
    # The stack unwound: a later call is a top-level span again.
    ok = tracer.wrap(lambda: 1, "ok")
    ok()
    assert list(tracer.spans())[-1][4] == -1


def test_reported_layer_metrics_add_up_to_the_traced_self_time():
    from types import SimpleNamespace

    from perfbench import layers

    # (self ns, total ns, calls, items) per span name, as a busy phase
    # might aggregate them: per-frame layers, per-call control plane and
    # per-operation reconfiguration spans.
    spans = {
        "fleet.ingest": (3_000_000, 9_000_000, 1000, 0),
        "wire.flow_hash_of": (2_000_000, 2_000_000, 2000, 0),
        "stages.push_batch": (4_000_000, 4_000_000, 40, 1000),
        "rsvp.admit": (500_000, 700_000, 10, 0),
        "reconfig.resize": (6_000_000, 8_000_000, 2, 0),
        "reconfig.swap_queue": (250_000, 250_000, 1, 0),
    }
    busy_seconds = sum(s[0] for s in spans.values()) / 1e9 / 0.95
    traced = SimpleNamespace(
        busy_spans=spans, busy_frames=1000, busy_seconds=busy_seconds,
        busy_counters={}, pool_hwm=0, fwd_kpps=1.0, lat_p50_us=1.0,
    )
    untraced = SimpleNamespace(
        fwd_kpps=1.0, lat_p50_us=1.0, lat_p99_us=1.0, late_max_us=None,
        flow_setup_p50_us=None, flow_setup_p99_us=None,
    )
    out = layers.metrics(traced, untraced, layers.RxDepth(), (0, 0))
    assert out["wire.hash_us"] == pytest.approx(2.0)
    assert out["reconfig.swap_ms"] == pytest.approx(0.25)
    assert out["trace.attributed_frac"] == pytest.approx(0.95)
    assert layers.unreported(spans) == []
    assert layers.unreported({**spans, "new.entry_point": (1, 1, 1, 0)}) == [
        "new.entry_point"
    ]
