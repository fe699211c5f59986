"""Distributed two-phase reconfiguration."""

import pytest

from repro.coordination import (
    ActionSet,
    ReconfigCoordinator,
    ReconfigError,
    ReconfigParticipant,
    attach_agents,
    register_table_swap,
)
from repro.netsim import FaultInjector, Topology


def link_between(topo, a, b):
    for link in topo.links:
        ends = {link.endpoint_a[0].name, link.endpoint_b[0].name}
        if ends == {a, b}:
            return link
    raise AssertionError(f"no link {a}<->{b}")


@pytest.fixture
def network():
    topo = Topology.star(3, latency_s=0.001)
    agents = attach_agents(topo)
    coordinator = ReconfigCoordinator(agents["hub"])
    participants = {
        name: ReconfigParticipant(agents[name])
        for name in ("leaf0", "leaf1", "leaf2")
    }
    return topo, coordinator, participants


def swap_actions(state, node, *, quiesce_ok=True, apply_raises=False):
    def apply(params):
        if apply_raises:
            raise RuntimeError("apply failure")
        state[node] = params["to"]

    return ActionSet(
        quiesce=lambda params: quiesce_ok,
        apply=apply,
        resume=lambda params: state.setdefault("resumed", []).append(node),
        rollback=lambda params: state.setdefault("rolled-back", []).append(node),
    )


class TestCommitPath:
    def test_unanimous_yes_commits_everywhere(self, network):
        topo, coordinator, participants = network
        state = {}
        for node, participant in participants.items():
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "committed"
        assert {state[n] for n in participants} == {"v2"}
        assert sorted(state["resumed"]) == sorted(participants)

    def test_round_records_votes_and_events(self, network):
        topo, coordinator, participants = network
        state = {}
        for node, participant in participants.items():
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert all(round_.votes[n] for n in participants)
        assert "commit" in round_.events


class TestAbortPath:
    def test_any_refusal_aborts_all(self, network):
        topo, coordinator, participants = network
        state = {}
        items = list(participants.items())
        for node, participant in items[:-1]:
            participant.register("swap", swap_actions(state, node))
        refuser_name, refuser = items[-1]
        refuser.register("swap", swap_actions(state, refuser_name, quiesce_ok=False))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "aborted"
        # Nobody applied.
        assert not any(n in state for n in participants)
        # Prepared participants resumed unchanged.
        assert set(state.get("resumed", [])) == {n for n, _ in items[:-1]}

    def test_unknown_kind_votes_no(self, network):
        topo, coordinator, participants = network
        round_ = coordinator.start("unregistered-kind", list(participants))
        topo.engine.run()
        assert round_.status == "aborted"

    def test_quiesce_exception_votes_no(self, network):
        topo, coordinator, participants = network
        state = {}

        def explode(params):
            raise RuntimeError("quiesce bug")

        items = list(participants.items())
        items[0][1].register(
            "swap",
            ActionSet(quiesce=explode, apply=lambda p: None, resume=lambda p: None),
        )
        for node, participant in items[1:]:
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "x"})
        topo.engine.run()
        assert round_.status == "aborted"

    def test_apply_failure_triggers_rollback_and_resume(self, network):
        topo, coordinator, participants = network
        state = {}
        items = list(participants.items())
        failing_name, failing = items[0]
        failing.register(
            "swap", swap_actions(state, failing_name, apply_raises=True)
        )
        for node, participant in items[1:]:
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "committed"  # votes were unanimous
        assert failing_name not in state or state[failing_name] != "v2"
        assert failing_name in state["rolled-back"]
        assert failing_name in state["resumed"]

    def test_manual_abort_of_stalled_round(self, network):
        topo, coordinator, participants = network
        state = {}
        # Register on only one participant; others never vote (unknown kind
        # makes them vote no immediately, so instead just don't run engine
        # to completion: abort manually before any vote lands).
        round_ = coordinator.start("swap", list(participants), {"to": "x"})
        coordinator.abort_stalled(round_)
        assert round_.status == "aborted"
        coordinator.abort_stalled(round_)  # idempotent on complete rounds

    def test_empty_participant_list_rejected(self, network):
        _, coordinator, _ = network
        with pytest.raises(ReconfigError):
            coordinator.start("swap", [])

    def test_duplicate_kind_registration_rejected(self, network):
        _, _, participants = network
        participant = next(iter(participants.values()))
        actions = ActionSet(
            quiesce=lambda p: True, apply=lambda p: None, resume=lambda p: None
        )
        participant.register("k", actions)
        with pytest.raises(ReconfigError, match="already registered"):
            participant.register("k", actions)


class TestDeadline:
    def test_partitioned_participant_expires_the_deadline(self, network):
        topo, coordinator, participants = network
        state = {}
        for node, participant in participants.items():
            participant.register("swap", swap_actions(state, node))
        # leaf2 is unreachable for longer than every retransmit: its
        # vote never arrives, and only the deadline resolves the round.
        injector = FaultInjector(topo.engine)
        injector.partition(link_between(topo, "hub", "leaf2"), at=0.0001)
        round_ = coordinator.start(
            "swap", list(participants), {"to": "v2"}, deadline=0.5
        )
        topo.engine.run()
        assert round_.status == "aborted"
        assert "deadline-expired (missing votes: ['leaf2'])" in round_.events
        # Nobody applied; the reachable (prepared) participants rolled
        # back and resumed unchanged instead of staying quiesced.
        assert not any(state.get(n) == "v2" for n in participants)
        assert sorted(state["rolled-back"]) == ["leaf0", "leaf1"]
        assert sorted(state["resumed"]) == ["leaf0", "leaf1"]

    def test_deadline_is_a_no_op_on_resolved_rounds(self, network):
        topo, coordinator, participants = network
        state = {}
        for node, participant in participants.items():
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start(
            "swap", list(participants), {"to": "v2"}, deadline=5.0
        )
        topo.engine.run()
        assert round_.status == "committed"
        assert not any("deadline-expired" in event for event in round_.events)

    def test_nonpositive_deadline_rejected(self, network):
        _, coordinator, participants = network
        with pytest.raises(ReconfigError, match="deadline"):
            coordinator.start("swap", list(participants), deadline=0)


class TestRollbackOrdering:
    def _log_index(self, participant, fragment):
        matches = [i for i, line in enumerate(participant.log) if fragment in line]
        assert len(matches) == 1, (fragment, participant.log)
        return matches[0]

    def test_abort_rolls_back_before_resuming(self, network):
        topo, coordinator, participants = network
        state = {}
        items = list(participants.items())
        for node, participant in items[:-1]:
            participant.register("swap", swap_actions(state, node))
        refuser_name, refuser = items[-1]
        refuser.register("swap", swap_actions(state, refuser_name, quiesce_ok=False))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "aborted"
        for _, participant in items[:-1]:
            rolled = self._log_index(participant, "rolled back")
            resumed = self._log_index(participant, "resumed unchanged")
            assert rolled < resumed

    def test_apply_failure_rolls_back_before_resuming(self, network):
        topo, coordinator, participants = network
        state = {}
        items = list(participants.items())
        failing_name, failing = items[0]
        failing.register("swap", swap_actions(state, failing_name, apply_raises=True))
        for node, participant in items[1:]:
            participant.register("swap", swap_actions(state, node))
        round_ = coordinator.start("swap", list(participants), {"to": "v2"})
        topo.engine.run()
        assert round_.status == "committed"
        assert "apply failed" in "".join(failing.log)
        rolled = self._log_index(failing, "rolled back")
        resumed = self._log_index(failing, "resumed")
        assert rolled < resumed


class FakeSwapDatapath:
    """Duck-typed stand-in for ShardedDatapath.swap_action_set(): logs
    each phase with the round's ``"shard"`` (recovery) or ``"shards"``
    (resize) parameter."""

    def __init__(self, *, quiesce_ok=True, apply_raises=False):
        self.calls = []
        self.quiesce_ok = quiesce_ok
        self.apply_raises = apply_raises

    def swap_action_set(self):
        def log(phase, params):
            self.calls.append((phase, params.get("shard", params.get("shards"))))

        def quiesce(params):
            log("quiesce", params)
            return self.quiesce_ok

        def apply(params):
            log("apply", params)
            if self.apply_raises:
                raise RuntimeError("re-carve hand-off failed")

        return {
            "quiesce": quiesce,
            "apply": apply,
            "resume": lambda params: log("resume", params),
            "rollback": lambda params: log("rollback", params),
        }


class TestShardRecoveryBridge:
    def test_committed_round_drives_quiesce_apply_resume(self, network):
        topo, coordinator, participants = network
        datapaths = {}
        for node, participant in participants.items():
            datapaths[node] = FakeSwapDatapath()
            register_table_swap(participant, datapaths[node], kind="shard-recovery")
        round_ = coordinator.start(
            "shard-recovery", list(participants), {"shard": 2}, deadline=1.0
        )
        topo.engine.run()
        assert round_.status == "committed"
        for datapath in datapaths.values():
            assert datapath.calls == [
                ("quiesce", 2), ("apply", 2), ("resume", 2)
            ]

    def test_refused_quiesce_aborts_and_spares_the_rest(self, network):
        topo, coordinator, participants = network
        items = list(participants.items())
        datapaths = {}
        for node, participant in items:
            datapaths[node] = FakeSwapDatapath(quiesce_ok=(node != "leaf2"))
            register_table_swap(participant, datapaths[node], kind="shard-recovery")
        round_ = coordinator.start("shard-recovery", list(participants), {"shard": 0})
        topo.engine.run()
        assert round_.status == "aborted"
        assert datapaths["leaf2"].calls == [("quiesce", 0)]
        for node in ("leaf0", "leaf1"):
            assert datapaths[node].calls == [
                ("quiesce", 0), ("rollback", 0), ("resume", 0)
            ]


class TestShardResizeBridge:
    def test_committed_round_drives_quiesce_apply_resume(self, network):
        topo, coordinator, participants = network
        datapaths = {}
        for node, participant in participants.items():
            datapaths[node] = FakeSwapDatapath()
            register_table_swap(participant, datapaths[node], kind="shard-resize")
        round_ = coordinator.start(
            "shard-resize", list(participants), {"shards": 6}, deadline=1.0
        )
        topo.engine.run()
        assert round_.status == "committed"
        for datapath in datapaths.values():
            assert datapath.calls == [
                ("quiesce", 6), ("apply", 6), ("resume", 6)
            ]

    def test_refused_target_aborts_and_rolls_back_the_rest(self, network):
        topo, coordinator, participants = network
        items = list(participants.items())
        datapaths = {}
        for node, participant in items[:-1]:
            datapaths[node] = FakeSwapDatapath()
            register_table_swap(participant, datapaths[node], kind="shard-resize")
        refuser_name, refuser = items[-1]
        datapaths[refuser_name] = FakeSwapDatapath(quiesce_ok=False)
        register_table_swap(refuser, datapaths[refuser_name], kind="shard-resize")
        round_ = coordinator.start(
            "shard-resize", list(participants), {"shards": 0}, deadline=1.0
        )
        topo.engine.run()
        assert round_.status == "aborted"
        # Prepared participants roll back before resuming; the refuser
        # never prepared, so the abort is a no-op for it.
        for node, _ in items[:-1]:
            assert datapaths[node].calls == [
                ("quiesce", 0), ("rollback", 0), ("resume", 0)
            ]
        assert datapaths[refuser_name].calls == [("quiesce", 0)]

    def test_apply_failure_rolls_back_locally(self, network):
        topo, coordinator, participants = network
        items = list(participants.items())
        datapaths = {}
        failing_name, failing = items[0]
        datapaths[failing_name] = FakeSwapDatapath(apply_raises=True)
        register_table_swap(failing, datapaths[failing_name], kind="shard-resize")
        for node, participant in items[1:]:
            datapaths[node] = FakeSwapDatapath()
            register_table_swap(participant, datapaths[node], kind="shard-resize")
        round_ = coordinator.start(
            "shard-resize", list(participants), {"shards": 4}, deadline=1.0
        )
        topo.engine.run()
        assert round_.status == "committed"
        assert datapaths[failing_name].calls == [
            ("quiesce", 4), ("apply", 4), ("rollback", 4), ("resume", 4)
        ]

    def test_resize_and_recovery_coexist_on_one_participant(self, network):
        # One datapath registers its single swap action set under both
        # kinds; the round's parameters say which swap it is.
        topo, coordinator, participants = network
        datapaths = {}
        for node, participant in participants.items():
            datapaths[node] = FakeSwapDatapath()
            register_table_swap(participant, datapaths[node], kind="shard-recovery")
            register_table_swap(participant, datapaths[node], kind="shard-resize")
        first = coordinator.start(
            "shard-resize", list(participants), {"shards": 3}, deadline=1.0
        )
        topo.engine.run()
        second = coordinator.start(
            "shard-recovery", list(participants), {"shard": 1}, deadline=1.0
        )
        topo.engine.run()
        assert first.status == "committed"
        assert second.status == "committed"
        for datapath in datapaths.values():
            assert ("apply", 3) in datapath.calls
            assert ("apply", 1) in datapath.calls
