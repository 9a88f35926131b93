"""Unit tests for the workload generators and their behaviours."""

import pytest

from repro.app.behavior import AppContext
from repro.workloads.base import Workload, poisson_times
from repro.workloads.client_server import SERVER, ClientServerBehavior, ClientServerWorkload
from repro.workloads.pipeline import PipelineBehavior, PipelineWorkload
from repro.workloads.random_peers import RandomPeersWorkload, TokenBehavior
from repro.workloads.telecom import SwitchBehavior, TelecomWorkload

import random


def ctx(pid=0, n=4, sii=2):
    return AppContext(pid, n, 0, sii, seed=0)


class TestPoissonTimes:
    def test_times_increase_within_horizon(self):
        times = list(poisson_times(random.Random(0), rate=1.0, until=50.0))
        assert times == sorted(times)
        assert all(0 < t < 50.0 for t in times)

    def test_zero_rate_yields_nothing(self):
        assert list(poisson_times(random.Random(0), 0.0, 50.0)) == []

    def test_base_class_abstract(self):
        with pytest.raises(NotImplementedError):
            Workload().behavior()
        with pytest.raises(NotImplementedError):
            Workload().install(None, 1.0)


class TestTokenBehavior:
    def test_forwards_until_hops_exhausted(self):
        behavior = TokenBehavior()
        state = behavior.initial_state(0, 4)
        c = ctx()
        behavior.on_message(state, {"token": 1, "hops": 2}, c)
        assert len(c.sends) == 1
        dst, payload = c.sends[0]
        assert dst != 0
        assert payload["hops"] == 1

    def test_last_hop_emits_output_when_flagged(self):
        behavior = TokenBehavior()
        state = behavior.initial_state(0, 4)
        c = ctx()
        behavior.on_message(state, {"token": 1, "hops": 0, "emit_output": True}, c)
        assert not c.sends
        assert len(c.outputs) == 1

    def test_no_output_without_flag(self):
        behavior = TokenBehavior()
        c = ctx()
        behavior.on_message(behavior.initial_state(0, 4),
                            {"token": 1, "hops": 0}, c)
        assert not c.outputs

    def test_deterministic_forwarding(self):
        behavior = TokenBehavior()
        sends = []
        for _ in range(2):
            c = ctx()
            behavior.on_message(behavior.initial_state(0, 4),
                                {"token": 5, "hops": 3}, c)
            sends.append(c.sends)
        assert sends[0] == sends[1]

    def test_destination_is_the_peer_list_draw(self):
        """The hop destination is the same RNG draw, mapped to the same pid,
        as indexing the list of all other processes — so traces recorded
        when the behaviours built that list per hop stay byte-identical."""
        from repro.workloads.openloop import OpenLoopBehavior

        for behavior in (TokenBehavior(), OpenLoopBehavior()):
            for n, pid, sii in ((2, 0, 1), (2, 1, 3), (5, 0, 2), (5, 4, 9),
                                (7, 3, 4), (64, 17, 11), (64, 63, 5)):
                c = AppContext(pid, n, 0, sii, seed=3)
                behavior.on_message(behavior.initial_state(pid, n),
                                    {"token": 1, "hops": 2}, c)
                peers = [p for p in range(n) if p != pid]
                rng = AppContext(pid, n, 0, sii, seed=3).rng
                assert c.sends[0][0] == peers[rng.randrange(len(peers))]

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            RandomPeersWorkload(min_hops=5, max_hops=2)
        with pytest.raises(ValueError):
            RandomPeersWorkload(output_fraction=1.5)


class TestClientServerBehavior:
    def test_stimulus_starts_conversation(self):
        behavior = ClientServerBehavior()
        c = ctx(pid=1)
        behavior.on_message(behavior.initial_state(1, 4),
                            {"kind": "stimulus", "conversation": 7, "rounds": 2},
                            c)
        assert c.sends[0][0] == SERVER
        assert c.sends[0][1]["rounds_left"] == 1

    def test_server_replies_and_accumulates(self):
        behavior = ClientServerBehavior()
        state = behavior.initial_state(SERVER, 4)
        c = ctx(pid=SERVER)
        behavior.on_message(state, {"kind": "request", "client": 2,
                                    "conversation": 7, "rounds_left": 1,
                                    "value": 3}, c)
        assert state["applied"] == 1
        assert c.sends[0][0] == 2
        assert c.sends[0][1]["kind"] == "reply"

    def test_client_final_reply_emits_output(self):
        behavior = ClientServerBehavior()
        state = behavior.initial_state(1, 4)
        c = ctx(pid=1)
        behavior.on_message(state, {"kind": "reply", "conversation": 7,
                                    "rounds_left": 0, "result": 9}, c)
        assert state["completed"] == 1
        assert c.outputs and c.outputs[0]["result"] == 9

    def test_client_intermediate_reply_continues(self):
        behavior = ClientServerBehavior()
        c = ctx(pid=1)
        behavior.on_message(behavior.initial_state(1, 4),
                            {"kind": "reply", "conversation": 7,
                             "rounds_left": 2, "result": 9}, c)
        assert c.sends[0][0] == SERVER
        assert not c.outputs

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientServerWorkload(rounds=0)


class TestPipelineBehavior:
    def test_intermediate_stage_forwards(self):
        behavior = PipelineBehavior()
        c = ctx(pid=1, n=4)
        behavior.on_message(behavior.initial_state(1, 4),
                            {"item": 0, "value": 5}, c)
        assert c.sends[0][0] == 2
        assert not c.outputs

    def test_final_stage_outputs(self):
        behavior = PipelineBehavior()
        c = ctx(pid=3, n=4)
        behavior.on_message(behavior.initial_state(3, 4),
                            {"item": 0, "value": 5}, c)
        assert not c.sends
        assert c.outputs


class TestSwitchBehavior:
    def test_transit_forwards_along_path(self):
        behavior = SwitchBehavior()
        c = ctx(pid=1, n=4)
        behavior.on_message(behavior.initial_state(1, 4),
                            {"call": 0, "path": [1, 3, 2], "position": 0,
                             "units": 10}, c)
        assert c.sends[0][0] == 3
        assert c.sends[0][1]["position"] == 1

    def test_egress_bills(self):
        behavior = SwitchBehavior()
        state = behavior.initial_state(2, 4)
        c = ctx(pid=2, n=4)
        behavior.on_message(state, {"call": 0, "path": [1, 3, 2],
                                    "position": 2, "units": 10}, c)
        assert not c.sends
        assert c.outputs[0]["billing_record"] == 0
        assert state["billed"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TelecomWorkload(min_transit=3, max_transit=1)


class TestInstallation:
    """Workloads schedule deterministic injections on a harness."""

    def _harness(self, workload, n=4, seed=5):
        from helpers import build_sim

        return build_sim(n=n, seed=seed, workload=workload, until=50.0,
                         trace_enabled=False, check_invariants=False)

    @pytest.mark.parametrize("workload", [
        RandomPeersWorkload(rate=0.5),
        ClientServerWorkload(rate=0.5),
        PipelineWorkload(rate=0.5),
        TelecomWorkload(rate=0.5),
    ])
    def test_injections_drive_deliveries(self, workload):
        harness = self._harness(workload)
        harness.run(100.0)
        metrics = harness.metrics()
        assert metrics.messages_delivered > 0
        assert not metrics.violations

    def test_same_seed_same_traffic(self):
        m1 = self._harness(RandomPeersWorkload(rate=0.5)).engine.pending
        m2 = self._harness(RandomPeersWorkload(rate=0.5)).engine.pending
        assert m1 == m2

    def test_client_server_needs_two_processes(self):
        with pytest.raises(ValueError):
            self._harness(ClientServerWorkload(), n=1)
