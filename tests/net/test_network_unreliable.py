"""Network-layer behaviour with a fault model attached."""

from repro.app.behavior import EchoBehavior
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.net.faults import ChannelFaults, NetworkFaultModel
from repro.net.message import Ack, AppMessage, FailureAnnouncement
from repro.net.network import Network
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.types import MessageId


def build(n=2, faults=None, seed=0):
    engine = Engine()
    rngs = RngRegistry(seed)
    network = Network(n=n, engine=engine, rngs=rngs, faults=faults)
    inboxes = [[] for _ in range(n)]
    for pid in range(n):
        network.register(pid, inboxes[pid].append)
    return engine, network, inboxes


def app_msg(src=0, dst=1, n=2, seq=0):
    return AppMessage(
        msg_id=MessageId(src, 0, 1, seq), src=src, dst=dst,
        payload={}, tdv=DependencyVector(n), send_interval=Entry(0, 1),
    )


def fault_model(seed=0, **kwargs):
    return NetworkFaultModel(RngRegistry(seed), ChannelFaults(**kwargs))


class TestAppFaults:
    def test_certain_drop_never_arrives(self):
        engine, network, inboxes = build(faults=fault_model(drop=1.0))
        network.send_app(app_msg())
        engine.run()
        assert inboxes[1] == []
        assert network.app_dropped == 1
        assert network.app_messages_sent == 1  # counted as sent regardless

    def test_certain_duplicate_arrives_twice(self):
        engine, network, inboxes = build(faults=fault_model(duplicate=1.0))
        msg = app_msg()
        network.send_app(msg)
        engine.run()
        assert inboxes[1] == [msg, msg]
        assert network.duplicates_injected == 1

    def test_partition_drop_counted_separately(self):
        fm = fault_model()
        fm.start_partition(((1,),), now=0.0)
        engine, network, inboxes = build(faults=fm)
        network.send_app(app_msg())
        network.send_control(0, 1, "note")
        engine.run()
        assert inboxes[1] == []
        assert network.partition_drops == 2
        assert network.app_dropped == 1 and network.control_dropped == 1

    def test_no_faults_delivers_normally(self):
        engine, network, inboxes = build(faults=fault_model())
        msg = app_msg()
        network.send_app(msg)
        engine.run()
        assert inboxes[1] == [msg]
        assert network.app_dropped == 0


class TestReliableControlPath:
    """The network repairs nothing: what must arrive is acked and resent
    by the sending protocol, so control traffic crosses it as is."""

    def test_unreliable_send_stays_bare(self):
        engine, network, inboxes = build(faults=fault_model())
        network.send_control(0, 1, "note")
        engine.run(until=1.5)
        assert inboxes[1] == ["note"]

    def test_an_ack_reaches_the_senders_hook(self):
        engine, network, inboxes = build(faults=fault_model())
        ack = Ack(FailureAnnouncement(0, Entry(0, 3)), 1, 0)
        network.send_control(1, 0, ack)
        engine.run()
        assert inboxes[0] == [ack]

    def test_unacked_envelope_is_retransmitted(self):
        # P1 crashes at 5 and announces at its restart at 15.  The
        # network loses every ack P2 sends, so P1 never hears back from
        # P2 and resends its copy once the first timeout of 4 expires.
        harness = SimulationHarness(
            SimConfig(n=3, seed=7, retransmit_timeout=4.0),
            EchoBehavior(),
            failures=FailureSchedule([CrashEvent(5.0, 1)]))
        network = harness.network
        multicast = network.multicast_control

        def lose_acks_from_p2(src, dsts, payload):
            if not (src == 2 and isinstance(payload, Ack)):
                multicast(src, dsts, payload)

        network.multicast_control = lose_acks_from_p2
        harness.run(20.0, settle=False)
        received = [r.time for r in harness.tracer.select("ann.receive")
                    if r.process == 2]
        assert received == [16.0, 20.0]  # the first copy and the resent one
        assert len(harness.hosts[2].protocol.storage.announcements) == 1
        stats = harness.hosts[1].protocol.stats
        assert stats.ctl_retransmits == 1
        assert stats.ctl_acked == 1  # P0's ack only
        assert harness.hosts[1].protocol.unacked_count == 1
