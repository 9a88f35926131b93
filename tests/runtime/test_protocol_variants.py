"""Every protocol variant runs on the same substrate.

A baseline is a class, and every driver builds any class through
``build_protocol``: the storage backend, the retransmission settings and
the other per-process options of a ``SimConfig`` reach a baseline exactly
as they reach the default protocol.  Strom-Yemini, the fully asynchronous
protocol and direct tracking release every send at once, but through the
same per-message tail as a K-optimistic release, so each released message
lands in the footnote-3 sent-log and, on a lossy network, is retransmitted
on a timer until acked.
"""

import pytest

from repro.core.baselines import (
    DirectDependencyProcess,
    FullyAsyncProcess,
    PessimisticProcess,
    SenderBasedProcess,
    StromYeminiProcess,
)
from repro.core.effects import ReleaseMessage, ScheduleRetransmit
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime.config import RETRANSMIT_TIMEOUT, SimConfig
from repro.runtime.harness import SimulationHarness
from repro.storage.filelog import FileLogBackend
from repro.workloads.random_peers import RandomPeersWorkload
from helpers import Scripted, make_announcement, make_msg, make_proc

VARIANTS = [KOptimisticProcess, PessimisticProcess, SenderBasedProcess,
            StromYeminiProcess, FullyAsyncProcess, DirectDependencyProcess]
IMMEDIATE = [StromYeminiProcess, FullyAsyncProcess, DirectDependencyProcess]


def name(cls):
    return cls.__name__


@pytest.mark.parametrize("protocol", VARIANTS, ids=name)
def test_a_lossy_file_log_config_reaches_every_variant(protocol):
    config = SimConfig(n=4, k=2, drop_rate=0.05, retransmit_window=16,
                       storage_backend="filelog")
    harness = SimulationHarness(config, Scripted(), protocol=protocol)
    try:
        timeout = harness.config.retransmit_timeout
        assert timeout == RETRANSMIT_TIMEOUT > 0
        for host in harness.hosts:
            proc = host.protocol
            assert type(proc) is protocol
            assert isinstance(proc.storage, FileLogBackend)
            assert proc.retransmit_window == 16
            assert proc.retransmit_timeout == timeout
    finally:
        harness.close()


@pytest.mark.parametrize("protocol", IMMEDIATE, ids=name)
def test_immediate_release_keeps_the_sent_log(protocol):
    proc = make_proc(pid=0, n=4, behavior=Scripted(), cls=protocol,
                     retransmit_window=2, retransmit_timeout=5.0)
    sends = [(2, None), (2, None), (2, None), (3, None)]
    effects = proc.on_receive(make_msg(1, 0, payload={"sends": sends}))
    released = [e.message for e in effects if isinstance(e, ReleaseMessage)]
    assert [m.dst for m in released] == [2, 2, 2, 3]
    assert not proc.send_buffer
    assert proc.stats.messages_released == 4
    # One timer per release, and the window keeps the last two copies per
    # destination.
    assert [e.key for e in effects if isinstance(e, ScheduleRetransmit)] \
        == [m.msg_id for m in released]
    assert proc._sent_log == {2: released[1:3], 3: released[3:]}
    # P2 restarted: its copies go out again.
    effects = proc.on_failure_announcement(make_announcement(2, 0, 1))
    again = [e.message for e in effects if isinstance(e, ReleaseMessage)]
    assert again == released[1:3]
    assert proc.stats.retransmissions == 2


@pytest.mark.parametrize("protocol, extra", [
    (PessimisticProcess, {"k": 0}),
    (StromYeminiProcess, {"fifo": True}),
    (FullyAsyncProcess, {}),
], ids=["pessimistic", "strom_yemini", "fully_async"])
def test_baselines_retransmit_on_a_lossy_network(protocol, extra):
    config = SimConfig(n=5, seed=1, drop_rate=0.05, duplicate_rate=0.02,
                       reorder_rate=0.05, retransmit_window=16,
                       trace_enabled=False, **extra)
    workload = RandomPeersWorkload(rate=0.6)
    harness = SimulationHarness(
        config, workload.behavior(),
        failures=FailureSchedule([CrashEvent(80.0, 1)]), protocol=protocol)
    workload.install(harness, until=240.0)
    harness.run(300.0)
    assert harness.violations == []
    assert harness.committed_outputs
    assert sum(h.protocol.stats.timer_retransmissions
               for h in harness.hosts) > 0
    assert all(h.protocol.unacked_count == 0 for h in harness.hosts)
