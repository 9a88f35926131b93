"""Cross-commit golden digest: one ``config sha256`` line per configuration.

A change that claims "same schedule" runs this script on the parent
commit and on the change and diffs the two outputs; a run that depends
on string-hash order shows up as a difference between two
``PYTHONHASHSEED`` values of the same commit.  Per configuration it
hashes the full trace, the next draw of every channel and fault stream,
``events_executed``, the control messages sent — each payload's type and
table-entry count, in send order — and the ``metrics()`` row (less its
one wall-clock field).  The configurations cover both storage backends, the lossy network
and its retransmission, partitions, fanout pull, adaptive K, the
dissemination switches, both table layouts (n = 64), the checker-facing
oracle switches, and every baseline on model storage over a reliable
network, over the file log and on a lossy network.

A configuration that hashes like another exercises nothing of its own:
the script then names the pair and exits non-zero.

pytest does not collect this file (it is no ``test_*.py``).  Run::

    PYTHONPATH=src python tests/golden_digest.py            # every config
    PYTHONPATH=src python tests/golden_digest.py lossy n64  # some of them
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from typing import Any, Callable, Dict, List, Tuple

from repro.check.scenario import NETWORKS
from repro.core.baselines import (
    DirectDependencyProcess,
    FullyAsyncProcess,
    PessimisticProcess,
    SenderBasedProcess,
    StromYeminiProcess,
)
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    HealEvent,
    PartitionEvent,
)
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload

from helpers import next_draws  # this script's own directory, tests/

DURATION = 200.0
CRASHES = FailureSchedule([CrashEvent(60.0, 1), CrashEvent(130.0, 3)])
PARTITION = FailureSchedule([
    CrashEvent(60.0, 1), PartitionEvent(90.0, ((2,),)), HealEvent(120.0)])
LOSSY = NETWORKS["lossy"]
FILELOG = {"storage_backend": "filelog"}

#: Each baseline with the K and channel discipline it is run under.
BASELINES: Dict[str, Tuple[type, Dict[str, Any]]] = {
    "pessimistic": (PessimisticProcess, {"k": 0}),
    "sender_based": (SenderBasedProcess, {"k": 0}),
    "strom_yemini": (StromYeminiProcess, {"fifo": True}),
    "fully_async": (FullyAsyncProcess, {}),
    # Direct tracking commits no output, and its announcement cascade
    # storms on most schedules (direct.py's "fair warning"): one that
    # settles (re-pinned when the schedules move).
    "direct": (DirectDependencyProcess, {
        "n": 4, "seed": 26, "rate": 0.5, "output_fraction": 0.0,
        "failures": FailureSchedule([CrashEvent(60.0, 1),
                                     CrashEvent(95.0, 3)]),
        "until": 100.0, "duration": 160.0, "flush_interval": 10.0,
        "checkpoint_interval": 40.0}),
}


def digest(protocol: type = KOptimisticProcess, n: int = 5,
           failures: FailureSchedule = CRASHES, rate: float = 0.6,
           output_fraction: float = 0.25, until: float = DURATION * 0.8,
           duration: float = DURATION, **config: Any) -> str:
    """Run one configuration and hash everything observable about it."""
    config.setdefault("seed", 7)
    sim_config = SimConfig(n=n, **config)
    workload = RandomPeersWorkload(rate=rate, output_fraction=output_fraction)
    harness = SimulationHarness(sim_config, workload.behavior(),
                                failures=failures, protocol=protocol)
    network = harness.network
    sent: List[Tuple[str, int]] = []
    multicast = network.multicast_control

    def record_control(src, dsts, payload):
        # Every control send funnels through multicast_control.
        table = getattr(payload, "table", None)
        sent.append((type(payload).__name__,
                     0 if table is None else sum(map(len, table.rows()))))
        multicast(src, dsts, payload)

    network.multicast_control = record_control
    try:
        workload.install(harness, until=until)
        harness.run(duration)
        h = hashlib.sha256()
        h.update(repr(sent).encode())
        for event in harness.tracer.events:
            h.update(repr((event.time, event.category, event.process,
                           sorted(event.data.items()))).encode())
        for name, draw in next_draws(harness.network).items():
            h.update(repr((name, draw)).encode())
        h.update(repr((harness.engine.events_executed,
                       harness.network.control_messages_sent)).encode())
        metrics = dataclasses.replace(harness.metrics(),
                                      storage_recovery_wall_s=0.0)
        h.update(repr(dataclasses.astuple(metrics)).encode())
        return h.hexdigest()
    finally:
        harness.close()


def configurations() -> Dict[str, Callable[[], str]]:
    configs: Dict[str, Callable[[], str]] = {
        "default": lambda: digest(k=2),
        "filelog": lambda: digest(k=2, **FILELOG),
        "lossy": lambda: digest(k=2, **LOSSY),
        "partition": lambda: digest(k=2, failures=PARTITION),
        "fanout": lambda: digest(n=8, k=2, notify_fanout=2),
        "adaptive_k": lambda: digest(k=2, adaptive_k=True,
                                     slo_output_latency=30.0),
        "output_driven": lambda: digest(k=2, output_driven_logging=True),
        "own_row_delta": lambda: digest(k=2, gossip_log_tables=False,
                                        delta_notifications=True),
        "n64": lambda: digest(n=64, k=3, rate=2.0),
        "k0_n16": lambda: digest(n=16, k=0, rate=1.5),
        "dep_trace": lambda: digest(k=2, dep_trace=True),
        "no_invariants": lambda: digest(k=2, check_invariants=False),
        "oracle_off": lambda: digest(k=2, oracle_enabled=False,
                                     check_invariants=False),
    }
    for name, (cls, extra) in BASELINES.items():
        for suffix, setting in (("", {}), ("_filelog", FILELOG),
                                ("_lossy", LOSSY)):
            configs[name + suffix] = (
                lambda cls=cls, kwargs={**extra, **setting}:
                digest(cls, **kwargs))
    return configs


def main(names) -> int:
    configs = configurations()
    seen: Dict[str, str] = {}
    shared = []
    for name in names or configs:
        value = configs[name]()
        print(name, value, flush=True)
        if value in seen:
            shared.append(f"{name} hashes like {seen[value]}")
        seen.setdefault(value, name)
    for line in shared:
        print(line, file=sys.stderr)
    return 1 if shared else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
