"""Every protocol variant, certified on every axis: the variant matrix.

One cell runs one protocol class — the default and the five baselines,
each at the K and channel discipline ``golden_digest.BASELINES`` gives it,
and without outputs where it gives none (direct tracking commits none)
— on one storage backend and one network, under one failure shape.  The
cell installs a :class:`~repro.check.probes.ProbeSet` next to the inline
certifier, runs, settles, and reads one verdict:

- ``clean``: no violation, and settle reached quiescence;
- the first violation the certifier or a probe names, with its
  identifiers (pids, intervals, message ids) taken out;
- ``unquiescent``: settle used all ``SETTLE_ROUNDS`` without quiescing;
- ``storm``: the cell ran out of its ``BUDGET`` of engine events, so a
  cascade ends the cell, not the test run.

``PINNED`` holds every cell that is not clean, each with the record that
explains it; any other cell reads ``clean``.  A new non-clean cell is a
finding to explain and pin, never an exemption.  The mutant row runs
``forgetful_checkpoint`` in the default's place and must read a named
violation in each of its cells, so a runner that saw nothing would fail
here.

The tier-1 subset is one failure shape — two crashes inside one flush
interval — at seed 1.  The full matrix (three seeds × a crash pair, two
crashes inside one flush interval, a partition that heals) is ``slow``.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import pytest

from golden_digest import BASELINES, CRASHES, FILELOG, LOSSY, PARTITION
from repro.check import MUTANTS
from repro.check.probes import ProbeSet
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload

N = 4
DURATION = 200.0
SEEDS = (1, 2, 3)
#: Engine events one cell may use: about 1.25 times the busiest cell of
#: the full matrix that ends (4 877, Strom-Yemini's lossy crash pair).
BUDGET = 6000

#: Each class with the K, channel discipline and output fraction it runs
#: under.
CLASSES: Dict[str, Tuple[type, Dict[str, Any]]] = {
    "k_optimistic": (KOptimisticProcess, {"k": 2}),
    **{name: (cls, {key: value for key, value in extra.items()
                    if key in ("k", "fifo", "output_fraction")})
       for name, (cls, extra) in BASELINES.items()},
}
STORAGE = {"model": {}, "filelog": FILELOG}
#: Where the file-log cells keep their journals: on tmpfs where there is
#: one.  A cell judges the protocol over the journal, not the device, and
#: a disk's fsyncs and unlinks cost more than the rest of the cell.
JOURNALS = "/dev/shm" if os.path.isdir("/dev/shm") else None
NETWORKS = {"reliable": {}, "lossy": LOSSY}
#: Two crashes 20 units apart, inside one 40-unit flush interval; the
#: first one unit after P1's first checkpoint (t = 64), so a checkpoint
#: that owes work is taken back by the Restart that follows it.
ONE_FLUSH = FailureSchedule([CrashEvent(65.0, 1), CrashEvent(85.0, 3)])
SHAPES = {"crash_pair": CRASHES, "one_flush": ONE_FLUSH,
          "partition": PARTITION}

LOST_SEND = "surviving interval never released send"
#: Every cell that is not clean, by (class, storage, network, shape,
#: seed), with the record that explains it.
PINNED = {
    # Sender-based logging keeps its message log at the sender and
    # retransmits nothing past it: a send the network drops — every lossy
    # cell, and at seed 2 one the partition drops — stays unreleased
    # (PR 45).
    **{("sender_based", storage, "lossy", shape, seed): LOST_SEND
       for storage in STORAGE for shape in SHAPES for seed in SEEDS},
    **{("sender_based", storage, "reliable", "partition", 2): LOST_SEND
       for storage in STORAGE},
    # Strom-Yemini records its own stability only at Checkpoint, which
    # settle never takes, so its pending outputs never commit (PR 45's
    # FOUND; the certifier exempts it from the output rule).
    **{("strom_yemini", storage, network, shape, seed): "unquiescent"
       for storage in STORAGE for network in NETWORKS for shape in SHAPES
       for seed in SEEDS},
    # Direct tracking's announcement cascade outruns the budget in every
    # cell at n = 4 (CHANGES.md FOUND; ROADMAP 13(b) refuses or fixes it).
    **{("direct", storage, network, shape, seed): "storm"
       for storage in STORAGE for network in NETWORKS for shape in SHAPES
       for seed in SEEDS},
}


class Storm(Exception):
    """A cell ran out of its engine-event budget."""


@dataclass(frozen=True)
class Cell:
    variant: str
    storage: str
    network: str
    shape: str = "one_flush"
    seed: int = 1

    @property
    def key(self) -> Tuple[str, str, str, str, int]:
        return (self.variant, self.storage, self.network, self.shape,
                self.seed)


def named(violation: str) -> str:
    """A violation without its identifiers: the rule it names."""
    text = re.sub(r"\s*(\[[^\]]*\]|\([^)]*\))", "", violation)
    text = re.sub(r"\bP\d+\b", "P", text)
    return re.sub(r"\s+", " ", text).strip()


def verdict(cell: Cell, protocol: type = None) -> str:
    cls, discipline = CLASSES[cell.variant]
    discipline = dict(discipline)
    output_fraction = discipline.pop("output_fraction", 0.25)
    journals = tempfile.mkdtemp(prefix="repro-matrix-", dir=JOURNALS)
    config = SimConfig(n=N, seed=cell.seed, storage_dir=journals,
                       **discipline, **STORAGE[cell.storage],
                       **NETWORKS[cell.network])
    workload = RandomPeersWorkload(rate=0.6, output_fraction=output_fraction)
    harness = SimulationHarness(config, workload.behavior(),
                                failures=SHAPES[cell.shape],
                                protocol=protocol or cls)
    probes = ProbeSet()
    probes.install(harness)

    def budget(harness):
        if harness.engine.events_executed > BUDGET:
            raise Storm

    harness.add_step_probe(budget)
    try:
        workload.install(harness, until=DURATION * 0.8)
        harness.run(DURATION)
        probes.check_quiescent(harness)
    except Storm:
        return "storm"
    finally:
        harness.close()
        shutil.rmtree(journals, ignore_errors=True)
    violations = list(harness.violations) + probes.violations
    if violations:
        return named(violations[0])
    return "clean" if harness.quiescent() else "unquiescent"


def cells(shapes=("one_flush",), seeds=(1,)):
    return [Cell(variant, storage, network, shape, seed)
            for variant in CLASSES for storage in STORAGE
            for network in NETWORKS for shape in shapes for seed in seeds]


def expected(cell: Cell) -> str:
    return PINNED.get(cell.key, "clean")


@pytest.mark.parametrize("cell", cells(), ids=lambda c: "-".join(c.key[:3]))
def test_each_cell_reads_its_pinned_verdict(cell):
    assert verdict(cell) == expected(cell)


@pytest.mark.parametrize("storage", sorted(STORAGE))
@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_the_runner_names_a_mutants_violation(storage, network):
    cell = Cell("k_optimistic", storage, network)
    found = verdict(cell, protocol=MUTANTS["forgetful_checkpoint"])
    assert found not in ("clean", "unquiescent", "storm"), found


def test_every_pin_names_a_cell_of_the_matrix():
    every = {cell.key for cell in cells(tuple(SHAPES), SEEDS)}
    assert set(PINNED) <= every


@pytest.mark.slow
@pytest.mark.parametrize(
    "cell", cells(tuple(SHAPES), SEEDS), ids=lambda c: "-".join(
        str(part) for part in c.key))
def test_the_full_matrix_reads_its_pinned_verdicts(cell):
    assert verdict(cell) == expected(cell)
