"""Every protocol variant, certified on every axis: the variant matrix.

One cell runs one protocol class — the default and the five baselines,
each at the K and channel discipline ``golden_digest.BASELINES`` gives it,
and without outputs where it gives none (direct tracking commits none)
— on one storage backend and one network, under one failure shape.  A
cell is a :class:`~repro.check.scenario.Scenario`, its tokens drawn up
front from the random-peers workload, and
:func:`~repro.check.scenario.run_scenario` judges it as it judges every
checked run.  The cell reads one verdict from the result:

- ``clean``: no violation, and settle reached quiescence;
- ``storm``: the runner's storm rule ended the run (too many engine
  events per first-time delivery), so a cascade ends the cell, not the
  test run;
- the first violation the certifier or a probe names, with its
  identifiers (pids, intervals, message ids) taken out;
- ``unquiescent``: settle used all ``SETTLE_ROUNDS`` without quiescing.

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

import re
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import pytest

from golden_digest import BASELINES
from repro.check import MUTANTS
from repro.check.scenario import Injection, Partition, Scenario, run_scenario
from repro.core.protocol import KOptimisticProcess
from repro.sim.rng import RngRegistry
from repro.workloads.random_peers import RandomPeersWorkload

N = 4
DURATION = 200.0
SEEDS = (1, 2, 3)

#: Each class with the K and output fraction ``golden_digest.BASELINES``
#: gives it (and the runner, FIFO channels to Strom-Yemini).
CLASSES: Dict[str, Tuple[type, Dict[str, Any]]] = {
    "k_optimistic": (KOptimisticProcess, {"k": 2}),
    **{name: (cls, {key: value for key, value in extra.items()
                    if key in ("k", "output_fraction")})
       for name, (cls, extra) in BASELINES.items()},
}
STORAGE = ("model", "filelog")
#: The matrix's names for the runner's networks.
NETWORKS = {"reliable": "jittered", "lossy": "lossy"}
#: The failure shapes, as scenario fields.  ``crash_pair`` and
#: ``partition`` are the golden digest's; ``one_flush`` is two crashes 20
#: units apart, inside one 40-unit flush interval, the first one unit
#: after P1's first checkpoint (t = 64), so a checkpoint that owes work is
#: taken back by the Restart that follows it.
SHAPES = {
    "crash_pair": {"crashes": [(60.0, 1), (130.0, 3)]},
    "one_flush": {"crashes": [(65.0, 1), (85.0, 3)]},
    "partition": {"crashes": [(60.0, 1)],
                  "partitions": [Partition(90.0, 120.0, ((2,),))]},
}
#: SimConfig's timers, which the matrix runs at.
TIMERS = {"flush_interval": 40.0, "checkpoint_interval": 160.0,
          "notify_interval": 20.0, "restart_delay": 10.0}

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
    # Direct tracking's announcement cascade outruns the storm rule in every
    # cell at n = 4 (CHANGES.md FOUND; ROADMAP 13(b) refuses or fixes it).
    **{("direct", storage, network, shape, seed): "storm"
       for storage in STORAGE for network in NETWORKS for shape in SHAPES
       for seed in SEEDS},
}


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

    def scenario(self) -> Scenario:
        discipline = CLASSES[self.variant][1]
        workload = RandomPeersWorkload(
            rate=0.6, output_fraction=discipline.get("output_fraction", 0.25))
        return Scenario(
            n=N, k=discipline.get("k"), seed=self.seed, horizon=DURATION,
            injections=[Injection(time, dst, **payload)
                        for time, dst, payload in workload.injections(
                            RngRegistry(self.seed), N, DURATION * 0.8)],
            network=NETWORKS[self.network], storage_backend=self.storage,
            **SHAPES[self.shape], **TIMERS)


def named(violation: str) -> str:
    """A violation without its identifiers: the rule it names."""
    text = re.sub(r"\s*(\[[^\]]*\]|\([^)]*\))", "", violation)
    text = re.sub(r"\bP\d+\b", "P", text)
    return re.sub(r"\s+", " ", text).strip()


def verdict(cell: Cell, protocol: type = None) -> str:
    result = run_scenario(cell.scenario(),
                          protocol or CLASSES[cell.variant][0])
    if any(v.startswith("storm:") for v in result.violations):
        return "storm"
    if result.violations:
        return named(result.violations[0])
    return "clean" if result.quiescent else "unquiescent"


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
