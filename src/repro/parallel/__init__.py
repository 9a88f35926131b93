"""Epoch-barrier parallel execution of the simulation on real OS cores.

- :mod:`repro.parallel.runner` — the coordinator (:class:`ParallelHarness`);
- :mod:`repro.parallel.worker` — the per-core worker harness and loop;
- :mod:`repro.parallel.shm` — shared-memory staging of snapshot columns;
- :mod:`repro.parallel.trace` — canonical ``dep.*`` trace ordering used by
  the serial/parallel differential suite and post-hoc certification.
"""

from repro.parallel.runner import ParallelHarness, lookahead
from repro.parallel.trace import canonical_dep_events, dump_canonical, render_jsonl

__all__ = [
    "ParallelHarness",
    "lookahead",
    "canonical_dep_events",
    "dump_canonical",
    "render_jsonl",
]
