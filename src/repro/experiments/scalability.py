"""E11 — vector size vs system size N (the paper's scalability claim).

Section 6: "By imposing a system-wide upper bound K on the vector size,
two things were achieved: first, the vector size does not grow with the
number of processes and so the dependency tracking scheme has better
scalability..."  And Section 1: "In general, transitive dependency
tracking does not scale well because a size-N vector needs to be
piggybacked on every application message."

We sweep N at a fixed *per-process* load (so bigger systems do
proportionally more total work, as real systems do) and compare the mean
piggybacked vector size of:

- Strom-Yemini (size-N transitive tracking) — expected to grow ~ N;
- commit dependency tracking, unbounded (K=N) — grows much slower: only
  non-stable dependencies are carried;
- commit dependency tracking with a fixed K — hard-capped regardless of N.

Run: ``python -m repro.experiments.scalability``
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.baselines import StromYeminiProcess
from repro.experiments.runner import print_experiment, simulate
from repro.runtime.config import SimConfig
from repro.workloads.random_peers import RandomPeersWorkload

DURATION = 600.0


def run(
    ns: Sequence[int] = (4, 8, 16, 24),
    k_fixed: int = 4,
    seed: int = 42,
    duration: float = DURATION,
    per_process_rate: float = 0.1,
) -> List[Dict[str, object]]:
    rows = []
    for n in ns:
        workload = RandomPeersWorkload(rate=per_process_rate * n,
                                       min_hops=3, max_hops=8)
        sy = simulate(
            SimConfig(n=n, k=None, seed=seed, fifo=True, trace_enabled=False),
            workload, protocol=StromYeminiProcess, duration=duration)
        unbounded = simulate(
            SimConfig(n=n, k=None, seed=seed, trace_enabled=False),
            workload, duration=duration)
        capped = simulate(
            SimConfig(n=n, k=min(k_fixed, n), seed=seed, trace_enabled=False),
            workload, duration=duration)
        rows.append({
            "N": n,
            "sy_pgb": round(sy.mean_piggyback_entries, 2),
            "cdt_pgb": round(unbounded.mean_piggyback_entries, 2),
            f"K={k_fixed}_pgb": round(capped.mean_piggyback_entries, 2),
            f"K={k_fixed}_max": capped.max_piggyback_entries,
            f"K={k_fixed}_hold": round(capped.mean_send_hold, 2),
        })
    return rows


def main() -> None:
    rows = run()
    print_experiment(
        "E11 - Piggybacked vector size vs system size N "
        "(fixed per-process load)",
        rows,
        notes="""
Strom-Yemini's vector tracks one entry per process it transitively heard
from and approaches N as the system grows.  Commit dependency tracking
(cdt) carries only the non-stable part, which is bounded by how much the
system can produce within one stability lag - not by N.  A fixed K caps
the vector outright (max column == K) at the price of the hold column,
which is the whole point of the knob.
""",
    )


if __name__ == "__main__":
    main()
