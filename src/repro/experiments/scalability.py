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

from repro.core.baselines import StromYeminiProcess
from repro.experiments.runner import Sweep
from repro.workloads.random_peers import RandomPeersWorkload

DURATION = 600.0


def _rows(p):
    for n in p.ns:
        workload = RandomPeersWorkload(rate=p.per_process_rate * n,
                                       min_hops=3, max_hops=8)
        run = dict(n=n, seed=p.seed, workload=workload)
        yield ({"N": n}, dict(run, k=min(p.k_fixed, n)),
               dict(run, fifo=True, protocol=StromYeminiProcess), run)


# A row's runs: the fixed K (read by field name), Strom-Yemini, K=N.
def sy_pgb(cap, sy, cdt):
    return sy.mean_piggyback_entries


def cdt_pgb(cap, sy, cdt):
    return cdt.mean_piggyback_entries


SWEEP = Sweep(
    "E11 - Piggybacked vector size vs system size N "
    "(fixed per-process load)",
    params=dict(ns=(4, 8, 16, 24), k_fixed=4, seed=42, duration=DURATION,
                per_process_rate=0.1),
    rows=_rows,
    columns=("N", ("sy_pgb", sy_pgb, 2), ("cdt_pgb", cdt_pgb, 2),
             ("K={k_fixed}_pgb", "mean_piggyback_entries", 2),
             ("K={k_fixed}_max", "max_piggyback_entries"),
             ("K={k_fixed}_hold", "mean_send_hold", 2)),
    notes="""
Strom-Yemini's vector tracks one entry per process it transitively heard
from and approaches N as the system grows.  Commit dependency tracking
(cdt) carries only the non-stable part, which is bounded by how much the
system can produce within one stability lag - not by N.  A fixed K caps
the vector outright (max column == K) at the price of the hold column,
which is the whole point of the knob.
""",
)
run = SWEEP.run
main = SWEEP.main

if __name__ == "__main__":
    main()
