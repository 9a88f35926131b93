"""E3 — failure-free overhead as a function of the degree of optimism K.

The paper's motivating claim (Section 4.1): K provides a fine-grain
tradeoff whose failure-free side falls as K grows.  We sweep K from 0
(pessimistic behaviour: messages held until every dependency is stable)
to N (classical optimistic: never held) on a fixed workload — same seed,
identical traffic — and report the overhead metrics:

- ``hold``      mean time a message spends in the Send_buffer,
- ``e2e``       mean receive-to-deliver wait at the receiver,
- ``pgb``       mean piggybacked dependency entries per message
                (bounded by K — Theorem 4's quantity),
- ``sync/async`` stable-storage operations,
- ``out_lat``   mean output-commit latency,
- ``thru``      delivered messages per time unit.

Run: ``python -m repro.experiments.tradeoff``
"""

from repro.experiments.runner import DURATION, Sweep
from repro.runtime.metrics import RunMetrics
from repro.workloads.random_peers import RandomPeersWorkload

SWEEP = Sweep(
    "E3 - Failure-free overhead vs degree of optimism K "
    "(N=8, random peers, no failures)",
    params=dict(n=8, ks=None, seed=42, duration=DURATION),
    workload=RandomPeersWorkload(rate=0.8, min_hops=3, max_hops=8),
    rows=lambda p: [({}, dict(n=p.n, k=k, seed=p.seed)) for k in
                    (p.ks if p.ks is not None else [0, 1, 2, 4, 6, p.n])],
    columns=("K", "hold", ("e2e", "mean_delivery_wait", 2), "pgb", "sync_w",
             "async_w", "out_lat", ("thru", RunMetrics.throughput, 2)),
    notes="""
Expected shape (paper Section 4.1): the send-buffer hold time falls
monotonically as K grows, reaching 0 at K=N; piggybacked vector size grows
with K but stays well below N thanks to commit dependency tracking
(Theorem 2).  K=0 messages carry no entries at all - they are released
only once every dependency is stable, i.e. pessimistic behaviour.
""",
)
run = SWEEP.run


def main() -> None:
    from repro.analysis.report import ascii_series

    rows = SWEEP.main()
    print(ascii_series("mean send-buffer hold vs K",
                       [r["K"] for r in rows], [r["hold"] for r in rows]))
    print()
    print(ascii_series("mean piggybacked entries vs K",
                       [r["K"] for r in rows], [r["pgb"] for r in rows]))


if __name__ == "__main__":
    main()
