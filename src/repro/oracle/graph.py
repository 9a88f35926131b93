"""Ground-truth transitive-dependency oracle.

The simulator (not the protocol) feeds this graph with every interval
creation, delivery edge, stability transition and rollback.  Because it is
maintained from global knowledge, independently of the piggybacked vectors,
it can *check* the protocol's claims:

- **Theorem 3** — every transitive dependency on a non-stable interval is
  still present in a carried dependency vector;
- **Theorem 4** — when a message is released, at most K processes own
  non-stable intervals in its causal past;
- **global consistency** — after recovery quiesces, no surviving state
  interval depends on a rolled-back interval (no undetected orphans).

Because the oracle runs on every release and at every quiescence check, it
is itself a simulation hot path.  Two acceleration structures keep the
checks from dominating wall-clock time (they did, before PR 4 profiled
them):

- **per-node causal vectors** — each node stores, per process, the highest
  *creation sequence number* of that process's intervals in its causal
  past.  The graph is append-only (a node's predecessor list is fixed at
  creation), so the vector is computed once as the elementwise max of the
  predecessors' vectors;
- **the stable frontier** — per process, the creation sequence number of
  its first non-stable live-chain node (:data:`_ALL_STABLE` when the whole
  chain is stable).  The stable part of a live chain is always a prefix,
  so the frontier moves only where one chain is touched: a delivery onto
  an all-stable chain, :meth:`mark_stable`, :meth:`record_recovery`.
  :meth:`potential_revokers` is then one compare instead of a past
  traversal: process j can revoke iff the node's causal vector reaches
  j's frontier (any extra node the vector over-approximates is provably
  rolled back, and rolled-back nodes are excluded from revoker sets
  anyway);
- **an incrementally walked orphan set** — creation order is a
  topological order, so one pass over it decides every node from its
  predecessors, and nodes created since the last query extend the set.
  Rollbacks are the only events that can orphan an *existing* interval,
  and only one created after the earliest node a rollback marked: the
  orphans before that node are kept and the walk resumes from it.  (A
  rolled-back flag set back to ``False`` — only a test corrupting the
  graph does that — restarts the walk from the first node.)  Failure-free
  runs short-circuit on the rolled-back counter and never traverse at
  all.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core import columnar
from repro.core.entry import Entry
from repro.types import ProcessId


#: Globally unique interval identity.
IntervalId = Tuple[ProcessId, int, int]  # (pid, inc, sii)

_EMPTY: FrozenSet[IntervalId] = frozenset()

#: Stable-frontier value of a process whose whole live chain is stable:
#: above every creation sequence number, so no causal vector reaches it.
_ALL_STABLE = 1 << 62

#: Orphan-walk restart point when no rolled-back flag changed.
_UNTOUCHED = 1 << 62


class IntervalNode:
    """One state interval in the ground-truth graph.

    ``rolled_back`` and ``stable`` are properties so that any mutation —
    including a test corrupting the graph behind the oracle's back — keeps
    the oracle's rolled-back counter, orphan-cache epoch and stable
    frontier coherent.
    """

    __slots__ = ("interval", "preds", "_stable", "_rolled_back", "_owner",
                 "_pos")

    def __init__(
        self,
        interval: IntervalId,
        preds: Optional[List[IntervalId]] = None,
        stable: bool = False,
        rolled_back: bool = False,
    ):
        self.interval = interval
        self.preds: List[IntervalId] = preds if preds is not None else []
        self._stable = stable
        self._rolled_back = rolled_back
        self._owner: Optional["DependencyOracle"] = None
        #: Index in the owner's creation order.
        self._pos = 0

    @property
    def rolled_back(self) -> bool:
        return self._rolled_back

    @rolled_back.setter
    def rolled_back(self, value: bool) -> None:
        if value == self._rolled_back:
            return
        self._rolled_back = value
        if self._owner is not None:
            self._owner._note_rollback_flag(self, value)

    @property
    def stable(self) -> bool:
        return self._stable

    @stable.setter
    def stable(self, value: bool) -> None:
        if value == self._stable:
            return
        self._stable = value
        if self._owner is not None:
            self._owner._refresh_frontier(self.interval[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IntervalNode({self.interval!r}, stable={self._stable}, "
                f"rolled_back={self._rolled_back})")


class DependencyOracle:
    """Global happened-before graph over state intervals."""

    def __init__(self, n: int):
        self.n = n
        self._nodes: Dict[IntervalId, IntervalNode] = {}
        # The live chain of each process, in program order.
        self._chains: List[List[IntervalId]] = [[] for _ in range(n)]
        self.consistency_violations: List[str] = []
        # -- acceleration structures (see module docstring) ---------------
        #: Per-process creation counter; sequence numbers start at 1.
        self._next_seq: List[int] = [1] * n
        self._seq_of: Dict[IntervalId, int] = {}
        #: Per-node causal vector: max creation seq per process in the past.
        #: Two representations, by scale: int64 ndarrays when numpy is
        #: available and n is large enough for the vectorized max to beat
        #: the Python loop; plain lists otherwise.
        self._use_np = columnar.use_numpy_for(n)
        self._vec: Dict[IntervalId, Any] = {}
        #: All nodes in creation order (a topological order of the DAG).
        self._creation_order: List[IntervalId] = []
        #: Per process, the length of its live chain's stable prefix (the
        #: index of the first non-stable node) and the stable frontier:
        #: that node's creation seq (see module docstring).  Both are kept
        #: exact by :meth:`_refresh_frontier`.
        self._stable_prefix: List[int] = [0] * n
        self._frontier: Any = (
            columnar.NUMPY.full(n, _ALL_STABLE, dtype=columnar.NUMPY.int64)
            if self._use_np else [_ALL_STABLE] * n)
        self._rolled_back_count = 0
        #: The orphans among ``_creation_order[:_orphan_upto]``, valid for
        #: the nodes before ``_orphan_from`` (the earliest node a flag
        #: change touched since the last query).
        self._orphan_set: Set[IntervalId] = set()
        self._orphan_upto = 0
        self._orphan_from = _UNTOUCHED

    # -- construction -------------------------------------------------------

    def _register(self, node: IntervalNode) -> None:
        """Index a new node: creation sequence, causal vector, topo order."""
        iid = node.interval
        pid = iid[0]
        seq = self._next_seq[pid]
        self._next_seq[pid] = seq + 1
        self._seq_of[iid] = seq
        if self._use_np:
            # Wide vectors: elementwise max in numpy instead of a Python
            # loop over n slots per predecessor.
            np = columnar.NUMPY
            vec: Any = None
            for pred in node.preds:
                pred_vec = self._vec.get(pred)
                if pred_vec is None:
                    continue
                if vec is None:
                    vec = pred_vec.copy()
                else:
                    np.maximum(vec, pred_vec, out=vec)
            if vec is None:
                vec = np.zeros(self.n, dtype=np.int64)
            if seq > vec[pid]:
                vec[pid] = seq
        else:
            vec = [0] * self.n
            for pred in node.preds:
                pred_vec = self._vec.get(pred)
                if pred_vec is None:
                    continue
                for j in range(self.n):
                    if pred_vec[j] > vec[j]:
                        vec[j] = pred_vec[j]
            if seq > vec[pid]:
                vec[pid] = seq
        self._vec[iid] = vec
        node._owner = self
        node._pos = len(self._creation_order)
        self._nodes[iid] = node
        self._creation_order.append(iid)

    def _note_rollback_flag(self, node: IntervalNode, value: bool) -> None:
        """A node's rolled-back flag changed; keep the counter and the
        orphan walk coherent (called from the :class:`IntervalNode`
        property setter).  Marking can only orphan ``node`` and nodes
        created after it; unmarking may clear orphans anywhere."""
        self._rolled_back_count += 1 if value else -1
        start = node._pos if value else 0
        if start < self._orphan_from:
            self._orphan_from = start

    def _refresh_frontier(self, pid: ProcessId, start: int = 0) -> None:
        """Re-derive ``pid``'s stable frontier, given that its live chain
        is stable below index ``start`` (also called from the
        :class:`IntervalNode` ``stable`` setter, which assumes nothing)."""
        chain = self._chains[pid]
        nodes = self._nodes
        i = start
        while i < len(chain) and nodes[chain[i]]._stable:
            i += 1
        self._stable_prefix[pid] = i
        self._frontier[pid] = (self._seq_of[chain[i]] if i < len(chain)
                               else _ALL_STABLE)

    def start_process(self, pid: ProcessId) -> None:
        """Record the initial interval (pid, 0, 1); it is stable by fiat."""
        interval = (pid, 0, 1)
        node = IntervalNode(interval, stable=True)
        self._register(node)
        self._chains[pid] = [interval]
        self._refresh_frontier(pid)

    def record_delivery(
        self,
        pid: ProcessId,
        interval: Entry,
        sender: Optional[ProcessId],
        sender_interval: Optional[Entry],
    ) -> None:
        """A (non-replay) delivery started ``interval`` at ``pid``.

        Predecessors: the process's previous live interval (program order)
        and, for internal messages, the sender's interval the message was
        sent from.
        """
        iid = (pid, interval.inc, interval.sii)
        node = IntervalNode(iid)
        chain = self._chains[pid]
        if chain:
            node.preds.append(chain[-1])
        if sender is not None and sender >= 0 and sender_interval is not None:
            node.preds.append((sender, sender_interval.inc, sender_interval.sii))
        self._register(node)
        if self._stable_prefix[pid] == len(chain):
            # Appended to an all-stable chain: the new node is the frontier.
            self._frontier[pid] = self._seq_of[iid]
        chain.append(iid)

    def record_recovery(self, pid: ProcessId, survivor: Entry, new_current: Entry) -> None:
        """A rollback or restart: the chain suffix beyond ``survivor`` is
        rolled back; ``new_current`` (the first interval of the new
        incarnation) continues the chain from the survivor."""
        chain = self._chains[pid]
        keep = 0
        for i, iid in enumerate(chain):
            _pid, _inc, sii = iid
            if sii <= survivor.sii:
                keep = i + 1
            else:
                break
        for iid in chain[keep:]:
            # The property setter maintains the counter and cache epoch.
            self._nodes[iid].rolled_back = True
        del chain[keep:]

        new_iid = (pid, new_current.inc, new_current.sii)
        node = IntervalNode(new_iid)
        if chain:
            node.preds.append(chain[-1])
        self._register(node)
        chain.append(new_iid)
        self._refresh_frontier(pid, min(self._stable_prefix[pid], keep))

    def mark_stable(self, pid: ProcessId, through: Entry) -> None:
        """Everything on the live chain up to ``through.sii`` is now stable
        (a flush, checkpoint, or rollback-time forced log).

        Chain interval indices are strictly increasing and stability never
        reverts, so the scan resumes from the first non-stable node
        instead of rescanning the whole chain."""
        chain = self._chains[pid]
        nodes = self._nodes
        sii = through.sii
        i = self._stable_prefix[pid]
        while i < len(chain) and chain[i][2] <= sii:
            nodes[chain[i]]._stable = True
            i += 1
        self._refresh_frontier(pid, i)

    # -- queries ------------------------------------------------------------

    def node(self, interval: IntervalId) -> IntervalNode:
        return self._nodes[interval]

    def exists(self, interval: IntervalId) -> bool:
        return interval in self._nodes

    def causal_past(self, interval: IntervalId) -> Set[IntervalId]:
        """All intervals u with u -> interval (including interval itself)."""
        seen: Set[IntervalId] = set()
        stack = [interval]
        while stack:
            iid = stack.pop()
            if iid in seen or iid not in self._nodes:
                continue
            seen.add(iid)
            stack.extend(self._nodes[iid].preds)
        return seen

    def _orphans(self) -> Set[IntervalId]:
        """The current orphan set: the walk resumes from the earliest node
        a rollback marked since the last call (or from where it stopped),
        keeping what it decided before that node."""
        if self._rolled_back_count == 0:
            return _EMPTY  # type: ignore[return-value]
        order = self._creation_order
        orphans = self._orphan_set
        start = self._orphan_from
        self._orphan_from = _UNTOUCHED
        if start < self._orphan_upto:
            orphans.difference_update(order[start:self._orphan_upto])
            self._orphan_upto = start
        nodes = self._nodes
        i = self._orphan_upto
        while i < len(order):
            iid = order[i]
            i += 1
            node = nodes.get(iid)
            if node is None:
                continue
            if node.rolled_back:
                orphans.add(iid)
            else:
                for pred in node.preds:
                    if pred in orphans:
                        orphans.add(iid)
                        break
        self._orphan_upto = i
        return orphans

    def is_orphan(self, interval: IntervalId) -> bool:
        """Definition 1: some rolled-back interval is in the causal past."""
        return interval in self._orphans()

    def potential_revokers(self, interval: IntervalId) -> Set[ProcessId]:
        """Processes whose failure could revoke a message sent from
        ``interval``: owners of non-stable, non-rolled-back intervals in the
        causal past (Theorem 4's quantity)."""
        vec = self._vec.get(interval)
        if vec is None:
            # Unknown interval: fall back to the explicit traversal.
            revokers: Set[ProcessId] = set()
            for iid in self.causal_past(interval):
                node = self._nodes[iid]
                if not node._stable and not node._rolled_back:
                    revokers.add(iid[0])
            return revokers
        frontier = self._frontier
        if self._use_np:
            return set(columnar.NUMPY.nonzero(vec >= frontier)[0].tolist())
        # A zero slot never reaches a frontier: sequence numbers start at 1.
        return {j for j, reach in enumerate(vec) if reach >= frontier[j]}

    def live_interval(self, pid: ProcessId) -> Optional[IntervalId]:
        chain = self._chains[pid]
        return chain[-1] if chain else None

    # -- read-only introspection (used by the invariant probe layer) ----------

    def live_chain(self, pid: ProcessId) -> Tuple[IntervalId, ...]:
        """The surviving program-order chain of ``pid`` (oldest first)."""
        return tuple(self._chains[pid])

    def non_stable_intervals(self) -> List[IntervalId]:
        """Every interval that is neither stable nor rolled back — the
        intervals whose owners are potential revokers (Theorem 4)."""
        return [iid for iid, node in self._nodes.items()
                if not node._stable and not node._rolled_back]

    def orphan_intervals(self) -> List[IntervalId]:
        """Live-chain intervals that are currently orphans.

        Non-empty mid-run is *not* a bug: optimistic logging creates
        orphans transiently and rolls them back once the failure
        announcement arrives.  Non-empty at quiescence is a bug
        (:meth:`check_consistency`).
        """
        orphans = self._orphans()
        if not orphans:
            return []
        return [iid
                for pid in range(self.n)
                for iid in self._chains[pid]
                if iid in orphans]

    # -- invariant checks -----------------------------------------------------

    def check_consistency(self) -> List[str]:
        """No surviving interval may be an orphan, and no live chain may
        keep a rolled-back interval.  Returns violations.

        A *quiescent* invariant: while announcements are still in flight a
        process may transiently survive in an orphan state.  (The chain
        half holds after every step by construction: :meth:`record_recovery`
        truncates the chain in the call that marks it.)
        """
        violations = []
        orphans = self._orphans()
        for pid in range(self.n):
            for iid in self._chains[pid]:
                if self._nodes[iid].rolled_back:
                    violations.append(f"live chain of P{pid} contains rolled-back {iid}")
                elif iid in orphans:
                    violations.append(f"surviving interval {iid} is an orphan")
        return violations

    @property
    def total_intervals(self) -> int:
        return len(self._nodes)

    @property
    def rolled_back_intervals(self) -> int:
        return self._rolled_back_count
