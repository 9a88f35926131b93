"""Shared-memory staging for cross-worker snapshot columns.

Log-progress notifications dominate cross-worker traffic, and their dense
payload — the flat int64 ``inc*n+pid`` columns of a
:class:`~repro.core.tables.TableSnapshot` — is exactly the columnar layout
:mod:`repro.core.columnar` already mandates.  Instead of pickling those
arrays through the coordinator pipe, each worker owns one
:class:`multiprocessing.shared_memory.SharedMemory` arena; a snapshot
crossing a worker boundary is staged into the sender's arena (one memcpy)
and travels as a tiny :class:`ShmSnapshotRef` descriptor.  The receiver
maps the peer arena and copies the columns back out when the arrival is
inserted at the epoch barrier.

Lifetime is fenced by the runner's two-phase barrier: arrivals of epoch
``e`` are materialized by every receiver *before* any worker starts epoch
``e + 1`` (insert is acknowledged before the next run command is issued),
so the sender may reset its arena at the start of each run phase without
a per-block reference count.

Everything degrades gracefully: without numpy, with list-backed columns,
with :class:`~repro.core.tables.SparseSnapshot` payloads, or when an
arena fills up mid-epoch, snapshots simply travel pickled through the
pipe instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

from repro.core import columnar
from repro.core.tables import TableSnapshot

_np = columnar.numpy_module()

#: Stage a snapshot through shared memory only past this many column
#: entries; below it the pickle path is cheaper than the descriptor dance.
SHM_MIN_ENTRIES = 256

#: Default arena capacity per worker (int64 entries; 16 MiB).  Sized so a
#: full epoch of n=1024 fanout-gossip snapshots stages without overflow;
#: overflow falls back to pickling, so the cap trades speed for memory,
#: never correctness.
DEFAULT_CAPACITY = 1 << 21


@dataclass(frozen=True)
class ShmSnapshotRef:
    """Descriptor of a dense snapshot staged in a worker's arena."""

    worker: int
    offset: int          # int64-entry offset into the arena
    count: int           # number of int64 entries
    n: int
    stride: int


class SnapshotArena:
    """One worker's bump-allocated shared-memory staging block."""

    def __init__(self, capacity_entries: int = DEFAULT_CAPACITY,
                 name: Optional[str] = None):
        self.capacity = capacity_entries
        create = name is None
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=capacity_entries * 8)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            # Attaching registers the segment with this process's resource
            # tracker, which would try (and fail) to clean up the owner's
            # segment at interpreter exit; only the owner may track it.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        self.name = self._shm.name
        self._owner = create
        self._top = 0
        self._array = (_np.frombuffer(self._shm.buf, dtype=_np.int64)
                       if _np is not None else None)

    def reset(self) -> None:
        """Start a fresh epoch: all previously staged blocks are dead."""
        self._top = 0

    def put(self, cols) -> Optional[Tuple[int, int]]:
        """Stage an int64 ndarray; returns ``(offset, count)`` or ``None``
        when staging is unavailable (no numpy, wrong dtype, arena full)."""
        if self._array is None or not isinstance(cols, _np.ndarray):
            return None
        if cols.dtype != _np.int64:
            return None
        count = int(cols.size)
        if self._top + count > self.capacity:
            return None
        offset = self._top
        self._array[offset:offset + count] = cols
        self._top = offset + count
        return offset, count

    def view(self, offset: int, count: int):
        """Zero-copy ndarray view of a staged block (copy before keeping:
        the block dies at the sender's next epoch)."""
        if self._array is None:
            raise RuntimeError("numpy unavailable: arena views unsupported")
        return self._array[offset:offset + count]

    def close(self) -> None:
        self._array = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass


class ArenaMap:
    """Lazy attach-by-name view of every worker's arena."""

    def __init__(self, names: Dict[int, str], own_id: int,
                 own_arena: Optional[SnapshotArena]):
        self._names = names
        self._own_id = own_id
        self._own = own_arena
        self._attached: Dict[int, SnapshotArena] = {}

    def arena(self, worker: int) -> SnapshotArena:
        if worker == self._own_id and self._own is not None:
            return self._own
        arena = self._attached.get(worker)
        if arena is None:
            arena = SnapshotArena(name=self._names[worker])
            self._attached[worker] = arena
        return arena

    def materialize(self, ref: ShmSnapshotRef) -> TableSnapshot:
        """Rebuild a :class:`TableSnapshot` from a staged block (copies —
        the staged block is recycled next epoch)."""
        view = self.arena(ref.worker).view(ref.offset, ref.count)
        return TableSnapshot(ref.n, ref.stride, _np.array(view))

    def close(self) -> None:
        for arena in self._attached.values():
            arena.close()
        self._attached.clear()


def stage_snapshot(arena: Optional[SnapshotArena], worker: int,
                   snap) -> Optional[ShmSnapshotRef]:
    """Stage ``snap`` (a TableSnapshot) if profitable; ``None`` otherwise."""
    if arena is None or _np is None or not isinstance(snap, TableSnapshot):
        return None
    cols = snap.cols
    if not isinstance(cols, _np.ndarray) or cols.size < SHM_MIN_ENTRIES:
        return None
    placed = arena.put(cols)
    if placed is None:
        return None
    offset, count = placed
    return ShmSnapshotRef(worker, offset, count, snap.n, snap.stride)
