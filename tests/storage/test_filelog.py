"""Unit tests for the durable file-log backend.

Every test gets its own ``tmp_path`` journal directory, so segment files
never leak between tests (pytest removes the directory afterwards).
"""

import os
import pathlib
import pickle
import struct
import zlib

import pytest

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement
from repro.storage.filelog import COMPACT_SEGMENT_THRESHOLD, FileLogBackend
from repro.storage.recovery import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    T_CHECKPOINT,
    T_INCMARK,
    T_LOGMSG,
    JournalFormatError,
    encode_record,
    list_segments,
)
from repro.storage.stable import LoggedMessage, ModelBackend
from repro.storage.faults import StorageDeadError
from repro.types import MessageId


def record(position, inc=0, src=1, pad=0):
    msg = AppMessage(
        msg_id=MessageId(src, inc, position, 0),
        src=src, dst=0, payload={"p": position, "pad": "x" * pad},
        tdv=DependencyVector(4),
        send_interval=Entry(inc, position),
    )
    return LoggedMessage(position, inc, msg)


def make_backend(tmp_path, **kwargs):
    return FileLogBackend(0, str(tmp_path / "p0"), **kwargs)


def fail_next_fsync(backend):
    """Arm one transient error that the next fsync (not a write) meets."""
    backend.injector.on_write = lambda nbytes: None
    backend.injector.arm("eio")


def checkpointed(backend, sii=0):
    backend.write_checkpoint(Entry(0, sii), {"s": sii}, DependencyVector(4),
                             set())


class TestGroupCommit:
    def test_async_batch_shares_one_fsync(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.append_log([record(i) for i in range(1, 4)], sync=False)
        # Three frames, one tolerant group commit for the whole batch.
        assert backend.fsyncs == 1
        assert backend.group_commits == 1
        assert backend.bytes_fsynced == backend.bytes_written

    def test_batch_size_does_not_add_commits(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.append_log([record(i) for i in range(1, 21)], sync=False)
        # No mid-batch threshold: twenty frames ride the batch-final commit.
        assert backend.fsyncs == 1
        assert backend._pending_records == 0

    def test_strict_policy_fsyncs_every_record(self, tmp_path):
        backend = make_backend(tmp_path, fsync_policy="strict")
        backend.append_log([record(1), record(2)], sync=False)
        assert backend.fsyncs == 2

    def test_sync_append_commits_at_the_barrier(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.append_log([record(1)], sync=True)
        assert backend.fsyncs == 0 and backend.sync_due
        backend.barrier()
        assert backend.fsyncs == 1 and not backend.sync_due
        assert backend.bytes_fsynced == backend.bytes_written

    def test_one_barrier_covers_every_sync_write_of_a_step(self, tmp_path):
        backend = make_backend(tmp_path)
        checkpointed(backend)
        backend.append_log([record(1), record(2)], sync=True)
        backend.log_announcement(FailureAnnouncement(1, Entry(0, 4)))
        backend.pop_logged_after(1)
        backend.discard_checkpoints_after(0)
        backend.log_incarnation_start(1)
        backend.record_committed_output("out-1")
        assert backend.fsyncs == 0 and backend.sync_due
        backend.barrier()
        assert backend.fsyncs == backend.group_commits == 1
        assert backend.bytes_fsynced == backend.bytes_written
        backend.barrier()   # nothing due: free
        assert backend.fsyncs == 1

    def test_barrier_ignores_a_lagging_async_batch(self, tmp_path):
        backend = make_backend(tmp_path)
        fail_next_fsync(backend)        # the batch's tolerant commit fails
        backend.append_log([record(1)], sync=False)
        assert backend._pending_records == 1 and not backend.sync_due
        backend.barrier()
        # Only synchronous writes are the barrier's: the frontier keeps
        # lagging until the next flush, exactly as without a barrier.
        assert backend.fsyncs == 0
        assert backend.stable_frontier(Entry(0, 1)) == Entry(0, 0)

    def test_async_commit_covers_earlier_sync_frames(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.record_committed_output("out-1")
        backend.append_log([record(1)], sync=False)
        assert backend.fsyncs == 1 and not backend.sync_due

    def test_forced_commit_past_max_pending(self, tmp_path):
        backend = make_backend(tmp_path, max_pending_records=3)
        fail_next_fsync(backend)
        backend.append_log([record(i) for i in range(1, 4)], sync=False)
        assert backend.forced_group_commits == 0    # 3 pending: tolerated
        backend.injector.arm("eio", count=2)        # tolerant + first strict
        backend.append_log([record(4)], sync=False)
        # 4 > 3 pending after a failed tolerant commit: block and commit.
        assert backend.forced_group_commits == 1
        assert backend._pending_records == 0


class TestCrashRecovery:
    def test_clean_crash_preserves_committed_state(self, tmp_path):
        backend = make_backend(tmp_path)
        checkpointed(backend)
        backend.append_log([record(1), record(2)], sync=False)
        backend.record_committed_output("out-1")
        backend.barrier()
        backend.crash()
        backend.recover()
        assert backend.log_size == 2
        assert backend.output_committed("out-1")
        assert backend.latest_checkpoint_entry() == Entry(0, 0)
        assert backend.recoveries == 1
        assert backend.torn_records_dropped == 0

    def test_operations_refused_between_crash_and_recover(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.crash()
        with pytest.raises(StorageDeadError):
            backend.append_log([record(1)], sync=True)
        backend.recover()
        backend.append_log([record(1)], sync=True)
        assert backend.log_size == 1

    def test_recovery_requires_no_undo(self, tmp_path):
        # REDO-only: whatever prefix survives is a consistent earlier
        # state; scanning must never need to un-apply anything.  Pop and
        # discard ops are journaled too, so the fold replays them forward.
        backend = make_backend(tmp_path)
        checkpointed(backend, sii=0)
        backend.append_log([record(i) for i in range(1, 5)], sync=True)
        backend.pop_logged_after(2)
        checkpointed(backend, sii=2)
        backend.discard_checkpoints_after(0)
        backend.barrier()
        backend.crash()
        backend.recover()
        assert backend.log_size == 2
        assert len(backend.checkpoints) == 1

    def test_crash_before_the_barrier_keeps_a_frame_prefix(self, tmp_path):
        backend = make_backend(tmp_path)
        checkpointed(backend)
        backend.barrier()
        # One step's synchronous writes, torn by a crash before its barrier.
        backend.arm_fault(type("E", (), {
            "kind": "torn_write", "count": 1, "duration": 0.0})())
        backend.append_log([record(i, pad=i * 37) for i in range(1, 5)],
                           sync=True)
        checkpointed(backend, sii=4)
        backend.record_committed_output("out-1")
        backend.crash()
        backend.recover()
        assert backend.recoveries == 1 and not backend.sync_due
        # Journal order is operation order: whatever survived is a prefix.
        survivors = [r.position for r in backend.logged_after(0)]
        assert survivors == list(range(1, len(survivors) + 1))
        assert not backend.output_committed("out-1")
        if len(backend.checkpoints) == 2:
            assert len(survivors) == 4

    def test_crash_without_barrier_loses_the_whole_step(self, tmp_path):
        backend = make_backend(tmp_path)
        checkpointed(backend)
        backend.barrier()
        backend.append_log([record(1)], sync=True)
        backend.record_committed_output("out-1")
        backend.crash()
        backend.recover()
        assert backend.log_size == 0
        assert not backend.output_committed("out-1")


class TestTornWrite:
    def test_torn_tail_truncated_at_first_bad_frame(self, tmp_path):
        backend = make_backend(tmp_path)
        checkpointed(backend)
        backend.barrier()
        before = backend.fsyncs
        # An armed tear suppresses tolerant commits: the batch the crash
        # will interrupt stays in flight, un-fsynced.
        backend.arm_fault(type("E", (), {
            "kind": "torn_write", "count": 1, "duration": 0.0})())
        # Varying record sizes guarantee the half-tail cut lands inside a
        # frame, not exactly on a boundary.
        backend.append_log([record(i, pad=i * 37) for i in range(1, 7)],
                           sync=False)
        assert backend.fsyncs == before
        backend.crash()
        backend.recover()
        # Roughly half the tail survived, cut mid-record: the partial
        # final frame is detected and dropped, whole frames replay.
        assert backend.torn_records_dropped >= 1
        assert backend.log_size < 6
        assert ("torn_write", "kept") in [
            (kind, detail.split()[0]) for kind, detail in
            backend.injector.fired
        ]

    def test_recovered_prefix_is_usable(self, tmp_path):
        backend = make_backend(tmp_path)
        checkpointed(backend)
        backend.barrier()
        backend.arm_fault(type("E", (), {
            "kind": "torn_write", "count": 1, "duration": 0.0})())
        backend.append_log([record(i) for i in range(1, 7)], sync=False)
        backend.crash()
        backend.recover()
        survivors = backend.logged_after(0)
        # Prefix consistency: surviving records are a contiguous prefix.
        assert [r.position for r in survivors] == list(
            range(1, len(survivors) + 1))
        backend.append_log([record(len(survivors) + 1)], sync=True)
        backend.barrier()
        assert backend.log_size == len(survivors) + 1


class TestFsyncLie:
    def test_lie_splits_belief_from_truth(self, tmp_path):
        backend = make_backend(tmp_path)
        checkpointed(backend)
        backend.barrier()
        backend.injector.arm("fsync_lie")
        backend.append_log([record(1)], sync=True)
        backend.barrier()
        assert backend.fsync_lies == 1
        # The process believes the record durable; the device knows better.
        assert backend._believed == backend._written
        assert backend._persisted < backend._written
        backend.crash()
        backend.recover()
        assert backend.log_size == 0  # the lied-about record is gone

    def test_honest_fsync_covers_earlier_lie(self, tmp_path):
        backend = make_backend(tmp_path)
        checkpointed(backend)
        backend.barrier()
        backend.injector.arm("fsync_lie")
        backend.append_log([record(1)], sync=True)
        backend.barrier()                            # lied
        backend.append_log([record(2)], sync=True)
        backend.barrier()                            # honest: covers both
        assert backend._persisted == backend._written
        backend.crash()
        backend.recover()
        assert backend.log_size == 2


class TestTransientErrors:
    def test_eio_retried_with_recorded_backoff(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.injector.arm("eio", count=2)
        backend.append_log([record(1)], sync=True)      # write fails once,
        backend.barrier()                               # then the fsync
        assert backend.io_errors == 2
        assert backend.io_retries >= 2
        assert backend.backoff_time > 0.0
        assert backend.log_size == 1

    def test_exhausted_retries_declare_dead(self, tmp_path):
        backend = make_backend(tmp_path, io_retries=2)
        backend.injector.arm("eio", count=50)
        with pytest.raises(StorageDeadError):
            backend.append_log([record(1)], sync=True)
        assert backend.dead_declared == 1
        with pytest.raises(StorageDeadError):
            backend.record_committed_output("x")
        backend.injector._armed.clear()
        backend.recover()
        backend.append_log([record(1)], sync=True)

    def test_retries_exhausted_at_the_barrier_declare_dead(self, tmp_path):
        backend = make_backend(tmp_path, io_retries=2)
        backend.append_log([record(1)], sync=True)
        backend.injector.arm("eio", count=50)
        with pytest.raises(StorageDeadError):
            backend.barrier()
        assert backend.dead_declared == 1
        assert backend.fsyncs == 0

    def test_stall_recorded_not_slept(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.injector.arm("stall", duration=7.5)
        backend.append_log([record(1)], sync=True)
        backend.barrier()
        assert backend.stall_time == pytest.approx(7.5)

    def test_crash_after_fsyncs_fires_on_boundary(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.injector.arm("crash_after_fsyncs", count=2)
        backend.append_log([record(1)], sync=True)
        backend.barrier()
        backend.append_log([record(2)], sync=True)
        with pytest.raises(StorageDeadError):
            backend.barrier()
        # The fsync completed before the device died: both records are
        # durable and recovery sees them.
        backend.recover()
        assert backend.log_size == 2


class TestBitFlip:
    def test_flip_detected_by_crc_and_truncated(self, tmp_path):
        backend = make_backend(tmp_path, fsync_policy="strict")
        checkpointed(backend)
        for i in range(1, 9):
            backend.append_log([record(i)], sync=True)
        backend.arm_fault(type("E", (), {
            "kind": "bit_flip", "count": 1, "duration": 0.0})())
        backend.crash()
        backend.recover()
        assert backend.corrupt_records_dropped >= 1
        # Whatever survived is still a consistent prefix.
        survivors = backend.logged_after(0)
        assert [r.position for r in survivors] == list(
            range(1, len(survivors) + 1))


def frame(rtype, version, payload):
    """A checksum-valid frame built by hand, whatever its payload holds."""
    body = struct.pack("<BBI", rtype, version, len(payload)) + payload
    return struct.pack("<HBBII", MAGIC, rtype, version, len(payload),
                       zlib.crc32(body) & 0xFFFFFFFF) + payload


#: A version-1 checkpoint's flat form: entry, state, vector, received ids
#: and time, and no buffers.
V1_CHECKPOINT = (0, 3, {"s": 3}, DependencyVector(4).columns(), [], 0.0)


def journal_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(pathlib.Path(directory).iterdir())}


class TestFormatVersion:
    """Frames that pass their checksum but cannot be read stop recovery;
    only media damage shortens a journal."""

    def _journal(self, tmp_path, *segments):
        directory = tmp_path / "p0"
        directory.mkdir()
        for index, data in enumerate(segments, start=1):
            (directory / f"seg-{index:06d}.log").write_bytes(data)
        return FileLogBackend(0, str(directory))

    @pytest.mark.parametrize("bad", [
        # Version 0: the pickled object graph.
        frame(T_LOGMSG, 0, pickle.dumps(record(2), protocol=4)),
        # Version 1: a checkpoint without the buffers it owes.
        frame(T_CHECKPOINT, 1, pickle.dumps(V1_CHECKPOINT, protocol=4)),
        # The current version, with a payload of another layout.
        frame(T_LOGMSG, FORMAT_VERSION,
              pickle.dumps((2, 0, "short"), protocol=4)),
        frame(T_CHECKPOINT, FORMAT_VERSION,
              pickle.dumps(V1_CHECKPOINT, protocol=4)),
        frame(T_LOGMSG, FORMAT_VERSION, b"not a pickle"),
        # Version 2: an incarnation marker without the end it closed.
        frame(T_INCMARK, 2, pickle.dumps(3, protocol=4)),
        frame(T_INCMARK, FORMAT_VERSION, pickle.dumps(3, protocol=4)),
    ], ids=["version-0", "version-1", "wrong-shape", "v1-checkpoint-as-v2",
            "not-a-pickle", "version-2", "v2-incmark-as-v3"])
    def test_undecodable_frame_raises_and_leaves_the_journal(self, tmp_path,
                                                              bad):
        good = encode_record(T_LOGMSG, record(1))
        backend = self._journal(tmp_path, good + bad + good, good)
        before = journal_bytes(backend.directory)
        with pytest.raises(JournalFormatError) as caught:
            backend.recover()
        assert caught.value.offset == len(good)
        assert caught.value.version == bad[3]
        assert caught.value.source.endswith("seg-000001.log")
        assert journal_bytes(backend.directory) == before
        assert backend.corrupt_records_dropped == 0
        assert backend.recoveries == 0

    def test_bit_flip_inside_a_payload_still_truncates(self, tmp_path):
        frames = [encode_record(T_LOGMSG, record(i)) for i in (1, 2, 3)]
        damaged = bytearray(b"".join(frames))
        damaged[len(frames[0]) + HEADER_SIZE + 5] ^= 0x10
        backend = self._journal(tmp_path, bytes(damaged), frames[0])
        backend.recover()
        assert backend.corrupt_records_dropped == 1
        assert [r.position for r in backend.logged_after(0)] == [1]
        assert journal_bytes(backend.directory) == {
            "seg-000001.log": frames[0]}


class TestSegments:
    def test_rotation_seals_segments(self, tmp_path):
        backend = make_backend(tmp_path, segment_bytes=512)
        for i in range(1, 30):
            backend.append_log([record(i)], sync=True)
        backend.barrier()
        segments = list_segments(backend.directory)
        assert len(segments) > 1
        assert backend._segment_count == len(segments)
        # Sealing a segment commits it: rotations alone made all but the
        # tail durable, whatever the barrier cadence.
        assert backend.fsyncs == len(segments)
        backend.crash()
        backend.recover()
        assert backend.log_size == 29

    def test_compaction_snapshots_and_unlinks(self, tmp_path):
        backend = make_backend(tmp_path, segment_bytes=512)
        checkpointed(backend, sii=0)
        for i in range(1, 30):
            backend.append_log([record(i)], sync=True)
        checkpointed(backend, sii=29)
        assert backend._segment_count == len(
            list_segments(backend.directory)) >= COMPACT_SEGMENT_THRESHOLD
        backend.pop_logged_after(29)
        reclaimed = backend.truncate_before(1)
        assert reclaimed >= 0
        segments = list_segments(backend.directory)
        assert len(segments) <= 2  # snapshot segment + active tail
        assert backend._segment_count == len(segments)
        # Compaction commits its snapshot before unlinking anything, which
        # also covers the step's pending synchronous frames.
        assert not backend.sync_due
        backend.crash()
        backend.recover()
        assert backend.latest_checkpoint_entry() == Entry(0, 29)
        assert backend.output_committed("nope") is False

    def test_close_releases_the_tail_handle(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.append_log([record(1)], sync=True)
        backend.close()
        assert backend._handle is None


class TestFrontier:
    def test_frontier_tracks_current_when_all_durable(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.append_log([record(1)], sync=True)
        # A marked write is not a durable one.
        assert backend.stable_frontier(Entry(0, 1)) == Entry(0, 0)
        backend.barrier()
        assert backend.stable_frontier(Entry(0, 1)) == Entry(0, 1)

    def test_frontier_lags_while_batch_pending(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.append_log([record(1)], sync=True)
        backend.barrier()
        assert backend.stable_frontier(Entry(0, 1)) == Entry(0, 1)
        # Suppress the per-batch tolerant commit to leave records pending.
        backend.injector.arm("torn_write")
        backend.append_log([record(2), record(3)], sync=False)
        assert backend._pending_records > 0
        # The frontier stays frozen at the durable tip, never advances to
        # the un-fsynced records, and never exceeds current.
        assert backend.stable_frontier(Entry(0, 3)) == Entry(0, 1)
        assert backend.stable_frontier(Entry(0, 0)) == Entry(0, 0)


class TestModelBackendBarrier:
    def test_model_is_always_durable(self):
        backend = ModelBackend(0)
        backend.record_committed_output("out-1")
        assert not backend.sync_due
        backend.barrier()
        assert backend.fsyncs == 0


class TestModelBackendFaults:
    def test_model_counts_and_ignores_storage_faults(self):
        backend = ModelBackend(0)
        backend.arm_fault(type("E", (), {
            "kind": "fsync_lie", "count": 1, "duration": 0.0})())
        assert backend.faults_ignored == 1
        backend.crash()
        backend.recover()
        assert backend.recoveries == 0  # nothing to do: model is stable
