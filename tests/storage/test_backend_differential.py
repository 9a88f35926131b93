"""Differential property test: FileLogBackend vs ModelBackend.

The file-log backend subclasses the model, so its *logical* answers must
match the model's exactly — and, with a strict fsync policy (every record
durable before the call returns), a crash + REDO recovery must rebuild
the identical logical state.  Hypothesis drives both backends through the
same random operation sequences and compares ``state_digest()`` before
and after a crash/recover cycle.

Under the default policy durability belongs to the write-ahead barrier,
not to the single operation.  A second property interleaves barriers with
the operations and crashes anywhere: a crash right after a barrier
recovers the whole step, a crash before it a frame-prefix of the step.
It runs in the slow set; tier-1 keeps its fixed cases in
``test_filelog.py`` (``TestCrashRecovery``, ``TestTornWrite``) and the
first property, over the same operations.
"""

import shutil
import tempfile

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines.fully_async import MultiIncarnationVector
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement, OutputRecord
from repro.storage import filelog as filelog_module
from repro.storage.filelog import FileLogBackend
from repro.storage.stable import LoggedMessage, ModelBackend
from repro.types import MessageId, OutputId

N = 4


def _record(position, inc, payload):
    """A logged message; which kind of vector it carries (the protocol's,
    the fully-asynchronous baseline's, an outside-world message's empty
    one) rotates with the position, so every journal layout crashes."""
    flavour = position % 3
    if flavour == 0:
        msg = AppMessage.from_environment(0, N, payload, seq=position)
        return LoggedMessage(position, inc, msg)
    if flavour == 1:
        tdv = DependencyVector(N, {2: Entry(0, position)})
    else:
        tdv = MultiIncarnationVector(N)
        tdv.set(2, Entry(0, position))
        tdv.set(2, Entry(1, position + 1))
    msg = AppMessage(
        msg_id=MessageId(1, inc, position, 0),
        src=1, dst=0, payload=payload, tdv=tdv,
        send_interval=Entry(inc, position),
    )
    return LoggedMessage(position, inc, msg)


op = st.one_of(
    st.tuples(st.just("checkpoint"), st.integers(0, 50),
              st.dictionaries(st.text(max_size=3), st.integers(),
                              max_size=3)),
    st.tuples(st.just("append"), st.integers(1, 50), st.booleans()),
    st.tuples(st.just("announce"), st.integers(0, 3), st.integers(0, 50)),
    st.tuples(st.just("incmark"), st.integers(1, 5),
              st.none() | st.integers(0, 50)),
    st.tuples(st.just("commit"), st.integers(0, 30)),
    st.tuples(st.just("pop"), st.integers(0, 50)),
    st.tuples(st.just("discard_ckpt"), st.integers(0, 5)),
    st.tuples(st.just("gc"), st.integers(0, 5)),
)


def _apply(backend, operation, records):
    kind = operation[0]
    if kind == "checkpoint":
        _, sii, state = operation
        # The buffers a checkpoint keeps, as many as its position says.
        owed = [_record(sii + i, 0, {"owed": i}).message for i in range(sii % 3)]
        for i, msg in enumerate(owed):
            msg.wire_id = -1 - i        # the same on both backends
        backend.write_checkpoint(
            Entry(0, sii), state,
            DependencyVector(N, {1: Entry(0, sii)}),
            {MessageId(1, 0, sii, 0)},
            time_taken=0.5,
            receive_buffer=owed[:1], sends=owed[1:],
            outputs=[(OutputRecord(OutputId(0, 0, sii, i), 0, {"o": i},
                                   Entry(0, sii)), msg.tdv)
                     for i, msg in enumerate(owed)],
        )
    elif kind == "append":
        # Both backends must log the *same* message object: AppMessage
        # construction assigns a fresh wire_id, which the digest compares.
        _, key, sync = operation
        backend.append_log([records[key]], sync=sync)
    elif kind == "announce":
        _, pid, sii = operation
        backend.log_announcement(FailureAnnouncement(pid, Entry(0, sii)))
    elif kind == "incmark":
        # A Rollback's marker names where the incarnation it closed ended.
        _, inc, end = operation
        backend.log_incarnation_start(
            inc, None if end is None else Entry(inc - 1, end))
    elif kind == "commit":
        backend.record_committed_output(OutputId(0, 0, operation[1], 0))
    elif kind == "pop":
        backend.pop_logged_after(operation[1])
    elif kind == "discard_ckpt":
        index = operation[1] % len(backend.checkpoints)
        backend.discard_checkpoints_after(index)
    elif kind == "gc":
        index = operation[1] % len(backend.checkpoints)
        backend.truncate_before(index)


@pytest.fixture(autouse=True, scope="module")
def small_segments():
    """2 KiB segments, so a short operation list seals and rotates some."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filelog_module, "SEGMENT_BYTES", 2048)
        yield


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op, max_size=25), seed=st.integers(0, 1 << 16))
def test_filelog_matches_model_through_crash(ops, seed):
    directory = tempfile.mkdtemp(prefix="repro-difftest-")
    try:
        model = ModelBackend(0)
        filelog = FileLogBackend(0, directory, seed=seed,
                                 fsync_policy="strict")
        # Both start from the runtime's initial checkpoint.  Records are
        # materialized once per distinct position and shared.
        boot = ("checkpoint", 0, {})
        records, position = {}, 0
        for operation in ops:
            if operation[0] == "append":
                position += operation[1]
                records[operation[1]] = _record(position, 0,
                                                {"v": operation[1]})
        records["tail"] = _record(position + 1, 0, {"v": "tail"})
        for operation in [boot, *ops]:
            _apply(model, operation, records)
            _apply(filelog, operation, records)
        assert filelog.state_digest() == model.state_digest()

        # Strict policy: every record was durable, so a crash + REDO
        # recovery rebuilds the identical logical state.
        filelog.crash()
        filelog.recover()
        assert filelog.state_digest() == model.state_digest()

        # And the recovered backend is still live and consistent.
        tail = ("append", "tail", True)
        _apply(model, tail, records)
        _apply(filelog, tail, records)
        assert filelog.state_digest() == model.state_digest()
        filelog.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@pytest.mark.slow
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.one_of(op, op, st.just(("barrier",))), max_size=25),
       torn=st.booleans(), seed=st.integers(0, 1 << 16))
def test_crash_recovers_a_frame_prefix_of_the_open_step(ops, torn, seed):
    directory = tempfile.mkdtemp(prefix="repro-difftest-")
    try:
        model = ModelBackend(0)
        filelog = FileLogBackend(0, directory, seed=seed)
        records, position = {}, 0
        for operation in ops:
            if operation[0] == "append":
                position += operation[1]
                records[operation[1]] = _record(position, 0,
                                                {"v": operation[1]})
        records["tail"] = _record(position + 1, 0, {"v": "tail"})
        boot = ("checkpoint", 0, {})
        _apply(model, boot, records)
        _apply(filelog, boot, records)
        filelog.barrier()
        if torn:
            # Holds the tolerant commits too, so more of the step is at
            # stake, and leaves half of the lost tail on disk, cut mid-frame.
            filelog.injector.arm("torn_write")

        # Every state the open step has passed through, oldest first: one
        # operation journals at most one frame, so these are exactly the
        # states a frame-prefix of the step can rebuild.
        passed = [model.state_digest()]
        for operation in ops:
            if operation[0] == "barrier":
                due = filelog.sync_due
                filelog.barrier()
                assert not filelog.sync_due
                if due:
                    # The step wrote synchronously: all of it is durable.
                    # (An asynchronous batch alone is the flush's to
                    # commit, and an armed tear holds that commit back.)
                    passed = [model.state_digest()]
            else:
                _apply(model, operation, records)
                _apply(filelog, operation, records)
                passed.append(model.state_digest())
                if operation[0] in ("checkpoint", "announce", "commit",
                                    "discard_ckpt") or (
                        operation[0] == "append" and operation[2]):
                    assert filelog.sync_due
            assert filelog.state_digest() == model.state_digest()

        filelog.crash()
        filelog.recover()
        # After a barrier that had something due, ``passed`` holds the
        # whole step and nothing else.
        assert filelog.state_digest() in passed

        _apply(filelog, ("append", "tail", True), records)
        filelog.barrier()
        filelog.crash()
        filelog.recover()
        assert filelog.logged_after(position)[-1] == records["tail"]
        filelog.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
