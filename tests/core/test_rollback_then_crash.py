"""A crash right after a Rollback keeps the end of the incarnation it closed.

Rollback ends incarnation t at its stable prefix (t, x) and records that
in ``log`` — in memory only.  Nothing broadcasts it until the next
notification, so a crash before then used to lose it: Restart rebuilt
``log`` from announcements and checkpoint entries, neither of which names
(t, x) once the process restarts from a checkpoint of the new
incarnation.  The row (pid, t) then stayed short of x at every process,
and every output depending on an interval of t beyond it waited forever.

The incarnation marker the Rollback journals now carries (t, x), Restart
folds every such marker into ``log`` as it folds announcements, and
garbage collection and compaction keep them.  The scripted run below is
n = 3 — P0 rolls back, checkpoints and crashes, P1 holds an output on
P0's incarnation 0, P2 is the failed process — on both backends.
"""

import pytest

from repro.core.effects import ReleaseMessage
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.storage.filelog import FileLogBackend
from repro.storage.stable import ModelBackend
from helpers import Scripted, deliver_env, make_announcement, make_msg

N = 3


def make(pid, storage):
    proc = KOptimisticProcess(pid, N, N, Scripted(), storage=storage)
    proc.initialize()
    storage.barrier()
    return proc


def step(proc, effects):
    """What the effect executor does after every protocol step: make its
    synchronous writes durable before anything leaves the process."""
    proc.storage.barrier()
    return effects


@pytest.fixture(params=["model", "filelog"])
def backend(request, tmp_path):
    if request.param == "model":
        return lambda pid: ModelBackend(pid)
    return lambda pid: FileLogBackend(pid, str(tmp_path / f"p{pid}"))


def test_a_crash_after_a_rollback_keeps_the_closed_incarnations_end(backend):
    p0, p1 = make(0, backend(0)), make(1, backend(1))
    # (0,2): an outside message that sends to P1, whose delivery outputs.
    [sent] = [e.message for e in step(p0, deliver_env(
        p0, {"sends": [(1, None)]})) if isinstance(e, ReleaseMessage)]
    sent.payload = {"outputs": ["o1"]}
    # (0,3): depends on (P2, 0, 7), which P2's failure is about to undo.
    step(p0, p0.on_receive(make_msg(2, 0, n=N, entries={2: Entry(0, 7)})))
    step(p0, p0.on_failure_announcement(make_announcement(2, 0, 3)))
    assert p0.current == Entry(1, 3) and p0.log.covers(0, Entry(0, 2))

    # A checkpoint of incarnation 1, then a crash before any notification.
    step(p0, p0.checkpoint())
    p0.crash()
    step(p0, p0.restart())
    assert p0.log.covers(0, Entry(0, 2))

    # P1's output depends on (P0, 0, 2); P0's next notification frees it.
    step(p1, p1.on_receive(sent))
    assert [p.record.payload for p in p1.output_buffer.pending] == ["o1"]
    step(p1, p1.flush())
    step(p1, p1.on_log_notification(p0.make_log_notification()))
    assert p1.output_buffer.pending == []
    assert p1.stats.outputs_committed == 1
    for proc in (p0, p1):
        proc.storage.close()


def test_the_end_survives_garbage_collection_and_compaction(backend):
    storage = backend(0)
    proc = make(0, storage)
    storage.log_incarnation_start(1, ended=Entry(0, 5))
    step(proc, proc.checkpoint())
    # Garbage collection reclaimed the initial checkpoint.
    assert len(storage.checkpoints) == 1
    if isinstance(storage, FileLogBackend):
        storage._compact()
        storage.crash()
        storage.recover()
    assert storage.incarnation_ends == (Entry(0, 5),)
    assert storage.highest_incarnation_marker() >= 1
    storage.close()
