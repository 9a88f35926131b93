"""The journal format, pinned: the frames of a fixed record set, byte for
byte.

The flat forms the codec lays out are what a journal holds on disk, so a
change to any of them must come with a new ``FORMAT_VERSION`` and a new
pin.  The test uses only what every version-3 commit has
(``encode_record`` and the record types), so it runs unchanged on them.
"""

import hashlib

from repro.core.baselines.fully_async import MultiIncarnationVector
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement, OutputRecord
from repro.storage.recovery import (
    FORMAT_VERSION,
    T_ANN,
    T_CHECKPOINT,
    T_CKPT_DISCARD,
    T_COMMIT,
    T_GC,
    T_INCMARK,
    T_LOG_POP,
    T_LOGMSG,
    T_SNAPSHOT,
    encode_record,
)
from repro.storage.stable import Checkpoint, LoggedMessage
from repro.types import MessageId, OutputId

N = 16



def fixed_records():
    """One record of every type, every optional field both ways, and a
    message and a checkpoint that a snapshot shares with earlier frames."""
    vector = DependencyVector(
        N, {1: Entry(0, 30), 3: Entry(1, 57), 7: Entry(0, 12)})
    message = AppMessage(
        msg_id=MessageId(3, 1, 57, 0), src=3, dst=5,
        payload={"token": 1234, "hops": 3, "emit_output": True, "t0": 123.5},
        tdv=vector, send_interval=Entry(1, 57), wire_id=77)
    external = AppMessage(msg_id=MessageId(-1, 0, 0, 9), src=-1, dst=2,
                          payload={"tag": "t9"}, tdv=DependencyVector(N),
                          wire_id=78)
    multi = MultiIncarnationVector(N)
    multi.set(2, Entry(0, 5))
    multi.set(2, Entry(1, 9))
    foreign = AppMessage(msg_id=MessageId(2, 1, 9, 1), src=2, dst=5,
                         payload=[1, (2, 3)], tdv=multi,
                         send_interval=Entry(1, 9), replayed=True,
                         wire_id=79, k_limit=0)
    output = (OutputRecord(OutputId(3, 1, 57, 0), 3, {"token": 8},
                           Entry(1, 57)), vector.copy())
    checkpoint = Checkpoint(
        Entry(1, 57), {"state": [1, 2]}, vector,
        frozenset({MessageId(1, 0, 3, 0), MessageId(2, 1, 4, 1)}), 12.5,
        receive_buffer=(external,), sends=(message,), outputs=(output,))
    logged_message = LoggedMessage(80, 1, message)
    ann = FailureAnnouncement(2, Entry(0, 14))
    return [
        (T_CHECKPOINT, checkpoint), (T_LOGMSG, logged_message),
        (T_LOGMSG, LoggedMessage(81, 1, foreign)), (T_ANN, ann),
        (T_INCMARK, (2, None)), (T_INCMARK, (3, Entry(2, 40))),
        (T_COMMIT, OutputId(3, 1, 57, 0)), (T_CKPT_DISCARD, 1),
        (T_LOG_POP, 79), (T_GC, 0),
        (T_SNAPSHOT, ([checkpoint], [logged_message], [ann], [Entry(2, 40)],
                      {OutputId(3, 1, 57, 0)}, 3)),
    ]


#: The frames ``fixed_records`` makes: 1 145 bytes, which the journal's
#: format version 3 has written since its incarnation markers began to
#: carry the end of the incarnation a Rollback closed.
PINNED_SHA256 = \
    "2e883b94646aad11f2031ffdccdedb9e6b3566522f117cf2b77098b0f8422d05"


def test_the_frames_of_a_fixed_record_set_are_pinned():
    frames = b"".join(encode_record(rtype, obj)
                      for rtype, obj in fixed_records())
    assert FORMAT_VERSION == 3
    assert len(frames) == 1145
    assert hashlib.sha256(frames).hexdigest() == PINNED_SHA256
