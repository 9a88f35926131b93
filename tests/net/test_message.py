"""Unit tests for wire message types and identities."""

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import (
    AppMessage,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
    OutputRecord,
)
from repro.types import MessageId, OutputId


def msg(entries=None, n=4):
    return AppMessage(
        msg_id=MessageId(0, 0, 1, 0),
        src=0, dst=1, payload={},
        tdv=DependencyVector(n, entries or {}),
        send_interval=Entry(0, 1),
    )


class TestMessageId:
    def test_identity_includes_incarnation(self):
        # Replay of a stable interval regenerates the same id; re-execution
        # in a new incarnation produces a different one.
        a = MessageId(0, 0, 5, 0)
        b = MessageId(0, 0, 5, 0)
        c = MessageId(0, 1, 5, 0)
        assert a == b
        assert a != c

    def test_ordering_and_hashing(self):
        ids = {MessageId(0, 0, 1, 0), MessageId(0, 0, 1, 1)}
        assert len(ids) == 2
        assert MessageId(0, 0, 1, 0) < MessageId(0, 0, 1, 1)

    def test_str(self):
        assert str(MessageId(3, 1, 5, 2)) == "m(3:1.5.2)"

    def test_output_id_str(self):
        assert str(OutputId(3, 1, 5, 2)) == "o(3:1.5.2)"


class TestAppMessage:
    def test_piggyback_size(self):
        assert msg().piggyback_size() == 0
        assert msg({0: Entry(0, 1), 2: Entry(1, 3)}).piggyback_size() == 2

    def test_wire_ids_unique(self):
        assert msg().wire_id != msg().wire_id

    def test_default_flags(self):
        m = msg()
        assert m.replayed is False
        assert m.k_limit is None

    def test_str_mentions_route(self):
        text = str(msg({0: Entry(0, 1)}))
        assert "0->1" in text


class TestControlMessages:
    def test_failure_announcement_is_frozen_and_hashable(self):
        ann = FailureAnnouncement(1, Entry(0, 4))
        assert ann == FailureAnnouncement(1, Entry(0, 4))
        assert {ann: 1}[ann] == 1
        assert "inc 0 ended at 4" in str(ann)

    def test_log_progress_notification_str(self):
        notif = LogProgressNotification(2, [{}, {}, {0: 5}])
        assert "P2" in str(notif)

    def test_logging_request_str(self):
        assert "P3" in str(LoggingRequest(3))

    def test_output_record_str(self):
        record = OutputRecord(OutputId(1, 0, 2, 0), 1, "x", Entry(0, 2))
        assert "(0,2)_1" in str(record)
