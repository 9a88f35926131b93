"""The row tracer against an eager reference twin.

``Tracer`` keeps flat rows and builds :class:`TraceEvent` objects only
when read.  ``EagerTracer`` below is the plain design it replaced: one
``TraceEvent`` appended per record.  Hypothesis drives both through the
same random interleavings of ``record``, ``clear`` and reads, and after
every step every read must agree: ``events``, ``select``, ``count``,
``format`` and the row iterator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import TraceEvent, Tracer


class EagerTracer:
    """Reference: every record becomes a ``TraceEvent`` at once."""

    def __init__(self, enabled=True, prefix=None):
        self.enabled, self.prefix, self.events = enabled, prefix, []

    def record(self, time, category, process=None, **data):
        if self.enabled and (self.prefix is None
                             or category.startswith(self.prefix)):
            self.events.append(TraceEvent(time, category, process, data))

    def select(self, category=None, process=None):
        return [e for e in self.events
                if (category is None or e.category.startswith(category))
                and (process is None or e.process == process)]

    def count(self, category, process=None):
        return len(self.select(category, process))

    def clear(self):
        self.events.clear()

    def format(self, category=None):
        return "\n".join(str(e) for e in self.select(category))

    def rows(self, category=None, process=None):
        return [(e.time, e.category, e.process, e.data)
                for e in self.select(category, process)]


#: Category filters every read is checked under (prefixes and exact tags).
FILTERS = (None, "dep.", "dep.release", "msg", "msg.deliver", "net.", "x")
PROCESSES = (None, -1, 0, 1)

atoms = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                  st.floats(allow_nan=False, width=32), st.text(max_size=3))
values = st.one_of(atoms, st.dictionaries(st.text(max_size=2), atoms,
                                          max_size=2))


@st.composite
def records(draw):
    category = draw(st.sampled_from(
        ("dep.release", "dep.deliver", "msg.deliver", "msg.release",
         "net.drop", "output.commit", "failure.crash")))
    if category == "dep.release":
        # The one category whose key set varies: ``k`` is optional.
        data = {"inc": draw(st.integers(0, 3)), "sii": draw(st.integers(1, 9)),
                "msg": draw(st.text(max_size=4)),
                "replayed": draw(st.booleans())}
        if draw(st.booleans()):
            data["k"] = draw(st.integers(0, 4))
    else:
        data = draw(st.dictionaries(
            st.sampled_from(("msg", "dst", "payload", "reason", "to")),
            values, max_size=3))
    time = draw(st.floats(0, 1e6, allow_nan=False))
    return ("record", time, category, draw(st.sampled_from(PROCESSES)), data)


operations = st.one_of(records(), st.just(("clear",)), st.just(("read",)))


def assert_same(tracer, ref):
    assert tracer.events == ref.events
    assert list(tracer.events) == ref.events
    assert len(tracer.events) == len(ref.events)
    if ref.events:
        assert tracer.events[-1] == ref.events[-1]
        assert tracer.events[:2] == ref.events[:2]
    for category in FILTERS:
        assert tracer.format(category) == ref.format(category)
        for process in PROCESSES:
            assert tracer.select(category, process) == ref.select(
                category, process)
            assert list(tracer.rows(category, process)) == ref.rows(
                category, process)
            if category is not None:
                assert tracer.count(category, process) == ref.count(
                    category, process)


@settings(max_examples=150, deadline=None)
@given(enabled=st.booleans(),
       prefix=st.sampled_from((None, "dep.", "msg", "")),
       ops=st.lists(operations, max_size=25))
def test_row_tracer_reads_as_the_eager_tracer(enabled, prefix, ops):
    tracer, ref = Tracer(enabled, prefix), EagerTracer(enabled, prefix)
    # Read only at "read" steps, so its events are built several at a time.
    lazy = Tracer(enabled, prefix)
    for op in ops:
        if op[0] == "record":
            _, time, category, process, data = op
            for twin in (tracer, ref, lazy):
                twin.record(time, category, process, **data)
        elif op[0] == "clear":
            for twin in (tracer, ref, lazy):
                twin.clear()
        else:
            assert_same(lazy, ref)
        assert_same(tracer, ref)
    assert_same(lazy, ref)


def test_events_built_once_and_on_read():
    tracer = Tracer()
    tracer.record(1.0, "dep.release", 0, inc=0, sii=1, msg="m", replayed=False)
    first = tracer.events[0]
    tracer.record(2.0, "dep.release", 0, inc=0, sii=2, msg="n",
                  replayed=False, k=1)
    assert tracer.events[0] is first
    assert tracer.events[1].data == {"inc": 0, "sii": 2, "msg": "n",
                                     "replayed": False, "k": 1}
