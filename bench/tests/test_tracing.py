"""Span bookkeeping: self-time arithmetic, nesting, install/uninstall."""

import pytest

import tracing


def test_self_time_is_duration_minus_direct_children():
    #   0: root   [0, 100]
    #   1:   a    [10, 40]
    #   2:     b  [15, 25]
    #   3:   a    [50, 90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [30, 20, 10, 40]
    # Self times of a tree add up to the root's duration.
    assert sum(tracing.self_times(start, end, parent)) == 100


def test_wrapped_calls_nest_by_call_stack():
    spans = tracing.Spans()
    leaf = spans.wrap("layer.leaf", lambda: 1)
    mid = spans.wrap("layer.mid", lambda: leaf() + leaf())
    root = spans.wrap("other.root", lambda: mid())
    assert root() == 2
    assert [spans.names[i] for i in spans.name_id] == [
        "other.root", "layer.mid", "layer.leaf", "layer.leaf"]
    assert spans.parent == [-1, 0, 1, 1]
    table = spans.by_name()
    assert table["layer.leaf"]["calls"] == 2
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(table["other.root"]["total_s"])
    assert tracing.layer_self_s(table, {"layer"})["layer"] == pytest.approx(
        table["layer.mid"]["total_s"])
    # Restricting to a subtree drops the spans outside it.
    assert spans.by_name(under="layer.mid")["other.root"]["calls"] == 0
    assert spans.by_name(under="layer.mid")["layer.leaf"]["calls"] == 2


def test_span_closes_when_the_call_raises():
    spans = tracing.Spans()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        spans.wrap("layer.boom", boom)()
    assert spans.end_ns[0] >= spans.start_ns[0] > 0
    assert spans.wrap("layer.next", lambda: None)() is None
    assert spans.parent == [-1, -1]


def test_install_wraps_overrides_and_uninstall_restores():
    from repro.storage.filelog import FileLogBackend
    from repro.storage.stable import ModelBackend

    originals = (vars(ModelBackend)["append_log"],
                 vars(FileLogBackend)["append_log"])
    installation = tracing.install(tracing.Spans(), {"storage"})
    try:
        assert vars(ModelBackend)["append_log"] is not originals[0]
        assert vars(FileLogBackend)["append_log"] is not originals[1]
    finally:
        installation.uninstall()
    assert (vars(ModelBackend)["append_log"],
            vars(FileLogBackend)["append_log"]) == originals


def test_install_fails_when_a_traced_name_is_gone():
    with pytest.raises(LookupError, match="no_such_method"):
        tracing.install(tracing.Spans(), {"sim"}, targets=(
            ("sim", "repro.sim.engine:Engine.run"),
            ("sim", "repro.sim.engine:Engine.no_such_method"),
        ))
    from repro.sim.engine import Engine

    assert Engine.run.__name__ == "run"  # the partial install was undone


def test_every_declared_target_exists():
    layers = {layer for layer, _target in tracing.TARGETS}
    tracing.install(tracing.Spans(), layers).uninstall()
