"""Unit tests for the space-time diagram renderer."""

import pytest

from repro.analysis.timeline import TimelineRenderer, render_timeline
from repro.sim.trace import Tracer


def traced(events):
    tracer = Tracer()
    for time, category, pid, data in events:
        tracer.record(time, category, pid, **data)
    return tracer


class TestTimelineRenderer:
    def test_deliveries_rendered_per_process(self):
        tracer = traced([
            (10.0, "msg.deliver", 0, {"interval": "(0,2)"}),
            (20.0, "msg.deliver", 1, {"interval": "(0,3)"}),
        ])
        text = render_timeline(tracer, 2)
        lines = text.splitlines()
        assert "(0,2)" in lines[1]  # P0 row
        assert "(0,3)" in lines[2]  # P1 row

    def test_crash_beats_delivery_in_same_cell(self):
        tracer = traced([
            (10.0, "msg.deliver", 0, {"interval": "(0,2)"}),
            (10.1, "failure.crash", 0, {}),
        ])
        text = render_timeline(tracer, 1, width=14)  # few, wide cells
        assert "X" in text

    def test_restart_and_rollback_markers(self):
        tracer = traced([
            (10.0, "recovery.restart", 0, {"ann": "r[0: inc 0 ended at 4]"}),
            (20.0, "recovery.rollback", 1, {"to": "(0,2)"}),
        ])
        text = render_timeline(tracer, 2)
        assert "R0" in text
        assert "r(0,2)" in text

    def test_empty_trace(self):
        assert "no renderable events" in render_timeline(Tracer(), 2)

    def test_window_filtering(self):
        tracer = traced([
            (10.0, "msg.deliver", 0, {"interval": "(0,2)"}),
            (500.0, "msg.deliver", 0, {"interval": "(0,99)"}),
        ])
        text = render_timeline(tracer, 1, t_start=0.0, t_end=100.0)
        assert "(0,2)" in text
        assert "(0,99)" not in text

    def test_axis_labels(self):
        tracer = traced([(10.0, "msg.deliver", 0, {"interval": "(0,2)"})])
        text = render_timeline(tracer, 1, t_start=0.0, t_end=100.0)
        assert "t=0" in text.splitlines()[0]
        assert "t=100" in text.splitlines()[0]

    def test_legend_present(self):
        tracer = traced([(10.0, "msg.deliver", 0, {"interval": "(0,2)"})])
        assert "legend" in render_timeline(tracer, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimelineRenderer(0)
        with pytest.raises(ValueError):
            TimelineRenderer(2, width=3)

    def test_renders_real_simulation(self):
        from repro.failures.injector import FailureSchedule
        from repro.runtime.config import SimConfig
        from repro.runtime.harness import SimulationHarness
        from repro.workloads.random_peers import RandomPeersWorkload

        config = SimConfig(n=3, seed=5)
        workload = RandomPeersWorkload(rate=0.3)
        harness = SimulationHarness(config, workload.behavior(),
                                    failures=FailureSchedule.single(60.0, 1))
        workload.install(harness, until=100.0)
        harness.run(140.0)
        text = render_timeline(harness.tracer, 3)
        assert "X" in text          # the crash is visible
        assert len(text.splitlines()) == 5  # axis + 3 rows + legend
