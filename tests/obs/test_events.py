"""Event trace: levels, sampling determinism, ring bound, JSONL I/O."""

import pytest

from repro import obs
from repro.obs import EventTrace, read_jsonl, write_jsonl


class TestLevels:
    def test_parse_level_names(self):
        assert obs.parse_level("debug") == obs.DEBUG
        assert obs.parse_level("WARNING") == obs.WARNING
        assert obs.parse_level(25) == 25

    def test_parse_level_rejects_unknown(self):
        with pytest.raises(ValueError):
            obs.parse_level("chatty")

    def test_below_threshold_not_collected(self):
        trace = EventTrace(level=obs.INFO)
        trace.emit("c", "quiet", obs.DEBUG)
        trace.emit("c", "loud", obs.INFO)
        assert [e["event"] for e in trace.events()] == ["loud"]


class TestSampling:
    def test_every_nth_per_event_kind_starting_with_first(self):
        trace = EventTrace(sample_every=3)
        for _ in range(7):
            trace.emit("c", "a")
        for _ in range(2):
            trace.emit("c", "b")
        events = [e["event"] for e in trace.events()]
        assert events == ["a", "a", "a", "b"]  # a: 1st,4th,7th; b: 1st
        assert trace.sampled_out == 5

    def test_sampling_is_deterministic(self):
        def run():
            trace = EventTrace(sample_every=5)
            for i in range(100):
                trace.emit("c", "x", i=i)
            return [e["i"] for e in trace.events()]

        assert run() == run() == list(range(0, 100, 5))


class TestRingBuffer:
    def test_keeps_most_recent_and_counts_drops(self):
        trace = EventTrace(ring=10)
        for i in range(25):
            trace.emit("c", "x", i=i)
        assert len(trace) == 10
        assert [e["i"] for e in trace.events()] == list(range(15, 25))
        assert trace.dropped == 15

    def test_extend_respects_ring(self):
        trace = EventTrace(ring=3)
        trace.extend([{"i": i} for i in range(5)])
        assert [e["i"] for e in trace.events()] == [2, 3, 4]
        assert trace.dropped == 2

    def test_drain_empties(self):
        trace = EventTrace()
        trace.emit("c", "x")
        assert len(trace.drain()) == 1
        assert trace.events() == []


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = EventTrace()
        trace.emit("sim.engine", "trigger", obs.DEBUG, pc=1, block=2)
        trace.emit("runner", "cell_executed", wall_s=0.25)
        written = trace.events()
        assert write_jsonl(path, written) == 2
        assert read_jsonl(path) == written

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="expected a JSON object"):
            read_jsonl(path)


class TestScopeAndRuntime:
    def test_scope_disabled_by_default(self):
        scope = obs.scope("anything")
        assert not scope.enabled
        scope.info("ignored", x=1)  # must not raise
        scope.counter("c").inc()    # null metric

    def test_scope_routes_to_active_state(self, telemetry):
        scope = obs.scope("mycomp")
        scope.info("hello", x=1)
        scope.counter("c").inc(2)
        (event,) = telemetry.trace.events()
        assert event["component"] == "mycomp" and event["x"] == 1
        assert telemetry.registry.counter("mycomp.c").value == 2

    def test_child_scope_dotted_name(self, telemetry):
        obs.scope("a").child("b").info("e")
        assert telemetry.trace.events()[0]["component"] == "a.b"

    def test_capture_shields_and_collects(self, telemetry):
        obs.scope("outer").info("before")
        with obs.capture(obs.ObsConfig(level=obs.DEBUG)) as cap:
            obs.scope("inner").info("during")
            obs.scope("inner").counter("n").inc()
        obs.scope("outer").info("after")
        assert [e["event"] for e in cap.events] == ["during"]
        assert cap.metrics["counters"] == {"inner.n": 1}
        outer_events = [e["event"] for e in telemetry.trace.events()]
        assert outer_events == ["before", "after"]

    def test_capture_none_is_passthrough(self, telemetry):
        with obs.capture(None) as cap:
            obs.scope("x").info("straight_through")
        assert cap.events == []
        assert [e["event"] for e in telemetry.trace.events()] == ["straight_through"]

    def test_absorb_tags_events(self, telemetry):
        obs.absorb([{"event": "e1"}], {"counters": {"k": 2}},
                   tag={"cell": "oltp"})
        (event,) = telemetry.trace.events()
        assert event == {"event": "e1", "cell": "oltp"}
        assert telemetry.registry.counter("k").value == 2

    def test_absorb_noop_when_disabled(self):
        obs.absorb([{"event": "e"}], {"counters": {"k": 1}})  # must not raise


class TestTimers:
    def test_timed_records_histograms(self, telemetry):
        with obs.timed("phase"):
            pass
        snap = telemetry.registry.snapshot()
        assert snap["histograms"]["time.phase_s"]["count"] == 1
        assert snap["histograms"]["time.phase_cpu_s"]["count"] == 1

    def test_timed_noop_when_disabled(self):
        with obs.timed("phase"):
            pass  # no state, no error

    def test_profile_call_returns_result_and_rows(self):
        result, rows = obs.profile_call(sorted, [3, 1, 2], top=5)
        assert result == [1, 2, 3]
        assert len(rows) <= 5
        assert all("func" in r and "cumtime_s" in r for r in rows)
