"""The typed decision-event primitive: recording, collecting, filtering."""

from __future__ import annotations

import io
import json

from repro import obs
from repro.obs.events import VERDICTS, Event, event, events_for


class TestEventPrimitive:
    def test_noop_without_session(self):
        assert obs.current_session() is None
        assert event("legality", "reject", "nope", dep="d") is None

    def test_recorded_in_sequence_order(self, mem):
        with obs.collect_events() as evs:
            event("legality", "reject", "first")
            event("tune", "accept", "second")
        assert [ev.reason for ev in evs] == ["first", "second"]
        assert evs[0].seq < evs[1].seq

    def test_streamed_to_sinks_at_emit_time(self, mem):
        # sinks see the event immediately, not only at flush
        event("fuzz", "accept", "ok", index=0)
        assert [ev.reason for ev in mem.events] == ["ok"]

    def test_attrs_preserved(self, mem):
        ev = event("legality", "reject", "violated", dep="flow S1->S2", sign="neg")
        assert ev.attrs == {"dep": "flow S1->S2", "sign": "neg"}

    def test_parameter_names_are_positional_only(self, mem):
        # attrs may reuse the parameter names without colliding
        ev = event("fuzz", "accept", "r", kind="perfect", verdict="x", reason="y")
        assert ev.kind == "fuzz" and ev.verdict == "accept" and ev.reason == "r"
        assert ev.attrs == {"kind": "perfect", "verdict": "x", "reason": "y"}

    def test_verdict_vocabulary(self):
        assert VERDICTS == ("accept", "reject", "measure", "info")


class TestEventRecord:
    def test_to_dict_shape(self, mem):
        ev = event("vectorize", "reject", "non-unit step", loop="I")
        rec = ev.to_dict()
        assert rec["type"] == "event"
        assert rec["kind"] == "vectorize"
        assert rec["verdict"] == "reject"
        assert rec["reason"] == "non-unit step"
        assert rec["attrs"] == {"loop": "I"}
        json.dumps(rec)  # JSONL-safe

    def test_describe_and_str(self):
        ev = Event(1, "legality", "reject", "bad projection", {"dep": "d1"})
        line = ev.describe()
        assert line.startswith("reject")
        assert "bad projection" in line and "dep=d1" in line
        assert str(ev).startswith("legality:")


class TestEventsFor:
    def test_filters_by_kind_and_verdict(self, mem):
        with obs.collect_events() as evs:
            event("legality", "reject", "a")
            event("legality", "accept", "b")
            event("tune", "reject", "c")
        assert [e.reason for e in events_for(evs, "legality")] == ["a", "b"]
        assert [e.reason for e in events_for(evs, verdict="reject")] == ["a", "c"]
        assert [e.reason for e in events_for(evs, "tune", "reject")] == ["c"]

    def test_memory_sink_helper(self, mem):
        event("fuzz", "accept", "x")
        event("fuzz", "reject", "y")
        assert [e.reason for e in mem.events_for("fuzz", "reject")] == ["y"]


class TestCollectEvents:
    def test_collects_without_session(self):
        assert obs.current_session() is None
        with obs.collect_events() as evs:
            ev = event("legality", "reject", "r", dep="d")
        assert evs == [ev] and ev.attrs == {"dep": "d"}
        # a closed collector records nothing more
        assert event("legality", "reject", "later") is None
        assert len(evs) == 1

    def test_innermost_collector_gets_the_events(self, mem):
        with obs.collect_events() as outer:
            event("tune", "info", "a")
            with obs.collect_events() as inner:
                event("tune", "info", "b")
            event("tune", "info", "c")
        assert [e.reason for e in outer] == ["a", "c"]
        assert [e.reason for e in inner] == ["b"]
        # sinks still see every event
        assert [e.reason for e in mem.events] == ["a", "b", "c"]

    def test_collectors_are_per_thread(self, mem):
        import threading

        seen: dict[str, list] = {}
        barrier = threading.Barrier(2)

        def work(name):
            with obs.collect_events() as evs:
                for i in range(50):
                    event("fuzz", "info", name, index=i)
                    if i == 0:
                        barrier.wait()
            seen[name] = evs

        threads = [threading.Thread(target=work, args=(n,)) for n in ("x", "y")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name in ("x", "y"):
            assert [(e.reason, e.attrs["index"]) for e in seen[name]] == [
                (name, i) for i in range(50)
            ]
        assert len(mem.events) == 100


class TestJsonlEventLines:
    def test_events_written_as_jsonl(self):
        buf = io.StringIO()
        with obs.session(obs.JsonlSink(buf, flush_every=1)):
            event("tune", "measure", "median of 3 rounds", seconds="0.01")
        recs = [json.loads(line) for line in buf.getvalue().splitlines()]
        evs = [r for r in recs if r["type"] == "event"]
        assert len(evs) == 1
        assert evs[0]["kind"] == "tune"
        assert evs[0]["attrs"] == {"seconds": "0.01"}
