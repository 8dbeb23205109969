"""EventLog unit tests: vocabulary, correlation, retention, sink."""

from __future__ import annotations

import json

import pytest

from repro.hypervisor.clock import SimClock
from repro.obs import EVENT_NAMES, NULL_EVENTS, EventLog


def _log(**kwargs) -> tuple[SimClock, EventLog]:
    clock = SimClock()
    return clock, EventLog(clock, **kwargs)


class TestVocabulary:
    def test_every_name_in_vocabulary_emits(self):
        _, log = _log()
        for name in EVENT_NAMES:
            log.emit(name)
        assert len(log) == len(EVENT_NAMES)

    def test_unknown_name_rejected(self):
        _, log = _log()
        with pytest.raises(ValueError, match="closed"):
            log.emit("check.shenanigans")

    def test_vocabulary_is_dotted_and_sorted_categories(self):
        for name in EVENT_NAMES:
            category, _, rest = name.partition(".")
            assert category and rest, name


class TestCorrelation:
    def test_check_ids_are_sequential(self):
        _, log = _log()
        assert log.new_check_id() == "chk-000001"
        assert log.new_check_id() == "chk-000002"

    def test_emit_inherits_innermost_correlation(self):
        _, log = _log()
        outer, inner = log.new_check_id(), log.new_check_id()
        with log.correlate(outer):
            log.emit("daemon.cycle")
            with log.correlate(inner):
                log.emit("check.start")
            log.emit("check.verdict")
        log.emit("alert.raised")
        ids = [e.check_id for e in log.events]
        assert ids == [outer, inner, outer, None]

    def test_explicit_check_id_overrides_context(self):
        _, log = _log()
        with log.correlate("chk-000009"):
            e = log.emit("alert.raised", check_id="chk-000042")
        assert e.check_id == "chk-000042"

    def test_correlate_pops_on_exception(self):
        _, log = _log()
        with pytest.raises(RuntimeError):
            with log.correlate("chk-000001"):
                raise RuntimeError("boom")
        assert log.current_check is None


class TestRetentionAndQueries:
    def test_ring_evicts_oldest(self):
        _, log = _log(capacity=3)
        for i in range(5):
            log.emit("daemon.cycle", cycle=i)
        assert len(log) == 3
        assert [e.attrs["cycle"] for e in log.events] == [2, 3, 4]
        # sequence numbers keep counting past evictions
        assert [e.seq for e in log.events] == [2, 3, 4]

    def test_queries(self):
        clock, log = _log()
        with log.correlate("chk-000001"):
            log.emit("check.start")
            clock.advance(1.0)
            log.emit("check.verdict")
        clock.advance(1.0)
        log.emit("daemon.cycle")
        assert [e.name for e in log.by_check("chk-000001")] == \
            ["check.start", "check.verdict"]
        assert len(log.by_name("daemon.cycle")) == 1
        assert [e.name for e in log.window(0.5, 1.5)] == ["check.verdict"]
        assert [e.name for e in log.tail(1)] == ["daemon.cycle"]

    def test_tail_counts_from_the_newest(self):
        _, log = _log()
        for name in ("check.start", "check.verdict", "daemon.cycle"):
            log.emit(name)
        assert log.tail(0) == []
        assert log.tail(-1) == []
        assert [e.name for e in log.tail(2)] == ["check.verdict",
                                                 "daemon.cycle"]
        assert log.tail(5) == log.events

    def test_emit_returns_the_retained_record(self):
        _, log = _log()
        event = log.emit("check.start", module="hal.dll")
        assert log.events == [event]
        assert (event.name, event.category, event.attrs) == \
            ("check.start", "check", {"module": "hal.dll"})
        bare = [log.emit("daemon.cycle"), log.emit("daemon.cycle")]
        assert bare[0].attrs == {} and bare[0].attrs is not bare[1].attrs

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(SimClock(), capacity=0)


class TestSerialisation:
    def test_jsonl_lines_are_sorted_key_json(self):
        clock, log = _log()
        clock.advance(1.5)
        with log.correlate("chk-000001"):
            log.emit("check.start", module="hal.dll", vms=4)
        line = log.to_jsonl().splitlines()[0]
        doc = json.loads(line)
        assert doc == {"t": 1.5, "seq": 0, "event": "check.start",
                       "check_id": "chk-000001",
                       "attrs": {"module": "hal.dll", "vms": 4}}
        assert list(doc) == sorted(doc)      # sort_keys, deterministic

    def test_write_jsonl(self, tmp_path):
        _, log = _log()
        log.emit("daemon.cycle")
        path = log.write_jsonl(tmp_path / "audit.jsonl")
        assert path.read_text() == log.to_jsonl()

    def test_sink_is_complete_after_ring_eviction(self, tmp_path):
        clock = SimClock()
        log = EventLog(clock, capacity=2, sink=tmp_path / "audit.jsonl")
        for i in range(5):
            log.emit("daemon.cycle", cycle=i)
        log.close()
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        assert len(lines) == 5               # ring holds 2, sink all 5
        assert len(log) == 2

    def test_event_without_id_or_attrs_omits_keys(self):
        _, log = _log()
        log.emit("daemon.cycle")
        doc = json.loads(log.to_jsonl())
        assert "check_id" not in doc and "attrs" not in doc


class TestNullEventLog:
    def test_everything_is_inert(self):
        assert not NULL_EVENTS.enabled
        assert NULL_EVENTS.new_check_id() == ""
        with NULL_EVENTS.correlate("chk-000001") as cid:
            assert cid == ""
            assert NULL_EVENTS.emit("check.start", module="x") is None
        assert NULL_EVENTS.current_check is None
        assert len(NULL_EVENTS) == 0
        assert NULL_EVENTS.events == []
        assert NULL_EVENTS.by_check("chk-000001") == []
        assert NULL_EVENTS.to_jsonl() == ""
        NULL_EVENTS.close()

    def test_correlation_scope_is_shared(self):
        assert (NULL_EVENTS.correlate("a") is NULL_EVENTS.correlate("b"))
