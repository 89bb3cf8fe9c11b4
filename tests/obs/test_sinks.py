"""Sink behavior: JSONL persistence and ring eviction order."""

import pytest

from repro.obs import JsonlSink, RingBufferSink, TraceEvent, read_events


def _events(n):
    return [TraceEvent(kind="cache.fill", ts=i, seq=i) for i in range(n)]


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "nested" / "trace.jsonl"  # parent made on demand
    events = _events(5)
    with JsonlSink(path) as sink:
        for event in events:
            sink.emit(event)
        assert sink.emitted == 5
    assert list(read_events(path)) == events


def test_ring_buffer_evicts_oldest_first():
    ring = RingBufferSink(capacity=4)
    events = _events(10)
    for event in events:
        ring.emit(event)
    assert ring.events == events[-4:]  # newest 4, oldest first
    assert ring.emitted == 10
    assert ring.dropped == 6


def test_ring_buffer_under_capacity_drops_nothing():
    ring = RingBufferSink(capacity=100)
    for event in _events(3):
        ring.emit(event)
    assert ring.dropped == 0
    assert [e.ts for e in ring.events] == [0, 1, 2]


def test_ring_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_jsonl_close_flushes_and_fsyncs(tmp_path, monkeypatch):
    """close() must push buffered lines to durable storage: a crash right
    after close can't lose events (the crash-tolerant read contract)."""
    import os

    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    sink = JsonlSink(tmp_path / "t.jsonl")
    for event in _events(3):
        sink.emit(event)
    sink.close()
    assert synced, "close() did not fsync"
    assert len(list(read_events(tmp_path / "t.jsonl"))) == 3

