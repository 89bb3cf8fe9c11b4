"""Chrome trace-event export validity."""

import json

from repro.obs import (
    RingBufferSink,
    TraceEvent,
    Tracer,
    to_chrome_trace,
    write_chrome_trace,
)

_VALID_PH = {"B", "E", "i", "C", "M"}


def _sample_events():
    ring = RingBufferSink()
    tracer = Tracer(ring)
    with tracer.span("flush", ctx=0):
        tracer.emit("cache.fill", src="L1D0", ctx=0, ts=5,
                    args={"set": 1, "way": 0})
    tracer.emit(
        "metrics.sample", src="sampler", ts=10,
        args={"accesses": 12, "llc_mpka": 83.3, "note": "text-dropped"},
    )
    tracer.emit("ctx.switch", src="os", ctx=1, ts=20,
                args={"outgoing": 0, "incoming": 1, "rollover": False})
    return ring.events


def test_chrome_trace_shape():
    payload = to_chrome_trace(_sample_events())
    trace = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"
    assert trace[0] == {
        "ph": "M", "pid": 1, "name": "process_name",
        "args": {"name": "timecache-sim"},
    }
    assert all(entry["ph"] in _VALID_PH for entry in trace)
    # every non-metadata entry sits on the one simulated process
    assert all(entry["pid"] == 1 for entry in trace)


def test_spans_are_balanced_per_thread():
    trace = to_chrome_trace(_sample_events())["traceEvents"]
    depth = {}
    for entry in trace:
        if entry["ph"] == "B":
            depth[entry["tid"]] = depth.get(entry["tid"], 0) + 1
        elif entry["ph"] == "E":
            depth[entry["tid"]] = depth.get(entry["tid"], 0) - 1
            assert depth[entry["tid"]] >= 0, "E before matching B"
    assert all(v == 0 for v in depth.values())


def test_counter_events_keep_numeric_args_only():
    trace = to_chrome_trace(_sample_events())["traceEvents"]
    counters = [e for e in trace if e["ph"] == "C"]
    assert counters, "metrics.sample did not map to a counter event"
    for counter in counters:
        assert counter["name"] == "metrics"
        assert all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in counter["args"].values()
        )
        assert "note" not in counter["args"]


def test_thread_name_metadata_per_context():
    trace = to_chrome_trace(_sample_events())["traceEvents"]
    names = {
        e["tid"]: e["args"]["name"]
        for e in trace
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names == {0: "hw-ctx 0", 1: "hw-ctx 1"}


def test_written_file_is_loadable_json(tmp_path):
    path = write_chrome_trace(_sample_events(), tmp_path / "t.perfetto.json")
    with open(path) as handle:
        payload = json.load(handle)
    assert isinstance(payload["traceEvents"], list)
    assert len(payload["traceEvents"]) >= len(_sample_events())


def test_instant_events_carry_scope():
    trace = to_chrome_trace([TraceEvent(kind="cache.evict", ts=3)])["traceEvents"]
    instants = [e for e in trace if e["ph"] == "i"]
    assert instants[0]["s"] == "t"
    assert instants[0]["name"] == "cache.evict"


def test_chrome_trace_exact_payload(tmp_path):
    """Pins the whole payload (and the written bytes): phase spans map to
    ``B``/``E``, samples to ``C`` with their numeric args only, anything
    else to a thread-scoped ``i``; contexts become ``hw-ctx`` threads,
    and ``ctx=-1`` lands on tid 0."""
    events = [
        TraceEvent("phase.begin", ts=2, src="attack", ctx=1, args={"name": "prime"}),
        TraceEvent("cache.fill", ts=5, src="L1D0", ctx=1, args={"set": 3, "way": 0}),
        TraceEvent("phase.end", ts=9, src="attack", ctx=1, args={"name": "prime"}),
        TraceEvent(
            "metrics.sample", ts=10, src="sampler",
            args={"accesses": 12, "llc_mpka": 83.5, "note": "x", "flag": True},
        ),
        TraceEvent("ctx.switch", ts=20, src="os", ctx=0,
                   args={"outgoing": 1, "incoming": 0}),
    ]
    expected = {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "timecache-sim"}},
            {"ph": "B", "pid": 1, "tid": 1, "ts": 2, "cat": "attack",
             "name": "prime"},
            {"ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 5, "cat": "L1D0",
             "name": "cache.fill", "args": {"set": 3, "way": 0}},
            {"ph": "E", "pid": 1, "tid": 1, "ts": 9, "cat": "attack",
             "name": "prime"},
            {"ph": "C", "pid": 1, "tid": 0, "ts": 10, "cat": "sampler",
             "name": "metrics", "args": {"accesses": 12, "llc_mpka": 83.5}},
            {"ph": "i", "s": "t", "pid": 1, "tid": 0, "ts": 20, "cat": "os",
             "name": "ctx.switch", "args": {"outgoing": 1, "incoming": 0}},
            {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
             "args": {"name": "hw-ctx 0"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "hw-ctx 1"}},
        ],
    }
    assert to_chrome_trace(events) == expected
    path = write_chrome_trace(events, tmp_path / "t.perfetto.json")
    assert path.read_text() == json.dumps(expected, sort_keys=True)
