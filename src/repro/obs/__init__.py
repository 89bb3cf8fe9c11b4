"""Structured observability for the simulator (events, sinks, manifests).

The paper's security argument lives in timing *dynamics* — first-access
misses, s-bit flash-clears at context switches, attack-phase latencies —
but aggregate end-of-run counters flatten all of that away.  This package
adds a telemetry layer that can watch both engines and the sweep fleet
without perturbing the hot paths it observes:

* :mod:`~repro.obs.events`   — the typed simulator-time event record and
  its JSONL wire format;
* :mod:`~repro.obs.sinks`    — where events go: a JSONL file or a
  bounded in-memory ring buffer;
* :mod:`~repro.obs.tracer`   — the emission guard and the hook wiring
  onto a :class:`~repro.core.timecache.TimeCacheSystem` or a
  :class:`~repro.os.kernel.Kernel`: one bound method on each observer
  list.  A disabled tracer attaches nothing, so the hot paths keep
  their empty-list branch and tracing costs literally zero when off;
* :mod:`~repro.obs.sampler`  — periodic :class:`StatGroup` snapshots as
  a timeseries (windowed MPKA, first-access-miss rate over time);
* :mod:`~repro.obs.perfetto` — Chrome trace-event / Perfetto export so
  attack timelines render visually in ``chrome://tracing``; the one
  place trace-event records are assembled;
* :mod:`~repro.obs.spans`    — host wall-clock spans, the kernel-phase
  accumulator, and the per-process :class:`ObsSession`, whose counters
  are a :class:`~repro.common.stats.StatGroup` filled from the finished
  systems' ``stats_snapshot()`` plus an s-bit census;
* :mod:`~repro.obs.shards`   — per-worker shards of a supervised sweep,
  its heartbeat, and the merged trace and counters;
* :mod:`~repro.obs.manifest` — per-run manifests: config hash, seed,
  engine, git SHA, machine metadata, and an artifact index;
* :mod:`~repro.obs.console`  — the CLI's quiet-aware output helper.

See docs/internals.md §11 for the event schema and the safety rules for
enabling tracing during benchmarks.
"""

from repro.obs.console import Console
from repro.obs.events import (
    EVENT_KINDS,
    OBS_SCHEMA,
    TraceEvent,
    parse_event,
    read_events,
    read_events_tolerant,
)
from repro.obs.manifest import RunManifest, config_fingerprint, load_manifest
from repro.obs.perfetto import to_chrome_trace, write_chrome_trace
from repro.obs.sampler import MetricsSample, MetricsSampler
from repro.obs.sinks import JsonlSink, RingBufferSink
from repro.obs.spans import (
    ObsSession,
    PhaseAccumulator,
    SpanProfiler,
    current_session,
    install_session,
    merge_counts,
    session_scope,
)
from repro.obs.tracer import Tracer

__all__ = [
    "Console",
    "EVENT_KINDS",
    "JsonlSink",
    "MetricsSample",
    "MetricsSampler",
    "OBS_SCHEMA",
    "ObsSession",
    "PhaseAccumulator",
    "RingBufferSink",
    "RunManifest",
    "SpanProfiler",
    "TraceEvent",
    "Tracer",
    "config_fingerprint",
    "current_session",
    "install_session",
    "load_manifest",
    "merge_counts",
    "parse_event",
    "read_events",
    "read_events_tolerant",
    "session_scope",
    "to_chrome_trace",
    "write_chrome_trace",
]
