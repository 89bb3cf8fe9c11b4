"""Chrome trace-event (``chrome://tracing`` / Perfetto) export.

The one place trace-event records are assembled.  Two traces are built
from them:

* :func:`to_chrome_trace` maps a stream of
  :class:`~repro.obs.events.TraceEvent` records onto the trace-event
  JSON format (the ``traceEvents`` array form), so an attack timeline
  renders visually:

  * ``phase.begin`` / ``phase.end``  -> duration events (``B``/``E``) —
    the attack phases appear as nested spans;
  * ``metrics.sample``               -> counter events (``C``) — windowed
    MPKA and first-access rate render as counter tracks;
  * everything else                  -> instant events (``i``).

  Simulated cycles are written 1:1 as trace microseconds (the format has
  no "cycles" unit); absolute durations therefore read as cycle counts.
  One process (pid 1) models the simulated machine; each hardware
  context becomes a thread, with tid 0 doubling as the "no context"
  track.
* :func:`repro.obs.shards.merge_shards` lays a supervised sweep's
  wall-clock spans out as complete (``X``) slices, one process per
  worker, through :func:`process_name`, :func:`thread_name` and
  :func:`complete_slice`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.obs.events import TraceEvent

_SIM_PID = 1


def process_name(pid: int, name: str, **args: object) -> Dict:
    """The metadata record naming process ``pid`` (extra ``args`` ride
    along, e.g. a worker's OS pid)."""
    return {
        "ph": "M",
        "pid": pid,
        "name": "process_name",
        "args": {"name": name, **args},
    }


def thread_name(pid: int, tid: int, name: str) -> Dict:
    """The metadata record naming thread ``tid`` of process ``pid``."""
    return {
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "name": "thread_name",
        "args": {"name": name},
    }


def complete_slice(
    pid: int, tid: int, cat: str, name: str, ts: float, dur: float, args: Dict
) -> Dict:
    """A complete (``X``) slice; ``ts`` and ``dur`` in microseconds."""
    return {
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "cat": cat,
        "name": name,
        "ts": ts,
        "dur": dur,
        "args": args,
    }


def trace_payload(records: List[Dict]) -> Dict:
    """The ``{"traceEvents": [...]}`` document around ``records``."""
    return {"traceEvents": records, "displayTimeUnit": "ms"}


def write_trace(payload: Dict, path: Union[str, Path]) -> Path:
    """Write a trace document; the file loads directly in chrome://tracing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
    return path


def _event_record(event: TraceEvent) -> Dict:
    tid = event.ctx if event.ctx >= 0 else 0
    base = {"pid": _SIM_PID, "tid": tid, "ts": event.ts, "cat": event.src}
    if event.kind in ("phase.begin", "phase.end"):
        ph = "B" if event.kind == "phase.begin" else "E"
        return {**base, "ph": ph, "name": str(event.args.get("name", "phase"))}
    if event.kind == "metrics.sample":
        numeric = {
            k: v
            for k, v in event.args.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        return {**base, "ph": "C", "name": "metrics", "args": numeric}
    return {**base, "ph": "i", "s": "t", "name": event.kind, "args": dict(event.args)}


def to_chrome_trace(events: Iterable[TraceEvent]) -> Dict:
    """Build the ``{"traceEvents": [...]}`` payload."""
    trace: List[Dict] = [process_name(_SIM_PID, "timecache-sim")]
    trace.extend(_event_record(event) for event in events)
    tids = sorted({record["tid"] for record in trace[1:]})
    trace.extend(thread_name(_SIM_PID, tid, f"hw-ctx {tid}") for tid in tids)
    return trace_payload(trace)


def write_chrome_trace(
    events: Iterable[TraceEvent], path: Union[str, Path]
) -> Path:
    """Write the payload; the file loads directly in chrome://tracing."""
    return write_trace(to_chrome_trace(events), path)
