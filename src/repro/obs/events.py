"""The typed simulator-time event record and its JSONL wire format.

One event is one metadata transition somewhere in the machine, stamped
with the *simulated* cycle count at which it happened.

The wire format is one JSON object per line, keys sorted, so a trace of
a fixed-seed run is byte-reproducible and can be hashed into a manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

OBS_SCHEMA = 1

#: every kind the built-in instrumentation emits, grouped by source
#: layer.  The set is advisory — sinks accept unknown kinds so new
#: instrumentation does not need a lockstep change here — but tests and
#: ``repro obs summarize`` use it to flag typos.
EVENT_KINDS = frozenset(
    {
        # memsys (both engines, identical streams — the equivalence fuzz
        # test locks this in)
        "cache.fill",
        "cache.evict",
        "cache.invalidate",
        "cache.sbit_set",
        "access.first_miss",
        "access.result",
        # core: the context-switch protocol
        "ctx.switch",
        "rollover.epoch",
        "sbit.flash_clear",
        # os scheduler
        "sched.admit",
        "sched.dispatch",
        "sched.requeue",
        "sched.sleep",
        "sched.wake",
        # attack phase spans
        "phase.begin",
        "phase.end",
        # metrics sampler
        "metrics.sample",
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One observed transition.

    ``ts`` is simulated cycles; ``seq`` is a per-tracer monotone emission
    index that totally orders events sharing a timestamp; ``ctx`` is the
    hardware context (-1 when the event has no context attribution);
    ``args`` is a small JSON-serializable payload whose keys depend on
    ``kind`` (see docs/internals.md §11 for the per-kind schema).
    """

    kind: str
    ts: int
    src: str = "sim"
    ctx: int = -1
    seq: int = 0
    args: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "ts": self.ts,
            "src": self.src,
            "ctx": self.ctx,
            "seq": self.seq,
            "args": dict(self.args),
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Dict) -> "TraceEvent":
        return cls(
            kind=payload["kind"],
            ts=int(payload["ts"]),
            src=payload.get("src", "sim"),
            ctx=int(payload.get("ctx", -1)),
            seq=int(payload.get("seq", 0)),
            args=dict(payload.get("args", {})),
        )


def parse_event(line: str) -> TraceEvent:
    """Inverse of :meth:`TraceEvent.to_json_line`."""
    return TraceEvent.from_dict(json.loads(line))


def read_events(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Stream the events of a JSONL trace file (blank lines skipped)."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield parse_event(line)


def read_events_tolerant(
    path: Union[str, Path],
) -> Tuple[List[TraceEvent], int]:
    """Read a JSONL trace, skipping a torn *final* line.

    A process killed mid-``write`` (chaos kill, OOM, power loss) leaves
    at most one partial line at the end of the file — every earlier line
    was completed before the torn one started.  A torn final line is
    therefore skipped and *counted*; a malformed line anywhere else is
    real corruption and still raises.

    Returns ``(events, skipped)`` where ``skipped`` is 0 or 1.
    """
    events: List[TraceEvent] = []
    bad: Optional[str] = None
    with open(path) as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            if bad is not None:
                # The malformed line was not the final one: not a torn
                # tail but mid-file corruption.
                raise json.JSONDecodeError(
                    f"malformed trace line is not the final line of {path}",
                    bad,
                    0,
                )
            try:
                events.append(parse_event(stripped))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                bad = stripped
    return events, (1 if bad is not None else 0)
