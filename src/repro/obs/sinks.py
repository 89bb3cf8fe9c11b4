"""Pluggable event sinks: where a tracer's events go.

A sink is anything with ``emit(event)`` and ``close()``.  The built-ins:

* :class:`JsonlSink`       — append each event as one JSON line;
* :class:`RingBufferSink`  — keep the last ``capacity`` events in
  memory, evicting the oldest (for always-on flight recording and for
  tests that want the stream without filesystem traffic).
"""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path
from typing import Deque, List, Protocol, Union

from repro.obs.events import TraceEvent


class Sink(Protocol):
    """The sink protocol; see module docstring."""

    def emit(self, event: TraceEvent) -> None: ...

    def close(self) -> None: ...


class JsonlSink:
    """Append events to a JSONL file, one object per line.

    Lines are buffered by the underlying file object; ``close()`` (or
    using the sink as a context manager) flushes everything.  The parent
    directory is created on demand so ``JsonlSink(tmp / "a" / "t.jsonl")``
    just works.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w")
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(event.to_json_line())
        self._handle.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if not self._handle.closed:
            # Flush + fsync before closing: a crash *after* close() must
            # not lose whole buffered pages of trace — at worst the final
            # line is torn mid-write, which readers skip with a counted
            # warning (see events.read_events_tolerant).
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:  # pragma: no cover - e.g. fsync-less targets
                pass
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RingBufferSink:
    """Bounded in-memory sink: keeps the newest ``capacity`` events.

    ``dropped`` counts evictions, so a consumer can tell a complete
    stream from a truncated one.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._ring.append(event)
        self.emitted += 1

    @property
    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._ring)

    def close(self) -> None:
        pass

