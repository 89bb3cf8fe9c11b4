"""Wall-clock span instrumentation: where do the *host* cycles go.

The event tracer records *simulated* time — right for security
analysis, useless for answering "where does the simulator spend its
wall-clock".  This module adds the host-side view:

* :class:`PhaseAccumulator` — plain-int nanosecond cells for batched
  accesses.  Both engines run ``access_batch`` as one scalar loop, so
  only the ``fallback`` cell and ``scalar_accesses`` move; the
  classify / plan / rehearse / apply cells and the window counts stay
  in every payload and read 0.  ``access_batch`` reads one attribute
  per batch; when no profiler is installed it takes its ``is None``
  branch and pays nothing.
* :class:`SpanProfiler` — nesting wall-clock spans (``with
  profiler.span("sweep.job")``) that carry counter deltas from an
  attached :class:`~repro.obs.counters.CounterRegistry`, and export as
  Perfetto complete slices or folded stacks (``repro obs flame``).
* :class:`ObsSession` — the per-process bundle (registry + profiler +
  kernel phases) with a module-global install point, so worker
  processes and ``TimeCacheSystem`` construction can find the active
  session without threading it through every constructor.

Times are ``time.perf_counter_ns`` nanoseconds end to end; exports
convert to trace-format microseconds at the edge.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.obs.counters import CounterRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.timecache import TimeCacheSystem

__all__ = [
    "KERNEL_PHASES",
    "ObsSession",
    "PhaseAccumulator",
    "Span",
    "SpanProfiler",
    "current_session",
    "install_session",
    "folded_to_lines",
]

#: the phase cells of every kernel-phase payload; only ``fallback`` (the
#: scalar ``access_batch`` loop) is ever non-zero
KERNEL_PHASES = ("classify", "plan", "rehearse", "apply", "fallback")


class PhaseAccumulator:
    """Nanosecond + event tallies for batched accesses.

    All slots are plain ints so the ``prof.fallback_ns += dt`` bumps
    never allocate.  :meth:`MemoryHierarchy.access_batch` adds its
    wall time to ``fallback_ns`` and its access count to
    ``scalar_accesses``; the other cells keep the payload shape that
    shard merges and the end-to-end benchmark read by name.
    """

    __slots__ = (
        "classify_ns",
        "plan_ns",
        "rehearse_ns",
        "apply_ns",
        "fallback_ns",
        "windows",
        "events",
        "cuts",
        "replans",
        "scalar_accesses",
        "batch_accesses",
    )

    def __init__(self) -> None:
        self.classify_ns = 0
        self.plan_ns = 0
        self.rehearse_ns = 0
        self.apply_ns = 0
        self.fallback_ns = 0
        self.windows = 0
        self.events = 0
        self.cuts = 0
        self.replans = 0
        self.scalar_accesses = 0
        self.batch_accesses = 0

    def phase_ns(self) -> Dict[str, int]:
        return {
            "classify": self.classify_ns,
            "plan": self.plan_ns,
            "rehearse": self.rehearse_ns,
            "apply": self.apply_ns,
            "fallback": self.fallback_ns,
        }

    def total_ns(self) -> int:
        return (
            self.classify_ns
            + self.plan_ns
            + self.rehearse_ns
            + self.apply_ns
            + self.fallback_ns
        )

    def counts(self) -> Dict[str, int]:
        return {
            "windows": self.windows,
            "events": self.events,
            "cuts": self.cuts,
            "replans": self.replans,
            "scalar_accesses": self.scalar_accesses,
            "batch_accesses": self.batch_accesses,
        }

    def to_payload(self) -> Dict[str, int]:
        """Flat JSON-safe dict; the shard merge sums these key-wise."""
        out = {f"{k}_ns": v for k, v in self.phase_ns().items()}
        out.update(self.counts())
        return out

    def load(self, payload: Dict[str, int]) -> "PhaseAccumulator":
        for phase in KERNEL_PHASES:
            setattr(
                self,
                f"{phase}_ns",
                getattr(self, f"{phase}_ns") + int(payload.get(f"{phase}_ns", 0)),
            )
        for key in (
            "windows",
            "events",
            "cuts",
            "replans",
            "scalar_accesses",
            "batch_accesses",
        ):
            setattr(self, key, getattr(self, key) + int(payload.get(key, 0)))
        return self

    def summary(self) -> Dict[str, object]:
        """Human/bench-facing view: shares + per-phase event rates."""
        total = self.total_ns()
        phases = self.phase_ns()
        shares = {
            k: (v / total if total else 0.0) for k, v in phases.items()
        }
        out: Dict[str, object] = {
            "total_ns": total,
            "phase_ns": phases,
            "phase_share": shares,
        }
        out.update(self.counts())
        if self.plan_ns and self.events:
            out["plan_events_per_s"] = self.events / (self.plan_ns / 1e9)
        return out


class Span:
    """One completed wall-clock span."""

    __slots__ = ("name", "category", "path", "start_ns", "end_ns", "counters")

    def __init__(
        self,
        name: str,
        category: str,
        path: Tuple[str, ...],
        start_ns: int,
        end_ns: int,
        counters: Dict[str, int],
    ) -> None:
        self.name = name
        self.category = category
        self.path = path
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.counters = counters

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_payload(self) -> Dict:
        return {
            "name": self.name,
            "cat": self.category,
            "path": list(self.path),
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "Span":
        return cls(
            name=payload["name"],
            category=payload.get("cat", "obs"),
            path=tuple(payload.get("path", (payload["name"],))),
            start_ns=int(payload["start_ns"]),
            end_ns=int(payload["end_ns"]),
            counters=dict(payload.get("counters", {})),
        )


class SpanProfiler:
    """Record nesting wall-clock spans with counter deltas.

    Spans are recorded on completion (parents close after children, so
    ``spans`` is in end-time order); the open-span stack gives each
    record its full root-down ``path`` for folded-stack export.
    """

    def __init__(self, registry: Optional[CounterRegistry] = None) -> None:
        self.registry = registry
        self.spans: List[Span] = []
        self._stack: List[str] = []
        self.epoch_ns = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, category: str = "obs") -> Iterator[None]:
        self._stack.append(name)
        path = tuple(self._stack)
        before = self.registry.snapshot() if self.registry is not None else None
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            deltas = (
                self.registry.diff(before) if before is not None else {}
            )
            self._stack.pop()
            self.spans.append(Span(name, category, path, start, end, deltas))

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def to_perfetto_slices(self, pid: int = 1, tid: int = 1) -> List[Dict]:
        """Complete (``ph: "X"``) slices, microseconds from the epoch."""
        slices: List[Dict] = []
        for span in sorted(self.spans, key=lambda s: (s.start_ns, -s.end_ns)):
            args: Dict = {}
            if span.counters:
                args["counters"] = dict(span.counters)
            slices.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "cat": span.category,
                    "name": span.name,
                    "ts": (span.start_ns - self.epoch_ns) / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "args": args,
                }
            )
        return slices

    def folded_stacks(self) -> Dict[str, int]:
        """Semicolon-joined stacks -> *self* nanoseconds.

        Self time is the span's duration minus its direct children, so
        the folded output sums to the root durations (the flamegraph
        invariant).  Entries that round to zero are kept — a stack that
        happened should appear even if it was cheap.
        """
        child_ns: Dict[Tuple[str, ...], int] = {}
        for span in self.spans:
            if len(span.path) > 1:
                parent = span.path[:-1]
                child_ns[parent] = child_ns.get(parent, 0) + span.duration_ns
        folded: Dict[str, int] = {}
        for span in self.spans:
            self_ns = span.duration_ns - child_ns.get(span.path, 0)
            key = ";".join(span.path)
            folded[key] = folded.get(key, 0) + max(self_ns, 0)
        return dict(sorted(folded.items()))

    def to_payload(self) -> List[Dict]:
        return [span.to_payload() for span in self.spans]

    def load(self, payload: List[Dict]) -> "SpanProfiler":
        for item in payload:
            self.spans.append(Span.from_payload(item))
        return self


def folded_to_lines(folded: Dict[str, int], unit_ns: int = 1000) -> List[str]:
    """Render folded stacks in the ``stack value`` flamegraph.pl format.

    Values are scaled from nanoseconds to ``unit_ns`` units (default
    microseconds) and rounded; zero-valued lines are kept at 0 so the
    stack inventory stays complete.
    """
    return [
        f"{stack} {round(ns / unit_ns)}" for stack, ns in sorted(folded.items())
    ]


# ----------------------------------------------------------------------
# The per-process session
# ----------------------------------------------------------------------
class ObsSession:
    """Everything one process records: counters, spans, kernel phases.

    A session is *installed* (module-global) rather than passed around
    because the things that report into it — ``TimeCacheSystem``
    construction deep inside a sweep job, ``access_batch`` — are far
    from the code that decides observability is on.  Constructing a
    system while a session is installed auto-attaches the kernel phase
    accumulator; nothing else touches the hot paths.
    """

    def __init__(self, label: str = "main") -> None:
        self.label = label
        self.counters = CounterRegistry()
        self.profiler = SpanProfiler(self.counters)
        # Wall/perf anchor pair, captured together: maps this process's
        # perf_counter_ns axis onto the wall clock, which is how the
        # shard merge aligns spans recorded in different processes.
        self.wall_anchor_ns = time.time_ns()
        self.profiler.epoch_ns = time.perf_counter_ns()
        self.kernel_phases = PhaseAccumulator()
        self.meta: Dict[str, object] = {}
        self._systems: List["TimeCacheSystem"] = []

    def span(self, name: str, category: str = "obs"):
        return self.profiler.span(name, category)

    def attach_system(self, system: "TimeCacheSystem") -> None:
        """Point the hierarchy's kernel profiler at this session.

        The system is also retained so :meth:`finalize` can fold its
        engine-equivalent stats into the counters — sweep jobs build
        systems deep inside library code and never hand them back.
        """
        system.hierarchy.kernel_profiler = self.kernel_phases
        self._systems.append(system)

    def finalize(self) -> None:
        """Absorb the stats of every attached system (idempotent-ish:
        each system is absorbed once, at the first finalize after its
        attachment)."""
        for system in self._systems:
            self.absorb_stats(system)
        self._systems.clear()

    def absorb_stats(self, system: "TimeCacheSystem", prefix: str = "sim.") -> None:
        """Fold a finished system's engine-equivalent stats snapshot in,
        plus each cache's per-set-group s-bit census (same dotted tree on
        both engines — ``Cache``/``FastCache.counters_into``)."""
        from repro.obs.counters import cache_sbit_census

        snapshot = system.stats_snapshot()
        for key in sorted(snapshot):
            value = snapshot[key]
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            self.counters.slot(prefix + key).value += value
        hierarchy = system.hierarchy
        caches = list(hierarchy.l1i) + list(hierarchy.l1d) + [hierarchy.llc]
        for cache in caches:
            cache_sbit_census(
                cache, self.counters, f"{prefix}{cache.name}.", set_groups=4
            )

    def kernel_folded(self) -> Dict[str, int]:
        """The kernel phase breakdown as a folded-stack fragment."""
        return {
            f"kernel;{phase}": ns
            for phase, ns in self.kernel_phases.phase_ns().items()
            if ns
        }

    def to_payload(self) -> Dict:
        """The shard body (see :mod:`repro.obs.shards`)."""
        self.finalize()
        payload: Dict = {
            "label": self.label,
            "counters": self.counters.snapshot(),
            "kernel_phases": self.kernel_phases.to_payload(),
            "spans": self.profiler.to_payload(),
            "span_epoch_ns": self.profiler.epoch_ns,
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload


_ACTIVE: Optional[ObsSession] = None


def install_session(session: Optional[ObsSession]) -> Optional[ObsSession]:
    """Install (or clear, with ``None``) the process-global session.

    Returns the previously installed session so callers can restore it
    (``finally: install_session(prev)``).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = session
    return previous


def current_session() -> Optional[ObsSession]:
    return _ACTIVE


@contextmanager
def session_scope(session: ObsSession) -> Iterator[ObsSession]:
    """Install ``session`` for the duration of the block."""
    previous = install_session(session)
    try:
        yield session
    finally:
        install_session(previous)
