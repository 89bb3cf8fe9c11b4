"""Wall-clock span instrumentation: where do the *host* cycles go.

The event tracer records *simulated* time — right for security
analysis, useless for answering "where does the simulator spend its
wall-clock".  This module adds the host-side view:

* :class:`PhaseAccumulator` — plain-int nanosecond cells for batched
  accesses.  Neither engine has a vectorized ``access_batch``: each
  runs a scalar loop (the fast engine's serves plain L1 hits without a
  port call), so only the ``fallback`` cell and ``scalar_accesses``
  move; the classify / plan / rehearse / apply cells and the window
  counts stay in every payload and read 0.  ``access_batch`` reads one
  attribute per batch; when no profiler is installed it takes its
  ``is None`` branch and pays nothing.
* :class:`SpanProfiler` — nesting wall-clock spans (``with
  profiler.span("sweep.job")``) that fold into flamegraph stacks
  (``repro obs flame``); :mod:`repro.obs.shards` lays them out as
  Perfetto slices.
* :class:`ObsSession` — the per-process bundle (spans, kernel phases,
  and a :class:`~repro.common.stats.StatGroup` of the finished systems'
  counters) with a module-global install point, so worker processes and
  ``TimeCacheSystem`` construction can find the active session without
  threading it through every constructor.

Times are ``time.perf_counter_ns`` nanoseconds end to end; exports
convert to trace-format microseconds at the edge.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro.common.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.timecache import TimeCacheSystem

__all__ = [
    "KERNEL_PHASES",
    "ObsSession",
    "PhaseAccumulator",
    "Span",
    "SpanProfiler",
    "cache_sbit_census",
    "current_session",
    "install_session",
    "folded_to_lines",
    "merge_counts",
]

#: the phase cells of every kernel-phase payload; only ``fallback`` (an
#: engine's scalar ``access_batch`` loop) is ever non-zero
KERNEL_PHASES = ("classify", "plan", "rehearse", "apply", "fallback")


class PhaseAccumulator:
    """Nanosecond + event tallies for batched accesses.

    All slots are plain ints so the ``prof.fallback_ns += dt`` bumps
    never allocate.  :meth:`MemoryHierarchy.access_batch` adds its
    wall time to ``fallback_ns`` and the number of accesses that ran to
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
        for name in self.__slots__:
            setattr(self, name, 0)

    def phase_ns(self) -> Dict[str, int]:
        return {phase: getattr(self, f"{phase}_ns") for phase in KERNEL_PHASES}

    def to_payload(self) -> Dict[str, int]:
        """Flat JSON-safe dict; the shard merge sums these key-wise."""
        return {name: getattr(self, name) for name in self.__slots__}

    def load(self, payload: Dict[str, int]) -> "PhaseAccumulator":
        """Add a :meth:`to_payload` dict in (missing keys count 0)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + int(payload.get(name, 0)))
        return self


class Span(NamedTuple):
    """One completed wall-clock span."""

    name: str
    category: str
    path: Tuple[str, ...]
    start_ns: int
    end_ns: int

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
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "Span":
        # Shards written before spans lost their counter deltas carry an
        # empty "counters" field; it is ignored.
        return cls(
            name=payload["name"],
            category=payload.get("cat", "obs"),
            path=tuple(payload.get("path", (payload["name"],))),
            start_ns=int(payload["start_ns"]),
            end_ns=int(payload["end_ns"]),
        )


class SpanProfiler:
    """Record nesting wall-clock spans.

    Spans are recorded on completion (parents close after children, so
    ``spans`` is in end-time order); the open-span stack gives each
    record its full root-down ``path`` for folded-stack export.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str, category: str = "obs") -> Iterator[None]:
        self._stack.append(name)
        path = tuple(self._stack)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(name, category, path, start, end))

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
# Counters: the s-bit census and the shard-merge sum
# ----------------------------------------------------------------------
#: set groups per cache in the s-bit census
CENSUS_SET_GROUPS = 4


def cache_sbit_census(cache, counters: StatGroup) -> None:
    """Add a cache's per-set-group s-bit and occupancy census to
    ``counters``, as ``<cache>.set_group.<g>.sbits_set`` and
    ``<cache>.set_group.<g>.valid_lines``.

    Duck-typed over both engines: the object :class:`~repro.memsys.cache.Cache`
    and the struct-of-arrays ``FastCache`` share the positional ``sbits``
    bitmask and ``valid`` arrays plus ``contexts``/``ctx_column()``, so
    the census is engine-equivalent.  It walks the arrays once, when a
    finished system is absorbed, never on the access path.
    """
    sbits = cache.sbits
    per_set = np.zeros(cache.num_sets, dtype=np.int64)
    for ctx in cache.contexts:
        col = np.int64(cache.ctx_column(ctx))
        per_set += ((sbits >> col) & 1).sum(axis=1)
    valid_per_set = cache.valid.sum(axis=1)
    groups = min(CENSUS_SET_GROUPS, cache.num_sets)
    bounds = [round(g * cache.num_sets / groups) for g in range(groups + 1)]
    for g in range(groups):
        lo, hi = bounds[g], bounds[g + 1]
        prefix = f"{cache.name}.set_group.{g}."
        counters.counter(prefix + "sbits_set").add(int(per_set[lo:hi].sum()))
        counters.counter(prefix + "valid_lines").add(
            int(valid_per_set[lo:hi].sum())
        )


def merge_counts(*counts: Mapping[str, int]) -> Dict[str, int]:
    """Sum several count dicts key-wise, sorted by key (the shard-merge
    primitive)."""
    out: Dict[str, int] = {}
    for mapping in counts:
        for name, value in mapping.items():
            out[name] = out.get(name, 0) + int(value)
    return dict(sorted(out.items()))


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
        #: the attached systems' counters, ``sim.<stats key>``; filled by
        #: :meth:`finalize`
        self.counters = StatGroup("sim")
        self.profiler = SpanProfiler()
        # Wall/perf anchor pair, captured together: maps this process's
        # perf_counter_ns axis onto the wall clock, which is how the
        # shard merge aligns spans recorded in different processes.
        self.wall_anchor_ns = time.time_ns()
        self.perf_anchor_ns = time.perf_counter_ns()
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

    def absorb_stats(self, system: "TimeCacheSystem") -> None:
        """Add a finished system's ``stats_snapshot()`` (identical on both
        engines) to :attr:`counters`, plus each cache's s-bit census."""
        counters = self.counters
        for key, value in system.stats_snapshot().items():
            counters.counter(key).add(value)
        hierarchy = system.hierarchy
        for cache in [*hierarchy.l1i, *hierarchy.l1d, hierarchy.llc]:
            cache_sbit_census(cache, counters)

    def to_payload(self) -> Dict:
        """The shard body (see :mod:`repro.obs.shards`)."""
        self.finalize()
        payload: Dict = {
            "label": self.label,
            "counters": self.counters.snapshot(),
            "kernel_phases": self.kernel_phases.to_payload(),
            "spans": self.profiler.to_payload(),
            "span_epoch_ns": self.perf_anchor_ns,
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
