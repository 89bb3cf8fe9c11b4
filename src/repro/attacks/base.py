"""Shared scaffolding for the attack programs.

Every attack in the paper has the same skeleton: an attacker process and a
victim process (or thread) that share some physical memory and some level
of cache, with the attacker classifying timed accesses into "hit" and
"miss" latency classes.  :class:`SharedArrayScenario` builds that skeleton
on a :class:`~repro.os.kernel.Kernel`; :func:`hit_threshold` derives the
hit/miss classification boundary from the configured latencies, mirroring
how the paper measures cached/uncached access times on the real machine
to pick its threshold.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, List, Optional

from repro.common.config import SimConfig
from repro.cpu.program import Program
from repro.obs.tracer import Tracer
from repro.os.kernel import Kernel
from repro.os.process import Process, Task
from repro.os.vm import Segment


def hit_threshold(config: SimConfig) -> int:
    """Latency below which an access is classified as a cache hit.

    Picked between the slowest cache-hit path (an LLC hit reached through
    an L1 miss, plus a remote transfer) and the DRAM path, the same way
    the paper calibrates its threshold from measured cached/uncached
    access times.
    """
    lat = config.hierarchy.latency
    slowest_hit = lat.l1_hit + lat.l2_hit + lat.remote_transfer
    return (slowest_hit + lat.dram) // 2


#: folded-AUC separation above which :meth:`AttackOutcome.verdict` calls
#: the channel leaky.  Deliberately below the tournament's 0.6 cutoff:
#: a single-run verdict has no bootstrap interval backing it, so it errs
#: toward flagging (it replaces the old "any hit at all" rule, which was
#: an implicit cutoff of barely-above-0.5).
DEFAULT_AUC_LEAK_CUTOFF = 0.55


@dataclass
class AttackOutcome:
    """Generic result of a probe-based attack run.

    ``probe_hits``/``probe_total`` count probes classified as hits; a
    reuse attack "succeeds" when hits reveal victim activity, so the
    defended system should drive ``probe_hits`` to zero.  ``latencies``
    keeps the raw measurements for distribution checks, and attacks that
    run a victim-inactive control arm record its measurements in
    ``control_latencies`` so the leak verdict can compare the two
    distributions instead of trusting a threshold.
    """

    probe_hits: int
    probe_total: int
    latencies: List[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    control_latencies: List[int] = field(default_factory=list)

    @property
    def hit_fraction(self) -> float:
        if self.probe_total == 0:
            return 0.0
        return self.probe_hits / self.probe_total

    def leak_auc(self) -> float:
        """Folded AUC separating this run from a victim-inactive null.

        With a recorded control arm this is the real two-sample statistic
        (:func:`repro.security.stats.auc_separation` between
        ``control_latencies`` and ``latencies``).  Without one, the null
        is the implied all-miss distribution a defended run should
        produce, against which a run whose hit fraction is ``h``
        separates with AUC ``0.5 + h/2`` — hits sit strictly below the
        threshold, misses at or above it, ties split — so the old
        threshold counts still map onto the same 0.5–1.0 scale.
        """
        if self.control_latencies:
            from repro.security.stats import auc_separation

            return auc_separation(self.control_latencies, self.latencies)
        if self.probe_total == 0:
            return 0.5
        return 0.5 * (1.0 + self.hit_fraction)

    def verdict(self, cutoff: float = DEFAULT_AUC_LEAK_CUTOFF) -> bool:
        """Statistical leak verdict: does :meth:`leak_auc` clear ``cutoff``?"""
        return self.leak_auc() > cutoff


class SharedArrayScenario:
    """An attacker and a victim process sharing one mapped segment.

    The segment models the shared software stack: a memory-mapped file, a
    shared library, or deduplicated pages.  Both processes map it at the
    same virtual base (convenient, not required — the caches are
    physically indexed).
    """

    SHARED_BASE = 0x100000

    def __init__(
        self,
        config: SimConfig,
        shared_lines: int = 256,
        attacker_ctx: int = 0,
        victim_ctx: int = 0,
        tracer: Optional[Tracer] = None,
        sample_every: int = 0,
    ) -> None:
        self.config = config
        self.kernel = Kernel(config)
        #: optional observability: an enabled tracer hooks the kernel's
        #: system and scheduler, and phase() emits attack-phase spans;
        #: ``sample_every`` > 0 additionally attaches a MetricsSampler at
        #: that cadence (simulated cycles), emitting metrics.sample events.
        self.tracer = tracer
        self.sampler = None
        if tracer is not None and tracer.enabled:
            tracer.attach_kernel(self.kernel)
            if sample_every > 0:
                from repro.obs.sampler import MetricsSampler

                self.sampler = MetricsSampler(
                    self.kernel.system, sample_every, tracer
                ).attach()
        self.line_bytes = config.hierarchy.line_bytes
        self.shared_lines = shared_lines
        self.attacker_ctx = attacker_ctx
        self.victim_ctx = victim_ctx
        self.segment: Segment = self.kernel.phys.allocate_segment(
            "shared", shared_lines * self.line_bytes
        )
        self.attacker_proc: Process = self.kernel.create_process("attacker")
        self.victim_proc: Process = self.kernel.create_process("victim")
        self.attacker_proc.address_space.map_segment(self.segment, self.SHARED_BASE)
        self.victim_proc.address_space.map_segment(self.segment, self.SHARED_BASE)
        self.threshold = hit_threshold(config)

    def line_vaddr(self, index: int) -> int:
        """Virtual address of the ``index``-th shared line (both spaces)."""
        if not 0 <= index < self.shared_lines:
            raise ValueError(f"shared line index {index} out of range")
        return self.SHARED_BASE + index * self.line_bytes

    def launch(
        self,
        attacker: Program,
        victim: Program,
        extra_victims: Optional[List[Program]] = None,
    ) -> "SharedArrayScenario":
        """Spawn and submit the attacker and victim tasks."""
        self.attacker_task: Task = self.attacker_proc.spawn(
            attacker, affinity=self.attacker_ctx
        )
        self.victim_task: Task = self.victim_proc.spawn(
            victim, affinity=self.victim_ctx
        )
        self.kernel.submit(self.attacker_task)
        self.kernel.submit(self.victim_task)
        for i, program in enumerate(extra_victims or []):
            task = self.victim_proc.spawn(program, affinity=self.victim_ctx)
            self.kernel.submit(task)
        return self

    def run(self, **kwargs: object) -> None:
        self.kernel.run(**kwargs)

    def phase(self, name: str) -> ContextManager[None]:
        """An attack-phase span (flush, wait, probe) in simulated time.

        Use inside a program generator: the begin/end events are emitted
        as the block is entered and left during stepping, so they carry
        the simulated timestamps of the phase boundaries.  A no-op
        context when no (enabled) tracer is attached.
        """
        if self.tracer is not None and self.tracer.enabled:
            return self.tracer.span(name, src="attack", ctx=self.attacker_ctx)
        return nullcontext()

    def classify(self, latency: int) -> bool:
        """True when the latency reads as a cache hit."""
        return latency < self.threshold
