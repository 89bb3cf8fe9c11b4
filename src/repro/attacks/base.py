"""Shared scaffolding for the attack programs.

Every attack in the paper has the same skeleton: an attacker process and a
victim process (or thread) that share some physical memory and some level
of cache, with the attacker classifying timed accesses into "hit" and
"miss" latency classes.  :class:`SharedArrayScenario` is the one way an
attack stages that skeleton: it builds the machine (a
:class:`~repro.os.kernel.Kernel`, one shared segment mapped into both
processes, their tasks), times an access (:meth:`~SharedArrayScenario.timed`),
finds the attacker's lines congruent with a target in the LLC
(:meth:`~SharedArrayScenario.congruent_lines`) and classifies a latency
against :func:`hit_threshold`, which derives the hit/miss boundary from
the configured latencies, mirroring how the paper measures
cached/uncached access times on the real machine to pick its threshold.

Attack programs close over values the scenario hands out — addresses,
the threshold, lists — never over the scenario or one of its bound
methods.  The scenario holds the kernel, the kernel the tasks and their
programs: a program that reached back to the scenario would put a
finished run in a reference cycle, left to the cyclic collector.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Generator, List, Optional, Tuple

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.cpu.isa import Fence, Op, Rdtsc
from repro.cpu.program import Program
from repro.obs.tracer import Tracer
from repro.os.kernel import Kernel
from repro.os.process import Process, Task


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


#: cycles a timed probe's window spends outside the timed op: the two
#: fences and the closing rdtsc (:meth:`SharedArrayScenario.timed`)
PROBE_OVERHEAD = 3

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
    keeps the raw measurements for distribution checks (the tournament
    scores them against a victim-inactive run of the same attack).
    """

    probe_hits: int
    probe_total: int
    latencies: List[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def hit_fraction(self) -> float:
        if self.probe_total == 0:
            return 0.0
        return self.probe_hits / self.probe_total

    def leak_auc(self) -> float:
        """Folded AUC separating this run from a victim-inactive null.

        The null is the implied all-miss distribution a defended run
        should produce, against which a run whose hit fraction is ``h``
        separates with AUC ``0.5 + h/2`` — hits sit strictly below the
        threshold, misses at or above it, ties split — so threshold
        counts map onto the tournament's 0.5–1.0 scale.
        """
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
    physically indexed); :attr:`lines` holds its lines' addresses.
    """

    SHARED_BASE = 0x100000
    #: where :meth:`congruent_lines` maps the attacker's private pool
    POOL_BASE = 0x4000000

    def __init__(
        self,
        config: SimConfig,
        shared_lines: int = 256,
        attacker_ctx: int = 0,
        victim_ctx: int = 0,
        tracer: Optional[Tracer] = None,
        sample_every: int = 0,
    ) -> None:
        self.kernel = Kernel(config)
        #: optional observability: an enabled tracer hooks the kernel's
        #: system and scheduler, and :attr:`phase` emits attack-phase
        #: spans; ``sample_every`` > 0 additionally attaches a
        #: MetricsSampler at that cadence (simulated cycles), emitting
        #: metrics.sample events.
        self.sampler = None
        if tracer is not None and tracer.enabled:
            tracer.attach_kernel(self.kernel)
            if sample_every > 0:
                from repro.obs.sampler import MetricsSampler

                self.sampler = MetricsSampler(
                    self.kernel.system, sample_every, tracer
                ).attach()
        self.line_bytes = config.hierarchy.line_bytes
        self.attacker_ctx = attacker_ctx
        self.victim_ctx = victim_ctx
        segment = self.kernel.phys.allocate_segment(
            "shared", shared_lines * self.line_bytes
        )
        self.attacker_proc: Process = self.kernel.create_process("attacker")
        self.victim_proc: Process = self.kernel.create_process("victim")
        self.attacker_proc.address_space.map_segment(segment, self.SHARED_BASE)
        self.victim_proc.address_space.map_segment(segment, self.SHARED_BASE)
        #: virtual address of each shared line, in both address spaces
        self.lines: List[int] = [
            self.SHARED_BASE + i * self.line_bytes for i in range(shared_lines)
        ]
        self.threshold = hit_threshold(config)

        def phase(name: str) -> ContextManager[None]:
            if tracer is not None and tracer.enabled:
                return tracer.span(name, src="attack", ctx=attacker_ctx)
            return nullcontext()

        #: an attack-phase span (flush, wait, probe) in simulated time.
        #: Use inside a program generator: the begin/end events are
        #: emitted as the block is entered and left during stepping, so
        #: they carry the simulated timestamps of the phase boundaries.
        #: A no-op context when no (enabled) tracer is attached.  A
        #: closure over the tracer, not a bound method, so a program may
        #: hold it.
        self.phase = phase

    def launch(self, attacker: Program, victim: Program) -> None:
        """Spawn and submit the attacker task, then the victim task."""
        self.attacker_task: Task = self.attacker_proc.spawn(
            attacker, affinity=self.attacker_ctx
        )
        self.victim_task: Task = self.victim_proc.spawn(
            victim, affinity=self.victim_ctx
        )
        self.kernel.submit(self.attacker_task)
        self.kernel.submit(self.victim_task)

    def run(self, **kwargs: object) -> None:
        """Run the kernel (``max_steps``, ``stop_when`` pass through)."""
        self.kernel.run(**kwargs)

    def classify(self, latency: int) -> bool:
        """True when the latency reads as a cache hit."""
        return latency < self.threshold

    @staticmethod
    def timed(op: Op) -> Generator[Op, object, Tuple[int, int]]:
        """The rdtsc-fenced measurement stanza of the real attacks.

        ``latency, stamp = yield from SharedArrayScenario.timed(op)``
        yields rdtsc, fence, ``op``, fence, rdtsc and returns the window
        less :data:`PROBE_OVERHEAD` and the closing rdtsc stamp.  Static,
        so a program times a probe without holding a scenario.
        """
        t0 = yield Rdtsc()
        yield Fence()
        yield op
        yield Fence()
        t1 = yield Rdtsc()
        return t1 - t0 - PROBE_OVERHEAD, t1

    def congruent_lines(
        self, target_paddr: int, count: int, lines_per_set: int
    ) -> List[int]:
        """``count`` attacker addresses in the LLC set of ``target_paddr``.

        The congruence search a real attacker runs with large pages or
        timing probes: a private pool of ``lines_per_set`` lines per LLC
        set, mapped into the attacker at :attr:`POOL_BASE`, scanned in
        address order.  The pool is physically contiguous, so every set
        gets exactly ``lines_per_set`` of its lines; a ``count`` above
        that raises :class:`SimulationError`.
        """
        llc = self.kernel.system.hierarchy.llc
        shift = self.line_bytes.bit_length() - 1
        target_set = llc.set_index(target_paddr >> shift)
        pool = self.kernel.phys.allocate_segment(
            "eviction_pool", llc.num_sets * lines_per_set * self.line_bytes
        )
        space = self.attacker_proc.address_space
        space.map_segment(pool, self.POOL_BASE)
        found: List[int] = []
        end = self.POOL_BASE + pool.size
        for vaddr in range(self.POOL_BASE, end, self.line_bytes):
            if llc.set_index(space.translate(vaddr) >> shift) == target_set:
                found.append(vaddr)
                if len(found) == count:
                    return found
        raise SimulationError(
            f"could only find {len(found)}/{count} congruent lines"
        )
