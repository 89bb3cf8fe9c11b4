"""Seeded fault-injection campaigns with detection accounting.

A campaign runs many short, deterministic TimeCache simulations; each run
injects exactly one fault from one :class:`~repro.robustness.faults`
model at a randomly chosen context switch, with the
:class:`~repro.robustness.invariants.InvariantChecker` watching every
access and every switch.  Each injection is classified:

* **detected** — the checker raised
  :class:`~repro.common.errors.InvariantViolation`, during the run or in
  the final audit;
* **benign** — the run completed and the final whole-array audit is
  clean: the fault either removed visibility (always safe under
  TimeCache's fail-toward-misses design) or hit state that no later
  access depended on;
* **silent** — anything else.  A robust defense/checker pair has zero
  silent outcomes, and the ``repro faults`` CLI exits non-zero otherwise.

The driver deliberately runs a *single-core* machine with *16-bit*
timestamps.  Single-core because on a multi-core machine a slot refilled
in the same cycle as a preemption legitimately keeps its s-bit (the
comparator predicate ``Tc > Ts`` is strict), which the checker's shadow
model would miscount.  16-bit because the width must be wide enough that
most save/restore gaps stay within one epoch (narrower widths make every
switch take the Section VI-C conservative-reset path, so the comparator —
the target of the dropped-clear model — never runs), yet narrow enough
that a run still crosses epoch boundaries occasionally, exercising the
rollover path too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from repro.common.config import (
    CacheConfig,
    HierarchyConfig,
    SimConfig,
    TimeCacheConfig,
)
from repro.common.errors import InvariantViolation
from repro.common.rng import DeterministicRng
from repro.common.units import KIB
from repro.core.timecache import TimeCacheSystem
from repro.memsys.hierarchy import AccessKind
from repro.robustness.faults import (
    ALL_FAULT_MODELS,
    FaultEvent,
    FaultInjector,
    FaultModel,
)
from repro.robustness.invariants import InvariantChecker

#: context-switch rounds per injection run; the fault lands somewhere in
#: the middle so both pre-fault warmup and post-fault switches exist
ROUNDS = 8
#: accesses each task performs per scheduling round
ACCESSES_PER_ROUND = 40


def campaign_config(seed: int = 0) -> SimConfig:
    """The tiny single-core machine every injection run simulates."""
    cfg = SimConfig(
        hierarchy=HierarchyConfig(
            num_cores=1,
            threads_per_core=1,
            l1i=CacheConfig("L1I", 1 * KIB, ways=4),
            l1d=CacheConfig("L1D", 1 * KIB, ways=4),
            llc=CacheConfig("LLC", 16 * KIB, ways=8),
        ),
        timecache=TimeCacheConfig(
            enabled=True,
            timestamp_bits=16,  # epochs short enough to roll over in-run
            sbit_dma_cycles=20,
        ),
        seed=seed,
    )
    cfg.validate()
    return cfg


@dataclass
class InjectionOutcome:
    """One run of the campaign: the fault and how it was resolved."""

    model: str
    seed: int
    outcome: str  # "detected" | "benign" | "silent"
    event: Optional[FaultEvent] = None
    violation: str = ""


@dataclass
class DetectionMatrix:
    """Per-model detection accounting for a whole campaign."""

    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    outcomes: List[InjectionOutcome] = field(default_factory=list)

    def record(self, outcome: InjectionOutcome) -> None:
        row = self.counts.setdefault(
            outcome.model, {"detected": 0, "benign": 0, "silent": 0}
        )
        row[outcome.outcome] += 1
        self.outcomes.append(outcome)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def silent_total(self) -> int:
        return sum(row["silent"] for row in self.counts.values())

    def render(self) -> str:
        """ASCII detection matrix, one row per fault model."""
        header = f"{'fault model':<28} {'detected':>9} {'benign':>7} {'silent':>7}"
        lines = [header, "-" * len(header)]
        for model in sorted(self.counts):
            row = self.counts[model]
            lines.append(
                f"{model:<28} {row['detected']:>9} {row['benign']:>7} "
                f"{row['silent']:>7}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<28} "
            f"{sum(r['detected'] for r in self.counts.values()):>9} "
            f"{sum(r['benign'] for r in self.counts.values()):>7} "
            f"{self.silent_total:>7}"
        )
        return "\n".join(lines)


def _drive(
    system: TimeCacheSystem,
    rng: DeterministicRng,
    rounds: int = ROUNDS,
    accesses_per_round: int = ACCESSES_PER_ROUND,
) -> None:
    """A deterministic two-task ping-pong on hardware context 0.

    Tasks 1 and 2 alternate via real ``context_switch`` calls (so the
    save/comparator/restore protocol runs) and touch a mix of private and
    shared lines with occasional flushes.  The pools exceed the L1s so
    refill pressure exists — the precondition for comparator clears, and
    therefore for dropped-clear and forged-Ts faults to matter.
    """
    line_bytes = system.config.hierarchy.line_bytes
    shared = [0x40000 + i * line_bytes for i in range(24)]
    private = {
        1: [0x10000 + i * line_bytes for i in range(48)],
        2: [0x20000 + i * line_bytes for i in range(48)],
    }
    now = 0
    tasks = (1, 2)
    for round_no in range(rounds):
        incoming = tasks[round_no % 2]
        outgoing: Optional[int] = tasks[(round_no + 1) % 2] if round_no else None
        cost = system.context_switch(outgoing, incoming, ctx=0, now=now)
        now += 50 + cost.total
        for _ in range(accesses_per_round):
            pool = shared if rng.random() < 0.3 else private[incoming]
            addr = rng.choice(pool)
            roll = rng.random()
            if roll < 0.05:
                result = system.flush(0, addr, now=now)
            elif roll < 0.15:
                result = system.store(0, addr, now=now)
            else:
                kind = AccessKind.IFETCH if rng.random() < 0.2 else AccessKind.LOAD
                result = system.access(0, addr, kind, now=now)
            now += max(1, result.latency)


def run_single_injection(
    model_cls: Type[FaultModel], seed: int
) -> InjectionOutcome:
    """One simulation, one fault, one verdict."""
    rng = DeterministicRng(seed)
    system = TimeCacheSystem(campaign_config(seed=seed))
    injector = FaultInjector(
        system,
        model_cls(),
        rng.fork("fault"),
        # Middle of the run: warm caches before, switches + audit after.
        at_switch=rng.fork("trigger").randint(2, ROUNDS - 2),
    ).attach()
    checker = InvariantChecker(system).attach()
    try:
        _drive(system, rng.fork("drive"))
        checker.scan_all()  # final audit
    except InvariantViolation as violation:
        return InjectionOutcome(
            model=model_cls.name,
            seed=seed,
            outcome="detected",
            event=injector.events[0] if injector.events else None,
            violation=str(violation),
        )
    if not injector.fired:
        # The trigger switch never happened — a campaign bug, not a
        # checker verdict; surface it as silent so it cannot hide.
        return InjectionOutcome(model=model_cls.name, seed=seed, outcome="silent")
    return InjectionOutcome(
        model=model_cls.name,
        seed=seed,
        outcome="benign",
        event=injector.events[0],
    )


def run_injection_uncaught(model_name: str, seed: int) -> str:
    """One injection run that lets :class:`InvariantViolation` escape.

    Picklable, module-level, and deliberately *not* wrapped in the
    detected/benign classification: the sweep-executor tests run it in
    a worker process (and in-process) to prove a violation raised in a
    job comes back as a recorded failure rather than being swallowed.
    Returns ``"clean"`` when the drive and final audit pass.
    """
    by_name = {cls.name: cls for cls in ALL_FAULT_MODELS}
    try:
        model_cls = by_name[model_name]
    except KeyError:
        raise ValueError(
            f"unknown fault model {model_name!r}; known: {sorted(by_name)}"
        ) from None
    rng = DeterministicRng(seed)
    system = TimeCacheSystem(campaign_config(seed=seed))
    FaultInjector(
        system,
        model_cls(),
        rng.fork("fault"),
        at_switch=rng.fork("trigger").randint(2, ROUNDS - 2),
    ).attach()
    checker = InvariantChecker(system).attach()
    _drive(system, rng.fork("drive"))
    checker.scan_all()
    return "clean"


def run_fault_campaign(
    per_model: int = 30, seed: int = 0xFA017
) -> DetectionMatrix:
    """``per_model`` seeded injections for every fault model.

    The default (30 x 4 models = 120 injections) satisfies the
    acceptance bar of >= 100; ``repro faults --quick`` drops to 3 per
    model for CI smoke runs.
    """
    matrix = DetectionMatrix()
    base = DeterministicRng(seed)
    for model_cls in ALL_FAULT_MODELS:
        stream = base.fork(model_cls.name)
        for i in range(per_model):
            run_seed = stream.randint(0, 2**31 - 1) ^ i
            matrix.record(run_single_injection(model_cls, run_seed))
    return matrix
