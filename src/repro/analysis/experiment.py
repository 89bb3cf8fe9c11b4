"""Run one workload under a config's defense and its control
(``config.baseline()``, the undefended machine), compare.

The paper's primary metrics, computed here for every experiment:

* **normalized execution time** — cycles under the defense / cycles
  without, over the identical instruction stream (Figures 7, 9a, 10, and
  the tournament's overhead cells);
* **LLC MPKI** baseline vs TimeCache (Table II);
* **first-access MPKI per cache level** (Figures 8 and 9b);
* context-switch bookkeeping share of the added cycles (Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.common.config import SimConfig
from repro.common.units import mpki
from repro.os.kernel import Kernel, RunSummary
from repro.workloads.generator import Tapes
from repro.workloads.parsec import build_parsec_workload
from repro.workloads.spec import build_spec_pair


@dataclass(frozen=True)
class LevelMpki:
    """Per-cache-level miss statistics for one run."""

    name: str
    misses: float
    first_access_misses: float

    @property
    def total(self) -> float:
        return self.misses + self.first_access_misses


@dataclass
class SingleRun:
    """Raw outputs of one simulation (one configuration)."""

    cycles: int
    instructions: int
    context_switches: int
    level_mpki: Dict[str, LevelMpki] = field(default_factory=dict)
    switch_bookkeeping_cycles: int = 0
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def llc_mpki(self) -> float:
        level = self.level_mpki.get("LLC")
        return level.total if level else 0.0

    @property
    def llc_first_access_mpki(self) -> float:
        level = self.level_mpki.get("LLC")
        return level.first_access_misses if level else 0.0


@dataclass
class ExperimentResult:
    """Defended-vs-control comparison for one workload: ``baseline`` is
    the control run, ``timecache`` the run under the config's defense."""

    label: str
    baseline: SingleRun
    timecache: SingleRun

    @property
    def normalized_time(self) -> float:
        """Cycles under the defense / on the control (Figure 7's metric)."""
        if self.baseline.cycles == 0:
            return 1.0
        return self.timecache.cycles / self.baseline.cycles

    @property
    def overhead(self) -> float:
        return self.normalized_time - 1.0

    @property
    def bookkeeping_fraction(self) -> float:
        """Share of total TimeCache cycles spent on s-bit save/restore —
        the paper reports ~0.02% of runtime."""
        if self.timecache.cycles == 0:
            return 0.0
        return self.timecache.switch_bookkeeping_cycles / self.timecache.cycles


def _collect_run(kernel: Kernel, summary: RunSummary) -> SingleRun:
    hierarchy = kernel.system.hierarchy
    instructions = summary.total_instructions
    levels: Dict[str, LevelMpki] = {}

    def merge(name: str, caches) -> None:
        # Demand misses exclude cold (compulsory) misses: at the model's
        # scaled instruction counts the cold floor would swamp low-MPKI
        # benchmarks, while at the paper's 1e9 instructions it vanishes.
        misses = sum(
            c.stats.get("misses") - c.stats.get("cold_misses") for c in caches
        )
        first = sum(c.stats.get("first_access_misses") for c in caches)
        levels[name] = LevelMpki(
            name,
            misses=mpki(max(0, misses), instructions),
            first_access_misses=mpki(first, instructions),
        )

    merge("L1I", hierarchy.l1i)
    merge("L1D", hierarchy.l1d)
    merge("LLC", [hierarchy.llc])

    switches = summary.context_switches
    timecache = kernel.config.timecache
    return SingleRun(
        cycles=summary.makespan,
        instructions=instructions,
        context_switches=switches,
        level_mpki=levels,
        switch_bookkeeping_cycles=(
            switches * timecache.sbit_dma_cycles if timecache.enabled else 0
        ),
        stats=kernel.system.stats_snapshot(),
    )


def _run_configured(
    config: SimConfig, build: Callable[[Kernel], object]
) -> SingleRun:
    kernel = Kernel(config)
    build(kernel)
    return _collect_run(kernel, kernel.run())


def _run_against_control(
    config: SimConfig, label: str, build: Callable[[Kernel], object]
) -> ExperimentResult:
    """``build``'s workload on the control machine, then under
    ``config``'s defense.  A control config is its own control: its one
    run is both sides."""
    control_config = config.baseline()
    control = _run_configured(control_config, build)
    if config == control_config:
        return ExperimentResult(label, control, control)
    return ExperimentResult(label, control, _run_configured(config, build))


def run_spec_pair_experiment(
    config: SimConfig,
    bench_a: str,
    bench_b: str,
    instructions: int = 120_000,
    seed: int = 0xBEEF,
) -> ExperimentResult:
    """One Table II SPEC row: the pair on the control and under ``config``.

    Both configurations replay the identical deterministic instruction
    streams (same seed): each program's op tape is emitted once, for
    this experiment only, and both runs walk it, so the cycle ratio
    isolates the defense's cost.
    """
    from repro.workloads.mixes import pair_label

    tapes: Tapes = {}

    def build(kernel: Kernel) -> None:
        build_spec_pair(
            kernel, bench_a, bench_b, instructions, seed=seed, tapes=tapes
        )

    return _run_against_control(config, pair_label(bench_a, bench_b), build)


def run_parsec_experiment(
    config: SimConfig,
    bench: str,
    instructions_per_thread: int = 1_000_000,
    seed: int = 0xFACE,
) -> ExperimentResult:
    """One Table II PARSEC row: 2 threads on 2 cores, both configurations
    walking each thread's op tape, emitted once for this experiment."""
    tapes: Tapes = {}

    def build(kernel: Kernel) -> None:
        build_parsec_workload(
            kernel, bench, instructions_per_thread, seed=seed, tapes=tapes
        )

    return _run_against_control(config, bench, build)
