"""The four workloads of the end-to-end benchmark.

Each workload drives one of the repo's public sweep entry points with
``jobs=1`` and fills a :class:`PassRecord`: per-cell host times, the
canonical outputs the oracle digests, and what was simulated.  The
sizes are keyword arguments so tests can run a tiny pass; the defaults
are the benchmark's fixed scale.  Importing this module imports nothing
from ``repro``; the workloads import it when they run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.trace import replace

#: the seed each workload runs without ``--seed`` (the paper sweeps' own
#: defaults, and the security baseline's first tournament seed)
DEFAULT_SEEDS = {"spec_pair": 0xBEEF, "parsec": 0xFACE, "tournament": 7, "replay": 7}

#: memory-bound, compute-bound, same-binary sharing, and a mixed pair
SPEC_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("wrf", "wrf"),
    ("lbm", "lbm"),
    ("namd", "namd"),
    ("perlbench", "wrf"),
)
PARSEC_BENCHMARKS: Tuple[str, ...] = ("fluidanimate", "x264")
#: one replay cell per entry, seeds ``seed, seed+1, ...``: two hit-heavy
#: cells and two miss-heavier ones
REPLAY_HOT_FRACTIONS: Tuple[float, ...] = (0.995, 0.995, 0.9, 0.9)

#: tournament cell fields that do not depend on the engine (the
#: bootstrap interval is seeded from the cell label, which names it)
ENGINE_FREE_FIELDS = ("auc", "separation", "mi_bits", "n_neg", "n_pos")

#: workload seconds after which the next cell boundary takes a
#: reference sample: every cell of the paper sweeps and replay, every
#: fifteen or so tournament cells
STRETCH_S = 0.2


def reference_sample() -> float:
    """Host seconds for a fixed piece of interpreter work (~20 ms).

    A small 8-way LRU cache over a linear-congruential address stream,
    in plain Python: nothing from ``repro``, so no change to the
    simulator moves it, while a slower host does.
    """
    start = time.perf_counter()
    sets = [[] for _ in range(64)]
    x = 12345
    for _ in range(60_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 8) & 4095
        ways = sets[line & 63]
        if line in ways:
            ways.remove(line)
        elif len(ways) == 8:
            del ways[0]
        ways.append(line)
    return time.perf_counter() - start


@dataclass
class PassRecord:
    """What one pass of a workload did.

    The workload's host time is cut into *stretches* by reference
    samples taken at cell boundaries; stretch ``i`` ran between samples
    ``i`` and ``i + 1``, so ``run.py`` can tell how fast the host was
    while it ran.  Sample time counts in no stretch and no cell.
    """

    #: (label, host seconds, ok, stretch index) per cell, in run order
    cells: List[Tuple[str, float, bool, int]] = field(default_factory=list)
    #: canonical outputs, digested for the oracle
    rows: List[object] = field(default_factory=list)
    #: labels of cells that failed a check made inside the pass
    mismatches: List[str] = field(default_factory=list)
    instructions: int = 0
    cycles: int = 0
    context_switches: int = 0
    #: |simulated - paper| geomean TimeCache overhead, percentage points
    overhead_err_pp: Optional[float] = None
    #: host seconds of each stretch, and every reference sample
    stretch_s: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)
    #: False: sample only when forced, before and after the workload
    sample_between_cells: bool = True
    _since: float = 0.0

    def sample(self, force: bool = False) -> float:
        """At a cell boundary: close the running stretch with a reference
        sample if it has lasted ``STRETCH_S``, or if ``force``.  The
        first call opens the first stretch.  Returns the time the
        workload resumes."""
        now = time.perf_counter()
        due = self.sample_between_cells and now - self._since >= STRETCH_S
        if self.reference_s and not (force or due):
            return now
        if self.reference_s:
            self.stretch_s.append(now - self._since)
        self.reference_s.append(reference_sample())
        self._since = time.perf_counter()
        return self._since

    def timed_cell(self, label: str, run: Callable[[], object]) -> object:
        """Run one cell, recording its host time; a cell that raises is
        recorded as failed and yields ``None``."""
        start = time.perf_counter()
        try:
            result = run()
            ok = True
        except Exception:  # a failed cell is counted, the pass goes on
            result, ok = None, False
        seconds = time.perf_counter() - start
        self.cells.append((label, seconds, ok, len(self.stretch_s)))
        self.sample()
        return result


def digest(rows: Sequence[object]) -> str:
    """sha256 of the canonical JSON of a pass's outputs."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def install_kernel_tally(
    patches: contextlib.ExitStack, record: PassRecord
) -> None:
    """Sum instructions, cycles and switches from every ``Kernel.run``
    until ``patches`` closes."""
    from repro.os.kernel import Kernel

    run = Kernel.run

    def counted(kernel, *args, **kwargs):
        summary = run(kernel, *args, **kwargs)
        record.instructions += summary.total_instructions
        record.cycles += summary.makespan
        record.context_switches += summary.context_switches
        return summary

    replace(patches, Kernel, "run", counted)


# ----------------------------------------------------------------------
# Table II rows (spec_pair, parsec)
# ----------------------------------------------------------------------
def _experiment_row(result) -> Dict[str, object]:
    def single(run) -> Dict[str, object]:
        return {
            "cycles": run.cycles,
            "instructions": run.instructions,
            "context_switches": run.context_switches,
            "level_mpki": {
                name: [level.misses, level.first_access_misses]
                for name, level in sorted(run.level_mpki.items())
            },
            "stats": run.stats,
        }

    return {
        "label": result.label,
        "baseline": single(result.baseline),
        "timecache": single(result.timecache),
    }


def _overhead_err_pp(results, paper: Dict[str, Tuple[float, float, float]]):
    """Distance between simulated and paper geomean overhead, same rows."""
    from repro.common.units import geometric_mean

    rows = [r for r in results if r.label in paper]
    if not rows:
        return None
    simulated = geometric_mean([r.normalized_time for r in rows])
    published = geometric_mean([paper[r.label][0] for r in rows])
    return abs(simulated - published) * 100.0


def spec_pair(
    record: PassRecord,
    seed: int,
    engine: str = "fast",
    instructions: int = 40_000,
    pairs: Sequence[Tuple[str, str]] = SPEC_PAIRS,
) -> None:
    """Table II / Fig 7 SPEC pairs, baseline and TimeCache, one core."""
    from repro.analysis import runner
    from repro.workloads.mixes import PAPER_TABLE2_SPEC, pair_label

    results = []
    for a, b in pairs:
        cell = record.timed_cell(
            pair_label(a, b),
            lambda: runner.spec_pair_sweep(
                pairs=[(a, b)], instructions=instructions, seed=seed,
                jobs=1, engine=engine,
            ),
        )
        if cell is not None:
            results.extend(cell)
    record.rows = [_experiment_row(r) for r in results]
    record.overhead_err_pp = _overhead_err_pp(results, PAPER_TABLE2_SPEC)


def parsec(
    record: PassRecord,
    seed: int,
    engine: str = "fast",
    instructions_per_thread: int = 60_000,
    benchmarks: Sequence[str] = PARSEC_BENCHMARKS,
) -> None:
    """Table II PARSEC rows: two threads on two cores, both configs."""
    from repro.analysis import runner
    from repro.workloads.mixes import PAPER_TABLE2_PARSEC

    results = []
    for bench in benchmarks:
        cell = record.timed_cell(
            bench,
            lambda: runner.parsec_sweep(
                benchmarks=[bench],
                instructions_per_thread=instructions_per_thread,
                seed=seed, jobs=1, engine=engine,
            ),
        )
        if cell is not None:
            results.extend(cell)
    record.rows = [_experiment_row(r) for r in results]
    record.overhead_err_pp = _overhead_err_pp(results, PAPER_TABLE2_PARSEC)


# ----------------------------------------------------------------------
# The attack tournament
# ----------------------------------------------------------------------
def _cross_engine_mismatches(cells: Dict[str, Dict]) -> List[str]:
    """Fast cells whose engine-independent scores differ from the object
    engine's (the reference) for the same attack and defense."""
    bad = []
    for label, cell in cells.items():
        if cell["engine"] != "fast":
            continue
        twin = cells.get(label[: -len("fast")] + "object")
        if twin is None or any(
            cell[key] != twin[key] for key in ENGINE_FREE_FIELDS
        ):
            bad.append(label)
    return bad


def tournament(
    record: PassRecord,
    seed: int,
    engine: str = "fast",
    n_boot: int = 200,
    attacks: Optional[Sequence[str]] = None,
) -> None:
    """The quick security tournament at one seed.

    Every cell runs on both engines regardless of ``engine``; the object
    engine's cells are the reference each fast cell is checked against.
    """
    from repro.analysis import tournament as tour

    mark = time.perf_counter()

    def on_event(label: str, event: str) -> None:
        nonlocal mark
        if event in ("ok", "failed"):
            seconds = time.perf_counter() - mark
            record.cells.append(
                (f"{label}@{seed}", seconds, event == "ok", len(record.stretch_s))
            )
            mark = record.sample()

    outcome = tour.run_tournament(
        attacks=attacks, jobs=1, quick=True, n_boot=n_boot,
        seeds=(seed,), on_event=on_event,
    )
    record.rows.append(
        {
            "seed": seed,
            "cells": [outcome.cells.get(label) for label in outcome.labels],
        }
    )
    record.mismatches.extend(
        f"{label}@{seed}" for label in _cross_engine_mismatches(outcome.cells)
    )


# ----------------------------------------------------------------------
# Batched replay
# ----------------------------------------------------------------------
def replay(
    record: PassRecord,
    seed: int,
    engine: str = "fast",
    accesses: int = 200_000,
    hot_fractions: Sequence[float] = REPLAY_HOT_FRACTIONS,
) -> None:
    """Hot/cold traces through ``access_batch``; one access is one
    Load instruction."""
    from repro.analysis import runner

    for i, hot in enumerate(hot_fractions):
        s = seed + i
        summary = record.timed_cell(
            f"replay{s}@{hot}",
            lambda: runner.batched_replay_run(accesses, engine, True, s, hot),
        )
        if summary is None:
            continue
        record.instructions += summary["accesses"]
        record.cycles += summary["final_now"]
        record.rows.append(summary)


WORKLOADS: Dict[str, Callable[..., None]] = {
    "spec_pair": spec_pair,
    "parsec": parsec,
    "tournament": tournament,
    "replay": replay,
}
