"""Sweep drivers used by the benchmark suite.

Each function regenerates one of the paper's artifacts end to end and
returns structured results; the benchmark files print them with the
:mod:`repro.analysis.tables` renderers and assert the paper's *shape*
claims (who wins, orderings, trends).

Every sweep builds one :class:`~repro.robustness.supervisor.SweepJob`
per simulation cell and runs the list through
:class:`~repro.robustness.supervisor.SupervisedSweepExecutor`.  ``jobs``
picks the mode: ``1`` (the default) runs the cells in this process,
anything else across that many supervised worker processes (``None``
means one per CPU).  Each cell is a deterministic function of its
arguments, so both modes produce identical results —
`tests/analysis/test_parallel.py` locks that in byte-for-byte on the
exported tables and checkpoints.

The sweeps here use :meth:`~repro.robustness.supervisor.SweepExecutor.map`:
no retries, and one failed cell raises.  The CLI's sweep commands run
the same :func:`spec_pair_jobs` / :func:`parsec_jobs` cells through
:meth:`~repro.robustness.supervisor.SweepExecutor.run` instead, with a
:func:`result_checkpoint` to resume from, so a failed cell is retried
and then quarantined.

:func:`batched_replay_run` is one cell of a different kind: no CPU or
OS, just the :func:`hot_cold_reference_trace` address array replayed
as loads through one ``access_batch`` call, the workload that times the
memory system on its own; the summary is one pass over the results.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.experiment import (
    ExperimentResult,
    run_parsec_experiment,
    run_spec_pair_experiment,
)
from repro.common.config import SimConfig, scaled_experiment_config
from repro.robustness.resilience import Checkpoint
from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob
from repro.workloads.mixes import (
    PARSEC_BENCHMARKS,
    SPEC_MIXED_PAIRS,
    SPEC_SAME_PAIRS,
    pair_label,
)


def spec_pair_jobs(
    pairs: Sequence[Tuple[str, str]] = tuple(SPEC_SAME_PAIRS + SPEC_MIXED_PAIRS),
    instructions: int = 120_000,
    llc_kib: int = 128,
    seed: int = 0xBEEF,
    engine: str = "object",
    label_prefix: str = "",
) -> List[SweepJob]:
    """One job per SPEC pair on the single-core experiment config: the
    cells of Table II, Figure 7 and Figure 8."""
    config = scaled_experiment_config(num_cores=1, llc_kib=llc_kib, engine=engine)
    return [
        SweepJob(
            label=label_prefix + pair_label(a, b),
            fn=run_spec_pair_experiment,
            args=(config, a, b),
            kwargs={"instructions": instructions, "seed": seed},
        )
        for a, b in pairs
    ]


def parsec_jobs(
    benchmarks: Sequence[str] = tuple(PARSEC_BENCHMARKS),
    instructions_per_thread: int = 1_000_000,
    llc_kib: int = 128,
    seed: int = 0xFACE,
    engine: str = "object",
) -> List[SweepJob]:
    """One job per PARSEC benchmark on the two-core experiment config:
    the cells of Figure 9 and Table II's PARSEC rows."""
    config = scaled_experiment_config(num_cores=2, llc_kib=llc_kib, engine=engine)
    return [
        SweepJob(
            label=bench,
            fn=run_parsec_experiment,
            args=(config, bench),
            kwargs={
                "instructions_per_thread": instructions_per_thread,
                "seed": seed,
            },
        )
        for bench in benchmarks
    ]


def result_checkpoint(
    checkpoint_path: Optional[Union[str, Path]]
) -> Optional[Checkpoint]:
    """A checkpoint of :class:`ExperimentResult` cells at
    ``checkpoint_path`` (``None`` for none), for
    :meth:`SupervisedSweepExecutor.run` to resume from."""
    if checkpoint_path is None:
        return None
    from repro.analysis.export import result_from_dict, result_to_dict

    return Checkpoint(
        checkpoint_path, serialize=result_to_dict, deserialize=result_from_dict
    )


def _map_sweep(sweep_jobs: Sequence[SweepJob], jobs: Optional[int]) -> List:
    """Run a plain sweep: no retries, any failure raises
    :class:`~repro.common.errors.SweepExecutionError`."""
    return SupervisedSweepExecutor(jobs, retries=0).map(sweep_jobs)


def spec_pair_sweep(
    pairs: Sequence[Tuple[str, str]] = tuple(SPEC_SAME_PAIRS + SPEC_MIXED_PAIRS),
    instructions: int = 120_000,
    llc_kib: int = 128,
    seed: int = 0xBEEF,
    jobs: Optional[int] = 1,
    engine: str = "object",
) -> List[ExperimentResult]:
    """The Table II / Figure 7 / Figure 8 sweep (single core, pairs)."""
    return _map_sweep(
        spec_pair_jobs(pairs, instructions, llc_kib, seed, engine), jobs
    )


def parsec_sweep(
    benchmarks: Sequence[str] = tuple(PARSEC_BENCHMARKS),
    instructions_per_thread: int = 1_000_000,
    llc_kib: int = 128,
    seed: int = 0xFACE,
    jobs: Optional[int] = 1,
    engine: str = "object",
) -> List[ExperimentResult]:
    """The Figure 9 / Table II PARSEC sweep (2 threads on 2 cores)."""
    return _map_sweep(
        parsec_jobs(benchmarks, instructions_per_thread, llc_kib, seed, engine),
        jobs,
    )


def llc_sensitivity_sweep(
    pairs: Sequence[Tuple[str, str]],
    llc_sizes_kib: Sequence[int] = (128, 256, 512),
    instructions: int = 120_000,
    seed: int = 0xBEEF,
    jobs: Optional[int] = 1,
    engine: str = "object",
) -> Dict[int, List[ExperimentResult]]:
    """The Figure 10 sweep: the same pairs at growing LLC sizes.

    The paper's 2/4/8 MB sweep maps to 128/256/512 KiB at the model's
    16x scale factor; the claim under test is the monotone shrink of the
    mean overhead with LLC size.  The whole (size, pair) grid is one
    flat job list, so with ``jobs != 1`` every cell runs concurrently.
    """
    all_jobs: List[SweepJob] = []
    for llc_kib in llc_sizes_kib:
        all_jobs += spec_pair_jobs(
            pairs, instructions, llc_kib, seed, engine, label_prefix=f"{llc_kib}KiB/"
        )
    flat = _map_sweep(all_jobs, jobs)
    per_size = len(pairs)
    return {
        llc_kib: flat[i * per_size : (i + 1) * per_size]
        for i, llc_kib in enumerate(llc_sizes_kib)
    }


def hot_cold_reference_trace(
    accesses: int,
    hot_lines: int = 8,
    hot_fraction: float = 0.995,
    pool_lines: int = 256,
    line_bytes: int = 64,
    seed: int = 7,
) -> Sequence[int]:
    """A deterministic hot/cold load trace (addresses, line-granular).

    ``hot_fraction`` of the accesses land on ``hot_lines`` distinct
    lines, the rest on a ``pool_lines``-line cold pool — the
    cache-friendly regime real workload phases spend most of their time
    in.  :func:`batched_replay_run` replays it through ``access_batch``.

    Each access draws ``rng.random()`` and then
    ``rng.randint(0, hot_lines - 1)`` or ``rng.randint(0, pool_lines - 1)``
    from ``DeterministicRng(seed)``; the two fixed-range draws are
    :meth:`~repro.common.rng.DeterministicRng.bound_draws`' rejection
    loop inlined over ``getrandbits``, so the trace is the one those
    calls make, draw for draw.  ``hot_lines < 1`` or
    ``pool_lines < hot_lines`` raises :class:`ValueError` before any
    draw.

    The trace comes back as an ``array('q')``, which indexes and
    iterates as plain Python ints.
    """
    from array import array

    from repro.common.rng import DeterministicRng

    if hot_lines < 1 or pool_lines < hot_lines:
        raise ValueError(
            f"need 1 <= hot_lines <= pool_lines, got hot_lines={hot_lines}, "
            f"pool_lines={pool_lines}"
        )
    rng = DeterministicRng(seed)
    randint, random = rng.bound_draws()
    getrandbits = rng.getrandbits
    base = 0x10000
    # The hot set is one consecutive block (a hot buffer): consecutive
    # lines round-robin across cache sets, so the block spreads evenly
    # instead of gambling on random set collisions that would turn the
    # hot set itself into a thrashing workload.
    start = randint(0, pool_lines - hot_lines)
    hots = [base + (start + i) * line_bytes for i in range(hot_lines)]
    hot_bits, pool_bits = hot_lines.bit_length(), pool_lines.bit_length()
    trace = array("q")
    append = trace.append
    for _ in range(accesses):
        if random() < hot_fraction:
            r = getrandbits(hot_bits)
            while r >= hot_lines:
                r = getrandbits(hot_bits)
            append(hots[r])
        else:
            r = getrandbits(pool_bits)
            while r >= pool_lines:
                r = getrandbits(pool_bits)
            append(base + r * line_bytes)
    return trace


def batched_replay_run(
    accesses: int = 8_000,
    engine: str = "fast",
    batch: bool = True,
    seed: int = 7,
    hot_fraction: float = 0.995,
) -> Dict[str, object]:
    """One batched-replay cell: the hot/cold trace through one system.

    Replays :func:`hot_cold_reference_trace` as loads by context 0 of a
    campaign-sized :class:`~repro.core.timecache.TimeCacheSystem`, from
    cycle 0 under the blocking time rule (one issue cycle plus the full
    latency of each access).  ``batch=True`` hands the address array to
    one :meth:`~repro.core.timecache.TimeCacheSystem.access_batch` call;
    ``batch=False`` is the reference, one
    :meth:`~repro.core.timecache.TimeCacheSystem.access` per address.
    Both give what a hardware context gives for the same addresses as
    ``Load`` ops, and identical summaries.  The summary is one pass
    over the results.  It stays a Python loop: a
    :class:`collections.Counter` over ``attrgetter`` tuples of the same
    fields runs no bytecode per result but builds and hashes a tuple
    for each, and takes about twice the loop's time on CPython 3.11.

    Deterministic in its arguments and module-level, so a sweep can fan
    cells across worker processes (the chaos campaign's probe jobs do).
    """
    import dataclasses

    from repro.core.timecache import TimeCacheSystem
    from repro.memsys.hierarchy import AccessKind
    from repro.robustness.campaign import campaign_config

    config = campaign_config()
    if engine != config.hierarchy.engine:
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(config.hierarchy, engine=engine),
        )
    system = TimeCacheSystem(config)
    trace = hot_cold_reference_trace(
        accesses,
        hot_fraction=hot_fraction,
        line_bytes=config.hierarchy.line_bytes,
        seed=seed,
    )
    load = AccessKind.LOAD
    if batch:
        results, now = system.access_batch(0, trace, load, now=0)
    else:
        results, now = [], 0
        access, append = system.access, results.append
        for addr in trace:
            result = access(0, addr, load, now)
            append(result)
            now += 1 + result.latency
    levels: Dict[str, int] = {}
    first_accesses = total_latency = 0
    for result in results:
        level = result.level
        levels[level] = levels.get(level, 0) + 1
        if result.first_access:
            first_accesses += 1
        total_latency += result.latency
    return {
        "accesses": len(results),
        "levels": levels,
        "first_accesses": first_accesses,
        "total_latency": total_latency,
        "final_now": now,
        "stats": system.stats_snapshot(),
    }


def write_run_manifest(
    path: Union[str, Path],
    *,
    command: Sequence[str],
    config: SimConfig,
    seed: int,
    artifacts: Sequence[Union[str, Path]] = (),
    extra: Optional[Dict[str, object]] = None,
):
    """Write a :class:`~repro.obs.manifest.RunManifest` for one run.

    The CLI calls this after every artifact-producing command so each
    output directory is self-describing: the exact config (and its
    hash), the seed, engine, git state, and a checksummed index of the
    files the run produced.  Returns the manifest object.
    """
    from repro.obs.manifest import RunManifest

    manifest = RunManifest.build(
        command=list(command),
        config=config,
        seed=seed,
        artifacts=artifacts,
        extra=extra,
    )
    manifest.write(path)
    return manifest
