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
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.experiment import (
    ExperimentResult,
    SimulationBudget,
    run_parsec_experiment,
    run_spec_pair_experiment,
)
from repro.common.config import SimConfig, scaled_experiment_config
from repro.obs.manifest import config_fingerprint
from repro.robustness.resilience import Checkpoint, SweepOutcome
from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob
from repro.workloads.mixes import (
    PARSEC_BENCHMARKS,
    SPEC_MIXED_PAIRS,
    SPEC_SAME_PAIRS,
    pair_label,
)


def _sweep_provenance(config: SimConfig, seed: int) -> Dict[str, object]:
    """Per-job provenance stamped onto FailureRecords by the sweep
    executor: enough to re-run (and blame) one quarantined cell."""
    return {
        "seed": seed,
        "engine": config.hierarchy.engine,
        "config_sha256": config_fingerprint(config),
    }


def _spec_pair_jobs(
    config: SimConfig,
    pairs: Sequence[Tuple[str, str]],
    instructions: int,
    seed: int,
    budget: Optional[SimulationBudget] = None,
    label_prefix: str = "",
) -> List[SweepJob]:
    """One job per SPEC pair."""
    provenance = _sweep_provenance(config, seed)
    return [
        SweepJob(
            label=label_prefix + pair_label(a, b),
            fn=run_spec_pair_experiment,
            args=(config, a, b),
            kwargs={"instructions": instructions, "seed": seed, "budget": budget},
            provenance=dict(provenance),
        )
        for a, b in pairs
    ]


def _parsec_jobs(
    config: SimConfig,
    benchmarks: Sequence[str],
    instructions_per_thread: int,
    seed: int,
    budget: Optional[SimulationBudget] = None,
) -> List[SweepJob]:
    """One job per PARSEC benchmark."""
    provenance = _sweep_provenance(config, seed)
    return [
        SweepJob(
            label=bench,
            fn=run_parsec_experiment,
            args=(config, bench),
            kwargs={
                "instructions_per_thread": instructions_per_thread,
                "seed": seed,
                "budget": budget,
            },
            provenance=dict(provenance),
        )
        for bench in benchmarks
    ]


def _map_sweep(
    sweep_jobs: Sequence[SweepJob], jobs: Optional[int], seed: int
) -> List:
    """Run a plain (non-resilient) sweep: no retries, any failure raises
    :class:`~repro.common.errors.SweepExecutionError`."""
    return SupervisedSweepExecutor(jobs, retries=0, base_seed=seed).map(
        sweep_jobs
    )


def spec_pair_sweep(
    pairs: Sequence[Tuple[str, str]] = tuple(SPEC_SAME_PAIRS + SPEC_MIXED_PAIRS),
    instructions: int = 120_000,
    llc_kib: int = 128,
    seed: int = 0xBEEF,
    jobs: Optional[int] = 1,
    engine: str = "object",
) -> List[ExperimentResult]:
    """The Table II / Figure 7 / Figure 8 sweep (single core, pairs)."""
    config = scaled_experiment_config(
        num_cores=1, llc_kib=llc_kib, seed=seed, engine=engine
    )
    return _map_sweep(_spec_pair_jobs(config, pairs, instructions, seed), jobs, seed)


def parsec_sweep(
    benchmarks: Sequence[str] = tuple(PARSEC_BENCHMARKS),
    instructions_per_thread: int = 1_000_000,
    llc_kib: int = 128,
    seed: int = 0xFACE,
    jobs: Optional[int] = 1,
    engine: str = "object",
) -> List[ExperimentResult]:
    """The Figure 9 / Table II PARSEC sweep (2 threads on 2 cores)."""
    config = scaled_experiment_config(
        num_cores=2, llc_kib=llc_kib, seed=seed, engine=engine
    )
    return _map_sweep(
        _parsec_jobs(config, benchmarks, instructions_per_thread, seed), jobs, seed
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
        config = scaled_experiment_config(
            num_cores=1, llc_kib=llc_kib, seed=seed, engine=engine
        )
        all_jobs.extend(
            _spec_pair_jobs(
                config, pairs, instructions, seed, label_prefix=f"{llc_kib}KiB/"
            )
        )
    flat = _map_sweep(all_jobs, jobs, seed)
    per_size = len(pairs)
    return {
        llc_kib: flat[i * per_size : (i + 1) * per_size]
        for i, llc_kib in enumerate(llc_sizes_kib)
    }


def _result_checkpoint(
    checkpoint_path: Optional[Union[str, Path]]
) -> Optional[Checkpoint]:
    if checkpoint_path is None:
        return None
    from repro.analysis.export import result_from_dict, result_to_dict

    return Checkpoint(
        checkpoint_path, serialize=result_to_dict, deserialize=result_from_dict
    )


def resilient_spec_pair_sweep(
    pairs: Sequence[Tuple[str, str]] = tuple(SPEC_SAME_PAIRS + SPEC_MIXED_PAIRS),
    instructions: int = 120_000,
    llc_kib: int = 128,
    seed: int = 0xBEEF,
    budget: Optional[SimulationBudget] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    jobs: Optional[int] = 1,
    engine: str = "object",
    deadline_s: Optional[float] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    manifest_id: str = "",
    obs_dir: Optional[Union[str, Path]] = None,
) -> SweepOutcome:
    """:func:`spec_pair_sweep` with retries, checkpoint, and quarantine.

    A pair that crashes or exceeds ``budget`` is retried with backoff and
    ultimately becomes a ``FailureRecord`` instead of sinking the sweep;
    poison pairs are quarantined with full provenance under
    ``quarantine_dir``.  ``checkpoint_path`` enables resume — completed
    pairs are loaded, not re-simulated, and previously failed pairs get a
    fresh chance.  With ``jobs != 1`` each in-flight pair gets its own
    heartbeat-monitored worker process, so a crashed worker is detected
    and rescheduled and (with ``deadline_s``) a hung worker is killed at
    the deadline; ``deadline_s`` does nothing at ``jobs == 1``, and
    ``obs_dir`` needs ``jobs >= 2``.  Retry/checkpoint/resume semantics,
    failure records, and the results themselves are identical at any
    ``jobs``.
    """
    config = scaled_experiment_config(
        num_cores=1, llc_kib=llc_kib, seed=seed, engine=engine
    )
    executor = SupervisedSweepExecutor(
        jobs,
        retries=retries,
        backoff_s=backoff_s,
        deadline_s=deadline_s,
        checkpoint=_result_checkpoint(checkpoint_path),
        base_seed=seed,
        quarantine_dir=quarantine_dir,
        manifest_id=manifest_id,
        obs_dir=obs_dir,
    )
    return executor.run(_spec_pair_jobs(config, pairs, instructions, seed, budget))


def resilient_parsec_sweep(
    benchmarks: Sequence[str] = tuple(PARSEC_BENCHMARKS),
    instructions_per_thread: int = 1_000_000,
    llc_kib: int = 128,
    seed: int = 0xFACE,
    budget: Optional[SimulationBudget] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    jobs: Optional[int] = 1,
    engine: str = "object",
    deadline_s: Optional[float] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    manifest_id: str = "",
    obs_dir: Optional[Union[str, Path]] = None,
) -> SweepOutcome:
    """:func:`parsec_sweep` with retries, checkpoint, and quarantine (see
    :func:`resilient_spec_pair_sweep` for the failure and supervision
    semantics)."""
    config = scaled_experiment_config(
        num_cores=2, llc_kib=llc_kib, seed=seed, engine=engine
    )
    executor = SupervisedSweepExecutor(
        jobs,
        retries=retries,
        backoff_s=backoff_s,
        deadline_s=deadline_s,
        checkpoint=_result_checkpoint(checkpoint_path),
        base_seed=seed,
        quarantine_dir=quarantine_dir,
        manifest_id=manifest_id,
        obs_dir=obs_dir,
    )
    return executor.run(
        _parsec_jobs(config, benchmarks, instructions_per_thread, seed, budget)
    )


def single_config(
    llc_kib: int = 128, num_cores: int = 1, engine: str = "object"
) -> SimConfig:
    """Convenience for examples/tests wanting the standard experiment
    configuration."""
    return scaled_experiment_config(
        num_cores=num_cores, llc_kib=llc_kib, engine=engine
    )


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
    in.  The batched-replay sweeps replay it through ``access_batch``.

    The trace comes back as an ``array('q')``, which indexes and
    iterates as plain Python ints.
    """
    from array import array

    from repro.common.rng import DeterministicRng

    rng = DeterministicRng(seed)
    base = 0x10000
    # The hot set is one consecutive block (a hot buffer): consecutive
    # lines round-robin across cache sets, so the block spreads evenly
    # instead of gambling on random set collisions that would turn the
    # hot set itself into a thrashing workload.
    start = rng.randint(0, pool_lines - hot_lines)
    hots = [base + (start + i) * line_bytes for i in range(hot_lines)]
    trace = array("q")
    for _ in range(accesses):
        if rng.random() < hot_fraction:
            trace.append(hots[rng.randint(0, hot_lines - 1)])
        else:
            trace.append(base + rng.randint(0, pool_lines - 1) * line_bytes)
    return trace


def batched_replay_run(
    accesses: int = 8_000,
    engine: str = "fast",
    batch: bool = True,
    seed: int = 7,
    hot_fraction: float = 0.995,
) -> Dict[str, object]:
    """One batched-replay cell: the hot/cold trace through one system.

    Drives :func:`hot_cold_reference_trace` into a campaign-sized
    :class:`~repro.core.timecache.TimeCacheSystem` via
    :func:`repro.cpu.tracing.replay_ops` (``batch=False`` replays the
    identical stream scalar).  Deterministic in its arguments and
    module-level, so sweeps can fan cells across worker processes; scalar
    and batched runs of the same cell must produce identical summaries
    — the equivalence tests lock that in across ``--jobs N``.
    """
    import dataclasses

    from repro.core.timecache import TimeCacheSystem
    from repro.cpu.isa import Load
    from repro.cpu.tracing import replay_ops
    from repro.robustness.campaign import campaign_config

    config = campaign_config(seed=seed)
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
    results, now = replay_ops(
        system, (Load(addr) for addr in trace), batch=batch
    )
    levels: Dict[str, int] = {}
    for result in results:
        levels[result.level] = levels.get(result.level, 0) + 1
    return {
        "accesses": len(results),
        "levels": levels,
        "first_accesses": sum(1 for r in results if r.first_access),
        "total_latency": sum(r.latency for r in results),
        "final_now": now,
        "stats": system.stats_snapshot(),
    }


def batched_replay_sweep(
    cells: int = 4,
    accesses: int = 8_000,
    engine: str = "fast",
    batch: bool = True,
    jobs: Optional[int] = 1,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """A sweep of independent batched-replay cells (one seed per cell).

    The result list is identical at any ``jobs``, like the other
    sweeps.
    """
    sweep_jobs = [
        SweepJob(
            label=f"replay{i}",
            fn=batched_replay_run,
            args=(accesses, engine, batch, seed + i),
        )
        for i in range(cells)
    ]
    return _map_sweep(sweep_jobs, jobs, seed)


def write_run_manifest(
    path: Union[str, Path],
    *,
    command: Sequence[str],
    config: SimConfig,
    seed: Optional[int] = None,
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
