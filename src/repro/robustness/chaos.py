"""Deterministic orchestration-level chaos: prove the sweep layer survives.

PR 1's fault injector corrupts *simulator* state (s-bits, comparator,
Tc) and asks whether the defense's invariants catch it.  This module
lifts the same discipline one level up, to the process/IO layer the
sweeps run on: workers are killed mid-job, workers hang past their
deadline, checkpoint bytes are truncated or flipped on disk, and the
filesystem throws transient errors — all driven by a seeded plan, so a
failing campaign replays exactly.

Four chaos models (``CHAOS_MODELS``):

* ``kill``   — a worker process exits mid-protocol without delivering
  its result (models OOM-kill, segfault, power loss);
* ``hang``   — a worker stops making progress but stays alive (models
  deadlock, runaway loops); the supervisor must kill it at the deadline;
* ``corrupt`` — bytes of a published checkpoint are damaged after the
  fact (variants: ``truncate``, ``bitflip``, ``stale_schema``,
  ``torn_rename``); the next load must detect it and heal from the
  rotated backup;
* ``io_error`` — the filesystem raises transient (or persistent)
  ``OSError`` during checkpoint writes via the
  :mod:`~repro.robustness.safeio` hook seam.

Every injection is classified as **recovered** (the sweep produced
reference-identical results / the load healed to a known-good
generation), **quarantined** (the failure was *recorded* — a
FailureRecord with provenance, or a typed corruption error), or
**silent** (wrong data with no error anywhere — the one count that must
be zero).  ``repro chaos`` renders the matrix as a resilience scorecard
and exits nonzero if anything was silent.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import CheckpointCorruptionError, FaultInjectionError
from repro.common.rng import DeterministicRng
from repro.robustness import safeio
from repro.robustness.resilience import CHECKPOINT_SCHEMA, Checkpoint
from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob

CHAOS_MODELS = ("kill", "hang", "corrupt", "io_error")
CORRUPT_VARIANTS = ("truncate", "bitflip", "stale_schema", "torn_rename")
SCORECARD_SCHEMA = 1

#: mini-sweep shape for process-level (kill/hang) injections
_SWEEP_JOBS = 3
_PROBE_ACCESSES = 300


def chaos_probe_job(seed: int) -> Dict[str, object]:
    """One tiny, fully deterministic simulation cell (a few ms).

    A real :class:`~repro.core.timecache.TimeCacheSystem` replay — not a
    stub — so a chaos campaign exercises the exact serialization and
    execution paths a paper sweep does, just at toy scale.  Module-level
    and picklable, so supervised workers can run it.
    """
    from repro.analysis.runner import batched_replay_run

    return batched_replay_run(accesses=_PROBE_ACCESSES, seed=seed)


@dataclass(frozen=True)
class ChaosEvent:
    """One planned injection.

    ``target`` is a job label for process models and unused for IO
    models; ``attempt`` is which attempt gets sabotaged (``0`` = every
    attempt, forcing quarantine); ``variant`` picks the corruption /
    error shape; ``param`` is a variant-specific knob (truncation point,
    flipped byte, number of consecutive write errors).
    """

    index: int
    model: str
    target: str = ""
    attempt: int = 1
    variant: str = ""
    param: int = 0


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, reproducible list of injections."""

    seed: int
    events: Tuple[ChaosEvent, ...]

    @classmethod
    def generate(
        cls, seed: int, counts: Optional[Dict[str, int]] = None
    ) -> "ChaosPlan":
        """Derive a plan from ``seed``: ``counts`` maps model -> number
        of injections (defaults to the quick-campaign mix)."""
        counts = dict(counts or DEFAULT_QUICK_COUNTS)
        unknown = set(counts) - set(CHAOS_MODELS)
        if unknown:
            raise FaultInjectionError(
                f"unknown chaos models: {sorted(unknown)}"
            )
        rng = DeterministicRng(seed).fork("chaos-plan")
        events: List[ChaosEvent] = []
        index = 0
        for model in CHAOS_MODELS:
            for _ in range(counts.get(model, 0)):
                if model in ("kill", "hang"):
                    target = f"probe{rng.randint(0, _SWEEP_JOBS - 1)}"
                    # 1 in 4 injections sabotages *every* attempt: the
                    # poison-job path (quarantine) instead of the
                    # retry-recovery path.
                    attempt = 0 if rng.randint(0, 3) == 0 else 1
                    events.append(
                        ChaosEvent(
                            index=index,
                            model=model,
                            target=target,
                            attempt=attempt,
                            param=rng.randint(60, 120),
                        )
                    )
                elif model == "corrupt":
                    variant = CORRUPT_VARIANTS[
                        rng.randint(0, len(CORRUPT_VARIANTS) - 1)
                    ]
                    events.append(
                        ChaosEvent(
                            index=index,
                            model=model,
                            variant=variant,
                            param=rng.randint(1, 10_000),
                        )
                    )
                else:  # io_error
                    # param = consecutive failing writes; 3 exceeds the
                    # writer's retry budget and must fail *loudly*.
                    events.append(
                        ChaosEvent(
                            index=index,
                            model="io_error",
                            variant="write",
                            param=1 + rng.randint(0, 2),
                        )
                    )
                index += 1
        return cls(seed=seed, events=tuple(events))


#: ≥ 50 injections spanning all four models — the CI smoke mix
DEFAULT_QUICK_COUNTS = {"kill": 10, "hang": 6, "corrupt": 24, "io_error": 10}


@dataclass
class ResilienceScorecard:
    """Injections × outcomes, per chaos model."""

    seed: int
    injections: Dict[str, int] = field(default_factory=dict)
    recovered: Dict[str, int] = field(default_factory=dict)
    quarantined: Dict[str, int] = field(default_factory=dict)
    silent: Dict[str, int] = field(default_factory=dict)
    details: List[Dict] = field(default_factory=list)

    def record(self, event: ChaosEvent, outcome: str, note: str = "") -> None:
        if outcome not in ("recovered", "quarantined", "silent"):
            raise FaultInjectionError(f"unknown outcome {outcome!r}")
        model = event.model
        self.injections[model] = self.injections.get(model, 0) + 1
        bucket = getattr(self, outcome)
        bucket[model] = bucket.get(model, 0) + 1
        self.details.append(
            {
                "index": event.index,
                "model": model,
                "variant": event.variant,
                "target": event.target,
                "attempt": event.attempt,
                "outcome": outcome,
                "note": note,
            }
        )

    @property
    def total(self) -> int:
        return sum(self.injections.values())

    @property
    def silent_total(self) -> int:
        return sum(self.silent.values())

    def render(self) -> str:
        header = (
            f"{'model':<10} {'injected':>9} {'recovered':>10} "
            f"{'quarantined':>12} {'silent':>7}"
        )
        lines = [header, "-" * len(header)]
        for model in CHAOS_MODELS:
            if self.injections.get(model, 0) == 0:
                continue
            lines.append(
                f"{model:<10} {self.injections.get(model, 0):>9} "
                f"{self.recovered.get(model, 0):>10} "
                f"{self.quarantined.get(model, 0):>12} "
                f"{self.silent.get(model, 0):>7}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<10} {self.total:>9} "
            f"{sum(self.recovered.values()):>10} "
            f"{sum(self.quarantined.values()):>12} "
            f"{self.silent_total:>7}"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "schema": SCORECARD_SCHEMA,
            "kind": "resilience_scorecard",
            "seed": self.seed,
            "injections": dict(self.injections),
            "recovered": dict(self.recovered),
            "quarantined": dict(self.quarantined),
            "silent": dict(self.silent),
            "total": self.total,
            "silent_total": self.silent_total,
            "details": list(self.details),
        }


class ChaosIoHook:
    """A :mod:`safeio` hook sabotaging writes per one :class:`ChaosEvent`.

    * ``io_error`` — raises ``OSError`` on the first ``param`` write
      attempts, then lets writes through (transient fault);
    * ``corrupt``/``truncate`` — drops the tail of the serialized bytes
      once (the published file is torn);
    * ``corrupt``/``bitflip`` — flips one byte inside the JSON body
      once (checksum must catch it).

    ``stale_schema`` and ``torn_rename`` are injected after the fact by
    the campaign (they are states of the *file*, not of a write).
    """

    def __init__(self, event: ChaosEvent) -> None:
        self.event = event
        self.write_attempts = 0
        self.corrupted = False

    def __call__(self, stage: str, path: Path, data: bytes) -> bytes:
        event = self.event
        if event.model == "io_error" and stage == "write":
            self.write_attempts += 1
            if self.write_attempts <= event.param:
                raise OSError(
                    f"chaos[{event.index}]: injected transient IO error "
                    f"({self.write_attempts}/{event.param})"
                )
            return data
        if event.model == "corrupt" and stage == "serialize":
            if self.corrupted:
                return data
            self.corrupted = True
            if event.variant == "truncate":
                cut = 1 + event.param % max(1, len(data) - 2)
                return data[:cut]
            if event.variant == "bitflip":
                pos = event.param % len(data)
                flipped = bytes([data[pos] ^ 0x20])
                return data[:pos] + flipped + data[pos + 1 :]
        return data


def _reference_results(seeds: Sequence[int]) -> Dict[str, Dict]:
    """The uninterrupted ground truth for the process-model mini-sweep."""
    return {
        f"probe{i}": chaos_probe_job(seed) for i, seed in enumerate(seeds)
    }


def _probe_sweep_jobs(seeds: Sequence[int]) -> List[SweepJob]:
    return [
        SweepJob(
            label=f"probe{i}",
            fn=chaos_probe_job,
            args=(seed,),
            provenance={"seed": seed, "engine": "fast"},
        )
        for i, seed in enumerate(seeds)
    ]


def _run_process_injection(
    event: ChaosEvent,
    reference: Dict[str, Dict],
    seeds: Sequence[int],
    workdir: Path,
    scorecard: ResilienceScorecard,
    jobs: int,
) -> None:
    """One kill/hang injection: a supervised mini-sweep with sabotage."""

    def sabotage_for(label: str, attempt: int):
        if label != event.target:
            return None
        if event.attempt not in (0, attempt):
            return None
        if event.model == "hang":
            return ("hang", 60.0)
        return ("kill", 86 + event.index % 40)

    checkpoint_path = workdir / f"inj{event.index}.ckpt.json"
    checkpoint = Checkpoint(
        checkpoint_path,
        serialize=lambda r: dict(r),  # probe results are plain dicts
        deserialize=lambda p: dict(p),
    )
    quarantine_dir = workdir / f"inj{event.index}.quarantine"
    executor = SupervisedSweepExecutor(
        jobs,
        retries=2,
        backoff_s=0.01,
        deadline_s=0.5,
        poll_s=0.01,
        checkpoint=checkpoint,
        quarantine_dir=quarantine_dir,
        sabotage_for=sabotage_for,
    )
    outcome = executor.run(_probe_sweep_jobs(seeds))
    failed = {f.label: f for f in outcome.failures}
    silent_notes: List[str] = []
    for label, expected in reference.items():
        got = outcome.results.get(label)
        if got is not None:
            if json.dumps(got, sort_keys=True, default=str) != json.dumps(
                expected, sort_keys=True, default=str
            ):
                silent_notes.append(f"{label}: wrong result")
        elif label not in failed:
            silent_notes.append(f"{label}: missing with no failure record")
        else:
            record = failed[label]
            if not record.error_type or not record.record_path:
                silent_notes.append(
                    f"{label}: failure record missing provenance"
                )
    if silent_notes:
        scorecard.record(event, "silent", "; ".join(silent_notes))
    elif failed:
        scorecard.record(
            event,
            "quarantined",
            ", ".join(
                f"{f.label}:{f.error_type}" for f in outcome.failures
            ),
        )
    else:
        scorecard.record(
            event,
            "recovered",
            f"reschedules={executor.report.reschedules}",
        )


def _checkpoint_generations(
    path: Path,
) -> Tuple[Checkpoint, List[Dict]]:
    """A checkpoint with two recorded generations (g1 in ``.bak``)."""
    checkpoint = Checkpoint(
        path, serialize=lambda r: dict(r), deserialize=lambda p: dict(p)
    )
    checkpoint.record_success("j0", {"v": 10})
    gen1 = json.loads(path.read_text())
    checkpoint.record_success("j1", {"v": 11})
    gen2 = json.loads(path.read_text())
    return checkpoint, [gen1, gen2]


def _run_corrupt_injection(
    event: ChaosEvent, workdir: Path, scorecard: ResilienceScorecard
) -> None:
    """One corrupt injection: damage a published checkpoint, reload."""
    path = workdir / f"inj{event.index}.ckpt.json"
    if event.variant in ("truncate", "bitflip"):
        # Publish gen1 cleanly, then write gen2 through the corrupting
        # hook: the primary lands damaged, the backup still holds gen1.
        checkpoint = Checkpoint(
            path, serialize=lambda r: dict(r), deserialize=lambda p: dict(p)
        )
        checkpoint.record_success("j0", {"v": 10})
        good = [json.loads(path.read_text())]
        hook = ChaosIoHook(event)
        safeio.install_io_hook(hook)
        try:
            checkpoint.record_success("j1", {"v": 11})
        finally:
            safeio.install_io_hook(None)
        # The damage may land outside the verified content — e.g. a
        # bitflip inside the integrity stanza's "algo" label, which the
        # checksum deliberately excludes.  The intended gen2 *content*
        # is then still a good generation: serving it is correct, not a
        # silent corruption.
        good.append({"completed": {"j0": {"v": 10}, "j1": {"v": 11}}})
    elif event.variant == "stale_schema":
        _, good = _checkpoint_generations(path)
        stale = dict(good[1])
        stale["schema"] = CHECKPOINT_SCHEMA + 999
        path.write_text(json.dumps(safeio.seal(stale), indent=2))
    elif event.variant == "torn_rename":
        # A kill between temp write and publish on a filesystem that
        # lost the primary: only the ``.tmp`` and the backup survive.
        _, good = _checkpoint_generations(path)
        tmp = path.with_suffix(path.suffix + safeio.TMP_SUFFIX)
        tmp.write_bytes(path.read_bytes()[: max(1, event.param % 64)])
        path.unlink()
    else:  # pragma: no cover - plan generator never emits others
        raise FaultInjectionError(f"unknown corrupt variant {event.variant!r}")

    fresh = Checkpoint(
        path, serialize=lambda r: dict(r), deserialize=lambda p: dict(p)
    )
    try:
        fresh.load()
    except CheckpointCorruptionError as exc:
        scorecard.record(event, "quarantined", f"load refused: {exc}")
        return
    loaded = {
        "completed": fresh.completed,
        "failures": [f.to_dict() for f in fresh.failures],
    }
    for generation in good:
        if loaded["completed"] == generation.get("completed"):
            note = (
                "healed from backup"
                if fresh.recovered_from_backup
                else "primary intact"
            )
            # Detection matters: damaged primary accepted verbatim would
            # never equal a good generation, so equality here means the
            # loader served a *verified* generation.
            scorecard.record(event, "recovered", note)
            return
    scorecard.record(
        event,
        "silent",
        f"loaded state matches no good generation: {loaded['completed']}",
    )


def _run_io_error_injection(
    event: ChaosEvent, workdir: Path, scorecard: ResilienceScorecard
) -> None:
    """One io_error injection: transient write failures mid-checkpoint."""
    path = workdir / f"inj{event.index}.ckpt.json"
    checkpoint = Checkpoint(
        path, serialize=lambda r: dict(r), deserialize=lambda p: dict(p)
    )
    checkpoint.record_success("j0", {"v": 10})
    hook = ChaosIoHook(event)
    safeio.install_io_hook(hook)
    raised: Optional[OSError] = None
    try:
        checkpoint.record_success("j1", {"v": 11})
    except OSError as exc:
        raised = exc
    finally:
        safeio.install_io_hook(None)
    fresh = Checkpoint(
        path, serialize=lambda r: dict(r), deserialize=lambda p: dict(p)
    )
    try:
        fresh.load()
    except CheckpointCorruptionError as exc:
        scorecard.record(event, "silent", f"post-io state unreadable: {exc}")
        return
    if raised is None:
        if fresh.completed == checkpoint.completed:
            scorecard.record(
                event, "recovered", f"retried past {event.param} error(s)"
            )
        else:
            scorecard.record(event, "silent", "write 'succeeded' but lost data")
    else:
        # The writer gave up loudly; on-disk state must still be a good
        # generation (j0 alone) — never torn.
        if fresh.completed == {"j0": {"v": 10}}:
            scorecard.record(event, "quarantined", f"loud failure: {raised}")
        else:
            scorecard.record(
                event, "silent", "failed write corrupted prior state"
            )


def run_chaos_campaign(
    seed: int = 0,
    counts: Optional[Dict[str, int]] = None,
    jobs: int = 2,
    workdir: Optional[Union[str, Path]] = None,
) -> ResilienceScorecard:
    """Execute a full seeded chaos plan and return the scorecard.

    ``counts`` maps chaos model -> injections (default: the ≥50-injection
    quick mix).  All artifacts (checkpoints, quarantine records) are
    written under ``workdir`` (a temp dir by default, removed after).
    Kill and hang injections sabotage worker processes, so a plan with
    any of them needs ``jobs >= 2``; at ``jobs == 1`` the executor
    raises :class:`~repro.common.errors.ConfigError` rather than score
    injections that never happened.
    """
    plan = ChaosPlan.generate(seed, counts)
    scorecard = ResilienceScorecard(seed=seed)
    seeds = [seed * 1_000 + i for i in range(_SWEEP_JOBS)]
    needs_reference = any(
        e.model in ("kill", "hang") for e in plan.events
    )
    reference = _reference_results(seeds) if needs_reference else {}
    cleanup = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = cleanup.name
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for event in plan.events:
            if event.model in ("kill", "hang"):
                _run_process_injection(
                    event, reference, seeds, workdir, scorecard, jobs
                )
            elif event.model == "corrupt":
                _run_corrupt_injection(event, workdir, scorecard)
            else:
                _run_io_error_injection(event, workdir, scorecard)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return scorecard
