"""Sweep execution: one executor for every sweep, in-process or supervised.

Every paper sweep is a list of independent cells, each a deterministic
simulation.  Every sweep runs its cells through
:class:`SupervisedSweepExecutor`, which has two modes:

* ``jobs == 1`` runs each job in the calling process
  (:class:`SweepExecutor`, the base class), retrying a job that raises
  with exponential backoff.  The global ``random``/NumPy generators are
  not reseeded, so results are bit-for-bit those of calling the job
  functions directly.  Nothing can kill a hung in-process job, so
  ``deadline_s`` does nothing here; ``sabotage_for`` and ``obs_dir`` act
  inside worker processes and are refused with
  :class:`~repro.common.errors.ConfigError`;
* ``jobs >= 2`` runs up to ``jobs`` concurrent process-per-job slots.
  Each ``multiprocessing.Process`` owns one job attempt and one result
  pipe, so a worker can be killed surgically.  A shared heartbeat cell,
  stamped when the attempt starts, lets the poll loop kill any worker
  silent past ``deadline_s``; a worker that dies without a result (OOM
  kill, segfault, a chaos injection) is detected too.  Kills and
  crashes count as attempts and are rescheduled with the same backoff.

Both modes share one settle path, so the contract does not depend on
``jobs``:

* results, failures, and resumed labels come back in submission order;
* the parent is the only checkpoint writer and records each terminal
  outcome as it settles; the checkpoint JSON has sorted keys, so
  ``jobs`` 1 and N write the same bytes;
* a job failing ``retries + 1`` attempts becomes an enriched
  :class:`~repro.robustness.resilience.FailureRecord` (seed, engine,
  config hash, manifest id, traceback), written as a standalone record
  under ``quarantine_dir``, and the sweep continues;
* progress reaches ``on_event`` and the ``sweep.*`` trace events.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import (
    ConfigError,
    FaultInjectionError,
    SweepExecutionError,
)
from repro.common.rng import DeterministicRng
from repro.robustness import safeio
from repro.robustness.resilience import (
    Checkpoint,
    FailureRecord,
    SweepOutcome,
    format_exception,
)

FAILURE_RECORD_SCHEMA = 1

#: worker-side sabotage spec injected by the chaos layer:
#: ("kill", exit_code) | ("hang", seconds) | ("raise", message)
Sabotage = Optional[tuple]

#: job events mapped onto trace event kinds
_SWEEP_EVENT_KINDS = {
    "ok": "sweep.job_done",
    "failed": "sweep.job_failed",
    "resumed": "sweep.job_resumed",
}


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None`` means all CPUs, floors at 1."""
    if jobs is None:
        return os.cpu_count() or 1
    return max(1, int(jobs))


def derive_job_seed(base_seed: int, label: str) -> int:
    """Deterministic child seed for one job, keyed by its label.

    Uses :meth:`DeterministicRng.fork` (stable crc32 derivation), so the
    seed a job gets depends only on ``(base_seed, label)`` — never on
    worker identity, submission order, or ``PYTHONHASHSEED``.
    """
    return DeterministicRng(base_seed).fork(label).seed


@dataclass(frozen=True)
class SweepJob:
    """One sweep cell: a callable plus its arguments.

    A worker process receives the job with the rest of the parent's
    state, but its result crosses back through a pipe, so results must
    pickle.  Module-level functions keep a job runnable in any mode.
    """

    label: str
    fn: Callable[..., object]
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)
    #: optional provenance stamped onto a FailureRecord if this job is
    #: quarantined (keys: seed, engine, config_sha256, manifest_id) —
    #: see FailureRecord.apply_provenance
    provenance: Dict = field(default_factory=dict)

    def run(self) -> object:
        return self.fn(*self.args, **self.kwargs)


@dataclass
class _Attempt:
    """One attempt's outcome: a result or a flattened failure.

    Workers send these down their pipe; exceptions are flattened to
    strings so the parent never unpickles an arbitrary exception class.
    """

    label: str
    ok: bool
    result: object = None
    attempts: int = 1
    error_type: str = ""
    message: str = ""
    duration_s: float = 0.0
    traceback: str = ""


def quarantine_record_path(
    quarantine_dir: Union[str, Path], label: str
) -> Path:
    """Where one label's quarantine record lives (label made file-safe)."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in label)
    return Path(quarantine_dir) / f"{safe}.failure.json"


def write_quarantine_record(
    record: FailureRecord, quarantine_dir: Union[str, Path]
) -> Path:
    """Persist one quarantined job's full provenance as a standalone,
    crash-safe JSON document; stamps ``record.record_path``."""
    path = quarantine_record_path(quarantine_dir, record.label)
    record.record_path = str(path)
    payload = {
        "schema": FAILURE_RECORD_SCHEMA,
        "kind": "failure_record",
        **record.to_dict(),
    }
    safeio.write_json_atomic(payload, path)
    return path


def load_quarantine_record(path: Union[str, Path]) -> FailureRecord:
    payload = safeio.read_json_verified(
        path, expected_kind="failure_record",
        expected_schema=FAILURE_RECORD_SCHEMA,
    )
    return FailureRecord.from_dict(payload)


def _write_shard_quiet(session, obs_dir, attempt: int, ok: bool) -> None:
    """Persist a worker's obs shard; observability must never fail a
    job that itself succeeded, so errors are swallowed."""
    try:
        from repro.obs.shards import write_shard

        write_shard(session, obs_dir, attempt=attempt, ok=ok)
    except Exception:  # pragma: no cover - defensive
        pass


def _supervised_worker(
    job: SweepJob,
    child_seed: int,
    conn,
    beat,
    sabotage: Sabotage,
    attempt: int = 1,
    obs_dir=None,
) -> None:
    """Worker-process body: one job attempt, result down the pipe.

    No retry loop here — the *supervisor* owns attempts, because a hung
    attempt can only be retried by killing this process.  The heartbeat
    cell is stamped when work starts; a cooperative job may keep
    stamping it via ``repro_heartbeat`` in its kwargs, but the default
    contract is simply "finish within the deadline".

    With ``obs_dir`` set, the attempt runs under an installed
    :class:`~repro.obs.spans.ObsSession`: systems the job constructs
    report kernel phases into it, the attempt runs inside a
    ``job:<label>`` span, and the session lands as a crash-safe shard
    (:mod:`repro.obs.shards`) whether the job succeeds or raises — a
    killed/hung worker simply leaves no shard, which the merge treats
    as "nothing recorded", not an error.
    """
    import random

    random.seed(child_seed)
    try:
        import numpy as _np

        _np.random.seed(child_seed & 0xFFFFFFFF)
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        pass
    beat.value = time.monotonic()
    started = time.perf_counter()
    if sabotage is not None:
        kind, param = sabotage
        if kind == "hang":
            # A stuck worker: alive but silent.  time.sleep models any
            # non-progressing state the supervisor cannot distinguish.
            time.sleep(float(param))
        elif kind == "kill":
            # Die without a word, mid-protocol: no result ever crosses
            # the pipe (models OOM-kill / segfault / power loss).
            conn.close()
            os._exit(int(param))
    session = None
    if obs_dir is not None:
        from repro.obs.spans import ObsSession, install_session

        session = ObsSession(label=job.label)
        session.meta["attempt"] = attempt
        session.meta["provenance"] = dict(job.provenance)
        install_session(session)
    try:
        if sabotage is not None and sabotage[0] == "raise":
            raise FaultInjectionError(str(sabotage[1]))
        if session is not None:
            with session.span(f"job:{job.label}", "sweep"):
                result = job.run()
        else:
            result = job.run()
    except BaseException as exc:  # noqa: BLE001 - flattened for the pipe
        if session is not None:
            _write_shard_quiet(session, obs_dir, attempt, ok=False)
        conn.send(
            _Attempt(
                label=job.label,
                ok=False,
                attempts=1,
                error_type=type(exc).__name__,
                message=str(exc),
                duration_s=time.perf_counter() - started,
                traceback=format_exception(exc),
            )
        )
        conn.close()
        return
    if session is not None:
        _write_shard_quiet(session, obs_dir, attempt, ok=True)
    conn.send(
        _Attempt(
            label=job.label,
            ok=True,
            result=result,
            attempts=1,
            duration_s=time.perf_counter() - started,
        )
    )
    conn.close()


@dataclass
class _Slot:
    """One running worker: its process, pipe, heartbeat, and bookkeeping."""

    job: SweepJob
    attempt: int
    process: mp.Process
    conn: object
    beat: object
    started: float


@dataclass
class SupervisionReport:
    """What the supervisor did beyond plain execution (for scorecards)."""

    hangs_killed: int = 0
    crashes_detected: int = 0
    reschedules: int = 0
    quarantined: List[str] = field(default_factory=list)
    record_paths: Dict[str, str] = field(default_factory=dict)


class SweepExecutor:
    """The in-process loop and the settle path every mode shares.

    Sweeps construct :class:`SupervisedSweepExecutor`, which runs this
    loop at ``jobs == 1`` and process slots otherwise (see the module
    docstring for the contract).  Options:

    * ``retries`` — re-tries after the first attempt, so a job runs at
      most ``retries + 1`` times; the n-th retry waits
      ``backoff_s * 2**(n-1)`` seconds first;
    * ``checkpoint`` — completed labels are loaded instead of re-run,
      and every terminal outcome is recorded as it settles;
    * ``on_event(label, event)`` — progress callback with events
      ``"resumed" | "ok" | "retry" | "failed"``;
    * ``tracer`` — receives ``sweep.begin/job_done/job_failed/
      job_resumed/heartbeat/end`` events from the parent process;
    * ``quarantine_dir`` — where exhausted jobs' failure records are
      written; ``None`` keeps records only in the outcome/checkpoint;
    * ``manifest_id`` — the sweep's run-manifest fingerprint, stamped
      onto every failure record for cross-subsystem traceability.

    After :meth:`run`, :attr:`report` lists the quarantined jobs (and,
    with worker slots, the reschedules, kills, and crashes).
    """

    #: worker count (the in-process loop is one)
    jobs = 1

    def __init__(
        self,
        *,
        retries: int = 2,
        backoff_s: float = 0.5,
        checkpoint: Optional[Checkpoint] = None,
        on_event: Optional[Callable[[str, str], None]] = None,
        tracer=None,
        quarantine_dir: Optional[Union[str, Path]] = None,
        manifest_id: str = "",
    ) -> None:
        self.retries = retries
        self.backoff_s = backoff_s
        self.checkpoint = checkpoint
        self.on_event = on_event
        self.tracer = tracer
        self.quarantine_dir = (
            Path(quarantine_dir) if quarantine_dir is not None else None
        )
        self.manifest_id = manifest_id
        self.report = SupervisionReport()
        self._total = 0
        self._completed = 0
        self._failed = 0
        self._results: Dict[str, object] = {}
        self._failures: Dict[str, FailureRecord] = {}

    def _notify(self, label: str, event: str) -> None:
        if self.on_event is not None:
            self.on_event(label, event)

    def _emit(self, kind: str, **args: object) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(kind, src="sweep", args=args)

    def _job_event(self, label: str, event: str, **extra: object) -> None:
        """Fan one job completion out to the callback and the tracer."""
        self._notify(label, event)
        kind = _SWEEP_EVENT_KINDS.get(event)
        if kind is None:
            return
        self._completed += 1
        if event == "failed":
            self._failed += 1
        self._emit(kind, label=label, **extra)
        self._emit(
            "sweep.heartbeat",
            done=self._completed,
            total=self._total,
            failed=self._failed,
        )

    def _backoff(self, attempt: int) -> float:
        """Seconds to wait before retrying after failed ``attempt``."""
        return self.backoff_s * 2 ** (attempt - 1)

    def run(self, sweep_jobs: Sequence[SweepJob]) -> SweepOutcome:
        """Run every job; never raises for job failures (they become
        :class:`FailureRecord` entries).  ``KeyboardInterrupt`` is not
        caught: the operator wins, and the checkpoint keeps progress."""
        labels = [job.label for job in sweep_jobs]
        if len(set(labels)) != len(labels):
            raise ValueError("sweep job labels must be unique")
        self.report = SupervisionReport()
        self._total = len(sweep_jobs)
        self._completed = 0
        self._failed = 0
        self._results = {}
        self._failures = {}
        self._emit("sweep.begin", n_jobs=len(sweep_jobs), workers=self.jobs)
        resumed: Dict[str, object] = {}
        if self.checkpoint is not None:
            self.checkpoint.load()
            for job in sweep_jobs:
                prior = self.checkpoint.result_for(job.label)
                if prior is not None:
                    resumed[job.label] = prior
        self._run_jobs([job for job in sweep_jobs if job.label not in resumed])
        outcome = SweepOutcome()
        for label in labels:
            if label in resumed:
                outcome.results[label] = resumed[label]
                outcome.resumed.append(label)
                self._job_event(label, "resumed")
            elif label in self._results:
                outcome.results[label] = self._results[label]
            else:
                outcome.failures.append(self._failures[label])
        self._emit(
            "sweep.end",
            ok=len(outcome.results),
            failed=len(outcome.failures),
            resumed=len(outcome.resumed),
        )
        return outcome

    def map(self, sweep_jobs: Sequence[SweepJob]) -> List[object]:
        """Run jobs and return results in submission order, raising
        :class:`SweepExecutionError` if any job failed (after every job
        has finished, so one bad cell cannot abort its siblings)."""
        outcome = self.run(sweep_jobs)
        if outcome.failures:
            first = outcome.failures[0]
            raise SweepExecutionError(
                f"{len(outcome.failures)} of {len(sweep_jobs)} sweep jobs "
                f"failed; first: {first.label}: {first.error_type}: "
                f"{first.message}"
            )
        return outcome.ordered_results([job.label for job in sweep_jobs])

    def _run_jobs(self, pending: Sequence[SweepJob]) -> None:
        """Run each job in this process, retrying with backoff."""
        for job in pending:
            for attempt in range(1, self.retries + 2):
                if attempt > 1:
                    time.sleep(self._backoff(attempt - 1))
                    self._notify(job.label, "retry")
                started = time.perf_counter()
                try:
                    done = _Attempt(job.label, ok=True, result=job.run())
                except Exception as exc:  # noqa: BLE001 - recorded, not raised
                    done = _Attempt(
                        job.label,
                        ok=False,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback=format_exception(exc),
                    )
                done.attempts = attempt
                done.duration_s = time.perf_counter() - started
                if done.ok:
                    break
            self._settle(job, done)

    def _settle(self, job: SweepJob, attempt: _Attempt) -> None:
        """Record one job's terminal outcome: checkpoint, quarantine
        record, events.  Every mode ends a job here."""
        label = job.label
        if attempt.ok:
            self._results[label] = attempt.result
            if self.checkpoint is not None:
                self.checkpoint.record_success(label, attempt.result)
            self._job_event(
                label,
                "ok",
                attempts=attempt.attempts,
                duration_s=round(attempt.duration_s, 6),
            )
            return
        record = FailureRecord(
            label=label,
            attempts=attempt.attempts,
            error_type=attempt.error_type,
            message=attempt.message,
            traceback=attempt.traceback,
        ).apply_provenance(job.provenance)
        record.manifest_id = record.manifest_id or self.manifest_id
        self._failures[label] = record
        self.report.quarantined.append(label)
        if self.quarantine_dir is not None:
            path = write_quarantine_record(record, self.quarantine_dir)
            self.report.record_paths[label] = str(path)
        if self.checkpoint is not None:
            self.checkpoint.record_failure(record)
        self._job_event(
            label,
            "failed",
            attempts=attempt.attempts,
            error_type=attempt.error_type,
            duration_s=round(attempt.duration_s, 6),
        )


class SupervisedSweepExecutor(SweepExecutor):
    """The sweep executor: in-process at ``jobs == 1``, supervised
    worker slots otherwise.

    Options beyond :class:`SweepExecutor`'s:

    * ``jobs`` — concurrent worker slots (``None`` = one per CPU);
    * ``deadline_s`` — per-attempt wall-clock lease.  A worker whose
      heartbeat is older than this is killed and the job rescheduled
      (counting as one attempt).  ``None`` disables hang detection
      (crash detection stays on).  No effect at ``jobs == 1``;
    * ``poll_s`` — supervisor loop cadence (also the heartbeat event
      cadence while jobs are in flight);
    * ``base_seed`` — each worker reseeds the global ``random``/NumPy
      generators from :func:`derive_job_seed` of it and its label, so
      even code reaching for global randomness stays reproducible;
    * ``sabotage_for`` — chaos seam: maps ``(label, attempt)`` to a
      worker sabotage spec; never set in production.  Needs
      ``jobs >= 2``;
    * ``obs_dir`` — telemetry directory (:mod:`repro.obs.shards`):
      workers write span/counter shards here, the poll loop drops
      heartbeats for ``repro obs top``, and the merged Perfetto trace +
      aggregate counters are written when the sweep finishes.  Needs
      ``jobs >= 2``.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        retries: int = 2,
        backoff_s: float = 0.5,
        deadline_s: Optional[float] = None,
        poll_s: float = 0.02,
        checkpoint: Optional[Checkpoint] = None,
        on_event: Optional[Callable[[str, str], None]] = None,
        base_seed: int = 0,
        tracer=None,
        quarantine_dir: Optional[Union[str, Path]] = None,
        manifest_id: str = "",
        sabotage_for: Optional[Callable[[str, int], Sabotage]] = None,
        obs_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        super().__init__(
            retries=retries,
            backoff_s=backoff_s,
            checkpoint=checkpoint,
            on_event=on_event,
            tracer=tracer,
            quarantine_dir=quarantine_dir,
            manifest_id=manifest_id,
        )
        self.jobs = resolve_jobs(jobs)
        for name, value in (("sabotage_for", sabotage_for), ("obs_dir", obs_dir)):
            if self.jobs == 1 and value is not None:
                raise ConfigError(
                    f"{name} acts inside worker processes and needs "
                    f"jobs >= 2 (--jobs 2 or more); got jobs=1"
                )
        self.deadline_s = deadline_s
        self.poll_s = poll_s
        self.base_seed = base_seed
        self.sabotage_for = sabotage_for
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None

    def _run_jobs(self, pending: Sequence[SweepJob]) -> None:
        if self.jobs == 1:
            super()._run_jobs(pending)
            return
        ctx = mp.get_context()
        queue = deque((job, 1) for job in pending)
        slots: List[_Slot] = []
        backoff_until: Dict[str, float] = {}
        # Supervisor-side trace slices (wall-clock ns): one per attempt
        # window, merged as the pid-1 track of the combined trace.
        sup_spans: List[Dict] = []
        launch_wall: Dict[str, int] = {}
        hb_next = 0.0

        def write_heartbeat(status: str) -> None:
            if self.obs_dir is None:
                return
            from repro.obs import shards as obs_shards

            now_mono = time.monotonic()
            obs_shards.write_heartbeat(
                self.obs_dir,
                status=status,
                done=self._completed,
                total=self._total,
                failed=self._failed,
                in_flight=[
                    {
                        "label": slot.job.label,
                        "attempt": slot.attempt,
                        "age_s": round(now_mono - slot.started, 3),
                        "pid": slot.process.pid,
                    }
                    for slot in slots
                ],
                quarantined=self.report.quarantined,
            )

        def launch(job: SweepJob, attempt: int) -> None:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            beat = ctx.Value("d", time.monotonic())
            sabotage = (
                self.sabotage_for(job.label, attempt)
                if self.sabotage_for is not None
                else None
            )
            launch_wall[job.label] = time.time_ns()
            proc = ctx.Process(
                target=_supervised_worker,
                args=(
                    job,
                    derive_job_seed(self.base_seed, job.label),
                    child_conn,
                    beat,
                    sabotage,
                    attempt,
                    str(self.obs_dir) if self.obs_dir is not None else None,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            slots.append(
                _Slot(
                    job=job,
                    attempt=attempt,
                    process=proc,
                    conn=parent_conn,
                    beat=beat,
                    started=time.monotonic(),
                )
            )

        def settle(slot: _Slot, attempt: _Attempt) -> None:
            """A slot's attempt ended: reschedule it or settle the job."""
            label = slot.job.label
            if self.obs_dir is not None:
                start_ns = launch_wall.get(label, time.time_ns())
                sup_spans.append(
                    {
                        "name": f"job:{label}",
                        "cat": "sweep",
                        "ts": start_ns,
                        "dur_ns": time.time_ns() - start_ns,
                        "args": {
                            "attempt": slot.attempt,
                            "status": "ok"
                            if attempt.ok
                            else attempt.error_type or "failed",
                        },
                    }
                )
            if not attempt.ok and slot.attempt <= self.retries:
                # Reschedule (crash, hang, or raise) with backoff.
                self.report.reschedules += 1
                backoff_until[label] = time.monotonic() + self._backoff(
                    slot.attempt
                )
                queue.append((slot.job, slot.attempt + 1))
                self._notify(label, "retry")
                return
            self._settle(slot.job, attempt)

        def reap(slot: _Slot) -> Optional[_Attempt]:
            """Poll one slot; a terminal outcome or None if still running."""
            if slot.conn.poll():
                try:
                    received = slot.conn.recv()
                except (EOFError, OSError):
                    received = None
                if received is not None:
                    slot.process.join()
                    slot.conn.close()
                    received.attempts = slot.attempt
                    return received
            if not slot.process.is_alive():
                slot.process.join()
                # Drain once more: the result may have been flushed into
                # the pipe between the poll above and the death check.
                if slot.conn.poll():
                    try:
                        received = slot.conn.recv()
                    except (EOFError, OSError):
                        received = None
                    if received is not None:
                        slot.conn.close()
                        received.attempts = slot.attempt
                        return received
                # Died without delivering: crash (chaos kill, OOM, ...).
                slot.conn.close()
                self.report.crashes_detected += 1
                return _Attempt(
                    label=slot.job.label,
                    ok=False,
                    attempts=slot.attempt,
                    error_type="WorkerCrashError",
                    message=(
                        f"worker exited with code "
                        f"{slot.process.exitcode} before delivering a "
                        f"result"
                    ),
                    duration_s=time.monotonic() - slot.started,
                )
            last_beat = max(slot.beat.value, slot.started)
            if (
                self.deadline_s is not None
                and time.monotonic() - last_beat > self.deadline_s
            ):
                # Hung: alive but past its lease.  Kill and account.
                slot.process.kill()
                slot.process.join()
                slot.conn.close()
                self.report.hangs_killed += 1
                return _Attempt(
                    label=slot.job.label,
                    ok=False,
                    attempts=slot.attempt,
                    error_type="WorkerHungError",
                    message=(
                        f"no heartbeat for {self.deadline_s}s; worker "
                        f"killed by supervisor"
                    ),
                    duration_s=time.monotonic() - slot.started,
                )
            return None

        try:
            write_heartbeat("running")
            while queue or slots:
                now = time.monotonic()
                if self.obs_dir is not None and now >= hb_next:
                    # Throttled: the heartbeat file is for human-cadence
                    # consumers (repro obs top), not the poll loop.
                    write_heartbeat("running")
                    hb_next = now + max(self.poll_s, 0.5)
                while queue and len(slots) < self.jobs:
                    job, attempt = queue[0]
                    wait = backoff_until.get(job.label, 0.0)
                    if wait > now and not slots:
                        # Nothing running and the head job is backing
                        # off: sleep it out rather than spin.
                        time.sleep(min(self.poll_s, wait - now))
                        now = time.monotonic()
                    if backoff_until.get(job.label, 0.0) > now:
                        break
                    queue.popleft()
                    launch(job, attempt)
                progressed = False
                for slot in list(slots):
                    outcome = reap(slot)
                    if outcome is not None:
                        slots.remove(slot)
                        settle(slot, outcome)
                        progressed = True
                if slots and not progressed:
                    self._emit(
                        "sweep.heartbeat",
                        done=self._completed,
                        total=self._total,
                        failed=self._failed,
                        in_flight=len(slots),
                    )
                    time.sleep(self.poll_s)
        finally:
            for slot in slots:  # pragma: no cover - only on raise/interrupt
                slot.process.kill()
                slot.process.join()

        if self.obs_dir is not None:
            write_heartbeat("done")
            try:
                from repro.obs.shards import write_merged

                write_merged(self.obs_dir, sup_spans)
            except Exception:  # pragma: no cover - obs must not fail a sweep
                pass
