"""Sweep outcomes, failure records, and checkpoint/resume.

A paper-scale sweep is hours of simulation; one diverging workload or
wall-clock overrun should cost one retry, not the whole run.  This
module holds the records the sweep executor
(:mod:`repro.robustness.supervisor`) produces and persists:

* :class:`FailureRecord` — a job that exhausted its retries, with the
  provenance needed to reproduce it in isolation;
* :class:`SweepOutcome` — results keyed by label, failures, and the
  labels resumed from a checkpoint;
* :class:`Checkpoint` — after every finished job the completed results
  are written to a JSON checkpoint; a rerun pointed at the same file
  skips completed jobs (previously *failed* jobs are retried — a resume
  is exactly a second chance for them).  Checkpoint files are written
  crash-safely via :mod:`repro.robustness.safeio` (atomic rename,
  content checksum, rotated ``.bak``), so a kill mid-write can never
  poison a later ``--resume`` — a corrupt primary falls back to the
  last-good backup automatically.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import repro.robustness.safeio as safeio

CHECKPOINT_SCHEMA = 1


@dataclass
class FailureRecord:
    """A job that exhausted its retries, with enough provenance to
    reproduce it in isolation.

    The first four fields are the core; the rest traces the
    quarantined job across subsystems: the simulation ``seed``, the
    ``engine`` it ran under, the sha256 of the full config, the obs
    run-manifest fingerprint of the sweep that quarantined it, the
    worker-side ``traceback``, and — once quarantined to disk — the
    path of the standalone record file.  Keys a stored record carries
    beyond these, such as fields older versions wrote, are ignored on
    load.
    """

    label: str
    attempts: int
    error_type: str
    message: str
    seed: Optional[int] = None
    engine: str = ""
    config_sha256: str = ""
    manifest_id: str = ""
    traceback: str = ""
    record_path: str = ""

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "seed": self.seed,
            "engine": self.engine,
            "config_sha256": self.config_sha256,
            "manifest_id": self.manifest_id,
            "traceback": self.traceback,
            "record_path": self.record_path,
        }

    @staticmethod
    def from_dict(payload: Dict) -> "FailureRecord":
        seed = payload.get("seed")
        return FailureRecord(
            label=payload["label"],
            attempts=int(payload["attempts"]),
            error_type=payload["error_type"],
            message=payload["message"],
            seed=None if seed is None else int(seed),
            engine=payload.get("engine", ""),
            config_sha256=payload.get("config_sha256", ""),
            manifest_id=payload.get("manifest_id", ""),
            traceback=payload.get("traceback", ""),
            record_path=payload.get("record_path", ""),
        )

    def apply_provenance(self, provenance: Dict) -> "FailureRecord":
        """Fill the provenance fields from a job's provenance dict
        (unknown keys are ignored; existing non-default values win)."""
        if not provenance:
            return self
        if self.seed is None and provenance.get("seed") is not None:
            self.seed = int(provenance["seed"])
        if not self.engine:
            self.engine = str(provenance.get("engine", ""))
        if not self.config_sha256:
            self.config_sha256 = str(provenance.get("config_sha256", ""))
        if not self.manifest_id:
            self.manifest_id = str(provenance.get("manifest_id", ""))
        return self


def format_exception(error: BaseException) -> str:
    """The traceback a failure record carries (worker- or in-process)."""
    return "".join(
        _traceback.format_exception(type(error), error, error.__traceback__)
    )


@dataclass
class SweepOutcome:
    """What a resilient sweep produced: results keyed by job label, plus
    the failures, in job order."""

    results: Dict[str, object] = field(default_factory=dict)
    failures: List[FailureRecord] = field(default_factory=list)
    #: labels that were loaded from a checkpoint rather than re-run
    resumed: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures

    def ordered_results(self, labels: Sequence[str]) -> List[object]:
        """Results in the given label order, skipping failed jobs."""
        return [self.results[lab] for lab in labels if lab in self.results]


class Checkpoint:
    """JSON persistence for a sweep in progress.

    The file stores serialized results (via the caller's ``serialize``)
    keyed by job label, plus the failure records::

        {"schema": 1, "kind": "sweep_checkpoint",
         "completed": {label: <payload>}, "failures": [<record>, ...]}
    """

    def __init__(
        self,
        path: Union[str, Path],
        serialize: Callable[[object], Dict],
        deserialize: Callable[[Dict], object],
    ) -> None:
        self.path = Path(path)
        self.serialize = serialize
        self.deserialize = deserialize
        self.completed: Dict[str, Dict] = {}
        self.failures: List[FailureRecord] = []
        #: True when the last load had to fall back to the ``.bak``
        #: (i.e. the primary file was corrupt or missing mid-publish)
        self.recovered_from_backup = False

    def load(self) -> None:
        """Read a prior run's progress; a missing file is a fresh start.

        Corruption (truncation, checksum mismatch, a stale schema
        version) is detected and silently healed from the rotated
        last-good backup; only both-copies-corrupt raises
        :class:`~repro.common.errors.CheckpointCorruptionError`.
        """
        payload, self.recovered_from_backup = safeio.read_json_recovering(
            self.path,
            expected_kind="sweep_checkpoint",
            expected_schema=CHECKPOINT_SCHEMA,
        )
        if payload is None:
            return
        self.completed = dict(payload.get("completed", {}))
        self.failures = [
            FailureRecord.from_dict(f) for f in payload.get("failures", [])
        ]

    def result_for(self, label: str) -> Optional[object]:
        payload = self.completed.get(label)
        return None if payload is None else self.deserialize(payload)

    def record_success(self, label: str, result: object) -> None:
        self.completed[label] = self.serialize(result)
        # A success supersedes any failure recorded for the label by an
        # earlier (resumed) run.
        self.failures = [f for f in self.failures if f.label != label]
        self._write()

    def record_failure(self, record: FailureRecord) -> None:
        self.failures = [f for f in self.failures if f.label != record.label]
        self.failures.append(record)
        self._write()

    def _write(self) -> None:
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "kind": "sweep_checkpoint",
            "completed": self.completed,
            "failures": [f.to_dict() for f in self.failures],
        }
        safeio.write_json_atomic(payload, self.path)
