"""Sweep outcomes, failure records, and checkpoint/resume.

A paper-scale sweep is hours of simulation; one diverging workload or
crashed worker should cost one retry, not the whole run.  This
module holds the records the sweep executor
(:mod:`repro.robustness.supervisor`) produces and persists:

* :class:`FailureRecord` — a job that exhausted its retries, with the
  provenance needed to reproduce it in isolation;
* :class:`SweepOutcome` — results keyed by label, failures, and the
  labels resumed from a checkpoint or rerun as stale;
* :class:`Checkpoint` — after every finished job the completed results
  are written to a JSON checkpoint, each with its cell's key; a rerun
  pointed at the same file skips the jobs completed under the same key
  and reruns the rest (previously *failed* jobs are retried — a resume
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

CHECKPOINT_SCHEMA = 2


@dataclass
class FailureRecord:
    """A job that exhausted its retries, with enough provenance to
    reproduce it in isolation.

    The first four fields are the core.  ``spec`` is what the cell
    computes (:meth:`~repro.robustness.supervisor.SweepJob.spec`: its
    worker function and every argument, so the seed, the engine and the
    whole config) and ``key`` its sha256, the cell's identity in the
    checkpoint; then the worker-side ``traceback`` and, once
    quarantined to disk, the path of the standalone record file.  Keys
    a stored record carries beyond these, such as fields older versions
    wrote, are ignored on load.
    """

    label: str
    attempts: int
    error_type: str
    message: str
    spec: Dict = field(default_factory=dict)
    key: str = ""
    traceback: str = ""
    record_path: str = ""

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "spec": self.spec,
            "key": self.key,
            "traceback": self.traceback,
            "record_path": self.record_path,
        }

    @staticmethod
    def from_dict(payload: Dict) -> "FailureRecord":
        return FailureRecord(
            label=payload["label"],
            attempts=int(payload["attempts"]),
            error_type=payload["error_type"],
            message=payload["message"],
            spec=dict(payload.get("spec", {})),
            key=payload.get("key", ""),
            traceback=payload.get("traceback", ""),
            record_path=payload.get("record_path", ""),
        )


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
    #: labels the checkpoint held from other inputs (another key), rerun
    stale: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures

    def ordered_results(self, labels: Sequence[str]) -> List[object]:
        """Results in the given label order, skipping failed jobs."""
        return [self.results[lab] for lab in labels if lab in self.results]


def _identity(value):
    return value


class Checkpoint:
    """JSON persistence for a sweep in progress.

    The file stores each completed cell under its job label, with the
    cell's key (:meth:`~repro.robustness.supervisor.SweepJob.key`) and
    its result serialized by the caller's ``serialize``, plus the
    failure records::

        {"schema": 2, "kind": "sweep_checkpoint",
         "completed": {label: {"key": <sha256>, "result": <payload>}},
         "failures": [<record>, ...]}

    A stored result is handed back only for the key it was computed
    under, so a resume never reuses a cell computed from other inputs.
    Both hooks default to the identity, for results that are already
    JSON-ready dicts.  The cells' failure records land as standalone
    files in :attr:`quarantine_dir`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        serialize: Callable[[object], Dict] = _identity,
        deserialize: Callable[[Dict], object] = _identity,
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
        :class:`~repro.common.errors.CheckpointCorruptionError` — so
        does a file an older schema wrote, whose cells carry no key.
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

    @property
    def quarantine_dir(self) -> Path:
        """``<checkpoint>.quarantine/``, beside the checkpoint file."""
        return self.path.parent / (self.path.name + ".quarantine")

    def result_for(self, label: str, key: str) -> Optional[object]:
        """``label``'s stored result if the cell ``key`` names computed
        it; ``None`` if none is stored or it came from other inputs."""
        cell = self.completed.get(label)
        if cell is None or cell["key"] != key:
            return None
        return self.deserialize(cell["result"])

    def record_success(self, label: str, key: str, result: object) -> None:
        self.completed[label] = {"key": key, "result": self.serialize(result)}
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
